"""Tests for the saturation helpers ``regular.explore``,
``regular.least_model`` and ``regular.min_witnesses``: each construction
built on them gives exactly what the round-robin ``while changed`` loop it
replaced gave.  Those loops are kept below as reference implementations."""

import ast
import itertools
import pathlib
import random

import pytest

from artifact import constructions, regular, transducer
from artifact.constructions import (
    _marked_product, _product_automaton, _stay_closure_groups,
    _distinct_tests, domain_automaton, pruning_image,
)
from artifact.core import RankedAlphabet, Tree, leaf, marked_name
from artifact.fixtures import (
    OUT3, SIGMA_E, identity_relabeler, left_projection, m_exp,
    query_transducer, random_automaton, random_transducer,
)
from artifact.regular import (
    AutomatonTest, RegularTreeGrammar, ResourceError, SubTest,
    automaton_to_grammar, decide, explore, grammar_chain_closure,
    grammar_finite, grammar_to_automaton, least_model, min_witnesses,
    to_automaton_test, _flatten_grammar, _realizable, _rhs_nonterminals,
    _rhs_productive,
)

KINDS = ("local", "sub", "lookaround", "topdown", "relabeling", "pruning")
FIXTURES = (m_exp, identity_relabeler, left_projection, query_transducer)


# ---------------------------------------------------------------------------
# Reference implementations: the loops the helpers replaced

def _explore_by_rounds(alphabet, step, ceiling, what):
    """The round-robin loop that ``_product_automaton``,
    ``domain_automaton`` and ``pruning_image`` each ran: every round steps
    each combo over the states known at its start that no earlier round
    stepped."""
    states, delta, stepped = set(), {}, set()
    changed = True
    while changed:
        changed = False
        known = sorted(states, key=repr)
        for sym in alphabet:
            for combo in itertools.product(known, repeat=alphabet.rank(sym)):
                if (sym, combo) in stepped:
                    continue
                stepped.add((sym, combo))
                tgt = step(sym, combo)
                if tgt is None:
                    continue
                delta[(sym, combo)] = tgt
                if tgt not in states:
                    states.add(tgt)
                    changed = True
                    if len(states) > ceiling:
                        raise ResourceError(what)
    return states, delta


def _joint_nonempty_by_rounds(auts):
    """The frontier loop ``transducer._joint_nonempty`` ran, stopping at
    the first tuple that is final in every automaton."""
    alphabet = auts[0].alphabet
    reach = set()
    fresh = []
    hit = []

    def record(sym, combo):
        tup = tuple(a.delta[(sym, tuple(c[i] for c in combo))]
                    for i, a in enumerate(auts))
        if tup not in reach:
            reach.add(tup)
            fresh.append(tup)
            if all(p in a.finals for p, a in zip(tup, auts)):
                hit.append(tup)

    for sym in alphabet.symbols:
        if alphabet.rank(sym) == 0:
            record(sym, ())
    old = []
    while fresh and not hit:
        frontier, fresh = fresh, []
        known = old + frontier
        for sym in alphabet.symbols:
            rank = alphabet.rank(sym)
            if rank == 0:
                continue
            for i in range(rank):
                for combo in itertools.product(
                        *([old] * i + [frontier] + [known] * (rank - 1 - i))):
                    record(sym, combo)
        old = known
    return bool(hit)


def _marked_pools_by_rounds(pdelta, sink, base):
    """The states of the marked product reachable with no mark (P0) and
    with exactly one mark (P1), as ``_marked_product`` computed them."""
    p0 = set()
    p1 = set()
    changed = True
    while changed:
        changed = False
        for sym in base:
            rank = base.rank(sym)
            mk0 = marked_name(sym, 0)
            mk1 = marked_name(sym, 1)
            for combo in itertools.product(sorted(p0, key=repr),
                                           repeat=rank):
                for tgt, pool in ((pdelta[(mk0, combo)], p0),
                                  (pdelta[(mk1, combo)], p1)):
                    if tgt != sink and tgt not in pool:
                        pool.add(tgt)
                        changed = True
            for i in range(rank):
                for combo in itertools.product(
                        *[sorted(p1 if k == i else p0, key=repr)
                          for k in range(rank)]):
                    tgt = pdelta[(mk0, combo)]
                    if tgt != sink and tgt not in p1:
                        p1.add(tgt)
                        changed = True
    return p0, p1


def _realizable_by_rounds(aut):
    witness = {}
    changed = True
    while changed:
        changed = False
        for (sym, combo), p in aut.delta.items():
            if all(q in witness for q in combo):
                cand = Tree(sym, [witness[q] for q in combo])
                if p not in witness or cand < witness[p]:
                    witness[p] = cand
                    changed = True
    return witness


def _coreachable_by_rounds(aut, realizable):
    co = set(aut.finals)
    changed = True
    while changed:
        changed = False
        for (sym, combo), p in aut.delta.items():
            if p in co and all(q in realizable for q in combo):
                for q in combo:
                    if q not in co:
                        co.add(q)
                        changed = True
    return co


def _grammar_min_witness_by_rounds(g):
    """The least tree of each nonterminal, as ``uniformize`` computed it
    on the unflattened grammar."""
    wit = {}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            t = _instantiate_min(rhs, g, wit)
            if t is not None and (lhs not in wit or t < wit[lhs]):
                wit[lhs] = t
                changed = True
    return wit


def _instantiate_min(rhs, g, wit):
    if g.is_nonterminal(rhs.label):
        return wit.get(rhs.label)
    kids = [_instantiate_min(c, g, wit) for c in rhs.children]
    if any(k is None for k in kids):
        return None
    return Tree(rhs.label, kids)


def _chain_closure_by_rounds(g):
    chain = {nt: {nt} for nt in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            if g.is_nonterminal(rhs.label):
                for src, reach in chain.items():
                    if lhs in reach and rhs.label not in reach:
                        reach.add(rhs.label)
                        changed = True
    return chain


def _grammar_finite_by_rounds(g):
    prod = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            if lhs not in prod and _rhs_productive(rhs, g, prod):
                prod.add(lhs)
                changed = True
    reach = set(g.initials)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            if lhs in reach:
                for nt in _rhs_nonterminals(rhs, g):
                    if nt not in reach:
                        reach.add(nt)
                        changed = True
    useful = prod & reach
    edges = {}
    for lhs, rhs in g.rules:
        if lhs not in useful:
            continue
        nts = [nt for nt in _rhs_nonterminals(rhs, g) if nt in useful]
        if g.is_nonterminal(rhs.label):
            for nt in nts:
                edges.setdefault(lhs, set()).add((nt, 0))
        elif _rhs_productive(rhs, g, prod):
            for nt in nts:
                edges.setdefault(lhs, set()).add((nt, 1))
    for start in useful:
        seen = set()
        frontier = {(nt, w) for nt, w in edges.get(start, ())}
        while frontier:
            if (start, 1) in frontier:
                return False
            nxt = set()
            for nt, w in frontier:
                if (nt, w) in seen:
                    continue
                seen.add((nt, w))
                for nt2, w2 in edges.get(nt, ()):
                    nxt.add((nt2, max(w, w2)))
            frontier = nxt - seen
    return True


# ---------------------------------------------------------------------------
# Corpora

def _machines(kinds=KINDS, n=30):
    """The fixtures, then n seeded machines per kind, alternating
    deterministic and nondeterministic ones.  One test automaton per
    machine keeps the domain automata small: with two, some of them take
    seconds each."""
    ms = [f() for f in FIXTURES]
    for kind in kinds:
        ms += [random_transducer(seed, kind=kind, deterministic=seed % 2 == 0,
                                 max_tests=1)
               for seed in range(n)]
    return ms


def _random_rhs(rng, nts, depth):
    label = rng.choice(["e", "sigma", "sigma"] + nts if depth else
                       ["e"] + nts)
    if label == "sigma":
        return Tree("sigma", [_random_rhs(rng, nts, depth - 1)
                              for _ in range(2)])
    return leaf(label)


def _random_grammars(n, seed="grammars"):
    """Grammars with chain rules, nested right-hand sides, unproductive
    and unreachable nonterminals."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        nts = ["S", "A", "B", "C"][:rng.randint(1, 4)]
        rules = [(nt, _random_rhs(rng, nts, 2)) for nt in nts
                 for _ in range(rng.randint(0, 3))]
        out.append(RegularTreeGrammar(nts, SIGMA_E, ["S"], rules))
    return out


def _closure_grammars(n=30):
    """The stay-closure grammars that ``stay_free`` and ``uniformize``
    build, one per group and rule state, for n machines per kind."""
    out = []
    for kind in ("local", "topdown"):
        for seed in range(n):
            M = random_transducer(seed, kind=kind, deterministic=False)
            groups, _, terminals = _stay_closure_groups(M)
            for pairs in groups.values():
                nts, grules = constructions._closure_grammar(pairs)
                for q, _ in pairs:
                    out.append(RegularTreeGrammar(nts, terminals, {("S", q)},
                                                  grules))
    return out


def _outcome(fn):
    try:
        return "ok", fn()
    except ResourceError:
        return "ResourceError", None


def _by_rounds(monkeypatch, fn):
    """fn() with ``explore`` as before, then with the round-robin loop."""
    new = _outcome(fn)
    with monkeypatch.context() as m:
        m.setattr(regular, "explore", _explore_by_rounds)
        m.setattr(constructions, "explore", _explore_by_rounds)
        old = _outcome(fn)
    return new, old


def _assert_same_automaton(A, B):
    assert A.states == B.states
    assert A.finals == B.finals
    assert A.delta == B.delta


def _assert_same(new, old):
    assert new[0] == old[0]
    if new[0] == "ok":
        _assert_same_automaton(new[1], old[1])


# ---------------------------------------------------------------------------
# explore

def test_explore_steps_each_combo_once():
    alphabet = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})
    seen = []

    def step(sym, combo):
        seen.append((sym, combo))
        if sym == "b":
            return None
        return min(4, sum(combo) + 1)

    states, delta = explore(alphabet, step, 10, "test")
    assert states == {1, 2, 3, 4}
    assert len(seen) == len(set(seen))
    # every combo over the reached states, and only those, was stepped
    assert set(seen) == {(s, c) for s in alphabet
                         for c in itertools.product(sorted(states),
                                                    repeat=alphabet.rank(s))}
    assert ("b", ()) not in delta
    assert len(delta) == len(seen) - 1


def test_explore_ceiling_names_what_and_count():
    alphabet = RankedAlphabet({"g": 1, "a": 0})
    with pytest.raises(ResourceError,
                       match=r"^counter: 4 states exceed the ceiling of 3$"):
        explore(alphabet, lambda sym, combo: sum(combo) + 1, 3, "counter")


def test_grammar_to_automaton_matches_round_robin(monkeypatch):
    grammars = _random_grammars(60)
    rng = random.Random("g2a")
    grammars += [automaton_to_grammar(random_automaton(rng, SIGMA_E))
                 for _ in range(30)]
    for g in grammars:
        new, old = _by_rounds(monkeypatch, lambda: grammar_to_automaton(g))
        _assert_same(new, old)


def test_grammar_to_automaton_ceiling_is_hit_as_before(monkeypatch):
    for g in _random_grammars(30, "ceiling"):
        n = len(grammar_to_automaton(g).states)
        for c in range(n + 1):
            new, old = _by_rounds(
                monkeypatch, lambda: grammar_to_automaton(g, ceiling=c))
            assert new[0] == old[0] == ("ok" if c >= n else "ResourceError")


def test_product_and_marked_product_match_round_robin(monkeypatch):
    count = 0
    for M in _machines(("sub", "lookaround", "topdown", "relabeling",
                        "pruning")):
        tests = _distinct_tests(M)
        if not tests or not all(isinstance(t, (SubTest, AutomatonTest))
                                for t in tests):
            continue
        count += 1
        base = M.input_alphabet
        auts = [to_automaton_test(t, base).aut for t in tests]
        new, old = _by_rounds(monkeypatch,
                              lambda: _product_automaton(auts))
        assert new == old
        new, old = _by_rounds(monkeypatch,
                              lambda: _marked_product(tests, base))
        assert new[0] == old[0] == "ok"
        _, pdelta, sink, p0, p1, proj = new[1]
        assert (set(p0), set(p1)) == _marked_pools_by_rounds(pdelta, sink,
                                                             base)
        assert new[1][1:5] == old[1][1:5]
        _assert_same_automaton(proj, old[1][5])
    assert count >= 60


def test_domain_automaton_matches_round_robin(monkeypatch):
    for M in _machines():
        new, old = _by_rounds(
            monkeypatch, lambda: domain_automaton(M, state_ceiling=400))
        _assert_same(new, old)


def test_domain_automaton_ceiling_is_hit_as_before(monkeypatch):
    for M in _machines(("topdown",), 10):
        n = len(domain_automaton(M).states)
        for c in (n - 1, n):
            new, old = _by_rounds(
                monkeypatch, lambda: domain_automaton(M, state_ceiling=c))
            assert new[0] == old[0] == ("ok" if c >= n else "ResourceError")


def test_pruning_image_matches_round_robin(monkeypatch):
    machines = [identity_relabeler(), left_projection()]
    machines += [random_transducer(seed, kind="pruning",
                                   deterministic=seed % 2 == 0,
                                   alphabet=OUT3, output=OUT3)
                 for seed in range(30)]
    for M in machines:
        new, old = _by_rounds(monkeypatch, lambda: pruning_image(M))
        _assert_same(new, old)


# ---------------------------------------------------------------------------
# least_model

def test_least_model_facts_chains_and_cycles():
    clauses = [("a", ()), ("b", ("a",)), ("c", ("a", "b", "a")),
               ("d", ("c", "e")), ("e", ("d",)), ("f", ("f",))]
    assert least_model(clauses) == {"a", "b", "c"}
    assert least_model(clauses + [("e", ("b",))]) == set("abcde")
    assert least_model([]) == set()


def _automata():
    """Random total automata, domain automata and pruning images."""
    rng = random.Random("decide")
    auts = [random_automaton(rng, SIGMA_E) for _ in range(60)]
    for M in _machines(("topdown", "sub"), 15):
        auts.append(domain_automaton(M))
    for seed in range(15):
        auts.append(pruning_image(random_transducer(
            seed, kind="pruning", deterministic=False, alphabet=OUT3,
            output=OUT3)))
    return auts


def test_decide_matches_round_robin(monkeypatch):
    for A in _automata():
        real = _realizable(A)
        assert real == _realizable_by_rounds(A)
        assert regular._coreachable(A, real) == \
            _coreachable_by_rounds(A, real)
        new = decide(A)
        with monkeypatch.context() as m:
            m.setattr(regular, "_realizable", _realizable_by_rounds)
            m.setattr(regular, "_coreachable", _coreachable_by_rounds)
            assert decide(A) == new


def test_grammar_closures_match_round_robin():
    grammars = _random_grammars(200) + _closure_grammars()
    finite = set()
    for g in grammars:
        assert grammar_chain_closure(g) == _chain_closure_by_rounds(g)
        assert grammar_finite(g) == _grammar_finite_by_rounds(g)
        finite.add(grammar_finite(g))
        wit = min_witnesses(_flatten_grammar(g))
        assert {nt: t for nt, t in wit.items() if nt in g.nonterminals} \
            == _grammar_min_witness_by_rounds(g)
    assert finite == {True, False}


# ---------------------------------------------------------------------------
# Ceilings and the loops that remain

def test_resource_errors_name_ceiling_and_count():
    M = query_transducer()
    n = len(domain_automaton(M).states)
    with pytest.raises(ResourceError,
                       match=r"^domain automaton: %d states exceed the "
                             r"ceiling of %d$" % (n, n - 1)):
        domain_automaton(M, state_ceiling=n - 1)
    g = _random_grammars(1, "message")[0]
    assert len(grammar_to_automaton(g).states) >= 2
    with pytest.raises(ResourceError,
                       match=r"^subset construction: 2 states exceed the "
                             r"ceiling of 1$"):
        grammar_to_automaton(g, ceiling=1)


# Each remaining loop is a set equation with joins, or bounded enumeration
# of trees: none is a plain bottom-up exploration or a Horn least model.
REMAINING_LOOPS = sorted([
    "regular.enumerate_grammar",
    "constructions.domain_automaton.transition",
    "constructions._abstract_exits",
    "constructions._chain_endpoints",
    "constructions._chain_endpoints",
])


def _while_changed_loops(path):
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.While) and \
                    isinstance(child.test, ast.Name) and \
                    child.test.id == "changed":
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), [path.stem])
    return found


def test_only_the_named_while_changed_loops_remain():
    src = pathlib.Path(regular.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        found += _while_changed_loops(path)
    assert sorted(found) == REMAINING_LOOPS


# ---------------------------------------------------------------------------
# Product emptiness in the determinism check

def test_tests_disjoint_and_classify_agree_with_the_frontier_loop(
        monkeypatch):
    machines = _machines(n=34)
    assert len(machines) >= 200
    checked = 0
    for M in machines:
        pairs = [(r1, r2) for group in M._index.values()
                 for r1, r2 in itertools.combinations(group, 2)]

        def verdicts():
            return ([transducer._tests_disjoint(M, r1, r2, 6)
                     for r1, r2 in pairs],
                    transducer.classify(M).deterministic)
        new = verdicts()
        with monkeypatch.context() as m:
            m.setattr(transducer, "_joint_nonempty",
                      _joint_nonempty_by_rounds)
            old = verdicts()
        assert new == old
        checked += len(pairs)
    assert checked > 0
