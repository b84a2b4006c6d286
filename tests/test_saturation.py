"""Tests for the saturation helpers ``regular.explore``,
``regular.least_model`` and ``regular.min_witnesses``: each construction
built on them gives exactly what the round-robin ``while changed`` loop it
replaced gave.  Those loops are kept below as reference implementations,
as are the domain automaton that reran its claims fixpoint for every
context class, the grammar enumeration that re-expanded every rule
against the full languages in every round, and the exit summaries of the
productivity phases' old over-approximations, which ``_least_sets`` (in
``phase_reference``) grounds as Horn clauses."""

import ast
import itertools
import pathlib
import random

import pytest

import phase_reference
from artifact import constructions, regular, transducer
from artifact.constructions import (
    _marked_product, _product_automaton, _stay_closure_groups,
    _distinct_tests, domain_automaton, pruning_image,
)
from artifact.core import STAY, RankedAlphabet, Tree, leaf, marked_name
from artifact.fixtures import (
    OUT3, SIGMA_E, identity_relabeler, left_projection, m_exp,
    query_transducer, random_automaton, random_transducer,
)
from artifact.regular import (
    AutomatonTest, BottomUpAutomaton, RegularTreeGrammar, ResourceError,
    SubTest,
    decide, enumerate_grammar, explore, grammar_chain_closure,
    grammar_finite, grammar_to_automaton, least_model, marked_automaton,
    min_witnesses, _flatten_rules, _realizable, _rhs_nonterminals,
)

from artifact.transducer import ContractError
from corpus import automaton_to_grammar, pumping_beside_unproductive, random_rhs

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


def _finite_by_rounds(rules, chains, initials, realizable):
    """``regular._finite`` without chain edges, as ``decide`` ran it: the
    useful heads by rounds, then a search from each useful head for a
    path back to it through rules whose kids are all realizable."""
    assert not chains
    useful = {p for p in initials if p in realizable}
    changed = True
    while changed:
        changed = False
        for p, _, kids in rules:
            if p in useful and all(q in realizable for q in kids):
                for q in kids:
                    if q not in useful:
                        useful.add(q)
                        changed = True
    up = {}
    for p, _, kids in rules:
        if all(q in realizable for q in kids):
            for q in kids:
                up.setdefault(q, set()).add(p)
    for p in useful:
        seen = set()
        frontier = set(up.get(p, ()))
        while frontier:
            if p in frontier:
                return False
            seen |= frontier
            frontier = {r for q in frontier for r in up.get(q, ())} - seen
    return True


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
    """Finiteness on the rules as written: a useful nonterminal is
    productive and reached from an initial through rules whose
    nonterminals are all productive; it pumps when it derives a proper
    context around itself."""
    def productive(rhs):
        return all(nt in prod for nt in _rhs_nonterminals(rhs, g))

    prod = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            if lhs not in prod and productive(rhs):
                prod.add(lhs)
                changed = True
    reach = set(g.initials) & prod
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            if lhs in reach and productive(rhs):
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
        elif productive(rhs):
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


def _enumerate_grammar_by_rounds(g, max_size, max_chain_len=None):
    """The naive enumeration ``enumerate_grammar`` replaced: every round
    re-expands every rule of every nonterminal, reachable or not, against
    the full languages found so far."""
    reach = grammar_chain_closure(g, max_chain_len)
    prods = {nt: [] for nt in g.nonterminals}
    for lhs, rhs in g.rules:
        if not g.is_nonterminal(rhs.label):
            prods[lhs].append(rhs)
    lang = {nt: set() for nt in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for nt in g.nonterminals:
            for mid in reach[nt]:
                for rhs in prods[mid]:
                    for t in _expand(rhs, g, lang, max_size):
                        if t not in lang[nt]:
                            lang[nt].add(t)
                            changed = True
    out = set()
    for nt in g.initials:
        out |= lang[nt]
    return out


def _expand(rhs, g, lang, max_size):
    """All instantiations of a rule rhs with the current nonterminal
    languages, limited to result size <= max_size."""
    if g.is_nonterminal(rhs.label):
        return {t for t in lang[rhs.label] if t.size <= max_size}
    if not rhs.children:
        return {leaf(rhs.label)} if max_size >= 1 else set()
    results = set()
    child_sets = [_expand(c, g, lang, max_size - 1) for c in rhs.children]
    for picks in itertools.product(*child_sets):
        size = 1 + sum(t.size for t in picks)
        if size <= max_size:
            results.add(Tree(rhs.label, picks))
    return results


def _antichain(sets):
    mins = []
    for s in sorted(sets, key=lambda x: (len(x), sorted(map(repr, x)))):
        if not any(m <= s for m in mins):
            mins.append(s)
    return frozenset(mins)


def _cross_union(optss):
    acc = [frozenset()]
    for opts in optss:
        if not opts:
            return frozenset()
        acc = list(_antichain([a | o for a in acc for o in opts]))
    return _antichain(acc)


def _domain_automaton_per_context(M, state_ceiling=2048,
                                  context_ceiling=512):
    """``domain_automaton`` as it was before the context table and the
    claims memo: every transition rebuilds each context's child contexts
    and reruns the round-robin claims loop per context and child
    number."""
    tests = _distinct_tests(M)
    for t in tests:
        if not isinstance(t, (SubTest, AutomatonTest)):
            raise ContractError(
                "domain automaton needs automaton-backed tests")
    base = M.input_alphabet
    maxr = base.max_rank
    states_q = sorted(M.states, key=repr)
    if tests:
        auts, pdelta, sink, p0, p1, _proj = _marked_product(tests, base)
        tindex = {id(t): i for i, t in enumerate(tests)}
        finals1 = tuple(frozenset(p for p in p1 if p[i] in a.finals)
                        for i, a in enumerate(auts))
        profiles0 = sorted(p0, key=repr)
        contexts = {finals1}
        frontier = [finals1]
        while frontier:
            sbar = frontier.pop()
            for sym in base:
                m = base.rank(sym)
                mk0 = marked_name(sym, 0)
                for prof in itertools.product(profiles0, repeat=m):
                    for c in range(m):
                        ctx = tuple(
                            frozenset(p for p in p1
                                      if pdelta[(mk0, prof[:c] + (p,)
                                                 + prof[c + 1:])] in s)
                            for s in sbar)
                        if ctx not in contexts:
                            contexts.add(ctx)
                            frontier.append(ctx)
                            if len(contexts) > context_ceiling:
                                raise ResourceError(
                                    "context closure: %d context classes "
                                    "exceed the ceiling of %d"
                                    % (len(contexts), context_ceiling))
    else:
        pdelta = None
        contexts = {()}
    root_ctx = tuple(finals1) if tests else ()

    def transition(sym, kids):
        m = base.rank(sym)
        kid0 = tuple(k[0] for k in kids)
        fmaps = [dict(k[1]) for k in kids]
        if tests:
            a0 = pdelta[(marked_name(sym, 0), kid0)]
            if a0 == sink or sink in kid0:
                raise ContractError("partial test automaton")
        else:
            a0 = ()
        entries = []
        for sbar in contexts:
            if tests:
                p_here = pdelta[(marked_name(sym, 1), kid0)]
                truths = tuple(p_here in s for s in sbar)
                mk0 = marked_name(sym, 0)
                kid_ctx = [
                    tuple(frozenset(p for p in p1
                                    if pdelta[(mk0, kid0[:c] + (p,)
                                               + kid0[c + 1:])] in s)
                          for s in sbar)
                    for c in range(m)]
            else:
                truths = ()
                kid_ctx = [() for _ in range(m)]
            kid_beh = [fmaps[c][kid_ctx[c]] for c in range(m)]
            beh = set()
            for j in range(maxr + 1):
                claims = {q: set() for q in states_q}
                applicable = {}
                for q in states_q:
                    applicable[q] = [
                        r for r in M.rules_at(q, sym, j)
                        if r.test is None or truths[tindex[id(r.test)]]]
                changed = True
                while changed:
                    changed = False
                    for q in states_q:
                        for r in applicable[q]:
                            optss = []
                            for cl in r.calls():
                                if cl.instr == STAY:
                                    optss.append(frozenset(
                                        claims[cl.state]))
                                elif cl.instr.kind == "up":
                                    optss.append(
                                        frozenset([frozenset([cl.state])]))
                                else:
                                    c = cl.instr.index - 1
                                    opts = set()
                                    for (jj, qq, e2) in kid_beh[c]:
                                        if jj != c + 1 or qq != cl.state:
                                            continue
                                        opts |= _cross_union(
                                            [frozenset(claims[e])
                                             for e in sorted(e2, key=repr)])
                                    optss.append(frozenset(opts))
                            for enew in _cross_union(optss):
                                if not any(old <= enew
                                           for old in claims[q]):
                                    claims[q] = set(_antichain(
                                        set(claims[q]) | {enew}))
                                    changed = True
                for q in states_q:
                    for e in claims[q]:
                        beh.add((j, q, e))
            entries.append((sbar, frozenset(beh)))
        return (a0, frozenset(entries))

    dstates, delta = explore(base, transition, state_ceiling,
                             "domain automaton")
    finals = [s for s in dstates
              if any((0, q0, frozenset()) in dict(s[1])[root_ctx]
                     for q0 in M.initials)]
    return BottomUpAutomaton(base, dstates, finals, delta,
                             check_total=False)


def _abstract_exits_by_rounds(Mn):
    states = sorted(Mn.states, key=repr)
    idxs = range(1, Mn.input_alphabet.max_rank + 1)
    ex = {(i, q): set() for i in idxs for q in states}
    changed = True
    while changed:
        changed = False
        for r in Mn.rules:
            if r.kind != "move" or r.child_no == 0:
                continue
            i = r.child_no
            c = r.rhs.label
            if c.instr.kind == "up":
                add = {c.state}
            elif c.instr == STAY:
                add = ex[(i, c.state)]
            else:
                add = set()
                for q3 in ex[(c.instr.index, c.state)]:
                    add |= ex[(i, q3)]
            cur = ex[(i, r.state)]
            if not add <= cur:
                cur |= add
                changed = True
    return ex


def _chain_endpoints_by_rounds(Mn):
    syms1 = [s for s in Mn.input_alphabet
             if Mn.input_alphabet.rank(s) == 1]
    maxr = Mn.input_alphabet.max_rank
    states = sorted(Mn.states, key=repr)
    positions = [("top", i) for i in range(1, maxr + 1)] + ["deep"]
    dend = {(q, pos): set() for q in states for pos in positions}
    changed = True
    while changed:
        changed = False
        for q in states:
            for pos in positions:
                j = pos[1] if pos != "deep" else 1
                acc = set()
                for s1 in syms1:
                    for r in Mn.rules_at(q, s1, j):
                        if r.kind != "move":
                            continue
                        c = r.rhs.label
                        if c.instr.kind == "up":
                            if pos != "deep":
                                acc.add(("stay", c.state))
                            else:
                                for p2 in positions:
                                    acc |= dend[(c.state, p2)]
                        elif c.instr == STAY:
                            acc |= dend[(c.state, pos)]
                        else:
                            acc.add(("down", c.state))
                            acc |= dend[(c.state, "deep")]
                if not acc <= dend[(q, pos)]:
                    dend[(q, pos)] |= acc
                    changed = True
    down_end = {(i, q): frozenset(dend[(q, ("top", i))])
                for i in range(1, maxr + 1) for q in states}
    uend = {(q, pos): set() for q in states for pos in ("chtop", "chin")}
    changed = True
    while changed:
        changed = False
        for q in states:
            for pos in ("chtop", "chin"):
                jrange = range(1, maxr + 1) if pos == "chtop" else (1,)
                acc = set()
                for s1 in syms1:
                    for j in jrange:
                        for r in Mn.rules_at(q, s1, j):
                            if r.kind != "move":
                                continue
                            c = r.rhs.label
                            if c.instr.kind == "up":
                                if pos == "chtop":
                                    acc.add(("up", c.state))
                                else:
                                    acc |= uend[(c.state, "chtop")]
                                    acc |= uend[(c.state, "chin")]
                            elif c.instr == STAY:
                                acc |= uend[(c.state, pos)]
                            else:
                                acc.add(("stay", c.state))
                                acc |= uend[(c.state, "chin")]
                if not acc <= uend[(q, pos)]:
                    uend[(q, pos)] |= acc
                    changed = True
    up_end = {q: frozenset(uend[(q, "chtop")] | uend[(q, "chin")])
              for q in states}
    return down_end, up_end


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


def _random_grammars(n, seed="grammars"):
    """Grammars with chain rules, nested right-hand sides, unproductive
    and unreachable nonterminals."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        nts = ["S", "A", "B", "C"][:rng.randint(1, 4)]
        rules = [(nt, random_rhs(rng, nts, 2)) for nt in nts
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


# The ceiling constants of ``domain_automaton``, by the keywords of its
# per-context reference
DOMAIN_CEILINGS = {"state_ceiling": "_DOMAIN_STATE_CEILING",
                   "context_ceiling": "_CONTEXT_CEILING"}


def _domain_automaton(M, **ceilings):
    """``domain_automaton(M)`` with the ceilings named by the reference's
    keywords set to the given values."""
    with pytest.MonkeyPatch.context() as m:
        for kw, value in ceilings.items():
            m.setattr(constructions, DOMAIN_CEILINGS[kw], value)
        return domain_automaton(M)


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
            with monkeypatch.context() as m:
                m.setattr(regular, "_SUBSET_CEILING", c)
                new, old = _by_rounds(m, lambda: grammar_to_automaton(g))
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
        auts = [marked_automaton(t) for t in tests]
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
            monkeypatch, lambda: _domain_automaton(M, state_ceiling=400))
        _assert_same(new, old)


def test_domain_automaton_ceiling_is_hit_as_before(monkeypatch):
    for M in _machines(("topdown",), 10):
        n = len(domain_automaton(M).states)
        for c in (n - 1, n):
            new, old = _by_rounds(
                monkeypatch, lambda: _domain_automaton(M, state_ceiling=c))
            assert new[0] == old[0] == ("ok" if c >= n else "ResourceError")


def test_domain_automaton_matches_per_context_reference():
    topdown = _machines(("topdown",))[len(FIXTURES):]
    assert sum(bool(_distinct_tests(M)) for M in topdown) >= 25
    # 10 top-down machines over OUT3 per determinism flag, each with a test
    out3 = [random_transducer(seed, kind="topdown", deterministic=det,
                              alphabet=OUT3, output=OUT3, max_tests=1)
            for det in (True, False) for seed in range(10)]
    assert all(_distinct_tests(M) for M in out3)
    for M in _machines() + out3:
        new = _outcome(lambda: domain_automaton(M))
        old = _outcome(lambda: _domain_automaton_per_context(M))
        _assert_same(new, old)


def _resource_failure(fn):
    try:
        fn()
    except ResourceError as e:
        return str(e)
    return None


def test_domain_automaton_ceilings_match_per_context_reference():
    contexts = []
    for M in _machines(("topdown", "sub"), 10):
        n = len(domain_automaton(M).states)
        k = next(c for c in itertools.count() if _resource_failure(
            lambda: _domain_automaton(M, context_ceiling=c)) is None)
        contexts.append(k)
        if k:
            assert _resource_failure(
                lambda: _domain_automaton(M, context_ceiling=k - 1)) == \
                "context closure: %d context classes exceed the ceiling " \
                "of %d" % (k, k - 1)
        for kw in ({"state_ceiling": n - 1}, {"state_ceiling": n},
                   {"context_ceiling": k - 1}, {"context_ceiling": k}):
            new = _resource_failure(lambda: _domain_automaton(M, **kw))
            assert new == _resource_failure(
                lambda: _domain_automaton_per_context(M, **kw))
        assert _resource_failure(
            lambda: _domain_automaton(M, state_ceiling=n - 1)) == \
            "domain automaton: %d states exceed the ceiling of %d" % (n, n - 1)
    assert max(contexts) >= 2


def test_claims_fixpoint_runs_once_per_distinct_input(monkeypatch):
    runs = []
    claims = constructions._claims

    def counted(rules_at, maxr, *key):
        runs.append(key)
        return claims(rules_at, maxr, *key)

    monkeypatch.setattr(constructions, "_claims", counted)
    M = random_transducer(0, kind="topdown")
    A = domain_automaton(M)
    assert (len(A.states), len(A.delta)) == (92, 8465)
    # One run per distinct (symbol, guard truths, children's summaries),
    # covering child numbers 0-2: 1449 inputs of the per-child-number
    # loop, which ran for each of the 8465 transitions in each of the 42
    # context classes.
    assert len(runs) == len(set(runs)) == 483
    domain_automaton(M)
    assert len(runs) == 2 * 483  # the memo lives for one construction


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
    outcomes = set()
    for A in _automata():
        real = _realizable(A)
        assert real == _realizable_by_rounds(A)
        new = decide(A)
        assert regular.is_empty(A) == new[0]
        outcomes.add(new[:2])
        with monkeypatch.context() as m:
            m.setattr(regular, "_realizable", _realizable_by_rounds)
            m.setattr(regular, "_finite", _finite_by_rounds)
            assert decide(A) == new
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_grammar_closures_match_round_robin():
    """Finiteness also agrees with ``decide`` on the grammar's automaton,
    among others on grammars where a pumping nonterminal sits beside one
    that derives nothing."""
    grammars = _random_grammars(200) + _closure_grammars() \
        + pumping_beside_unproductive()
    finite = set()
    for g in grammars:
        assert grammar_chain_closure(g) == _chain_closure_by_rounds(g)
        assert grammar_finite(g) == _grammar_finite_by_rounds(g) \
            == decide(grammar_to_automaton(g))[1], g.rules
        finite.add(grammar_finite(g))
        wit = min_witnesses(*_flatten_rules(g))
        assert {nt: t for nt, t in wit.items() if nt in g.nonterminals} \
            == _grammar_min_witness_by_rounds(g)
    assert finite == {True, False}


def test_enumerate_grammar_matches_round_robin():
    grammars = _random_grammars(200) + _closure_grammars()
    nonempty = 0
    for g in grammars:
        for chain in (None, 0, 1, 2):
            for size in (1, 4, 7):
                got = enumerate_grammar(g, size, chain)
                assert got == _enumerate_grammar_by_rounds(g, size, chain), \
                    (g.rules, size, chain)
                nonempty += bool(got)
    assert nonempty > 1000


def test_enumerate_grammar_growth():
    # S -> e | sigma(S, S): the binary trees of up to 17 nodes, 1 + 1 + 2
    # + 5 + 14 + 42 + 132 + 429 + 1430 of them
    g = RegularTreeGrammar(["S"], SIGMA_E, ["S"],
                           [("S", leaf("e")),
                            ("S", Tree("sigma", [leaf("S"), leaf("S")]))])
    assert len(enumerate_grammar(g, 17)) == 2056


# ---------------------------------------------------------------------------
# Ceilings and the loops that remain

def test_resource_errors_name_ceiling_and_count(monkeypatch):
    M = query_transducer()
    n = len(domain_automaton(M).states)
    with pytest.raises(ResourceError,
                       match=r"^domain automaton: %d states exceed the "
                             r"ceiling of %d$" % (n, n - 1)):
        _domain_automaton(M, state_ceiling=n - 1)
    g = _random_grammars(1, "message")[0]
    assert len(grammar_to_automaton(g).states) >= 2
    with pytest.raises(ResourceError,
                       match=r"^subset construction: 2 states exceed the "
                             r"ceiling of 1$"):
        monkeypatch.setattr(regular, "_SUBSET_CEILING", 1)
        grammar_to_automaton(g)


# No loop remains: every saturation is an exploration, a Horn least
# model or a least-witness search.
REMAINING_LOOPS = []


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
# Exit summaries of the productivity phases

def _local_machines(n=30):
    """The local fixtures, then n seeded local machines over OUT3 per
    determinism flag, normalized as the productivity phases take them."""
    ms = [m_exp(), identity_relabeler(), left_projection()]
    ms += [random_transducer(seed, kind="local", deterministic=det,
                             alphabet=OUT3, output=OUT3)
           for det in (True, False) for seed in range(n)]
    return [constructions._normalize_for_pruning(M) for M in ms]


def test_exit_summaries_match_round_robin():
    nonempty = 0
    for Mn in _local_machines():
        ex = phase_reference._abstract_exits(Mn)
        assert ex == _abstract_exits_by_rounds(Mn)
        ends = phase_reference._chain_endpoints(Mn)
        assert ends == _chain_endpoints_by_rounds(Mn)
        nonempty += any(ex.values()) and any(ends[0].values()) \
            and any(ends[1].values())
    assert nonempty >= 50


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
            # a fresh copy, since a machine keeps its overlap record
            fresh = transducer.Transducer(M.input_alphabet,
                                          M.output_alphabet, M.states,
                                          M.initials, M.rules)
            return ([transducer._tests_disjoint(M, r1, r2, 6)
                     for r1, r2 in pairs],
                    transducer.classify(fresh).deterministic)
        new = verdicts()
        with monkeypatch.context() as m:
            m.setattr(transducer, "_joint_nonempty",
                      _joint_nonempty_by_rounds)
            old = verdicts()
        assert new == old
        checked += len(pairs)
    assert checked > 0
