"""Tests for grammars, bottom-up automata, node tests, and decisions."""

import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from artifact import regular
from artifact.core import (
    AlphabetError, MarkedAlphabet, RankedAlphabet, Tree, TreeIndex,
    addresses, all_trees, leaf, marked_name, parse_tree,
    serialize_tree, split_marked_name, subtree_at,
)
from artifact.fixtures import (
    OUT3, comb_tree, full_binary, query_transducer, random_transducer,
)
from artifact.regular import (
    AutomatonTest, BottomUpAutomaton, LookAround, OracleTest,
    RegularTreeGrammar, ResourceError, SubTest, automaton_all, decide,
    enumerate_grammar, eval_test, grammar_finite, grammar_to_automaton,
    marked_automaton, node_verdicts, parse_member, singleton_automaton,
    _flatten_rules,
)
from artifact.transducer import marked_position_automaton
from corpus import automaton_to_grammar, pumping_beside_unproductive

SIGMA_E = RankedAlphabet({"sigma": 2, "e": 0})
STA = RankedAlphabet({"sigma": 2, "tau": 1, "a": 0})


def _grammar(terminals, initial, lines):
    """The grammar of the rules ``lhs -> rhs``, whose nonterminals are the
    left-hand sides."""
    rules = [tuple(part.strip() for part in line.split("->"))
             for line in lines]
    nts = {lhs for lhs, _ in rules}
    ext = RankedAlphabet(dict(terminals.symbols, **dict.fromkeys(nts, 0)))
    return RegularTreeGrammar(nts, terminals, [initial], [
        (lhs, parse_tree(rhs, ext)) for lhs, rhs in rules])


def parity_automaton():
    """delta(t) tracks the parity of the number of leaves."""
    delta = {("e", ()): "odd"}
    for a in ("odd", "even"):
        for b in ("odd", "even"):
            par = "even" if (a == "odd") == (b == "odd") else "odd"
            delta[("sigma", (a, b))] = par
    return BottomUpAutomaton(SIGMA_E, ["odd", "even"], ["even"], delta)


# ---------------------------------------------------------------------------
# automata

def test_run_automaton_leaf():
    aut = parity_automaton()
    assert aut.run(leaf("e")) == "odd"
    assert not aut.accepts(leaf("e"))


def test_run_automaton_two_leaves():
    aut = parity_automaton()
    t = parse_tree("sigma(e,e)", SIGMA_E)
    assert aut.run(t) == "even"
    assert aut.accepts(t)


def test_all_finals_accepts_everything():
    aut = automaton_all(SIGMA_E)
    for t in all_trees(SIGMA_E, 5):
        assert aut.accepts(t)


def test_run_deep_comb():
    t = comb_tree(10 ** 4)
    assert automaton_all(SIGMA_E).accepts(t)
    assert parity_automaton().run(t) == "even"
    assert parity_automaton().accepts(t)
    assert eval_test(SubTest(automaton_all(SIGMA_E)), comb_tree(500), ())


def test_run_raises_at_first_failing_node():
    # a label is checked on entering its node, before its children run
    partial = BottomUpAutomaton(SIGMA_E, ["p"], ["p"], {("e", ()): "p"},
                                check_total=False)
    with pytest.raises(KeyError):
        partial.run(parse_tree("sigma(e,e)", SIGMA_E))
    with pytest.raises(AlphabetError):
        partial.run(Tree("f", [Tree("sigma", [leaf("e"), leaf("e")])]))
    with pytest.raises(KeyError):
        partial.run(Tree("sigma", [Tree("sigma", [leaf("e"), leaf("e")]),
                                   leaf("f")]))


def test_totality_enforced():
    with pytest.raises(ValueError):
        BottomUpAutomaton(SIGMA_E, ["p"], ["p"], {("e", ()): "p"})


def test_automaton_text_roundtrip():
    aut = parity_automaton()
    aut2 = BottomUpAutomaton.parse(aut.format())
    for t in all_trees(SIGMA_E, 5):
        assert aut.accepts(t) == aut2.accepts(t)


FORMAT_PROBE = """
from artifact.constructions import domain_automaton, lookahead_of_topdown
from artifact.fixtures import random_transducer
print(domain_automaton(random_transducer(1, kind="local",
                                         max_tests=1)).format())
M = lookahead_of_topdown(random_transducer(3, kind="topdown", max_tests=1))
tests = list(dict.fromkeys(r.test for r in M.rules if r.test is not None))
print(M.format({t: "t%d" % i for i, t in enumerate(tests)}))
for t in tests:
    print(t.aut.format())
"""


def test_text_formats_do_not_depend_on_string_hashing():
    """Automaton and transducer states that are not strings (here they
    hold frozensets of strings) get the same names under any hash seed."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    texts = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        texts.add(subprocess.run(
            [sys.executable, "-c", FORMAT_PROBE], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(texts) == 1


# ---------------------------------------------------------------------------
# boolean operations

def test_intersection_with_complement_empty():
    aut = parity_automaton()
    inter = aut.intersect(aut.complement())
    empty, finite, witness = decide(inter)
    assert empty and witness is None


def test_union_with_complement_total():
    aut = parity_automaton()
    u = aut.union(aut.complement())
    for t in all_trees(SIGMA_E, 6):
        assert u.accepts(t)


def test_boolean_ops_pointwise():
    a = parity_automaton()
    b = singleton_automaton(parse_tree("sigma(e,e)", SIGMA_E), SIGMA_E)
    for t in all_trees(SIGMA_E, 6):
        assert a.intersect(b).accepts(t) == (a.accepts(t) and b.accepts(t))
        assert a.union(b).accepts(t) == (a.accepts(t) or b.accepts(t))


def test_intersection_enumeration_example():
    # trees with >= 1 tau, intersected with trees of height <= 1
    g1 = _grammar(STA, "S", [
        "S -> tau(T)", "S -> sigma(S,T)", "S -> sigma(T,S)",
        "S -> sigma(S,S)", "S -> tau(S)",
        "T -> a", "T -> tau(T)", "T -> sigma(T,T)"])
    has_tau = grammar_to_automaton(g1)
    low = {t for t in all_trees(STA, 4) if t.height <= 1}
    # brute-force the intersection among trees up to size 4
    got = {t for t in all_trees(STA, 4) if has_tau.accepts(t) and t in low}
    assert got == {parse_tree("tau(a)", STA)}


# ---------------------------------------------------------------------------
# grammar <-> automaton

def test_grammar_singleton():
    g = RegularTreeGrammar(["S"], SIGMA_E, ["S"], [("S", leaf("e"))])
    aut = grammar_to_automaton(g)
    assert aut.accepts(leaf("e"))
    assert not aut.accepts(parse_tree("sigma(e,e)", SIGMA_E))


def test_paper_example_grammar():
    g = _grammar(STA, "S", [
        "S -> sigma(X,Y)", "X -> tau(Y)", "Y -> tau(a)", "Y -> a"])
    aut = grammar_to_automaton(g)
    assert aut.accepts(parse_tree("sigma(tau(tau(a)),a)", STA))
    expected = enumerate_grammar(g, 7)
    for t in all_trees(STA, 7):
        assert aut.accepts(t) == (t in expected)


def test_roundtrip_random_grammars():
    """grammar -> automaton -> grammar preserves membership, 50 random
    grammars, trees up to size 6."""
    rng = random.Random(7)
    small = all_trees(SIGMA_E, 6)
    for _ in range(50):
        g = _random_grammar(rng)
        aut = grammar_to_automaton(g)
        g2 = automaton_to_grammar(aut)
        aut2 = grammar_to_automaton(g2)
        lang = enumerate_grammar(g, 6)
        for t in small:
            assert aut.accepts(t) == (t in lang)
            assert aut2.accepts(t) == (t in lang)


def _random_grammar(rng):
    nts = ["S", "A", "B"][:rng.randint(1, 3)]
    ext = RankedAlphabet(dict(SIGMA_E.symbols, **{n: 0 for n in nts}))
    rules = []
    for nt in nts:
        for _ in range(rng.randint(1, 3)):
            rules.append((nt, _random_rhs(rng, nts, depth=2)))
    return RegularTreeGrammar(nts, SIGMA_E, ["S"], rules)


def _random_rhs(rng, nts, depth):
    if depth <= 0:
        choices = ["e"] + nts
    else:
        choices = ["e", "sigma", "sigma"] + nts
    label = rng.choice(choices)
    if label == "e":
        return leaf("e")
    if label in nts:
        return leaf(label)
    return Tree("sigma", [_random_rhs(rng, nts, depth - 1) for _ in range(2)])


def test_grammar_member_agrees_with_enumeration():
    """The bottom-up parse against enumerate_grammar, 50 random grammars,
    trees up to size 7, plus deep, shared and ill-ranked trees."""
    rng = random.Random(11)
    small = all_trees(SIGMA_E, 7)
    for _ in range(50):
        g = _random_grammar(rng)
        lang = enumerate_grammar(g, 7)
        for t in small:
            assert parse_member(*_flatten_rules(g), g.initials, t) == \
                (t in lang), (g.rules, t)
    g = RegularTreeGrammar(
        ["S"], SIGMA_E, ["S"],
        [("S", leaf("e")), ("S", Tree("sigma", [leaf("e"), leaf("S")]))])
    rules, chains = _flatten_rules(g)
    assert parse_member(rules, chains, g.initials, comb_tree(5000))
    assert not parse_member(rules, chains, g.initials,
                            Tree("sigma", [comb_tree(2), leaf("e")]))
    full = leaf("e")
    for _ in range(40):
        full = Tree("sigma", [full, full])
    g = RegularTreeGrammar(["S"], SIGMA_E, ["S"],
                           [("S", leaf("e")),
                            ("S", Tree("sigma", [leaf("S"), leaf("S")]))])
    rules, chains = _flatten_rules(g)
    assert parse_member(rules, chains, g.initials, full)
    # ill-ranked trees: a rule applies only to a node of its own arity
    for bad in (leaf("sigma"), Tree("sigma", [leaf("e")]),
                Tree("sigma", [leaf("e")] * 3)):
        assert not parse_member(rules, chains, g.initials, bad), bad
        assert bad not in enumerate_grammar(g, 4)


def test_subset_construction_ceiling(monkeypatch):
    g = _random_grammar(random.Random(0))
    monkeypatch.setattr(regular, "_SUBSET_CEILING", 1)
    with pytest.raises(ResourceError):
        grammar_to_automaton(g)


# ---------------------------------------------------------------------------
# decide / enumerate

def test_decide_empty():
    empty, finite, witness = decide(automaton_all(SIGMA_E).complement())
    assert (empty, finite, witness) == (True, True, None)


def test_decide_singleton():
    aut = singleton_automaton(leaf("e"), SIGMA_E)
    empty, finite, witness = decide(aut)
    assert (empty, finite) == (False, True)
    assert witness == leaf("e")


def test_decide_all_trees_infinite():
    empty, finite, witness = decide(automaton_all(SIGMA_E))
    assert (empty, finite) == (False, False)
    assert witness == leaf("e")


def test_decide_finiteness_agrees_with_grammar():
    """Also where a pumping nonterminal is reached only beside one that
    derives nothing: it is not useful, so it does not pump."""
    rng = random.Random(11)
    grammars = [_random_grammar(rng) for _ in range(30)]
    beside = pumping_beside_unproductive()
    assert [grammar_finite(g) for g in beside[:6]] == [True] * 4 + [False, True]
    for g in grammars + beside:
        aut = grammar_to_automaton(g)
        _, finite, _ = decide(aut)
        assert finite == grammar_finite(g), g.rules


def test_singleton_automaton_accepts_exactly_its_tree():
    # every s of up to 9 nodes over SIGMA_E and of up to 7 over OUT3,
    # against every tree of up to 9 nodes
    for alphabet, s_size in ((SIGMA_E, 9), (OUT3, 7)):
        trees = all_trees(alphabet, 9)
        for s in trees:
            if s.size > s_size:
                break
            aut = singleton_automaton(s, alphabet)
            assert [t for t in trees if aut.accepts(t)] == [s]


def test_singleton_automaton_is_total_over_distinct_subtrees():
    s = full_binary(3)
    aut = singleton_automaton(s, SIGMA_E)
    assert len(aut.states) == 4 + 1  # heights 0..3 and the sink
    aut._check_total()
    assert decide(aut) == (False, True, s)


def test_singleton_automaton_of_a_tree_outside_the_alphabet():
    for s in (leaf("sigma"), Tree("sigma", [leaf("e")]), leaf("tau"),
              Tree("sigma", [leaf("e"), Tree("tau", [leaf("e")])])):
        aut = singleton_automaton(s, SIGMA_E)
        assert decide(aut)[0], s
        assert not any(aut.accepts(t) for t in all_trees(SIGMA_E, 7))


def test_enumerate_language_singleton():
    aut = singleton_automaton(leaf("e"), SIGMA_E)
    assert enumerate_grammar(automaton_to_grammar(aut), 3) == {leaf("e")}


def test_enumerate_language_all():
    got = enumerate_grammar(automaton_to_grammar(automaton_all(SIGMA_E)), 3)
    assert got == {leaf("e"), parse_tree("sigma(e,e)", SIGMA_E)}


def test_enumerate_language_empty():
    aut = automaton_all(SIGMA_E).complement()
    assert enumerate_grammar(automaton_to_grammar(aut), 4) == set()


def test_enumerate_matches_membership():
    aut = parity_automaton()
    got = enumerate_grammar(automaton_to_grammar(aut), 6)
    assert got == {t for t in all_trees(SIGMA_E, 6) if aut.accepts(t)}


def test_nonempty_has_small_witness():
    """decide's witness stays within the state-count-derived size bound."""
    rng = random.Random(3)
    for _ in range(20):
        g = _random_grammar(rng)
        aut = grammar_to_automaton(g)
        empty, _, witness = decide(aut)
        bound = len(aut.states) * max(aut.alphabet.max_rank, 1) + 1
        if not empty:
            assert witness is not None
            assert aut.accepts(witness)
            assert witness.size <= 2 ** bound  # loose sanity cap
            assert enumerate_grammar(g, witness.size - 1) == set()


# ---------------------------------------------------------------------------
# node tests

def test_always_true_test():
    for t in all_trees(SIGMA_E, 4):
        for u in addresses(t):
            assert eval_test(None, t, u)


def test_sub_test_leaf_language():
    T = SubTest(singleton_automaton(leaf("e"), SIGMA_E))
    for t in all_trees(SIGMA_E, 4):
        for u in addresses(t):
            expected = subtree_at(t, u) == leaf("e")
            assert eval_test(T, t, u) == expected


def test_sub_test_of_all_and_none():
    top = SubTest(automaton_all(SIGMA_E))
    bot = SubTest(automaton_all(SIGMA_E).complement())
    for t in all_trees(SIGMA_E, 4):
        for u in addresses(t):
            assert eval_test(top, t, u)
            assert not eval_test(bot, t, u)


def _subtest_to_marked_reference(test, base_alphabet=None):
    """``subtest_to_marked`` as it was before ``marked_automaton`` took
    its place, kept as the reference: run the subtree automaton below the
    mark, freeze the verdict at the marked node, and pass it upward."""
    aut = test.aut
    marked = MarkedAlphabet(base_alphabet or aut.alphabet)
    bot = [("bot", p) for p in aut.states]
    states = bot + [("top", False), ("top", True), ("sink",)]
    delta = {}
    for name in marked.symbols:
        base, bit = split_marked_name(name)
        rank = marked.rank(name)
        for combo in itertools.product(states, repeat=rank):
            tops = [x for x in combo if x[0] == "top"]
            if any(x == ("sink",) for x in combo) or len(tops) > 1 or \
                    (tops and bit == 1):
                delta[(name, combo)] = ("sink",)
            elif tops:
                delta[(name, combo)] = tops[0]
            else:
                p = aut.delta[(base, tuple(x[1] for x in combo))]
                if bit == 1:
                    delta[(name, combo)] = ("top", p in aut.finals)
                else:
                    delta[(name, combo)] = ("bot", p)
    return AutomatonTest(BottomUpAutomaton(
        marked, states, [("top", True)], delta, check_total=False))


def test_subtest_to_marked_agrees():
    """The marked automaton of a sub-test is the reference conversion's,
    and holds where the sub-test does, at every node of every tree of up
    to 7 nodes; a marked guard is its own marked automaton, and an oracle
    has none."""
    tests = [SubTest(parity_automaton()), SubTest(automaton_all(SIGMA_E)),
             SubTest(automaton_all(SIGMA_E).complement())]
    for seed in range(30):
        tests += _machine_tests(random_transducer(seed, kind="sub"))
    assert len(tests) > 30
    trees = all_trees(SIGMA_E, 7)
    for T in tests:
        assert T.subtest
        got = marked_automaton(T)
        want = _subtest_to_marked_reference(T).aut
        assert (got.alphabet, got.states, got.finals, got.delta) == \
            (want.alphabet, want.states, want.finals, want.delta)
        for t in trees:
            for u in addresses(t):
                assert eval_test(AutomatonTest(got), t, u) == \
                    eval_test(T, t, u), (T, t, u)
    for T in _machine_tests(query_transducer()):
        assert marked_automaton(T) is T.aut
    with pytest.raises(ValueError):
        marked_automaton(OracleTest(lambda t, u: True, "true"))


def test_subtest_complement_law():
    """complement of T(L) equals T(complement L) under eval."""
    L = parity_automaton()
    t_l = SubTest(L)
    t_not = SubTest(L.complement())
    for t in all_trees(SIGMA_E, 5):
        for u in addresses(t):
            assert eval_test(t_not, t, u) == (not eval_test(t_l, t, u))


def test_subtest_intersection_law():
    L1 = parity_automaton()
    L2 = singleton_automaton(parse_tree("sigma(e,e)", SIGMA_E), SIGMA_E)
    t12 = SubTest(L1.intersect(L2))
    ta, tb = SubTest(L1), SubTest(L2)
    for t in all_trees(SIGMA_E, 5):
        for u in addresses(t):
            assert eval_test(t12, t, u) == \
                (eval_test(ta, t, u) and eval_test(tb, t, u))


# ---------------------------------------------------------------------------
# node tests evaluated at all nodes at once

def eval_test_all(test, t):
    """Reference helper: the verdicts of ``node_verdicts`` read at every
    node, as a dict from the address of each node where ``eval_test``
    answers to that answer, or None for an oracle."""
    ix = TreeIndex(t)
    verdicts = node_verdicts(test, ix)
    if verdicts is None:
        return None
    return {u: verdicts[i] for i, u in enumerate(ix.addrs)
            if verdicts[i] is not None}


def _per_node(test, t, u):
    try:
        return eval_test(test, t, u)
    except (AlphabetError, KeyError) as e:
        return type(e)


def _assert_table_is_eval_test(tests, trees):
    """eval_test_all has eval_test's verdict at every node where eval_test
    answers, and no entry where it raises."""
    for T in tests:
        for t in trees:
            table = eval_test_all(T, t)
            for u in addresses(t):
                want = _per_node(T, t, u)
                if isinstance(want, bool):
                    assert table.get(u) is want, (T, t, u)
                else:
                    assert u not in table, (T, t, u)


def _machine_tests(M):
    return {r.test for r in M.rules if r.test is not None}


def test_all_nodes_table_matches_eval_test_on_random_machines():
    tests = _machine_tests(query_transducer())
    for seed in range(40):
        for kind in ("lookaround", "sub"):
            tests |= _machine_tests(random_transducer(seed, kind=kind))
    assert any(isinstance(T, AutomatonTest) for T in tests)
    assert any(isinstance(T, SubTest) for T in tests)
    _assert_table_is_eval_test(tests, all_trees(SIGMA_E, 7))


def _without_bad(aut):
    """The automaton with every transition into the state "bad" removed."""
    return BottomUpAutomaton(
        aut.alphabet, aut.states, aut.finals,
        {k: p for k, p in aut.delta.items() if p != "bad"},
        check_total=False)


def test_all_nodes_table_partial_automata():
    auts = [marked_position_automaton(SIGMA_E, "sigma", j) for j in (0, 1)]
    auts += [_without_bad(a) for a in auts]
    tests = [AutomatonTest(a) for a in auts]
    _assert_table_is_eval_test(tests, all_trees(SIGMA_E, 7))
    # the marked run misses a transition at the leaves, not at the root
    t = parse_tree("sigma(e,e)", SIGMA_E)
    assert [_per_node(tests[2], t, u) for u in addresses(t)] == \
        [True, KeyError, KeyError]
    assert eval_test_all(tests[2], t) == {(): True}


def test_all_nodes_table_unmarked_run_missing_transition():
    aut = marked_position_automaton(SIGMA_E, "sigma", 1)
    delta = dict(aut.delta)
    del delta[("e#0", ())]
    T = AutomatonTest(BottomUpAutomaton(aut.alphabet, aut.states, aut.finals,
                                        delta, check_total=False))
    trees = all_trees(SIGMA_E, 7)
    _assert_table_is_eval_test([T], trees)
    # only a leaf's own marked run avoids the missing leaf transition
    assert eval_test_all(T, leaf("e")) == {(): False}
    assert eval_test_all(T, parse_tree("sigma(e,e)", SIGMA_E)) == {}


def _with_extra(aut, extra):
    """The automaton with transitions added for symbols outside its
    alphabet, which its runs never use."""
    return BottomUpAutomaton(aut.alphabet, aut.states, aut.finals,
                             {**aut.delta, **extra}, check_total=False)


def test_all_nodes_table_label_outside_alphabet():
    t = Tree("sigma", [leaf("e"), Tree("sigma", [leaf("a"), leaf("e")])])
    parity = SubTest(parity_automaton())
    pos = marked_position_automaton(SIGMA_E, "sigma", 2)
    tests = _machine_tests(query_transducer()) | {
        AutomatonTest(pos), parity,
        AutomatonTest(_with_extra(pos, {("a#0", ()): "none",
                                        ("a#1", ()): "just"})),
        SubTest(_with_extra(parity_automaton(), {("a", ()): "odd"}))}
    _assert_table_is_eval_test(tests, [t])
    # a marked run reads the whole tree, a sub-test run only the subtree
    assert {_per_node(T, t, u) for T in tests if not T.subtest
            for u in addresses(t)} == {AlphabetError}
    assert eval_test_all(parity, t) == {(1,): False, (2, 2): False}


def test_all_nodes_table_oracle_is_none():
    T = OracleTest(lambda t, u: True, "true")
    assert eval_test_all(T, leaf("e")) is None


def test_all_nodes_table_deep_tree():
    t = comb_tree(3000)
    T = AutomatonTest(marked_position_automaton(SIGMA_E, "e", 1))
    table = eval_test_all(T, t)
    assert len(table) == t.size
    assert sum(table.values()) == 2999


def _eval_test_all_reference(test, t):
    """eval_test_all as it was before ``node_verdicts``: its own
    breadth-first index, and top-down maps shared only by the identity of
    the map above, so that nearly every node builds its own.  Kept as the
    reference for the shared index and the contexts interned by content."""
    if not isinstance(test, (AutomatonTest, SubTest)):
        return None
    aut = test.aut
    delta = aut.delta
    marked = isinstance(test, AutomatonTest)
    nodes, addrs, kids = [t], [()], []
    for node, u in zip(nodes, addrs):
        kids.append(range(len(nodes), len(nodes) + len(node.children)))
        nodes.extend(node.children)
        addrs.extend(u + (i,) for i in range(1, len(node.children) + 1))
    labels = [marked_name(n.label, 0) if marked else n.label for n in nodes]
    if marked and any(name not in aut.alphabet for name in labels):
        return {}
    state = [None] * len(nodes)
    for i in reversed(range(len(nodes))):
        combo = tuple(state[j] for j in kids[i])
        if labels[i] in aut.alphabet and None not in combo:
            state[i] = delta.get((labels[i], combo))
    if not marked:
        return {u: p in aut.finals
                for u, p in zip(addrs, state) if p is not None}
    up = [{p: p in aut.finals for p in aut.states}] + [None] * (len(nodes) - 1)
    made = {}
    table = {}
    for i, cs in enumerate(kids):
        above, name = up[i], labels[i]
        combo = [state[j] for j in cs]
        p = delta.get((marked_name(nodes[i].label, 1), tuple(combo)))
        if p in above:
            table[addrs[i]] = above[p]
        for k, j in enumerate(cs):
            combo[k] = None
            key = (id(above), name, tuple(combo))
            ctx = made.get(key)
            if ctx is None:
                ctx = made[key] = {}
                for q in aut.states:
                    combo[k] = q
                    r = delta.get((name, tuple(combo)))
                    if r in above:
                        ctx[q] = above[r]
            up[j] = ctx
            combo[k] = state[j]
    return table


def _random_tree(rng, internal, leaves=("e",)):
    """A random binary tree with ``internal`` sigma nodes, each leaf
    labelled from ``leaves``."""
    if internal == 0:
        return leaf(rng.choice(leaves))
    k = rng.randrange(internal)
    return Tree("sigma", [_random_tree(rng, k, leaves),
                          _random_tree(rng, internal - 1 - k, leaves)])


def _reference_bank():
    """The guards of the query machine, of 40 random look-around and
    sub-test machines and of partial and extended automata, with 16
    random trees of 31 to 121 nodes, where top-down maps can be shared."""
    tests = _machine_tests(query_transducer())
    for seed in range(40):
        for kind in ("lookaround", "sub"):
            tests |= _machine_tests(random_transducer(seed, kind=kind))
    pos = [marked_position_automaton(SIGMA_E, sym, j)
           for sym, j in (("sigma", 0), ("sigma", 1), ("sigma", 2))]
    missing = dict(pos[1].delta)
    del missing[("e#0", ())]
    tests |= {AutomatonTest(a) for a in pos + [_without_bad(a) for a in pos]}
    tests |= {
        AutomatonTest(BottomUpAutomaton(pos[1].alphabet, pos[1].states,
                                        pos[1].finals, missing,
                                        check_total=False)),
        AutomatonTest(_with_extra(pos[2], {("a#0", ()): "none",
                                           ("a#1", ()): "just"})),
        SubTest(parity_automaton()),
        SubTest(_with_extra(parity_automaton(), {("a", ()): "odd"})),
        OracleTest(lambda t, u: True, "true")}
    rng = random.Random(12)
    trees = [_random_tree(rng, rng.randint(15, 60)) for _ in range(12)]
    trees += [_random_tree(rng, rng.randint(15, 60), ("e", "e", "a"))
              for _ in range(4)]
    assert min(t.size for t in trees) >= 31
    assert max(t.size for t in trees) <= 121
    return tests, trees


def test_all_nodes_table_matches_reference():
    """eval_test_all, and node_verdicts read at every node id in
    pre-order, give the reference's table."""
    tests, trees = _reference_bank()
    for t in trees:
        ix = TreeIndex(t)
        for T in tests:
            want = _eval_test_all_reference(T, t)
            assert eval_test_all(T, t) == want, (T, t)
            verdicts = node_verdicts(T, ix)
            if want is None:
                assert verdicts is None
            else:
                assert [verdicts[i] for i in range(t.size)] == \
                    [want.get(u) for u in ix.addrs], (T, t)


def test_verdicts_in_any_read_order():
    """Read in random orders and random subsets, so that contexts start
    from partly built ancestors, every verdict is the reference's, and
    contexts are built only on the root paths of the nodes read."""
    tests, trees = _reference_bank()
    rng = random.Random(31)
    for t in trees:
        ix = TreeIndex(t)
        for T in tests:
            want = _eval_test_all_reference(T, t)
            if want is None:
                continue
            order = list(range(t.size))
            rng.shuffle(order)
            for read in (order, order[:rng.randint(1, t.size)]):
                verdicts = node_verdicts(T, ix)
                for i in read:
                    assert verdicts[i] == want.get(ix.addrs[i]), (T, t, i)
                # an AutomatonTest's verdicts read its table's LookAround
                around = getattr(verdicts, "around", None)
                if isinstance(around, LookAround):
                    built = {i for i, c in enumerate(around.contexts)
                             if c is not None}
                    assert built <= _root_paths(ix, read)


def _root_paths(ix, ids):
    """The nodes on the paths from the root to the nodes ``ids``."""
    seen = set()
    for i in ids:
        while i is not None and i not in seen:
            seen.add(i)
            i = ix.parents[i]
    return seen


class _CountingDelta(dict):
    """A transition map, or any dict, that counts its ``get`` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return dict.get(self, key, default)


def test_all_nodes_table_lookups_per_node():
    """With contexts interned by content, a comb costs the bottom-up and
    the marked transition per node and a few context builds in all, read
    parents first, leaf first or shuffled, and each node below the root
    takes its context once; the reference builds a context per node, |Q|
    lookups each."""
    t = comb_tree(3000)
    aut = marked_position_automaton(SIGMA_E, "e", 1)
    shuffled = list(range(t.size))
    random.Random(3).shuffle(shuffled)
    for order in (range(t.size), reversed(range(t.size)), shuffled):
        aut.delta = _CountingDelta(aut.delta)
        verdicts = node_verdicts(AutomatonTest(aut), TreeIndex(t))
        around = verdicts.around  # the contexts its table's guards share
        around.made = _CountingDelta()
        for i in order:
            verdicts[i]
        assert aut.delta.gets <= 3 * t.size
        assert around.made.gets == t.size - 1
    aut.delta = _CountingDelta(aut.delta)
    _eval_test_all_reference(AutomatonTest(aut), t)
    assert aut.delta.gets >= (len(aut.states) + 1) * t.size


# ---------------------------------------------------------------------------
# forward-deterministic grammars

def test_forward_deterministic_singleton_and_height():
    """A forward-deterministic grammar derives at most one tree; with
    depth-1 rules its height is less than the number of nonterminals."""
    # forward deterministic: at most one rule per nonterminal
    g = _grammar(SIGMA_E, "S", [
        "S -> sigma(A,B)", "A -> sigma(B,B)", "B -> e"])
    lang = enumerate_grammar(g, 12)
    assert len(lang) == 1
    assert next(iter(lang)).height < len(g.nonterminals)
