"""Tests for the semantics-preserving machine rewrites."""

import itertools
import math

import pytest

from artifact.core import (
    RankedAlphabet, Tree, addresses, all_trees, child_number, down, leaf,
    marked_name, navigate, preorder, substitute_leaves, subtree_at,
    tree_key, try_navigate, STAY, UP,
)
from artifact.constructions import (
    ChildProfileTest, ContractError, Decomposition, Pipeline, absorb_right,
    compose_det_topdown, compose_su, compose_with_pruning, disjoint_tests,
    domain_automaton, identity_like, intersect_tests, inverse_image,
    linear_bounded_factorization, linear_bounded_pipeline, localize_second,
    lookahead_of_topdown, pipeline_outputs, productivity_decompose,
    productive_configs_nondet, pruning_image, rename_states, restrict_range,
    split_lookaround, split_lookaround_nondet, stay_free, uniformize,
    _assemble, _automaton_tests, _chain_behaviours, _child_classes,
    _distinct_tests, _is_deterministic_local, _leaves_fits, _leaves_phase,
    _marked_product, _monadic_phase, _move_tables, _normalize_for_pruning,
    _per_tree, _product_automaton, _rebuild, _restrict_domain_test,
    _rules_by, _subtree_behaviours,
)
from artifact import constructions, transducer
from artifact.fixtures import (
    OUT3, SIGMA_E, comb_tree, full_binary, identity_relabeler,
    internal_sigma_test, leaf_chooser, left_projection, m_exp,
    query_transducer, random_automaton, random_marked_test, random_subtest,
    random_transducer,
)
from artifact.regular import (
    AutomatonTest, BottomUpAutomaton, NodeTest, OracleTest,
    RegularTreeGrammar, ResourceError, SubTest, automaton_all,
    enumerate_grammar, eval_test, explore, grammar_to_automaton,
    marked_automaton, min_witnesses, singleton_automaton, _labels,
    _realizable,
)
from artifact.transducer import (
    Call, Rule, Transducer, call, classify, enumerate_outputs,
    eval_deterministic, out, relabel_rules, trace_productive,
    _applicable_all, _product_disjoint,
)
from corpus import (
    OUT_TREES_5, SIG_TREES_5, collect_machines, has_tests,
    sequential_outputs, single_use_on, stay_acyclic,
)
from phase_reference import (
    _abstract_exits, _chain_endpoints, _excursion_exits, _gamma_candidates,
    _rank1_symbols,
)
from chi_reference import (
    compose_det_topdown_pruning_reference, compose_with_pruning_reference,
    restrict_range_reference,
)

import random


def same_outputs(Ma, Mb, corpus, bound=8):
    for t in corpus:
        assert enumerate_outputs(Ma, t, bound) == \
            enumerate_outputs(Mb, t, bound), t


# ---------------------------------------------------------------------------
# Test disjointification

def test_disjoint_tests_query():
    M = query_transducer()
    Md = disjoint_tests(M)
    same_outputs(M, Md, SIG_TREES_5, 12)


def test_disjoint_tests_atoms_are_disjoint():
    M = query_transducer()
    Md = disjoint_tests(M)
    tests = [r.test for r in Md.rules if r.test is not None]
    distinct = []
    for t in tests:
        if not any(t is d for d in distinct):
            distinct.append(t)
    for a, b in itertools.combinations(distinct, 2):
        for t in SIG_TREES_5:
            for u in addresses(t):
                assert not (eval_test(a, t, u) and eval_test(b, t, u))


def test_disjoint_tests_random_sub_machines():
    for det in (True, False):
        for M in collect_machines(8, "sub", det, pred=has_tests):
            Md = disjoint_tests(M)
            same_outputs(M, Md, SIG_TREES_5)
            assert classify(Md).sub_testing


def test_disjoint_tests_random_lookaround_machines():
    for M in collect_machines(8, "lookaround", True, pred=has_tests):
        Md = disjoint_tests(M)
        same_outputs(M, Md, SIG_TREES_5)


def _disjoint_tests_reference(M):
    """``disjoint_tests`` as it was, taking the realizable product states
    from a least witness tree per state."""
    tests = _automaton_tests(M, "cannot disjointify {!r}")
    if not tests:
        return M
    tindex = {id(t): i for i, t in enumerate(tests)}
    if all(t.subtest for t in tests):
        kind, auts = SubTest, [t.aut for t in tests]
    else:
        kind, auts = AutomatonTest, [marked_automaton(t) for t in tests]
    states, delta, sink = _product_automaton(auts)
    whole = BottomUpAutomaton(auts[0].alphabet, states, [], delta,
                              check_total=False)
    pattern = {p: tuple(p != sink and p[i] in a.finals
                        for i, a in enumerate(auts)) for p in states}
    patterns = sorted({pattern[p] for p in _realizable(whole)})
    atoms = {pat: kind(whole.with_finals(
        p for p in states if pattern[p] == pat)) for pat in patterns}
    rules = []
    for r in M.rules:
        if r.test is None:
            hits = patterns
        else:
            i = tindex[id(r.test)]
            hits = [pat for pat in patterns if pat[i]]
        for pat in hits:
            rules.append(Rule(r.state, r.symbol, r.child_no, atoms[pat],
                              r.rhs))
    return Transducer(M.input_alphabet, M.output_alphabet, M.states,
                      M.initials, rules)


def test_disjoint_tests_match_the_reference():
    """The same atoms as the witness-tree route, for the query transducer,
    m_exp and 30 machines per determinism flag of three tested kinds."""
    machines = [query_transducer(), m_exp()]
    for kind in ("lookaround", "sub", "topdown"):
        for det in (True, False):
            machines += collect_machines(30, kind, det)
    atoms = 0
    for M in machines:
        got = assert_same_result(disjoint_tests, _disjoint_tests_reference,
                                 M)
        want = _disjoint_tests_reference(M)
        for a, b in zip(got.rules, want.rules):
            if a.test is not None:
                assert (type(a.test), a.test.aut.finals, a.test.aut.delta) \
                    == (type(b.test), b.test.aut.finals, b.test.aut.delta)
                atoms += 1
    assert atoms >= 500, atoms


# ---------------------------------------------------------------------------
# Stay removal

def test_stay_free_m_exp():
    M = m_exp()
    Ms = stay_free(M)
    assert all(c.instr.kind != "stay" for r in Ms.rules for c in r.calls())
    for n in (1, 2, 3):
        t = all_trees(SIGMA_E, 5)[0]
    same_outputs(M, Ms, SIG_TREES_5, 20)


def test_stay_free_random_machines():
    for det in (True, False):
        for M in collect_machines(8, "local", det, pred=stay_acyclic):
            Ms = stay_free(M)
            assert all(c.instr.kind != "stay"
                       for r in Ms.rules for c in r.calls())
            same_outputs(M, Ms, SIG_TREES_5)


def test_stay_free_random_sub_machines():
    for M in collect_machines(6, "sub", True,
                              pred=lambda M: stay_acyclic(M)
                              and has_tests(M)):
        Ms = stay_free(M)
        assert all(c.instr.kind != "stay"
                   for r in Ms.rules for c in r.calls())
        same_outputs(M, Ms, SIG_TREES_5)


def test_stay_free_bounds_the_number_of_trees(monkeypatch):
    # every closure grammar of this machine is finite from its initial
    # nonterminal; ("S", "q1") derives ever larger trees but is not
    # reachable from ("S", "q0"), so it is not enumerated
    M = random_transducer(5, kind="local", deterministic=False, max_tests=1)
    Ms = stay_free(M)
    assert len(Ms.rules) == 12
    same_outputs(M, Ms, SIG_TREES_5)
    # the ceiling still counts the trees of the reachable nonterminals
    monkeypatch.setattr(constructions, "_STAY_ENUMERATION_CEILING", 2)
    with pytest.raises(ResourceError, match=r"^grammar enumeration: 3 "
                                            r"trees exceed the ceiling of 2$"):
        stay_free(M)
    g = RegularTreeGrammar(["S"], SIGMA_E, ["S"],
                           [("S", leaf("e")),
                            ("S", Tree("sigma", [leaf("S"), leaf("S")]))])
    assert len(enumerate_grammar(g, 7, max_count=9)) == 9
    with pytest.raises(ResourceError, match=r"^grammar enumeration: 9 "
                                            r"trees exceed the ceiling of 8$"):
        enumerate_grammar(g, 7, max_count=8)


def test_stay_free_keeps_an_output_beside_an_unproductive_stay():
    """On s(e), q's second rule stays into u, which has no rule, and into
    x, which pumps g(...) but can also go up.  The closure rule through u
    derives nothing, so x is not useful from q: q's closure family is
    finite, and the output c survives stay removal."""
    I = RankedAlphabet({"s": 1, "e": 0})
    O = RankedAlphabet({"f": 2, "g": 1, "c": 0})
    M = Transducer(I, O, ["r", "q", "u", "x", "a"], ["r"], [
        Rule("r", "s", 0, None, call("q", down(1))),
        Rule("q", "e", 1, None, call("a", UP)),
        Rule("q", "e", 1, None, out("f", call("u", STAY), call("x", STAY))),
        Rule("x", "e", 1, None, out("g", call("x", STAY))),
        Rule("x", "e", 1, None, call("a", UP)),
        Rule("a", "s", 0, None, leaf("c"))])
    t = Tree("s", [leaf("e")])
    assert enumerate_outputs(M, t, 6) == {leaf("c")}
    assert enumerate_outputs(stay_free(M), t, 6) == {leaf("c")}


def test_stay_free_cut_back_drops_what_an_unproductive_stay_leaves():
    """On s(e), q's family f(c, g^n(c)) is infinite, so it is cut back.
    Without the outward call of u, u derives nothing, and the x beside it
    must not be enumerated: the cut-back family is empty, not an
    enumeration of g^n(c) that exceeds its ceiling."""
    I = RankedAlphabet({"s": 1, "e": 0})
    O = RankedAlphabet({"f": 2, "g": 1, "c": 0})
    M = Transducer(I, O, ["r", "q", "u", "x", "a"], ["r"], [
        Rule("r", "s", 0, None, call("q", down(1))),
        Rule("q", "e", 1, None, out("f", call("u", STAY), call("x", STAY))),
        Rule("u", "e", 1, None, call("a", UP)),
        Rule("x", "e", 1, None, out("g", call("x", STAY))),
        Rule("x", "e", 1, None, leaf("c")),
        Rule("a", "s", 0, None, leaf("c"))])
    t = Tree("s", [leaf("e")])
    assert enumerate_outputs(stay_free(M), t, 6) == set()


# ---------------------------------------------------------------------------
# Look-around splitting

def check_split(M, N, M2, corpus, bound=8):
    for t in corpus:
        direct = enumerate_outputs(M, t, bound)
        via = set()
        for s in enumerate_outputs(N, t, 2 * len(t.label) + 64):
            via |= enumerate_outputs(M2, s, bound)
        assert direct == via, t


def test_split_lookaround_query():
    M = query_transducer()
    N, M2 = split_lookaround(M)
    assert classify(N).relabeling and classify(N).deterministic
    assert classify(M2).local
    check_split(M, N, M2, SIG_TREES_5, 12)


def test_split_lookaround_random():
    for M in collect_machines(8, "lookaround", True, pred=has_tests):
        N, M2 = split_lookaround(M)
        assert classify(N).relabeling and classify(N).deterministic
        assert classify(M2).local
        check_split(M, N, M2, SIG_TREES_5)


def check_annotation(M, N, M2, corpus):
    """N relabels each node of a tree in one way, and M2 offers at the
    label it gives exactly M's rules whose tests hold at the node."""
    def offered(rules):
        return sorted(((r.state, r.child_no, r.rhs) for r in rules), key=repr)

    for t in corpus:
        (s,) = enumerate_outputs(N, t, 2 * t.size + 64)
        for u, node in preorder(t):
            label = subtree_at(s, u).label
            assert offered(r for r in M2.rules if r.symbol == label) == \
                offered(r for r in M.rules if r.symbol == node.label
                        and eval_test(r.test, t, u)), (t, u)


def test_split_lookaround_nondet_random():
    for M in collect_machines(8, "sub", False, pred=has_tests) + [
            lookahead_of_topdown(M) for M in
            collect_machines(4, "topdown", False, pred=has_tests)]:
        N, M2 = split_lookaround_nondet(M)
        assert classify(N).relabeling
        assert classify(M2).local
        check_split(M, N, M2, SIG_TREES_5)
        check_annotation(M, N, M2, all_trees(SIGMA_E, 7))


def test_split_lookaround_nondet_rejects_marked_tests():
    M = collect_machines(1, "lookaround", False, pred=has_tests)[0]
    with pytest.raises(ContractError):
        split_lookaround_nondet(M)


def test_split_lookaround_nondet_without_tests():
    M = collect_machines(1, "local", False)[0]
    N, M2 = split_lookaround_nondet(M)
    check_split(M, N, M2, SIG_TREES_5)


# ---------------------------------------------------------------------------
# Look-ahead conversion for top-down machines

def test_lookahead_of_topdown_random():
    for M in collect_machines(8, "topdown", True, pred=has_tests):
        Ms = lookahead_of_topdown(M)
        assert classify(Ms).sub_testing
        same_outputs(M, Ms, SIG_TREES_5)


def test_lookahead_preserves_determinism():
    for M in collect_machines(6, "topdown", True, pred=has_tests):
        Ms = lookahead_of_topdown(M)
        if classify(M).deterministic:
            for t in SIG_TREES_5:
                assert eval_deterministic(Ms, t)[0] == \
                    eval_deterministic(M, t)[0]


def test_lookahead_rejects_up_moves():
    with pytest.raises(ContractError):
        lookahead_of_topdown(query_transducer())


# ---------------------------------------------------------------------------
# Localizing the second stage of a pipeline

def test_localize_second_random():
    firsts = collect_machines(4, "local", True)
    seconds = collect_machines(4, "sub", True, alphabet=OUT3,
                               output=OUT3, pred=has_tests)
    seconds += [lookahead_of_topdown(M) for M in collect_machines(
        4, "topdown", True, alphabet=OUT3, output=OUT3, pred=has_tests)]
    for M1, M2 in zip(firsts + firsts, seconds):
        M1p, M2p = localize_second(M1, M2)
        assert classify(M2p).local
        for t in SIG_TREES_5:
            assert sequential_outputs(M1, M2, t, 8) == \
                sequential_outputs(M1p, M2p, t, 8), t


def test_localize_second_without_tests_is_identity():
    M1 = collect_machines(1, "local", True)[0]
    M2 = collect_machines(1, "local", True, alphabet=OUT3, output=OUT3)[0]
    M1p, M2p = localize_second(M1, M2)
    assert M2p is M2


# ---------------------------------------------------------------------------
# Composition

def test_compose_det_topdown_random():
    firsts = collect_machines(8, "local", True)
    seconds = collect_machines(8, "topdown", True, alphabet=OUT3,
                               output=OUT3, max_tests=0)
    for M1, M2 in zip(firsts, seconds):
        C = compose_det_topdown(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 8) == \
                sequential_outputs(M1, M2, t, 8), t


def test_compose_det_topdown_m_exp_then_projection():
    M1 = m_exp()
    M2 = left_projection()
    C = compose_det_topdown(M1, M2)
    for t in SIG_TREES_5:
        assert enumerate_outputs(C, t, 20) == \
            sequential_outputs(M1, M2, t, 20), t


def test_compose_with_pruning_random():
    firsts = collect_machines(8, "local", False)
    seconds = collect_machines(8, "pruning", False, alphabet=OUT3,
                               output=OUT3, max_tests=0)
    for M1, M2 in zip(firsts, seconds):
        C = compose_with_pruning(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 6) == \
                sequential_outputs(M1, M2, t, 6, intermediate_size=12), t


def _rule_key(r):
    return (r.state, r.symbol, r.child_no, r.rhs, repr(r.test))


def test_pruning_composition_matches_the_full_chi_reference():
    """A pruner that tells every child number apart keeps the full
    augmentation: the composition is the reference's, rule for rule."""
    for det in (True, False):
        firsts = collect_machines(30, "local", det)
        seconds = collect_machines(
            30, "pruning", det, alphabet=OUT3, output=OUT3, max_tests=0,
            pred=lambda M: _child_classes(M) == [0, 1, 2])
        for M1, M2 in zip(firsts, seconds):
            got = compose_with_pruning(M1, M2)
            want = compose_with_pruning_reference(M1, M2)
            assert got.states == want.states
            assert got.initials == want.initials
            assert [_rule_key(r) for r in got.rules] == \
                [_rule_key(r) for r in want.rules]


def _two_class_pruner():
    """A pruner over OUT3 that keeps both children of a sigma at the root
    and only the first one below it: child numbers 1 and 2 are alike."""
    rules = [Rule("q", "sigma", 0, None,
                  out("sigma", call("q", down(1)), call("q", down(2))))]
    keep_first = out("tau", call("q", down(1)))
    for j in (1, 2):
        rules.append(Rule("q", "sigma", j, None, keep_first))
    rules += relabel_rules(OUT3, "q", "tau", "tau", ["q"])
    rules += relabel_rules(OUT3, "q", "e", "e", [])
    return Transducer(OUT3, OUT3, ["q"], ["q"], rules)


def test_pruning_composition_with_a_partial_class_collapse():
    """Two pruners whose child numbers 1 and 2 fall in one class, after
    random local machines over an input alphabet with a unary symbol: the
    composition has classes 0 and 1 only, and it translates as the full
    augmentation on every input of up to 7 nodes.  Sequential enumeration,
    on the inputs of up to 5 nodes, bounds the intermediate tree, so it
    finds a subset of the outputs."""
    inputs = all_trees(OUT3, 7)
    smaller = answered = 0
    for M2 in (_two_class_pruner(), left_projection()):
        assert _child_classes(M2) == [0, 1, 1]
        for M1 in collect_machines(8, "local", False, alphabet=OUT3,
                                   output=M2.input_alphabet):
            C = compose_with_pruning(M1, M2)
            ref = compose_with_pruning_reference(M1, M2)
            assert {q[1][1] for q in C.states} <= {0, 1}
            assert len(C.rules) <= len(ref.rules)
            smaller += len(C.rules) < len(ref.rules)
            for t in inputs:
                got = enumerate_outputs(C, t, 8)
                assert got == enumerate_outputs(ref, t, 8), t
                if t.size <= 5:
                    assert got >= sequential_outputs(
                        M1, M2, t, 8, intermediate_size=14), t
                answered += bool(got)
    assert smaller and answered > len(inputs)


def _range_cases():
    rng = random.Random("chi-range")
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer(), leaf_chooser()]
    machines += collect_machines(30, "local", False)
    machines += collect_machines(30, "topdown", True)
    return [(M, random_automaton(rng, M.output_alphabet)) for M in machines]


def test_restrict_range_matches_the_full_chi_reference():
    sig7 = all_trees(SIGMA_E, 7)
    for M, L in _range_cases():
        got, want = restrict_range(M, L), restrict_range_reference(M, L)
        for t in SIG_TREES_5:
            assert enumerate_outputs(got, t, 8) == \
                enumerate_outputs(want, t, 8), t
        A, B = inverse_image(M, L), domain_automaton(want)
        assert [A.accepts(t) for t in sig7] == [B.accepts(t) for t in sig7]


def test_restricted_m_exp_has_one_copy_per_state():
    """The identity on a language never reads child numbers, so the
    restricted machine of m_exp keeps one copy of each of its states."""
    for h, sizes, full in ((2, (9, 27), (17, 48)), (4, (17, 49), (33, 92))):
        L = singleton_automaton(full_binary(h), SIGMA_E)
        R = restrict_range(m_exp(), L)
        ref = restrict_range_reference(m_exp(), L)
        assert (len(R.states), len(R.rules)) == sizes
        assert (len(ref.states), len(ref.rules)) == full


def test_compose_det_topdown_augments_the_first_machine_once(monkeypatch):
    """The domain guard evaluates the first machine itself."""
    calls = []
    augment = constructions._chi_augment

    def counted(*args):
        calls.append(args)
        return augment(*args)
    monkeypatch.setattr(constructions, "_chi_augment", counted)
    sig7 = all_trees(SIGMA_E, 7)
    pruners = [left_projection()] + collect_machines(
        3, "pruning", True, alphabet=SIGMA_E, output=SIGMA_E, max_tests=0)
    query = query_transducer()
    pairs = [(M1, M2) for M1 in (m_exp(), identity_relabeler(),
                                 left_projection()) for M2 in pruners]
    pairs.append((query, identity_like(query.output_alphabet)))
    for M1, M2 in pairs:
        del calls[:]
        C = compose_det_topdown(M1, M2)
        assert len(calls) == 1
        ref = compose_det_topdown_pruning_reference(M1, M2)
        for t in sig7:
            assert enumerate_outputs(C, t, 40) == \
                enumerate_outputs(ref, t, 40), t


def test_compose_su_identity_right():
    M1 = collect_machines(1, "local", True)[0]
    M2 = identity_relabeler(OUT3)
    C = compose_su(M1, M2)
    for t in SIG_TREES_5:
        assert enumerate_outputs(C, t, 8) == \
            sequential_outputs(M1, M2, t, 8), t


def test_compose_su_random():
    firsts = collect_machines(6, "local", True,
                              pred=single_use_on(all_trees(SIGMA_E, 7)))
    seconds = collect_machines(6, "local", True, alphabet=OUT3, output=OUT3)
    for M1, M2 in zip(firsts, seconds):
        C = compose_su(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 8) == \
                sequential_outputs(M1, M2, t, 8), t


def _one_state(*rules):
    return Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], rules)


def test_preconditions_raise_their_exact_messages():
    """Each construction raises its precondition's message on a machine
    that breaks it, and not on the smallest machine that meets it."""
    ident = identity_relabeler()
    guard = SubTest(automaton_all(SIGMA_E))
    emit = _one_state(Rule("q", "e", 0, None, leaf("e")))
    guarded = _one_state(Rule("q", "e", 0, guard, leaf("e")))
    staying = _one_state(Rule("q", "e", 0, None, call("q", STAY)))
    guarded_stay = _one_state(Rule("q", "e", 0, guard, call("q", STAY)))
    climbing = _one_state(Rule("q", "e", 0, None, leaf("e")),
                          Rule("q", "e", 1, None, call("q", UP)))
    local = "second machine must be local here"
    cases = [
        (lambda M: compose_with_pruning(ident, M), guarded, emit, local),
        (lambda M: compose_with_pruning(ident, M), staying, emit,
         "second machine must be pruning here"),
        (lambda M: compose_det_topdown(ident, M), guarded, emit, local),
        (lambda M: compose_det_topdown(ident, M), guarded_stay, staying,
         local),
        (lambda M: compose_det_topdown(ident, M), climbing, staying,
         "up-moves of the second machine need the single-use composition"),
        (lambda M: compose_su(ident, M), guarded, emit, local),
        (pruning_image, staying, emit,
         "image automaton needs a pruning machine"),
        (lookahead_of_topdown, climbing, emit,
         "look-ahead conversion needs a machine without up-moves"),
        (uniformize, climbing, emit,
         "uniformization needs a machine without up-moves"),
    ]
    for phase in ("leaves", "monadic"):
        cases.append((lambda M, p=phase: productivity_decompose(M, p),
                      guarded, emit,
                      "productivity decomposition needs a local machine"))
    for construct, bad, good, message in cases:
        with pytest.raises(ContractError) as raised:
            construct(bad)
        assert str(raised.value) == message
        construct(good)


# ---------------------------------------------------------------------------
# Absorbing a right-hand stage

def test_absorb_right_topdown_arm():
    firsts = collect_machines(5, "local", True)
    seconds = collect_machines(5, "topdown", True, alphabet=OUT3,
                               output=OUT3)
    for M1, M2 in zip(firsts, seconds):
        C = absorb_right(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 8) == \
                sequential_outputs(M1, M2, t, 8), t


def test_absorb_right_pruning_arm():
    firsts = collect_machines(5, "local", False)
    seconds = collect_machines(5, "pruning", False, alphabet=OUT3,
                               output=OUT3)
    for M1, M2 in zip(firsts, seconds):
        C = absorb_right(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 6) == \
                sequential_outputs(M1, M2, t, 6, intermediate_size=12), t


def test_absorb_right_rejects_unknown_shape():
    M1 = query_transducer()
    M2 = collect_machines(1, "local", True,
                          alphabet=RankedAlphabet(
                              {"sigma": 2, "e": 0, "1": 0, "2": 0}),
                          output=OUT3)[0]
    with pytest.raises(ContractError):
        absorb_right(M1, M2)


# ---------------------------------------------------------------------------
# Domain and inverse-image automata

def brute_domain(M, t):
    if classify(M).deterministic:
        return eval_deterministic(M, t)[0] is not None
    return bool(enumerate_outputs(M, t, 64))


def test_domain_automaton_fixtures():
    for M in (m_exp(), left_projection(), identity_relabeler(),
              query_transducer()):
        A = domain_automaton(M)
        for t in SIG_TREES_5:
            assert A.accepts(t) == brute_domain(M, t), (M, t)


def test_domain_automaton_m_exp_total():
    A = domain_automaton(m_exp())
    assert all(A.accepts(t) for t in all_trees(SIGMA_E, 9))


def test_domain_automaton_random():
    for det in (True, False):
        for M in collect_machines(8, "topdown", det):
            A = domain_automaton(M)
            for t in SIG_TREES_5:
                assert A.accepts(t) == brute_domain(M, t), t


def test_inverse_image_random():
    rng = random.Random("inverse")
    for M in collect_machines(6, "topdown", True):
        L = random_automaton(rng, OUT3)
        A = inverse_image(M, L)
        for t in SIG_TREES_5:
            want = any(L.accepts(s)
                       for s in enumerate_outputs(M, t, 64))
            assert A.accepts(t) == want, t


# ---------------------------------------------------------------------------
# Pruning image

def nonempty(A):
    return bool(set(A.finals) & set(_realizable(A)))


def test_pruning_image_random():
    for det in (True, False):
        for M in collect_machines(4, "pruning", det, alphabet=OUT3,
                                  output=OUT3):
            A = pruning_image(M)
            for t in all_trees(OUT3, 5):
                for s in enumerate_outputs(M, t, 5):
                    assert A.accepts(s), (t, s)
            # acceptance of small trees agrees with realizability of the
            # range-restricted machine
            for s in all_trees(OUT3, 3):
                want = nonempty(domain_automaton(
                    restrict_range(M, singleton_automaton(s, OUT3))))
                assert A.accepts(s) == want, s


def test_pruning_image_with_input_restriction():
    rng = random.Random("prune-range")
    M = collect_machines(1, "pruning", True, alphabet=OUT3, output=OUT3)[0]
    L = random_automaton(rng, OUT3)
    A = pruning_image(M, L)
    Afull = pruning_image(M)
    for t in all_trees(OUT3, 6):
        if L.accepts(t):
            for s in enumerate_outputs(M, t, 6):
                assert A.accepts(s), (t, s)
    # restricting the input language can only shrink the image
    for s in all_trees(OUT3, 4):
        assert not A.accepts(s) or Afull.accepts(s), s


def _same_language(A, B):
    """Whether two deterministic, possibly partial, automata over one
    alphabet accept the same trees: no reachable pair of their states
    (None where a run has no state) is final on one side only."""
    def step(sym, combo):
        a = A.delta.get((sym, tuple(p for p, _ in combo)))
        b = B.delta.get((sym, tuple(q for _, q in combo)))
        return None if a is None and b is None else (a, b)

    pairs, _ = explore(A.alphabet, step, math.inf, "language equality")
    return all((a in A.finals) == (b in B.finals) for a, b in pairs)


def _pruning_image_reference(M, L=None):
    """``pruning_image`` as it was, building a grammar with one rhs tree
    per rule for ``grammar_to_automaton`` to flatten again, over the
    profile automaton of the reference look-ahead conversion."""
    Ms = _lookahead_of_topdown_reference(M) if any(
            not isinstance(t, ChildProfileTestReference)
            for t in _distinct_tests(M)) else M
    tests = _distinct_tests(Ms)
    auts = list(tests[0].automata) if tests else []
    base = Ms.input_alphabet
    if L is None:
        L = automaton_all(base)

    def step(sym, combo):
        tup = tuple(a.delta[(sym, tuple(c[0][i] for c in combo))]
                    for i, a in enumerate(auts))
        return tup, L.delta[(sym, tuple(c[1] for c in combo))]

    pairs, delta = explore(base, step, constructions._IMAGE_CEILING,
                           "image closure")
    prodlist = {}
    for key, pair in delta.items():
        prodlist.setdefault(pair, []).append(key)
    nts = set()
    grules = []
    initials = set()
    queue = []
    for (tup, la) in pairs:
        if la in L.finals:
            for q0 in Ms.initials:
                nt = ("I", q0, tup, la, 0)
                initials.add(nt)
                queue.append(nt)
    while queue:
        nt = queue.pop()
        if nt in nts:
            continue
        nts.add(nt)
        _, q, tup, la, j = nt
        for (sym, combo) in prodlist.get((tup, la), ()):
            for r in Ms.rules_at(q, sym, j):
                if r.test is not None and not r.test.matches(
                        sym, [c[0] for c in combo]):
                    continue

                def fill(cl):
                    if not isinstance(cl, Call):
                        return None
                    c = cl.instr.index
                    sub = ("I", cl.state, combo[c - 1][0], combo[c - 1][1], c)
                    if sub not in nts:
                        queue.append(sub)
                    return leaf(sub)

                grules.append((nt, substitute_leaves(r.rhs, fill)))
    pending = {lhs for lhs, _ in grules} | initials
    pending.update(l for l in _labels(rhs for _, rhs in grules)
                   if isinstance(l, tuple) and l and l[0] == "I")
    g = RegularTreeGrammar(pending | nts, Ms.output_alphabet, initials,
                           grules)
    return grammar_to_automaton(g)


def test_pruning_image_matches_the_grammar_reference():
    """The image read straight off the rules as productions and chain
    edges is the automaton that the grammar of rhs trees gave: the same
    subset states, finals and transitions, on the pruning fixtures and on
    64 random pruning machines, over all inputs and over a random input
    automaton."""
    rng = random.Random("prune-reference")
    machines = [identity_relabeler(), left_projection(), leaf_chooser()]
    for max_tests in (0, 1):
        for det in (True, False):
            machines += collect_machines(16, "pruning", det, alphabet=OUT3,
                                         output=OUT3, max_tests=max_tests)
    for M in machines:
        for L in (None, random_automaton(rng, M.input_alphabet)):
            A, want = pruning_image(M, L), _pruning_image_reference(M, L)
            if has_tests(M):
                # the grammar's nonterminals name blocks of the guards'
                # states, not the reference's profile states
                assert _same_language(A, want), M
                assert len(A.states) == len(want.states), M
            else:
                assert (A.states, A.finals, A.delta) == \
                    (want.states, want.finals, want.delta), M
    # chain edges and the look-ahead route are both exercised
    assert any(r.kind == "move" for M in machines for r in M.rules)
    assert any(has_tests(M) for M in machines)


# ---------------------------------------------------------------------------
# Uniformization

def test_uniformize_random():
    for M in collect_machines(8, "topdown", False):
        U = uniformize(M)
        for t in SIG_TREES_5:
            full = enumerate_outputs(M, t, 10)
            uni = enumerate_outputs(U, t, 10)
            assert uni <= full, t
            assert bool(uni) == brute_domain(M, t), t
            assert len(uni) <= 1, t


def test_uniformize_leaf_chooser():
    from artifact.fixtures import leaf_chooser
    U = uniformize(leaf_chooser())
    outs = enumerate_outputs(U, leaf("e"), 4)
    assert len(outs) == 1 and outs <= {leaf("a"), leaf("b")}


# ---------------------------------------------------------------------------
# Domain and range restriction

def test_restrict_domain():
    M = identity_relabeler()
    L = domain_automaton(left_projection())
    Mr = _restrict_domain_test(M, SubTest(L))
    for t in SIG_TREES_5:
        got = enumerate_outputs(Mr, t, 8)
        want = {t} if L.accepts(t) else set()
        assert got == want, t


def test_restrict_range():
    rng = random.Random("range")
    M = collect_machines(1, "local", False)[0]
    L = random_automaton(rng, OUT3)
    Mr = restrict_range(M, L)
    for t in SIG_TREES_5:
        want = {s for s in enumerate_outputs(M, t, 8) if L.accepts(s)}
        assert enumerate_outputs(Mr, t, 8) == want, t


# ---------------------------------------------------------------------------
# Productivity decomposition

def check_decomposition(M, d, corpus, bound=8, ibound=14):
    stages = list(d.pruner.stages) + [d.remainder]
    for t in corpus:
        direct = enumerate_outputs(M, t, bound)
        via = pipeline_outputs(stages, t, bound, intermediate_size=ibound)
        assert direct == via, t
        if d.witness_map is not None:
            s = eval_deterministic(M, t)[0]
            w = d.witness_map(t)
            if s is None:
                continue
            assert w is not None
            assert eval_deterministic(d.remainder, w)[0] == s, t


def test_leaves_phase_fixtures():
    for M in (m_exp(), left_projection(), identity_relabeler()):
        d = productivity_decompose(M, "leaves")
        check_decomposition(M, d, SIG_TREES_5, bound=20)


def test_leaves_phase_random():
    for det in (True, False):
        for M in collect_machines(8, "local", det, alphabet=OUT3,
                                  output=OUT3):
            d = productivity_decompose(M, "leaves")
            check_decomposition(M, d, OUT_TREES_5)


def test_leaves_witness_keeps_only_productive_subtrees():
    M = left_projection()
    d = productivity_decompose(M, "leaves")
    t = Tree("sigma", [leaf("e"), Tree("sigma", [leaf("e"), leaf("e")])])
    w = d.witness_map(t)
    # the right subtree of the root is never visited, hence deleted
    assert len(w.children) == 1


def test_monadic_phase_random():
    for det in (True, False):
        for M in collect_machines(8, "local", det, alphabet=OUT3,
                                  output=OUT3):
            d = productivity_decompose(M, "monadic")
            check_decomposition(M, d, OUT_TREES_5)


def test_monadic_phase_trivial_without_unary_symbols():
    M = m_exp()
    d = productivity_decompose(M, "monadic")
    check_decomposition(M, d, SIG_TREES_5, bound=20)


def test_decompose_rejects_tested_machines():
    with pytest.raises(ContractError):
        productivity_decompose(query_transducer(), "leaves")


def _all_up_machine():
    """Four states move down into child 1 at sigma, and every state can
    come back up in every state: 4 x 4 candidate excursion pairs at
    sigma, past the 12 of the old phases' pair ceiling."""
    states = ["q0", "q1", "q2", "q3"]
    rules = [Rule(q, "sigma", j, None, call(q, down(1)))
             for q in states for j in (0, 1, 2)]
    rules += [Rule(q, sym, j, None, call(p, UP))
              for q in states for p in states
              for sym in ("sigma", "e") for j in (1, 2)]
    return Transducer(SIGMA_E, SIGMA_E, states, ["q0"], rules)


def test_decompose_answers_the_machine_past_the_old_pair_ceiling():
    M = _all_up_machine()
    with pytest.raises(ResourceError, match=r"^candidate excursion pairs: "
                       r"16 pairs exceed the ceiling of 12$"):
        _leaves_phase_reference(M)
    d = productivity_decompose(M, "leaves")
    # one behaviour: each state comes back up in every state
    assert len(d.remainder.input_alphabet) == 15
    check_decomposition(M, d, SIG_TREES_5)
    check_factorization(M, SIG_TREES_5)


def test_decompose_names_the_behaviour_ceiling_and_the_count(monkeypatch):
    from artifact import constructions
    monkeypatch.setattr(constructions, "_BEHAVIOUR_CEILING", 1)
    message = r"^excursion behaviours: 2 states exceed the ceiling of 1$"
    with pytest.raises(ResourceError, match=message):
        productivity_decompose(m_exp(), "leaves")
    with pytest.raises(ResourceError, match=message):
        linear_bounded_factorization(m_exp())
    M = random_transducer(0, kind="local", alphabet=OUT3)
    with pytest.raises(ResourceError, match=r"^chain behaviours: \d+ states "
                       r"exceed the ceiling of 1$"):
        productivity_decompose(M, "monadic")


# The two move-only excursion searches that the phases carried before
# ``_excursion_exits`` replaced them and the pruners' guards came to read
# the explored behaviours, kept as references.

def _leaves_excursions_reference(Mn, t, u, picks):
    node = subtree_at(t, u)
    j = child_number(u)
    rel = set()
    for q in sorted(Mn.states, key=repr):
        for r in Mn.rules_at(q, node.label, j):
            if r.kind != "move":
                continue
            c = r.rhs.label
            if c.instr.kind != "down" or c.instr.index in picks:
                continue
            root = u + (c.instr.index,)
            seen = set()
            stack = [(c.state, root)]
            while stack:
                s, v = stack.pop()
                if (s, v) in seen:
                    continue
                seen.add((s, v))
                vn = subtree_at(t, v)
                for r2 in Mn.rules_at(s, vn.label, child_number(v)):
                    if r2.kind != "move":
                        continue
                    w = navigate(t, v, r2.rhs.label.instr)
                    if w == u:
                        rel.add((q, r2.rhs.label.state))
                    elif len(w) >= len(root):
                        stack.append((r2.rhs.label.state, w))
    return frozenset(rel)


def _monadic_excursions_reference(Mn, that, u, hatted):
    def is_hat(label):
        return label in hatted

    def base_label(label):
        return label[:-2] if label in hatted else label

    rel = set()
    j = child_number(u)
    node = subtree_at(that, u)
    sym = base_label(node.label)
    for q in sorted(Mn.states, key=repr):
        for r in Mn.rules_at(q, sym, j):
            if r.kind != "move":
                continue
            c = r.rhs.label
            v = try_navigate(that, u, c.instr)
            if v is None or not is_hat(subtree_at(that, v).label):
                continue
            seen = set()
            stack = [(c.state, v)]
            while stack:
                s, w = stack.pop()
                if (s, w) in seen:
                    continue
                seen.add((s, w))
                wn = subtree_at(that, w)
                for r2 in Mn.rules_at(s, base_label(wn.label),
                                      child_number(w)):
                    if r2.kind != "move":
                        continue
                    x = try_navigate(that, w, r2.rhs.label.instr)
                    if x is None:
                        continue
                    if is_hat(subtree_at(that, x).label):
                        stack.append((r2.rhs.label.state, x))
                        continue
                    s2 = r2.rhs.label.state
                    if x == u:
                        rel.add((q, (s2, "s")))
                    elif len(x) < len(u):
                        rel.add((q, (s2, "u")))
                    else:
                        rel.add((q, (s2, "d%d" % x[len(u)])))
    return frozenset(rel)


def _hat(t, chosen, v=()):
    """t with the labels of the nodes at the addresses ``chosen`` hatted."""
    kids = [_hat(c, chosen, v + (i,)) for i, c in enumerate(t.children, 1)]
    return Tree(t.label + "~h" if v in chosen else t.label, kids)


def _excursion_cases():
    """(machine, trees) pairs: the local fixtures on all trees of up to 7
    nodes over SIGMA_E, and seeded local machines over OUT3 on those and
    on all trees of up to 7 nodes over OUT3."""
    sig, out3 = all_trees(SIGMA_E, 7), all_trees(OUT3, 7)
    for M in (m_exp(), identity_relabeler(), left_projection()):
        yield M, sig
    for det in (True, False):
        for seed in range(30):
            yield random_transducer(seed, kind="local", deterministic=det,
                                    alphabet=OUT3, output=OUT3), sig + out3


def _holding(N, t, u):
    """The gamma symbols of the pruner N whose guards hold at u of t."""
    rules = N.rules_at("p", subtree_at(t, u).label, child_number(u))
    return {r.rhs.label for r in rules if eval_test(r.test, t, u)}


def test_excursion_guards_match_both_old_searches():
    """At every node u of every case tree, the leaves pruner's guards that
    hold are those of the symbols that name, for each choice of picks, the
    excursions the old leaves search finds; and under every hatting of
    the tree's non-root unary nodes, the monadic pruner's guard that holds
    at an unhatted u is the one of the symbol that names u's hatted
    neighbours and the excursions the old monadic search finds."""
    cases = nonempty = 0
    hatted = {"tau~h"}
    for M, trees in _excursion_cases():
        Mn = _normalize_for_pruning(M)
        N = _leaves_phase(M).pruner.stages[0]
        N2 = _monadic_phase(M).pruner.stages[1]
        for t in trees:
            nodes = preorder(t)
            for u, node in nodes:
                want = set()
                for picks in _subsets(range(1, len(node.children) + 1)):
                    rel = _leaves_excursions_reference(Mn, t, u, picks)
                    want.add(_gname(node.label, child_number(u), picks, rel))
                    cases += 1
                    nonempty += bool(rel)
                assert _holding(N, t, u) == want, (t, u)
            monadic = [v for v, n in nodes if v and n.label == "tau"]
            for chosen in _subsets(monadic):
                that = _hat(t, set(chosen))
                for u, node in preorder(that):
                    if node.label in hatted:
                        continue
                    uset = {"d%d" % i for i, c in enumerate(node.children, 1)
                            if c.label in hatted}
                    if u and subtree_at(that, u[:-1]).label in hatted:
                        uset.add("u")
                    rel = _monadic_excursions_reference(Mn, that, u, hatted)
                    assert _holding(N2, that, u) == {_g2name(
                        node.label, child_number(u), uset, rel)}, (that, u)
                    cases += 1
                    nonempty += bool(rel)
    assert cases >= 70000 and nonempty >= 5000, (cases, nonempty)


# ---------------------------------------------------------------------------
# Linear-bounded factorization

def check_factorization(M, corpus, bound=8, ibound=14):
    d = linear_bounded_factorization(M)
    assert d.constant == 2
    stages = list(d.pruner.stages) + [d.remainder]
    for t in corpus:
        direct = enumerate_outputs(M, t, bound)
        via = pipeline_outputs(stages, t, bound, intermediate_size=ibound)
        assert direct == via, t
        if d.witness_map is not None:
            s = eval_deterministic(M, t)[0]
            if s is None:
                continue
            w = d.witness_map(t)
            assert w is not None and \
                eval_deterministic(d.remainder, w)[0] == s, t
            assert w.size <= 2 * s.size, (t, w.size, s.size)


def test_factorization_witness_on_a_deep_comb():
    # every node of the identity's input draws output, so the witness
    # keeps them all; both phases build it without recursion, and read a
    # fresh equal comb anew, in the same time, to the same witness
    witness = linear_bounded_factorization(identity_relabeler()).witness_map
    t = comb_tree(3000)
    w = witness(t)
    assert (w.size, w.height) == (t.size, t.height)
    assert w.label.startswith("sigma~")
    assert witness(comb_tree(3000)) == w


def test_factorization_m_exp():
    check_factorization(m_exp(), SIG_TREES_5, bound=40)


def test_factorization_random_local():
    for M in collect_machines(8, "local", True, alphabet=OUT3,
                              output=OUT3):
        check_factorization(M, OUT_TREES_5)


def test_factorization_random_with_tests():
    for M in collect_machines(4, "lookaround", True, pred=has_tests):
        check_factorization(M, SIG_TREES_5)


def test_factorization_random_nondet():
    for M in collect_machines(4, "topdown", False, alphabet=OUT3,
                              output=OUT3):
        check_factorization(M, OUT_TREES_5)


# ---------------------------------------------------------------------------
# Pipelines

def test_pipeline_rejects_mismatched_stages():
    with pytest.raises(ContractError):
        Pipeline((m_exp(), collect_machines(1, "local", True,
                                            alphabet=OUT3,
                                            output=OUT3)[0]))
    Pipeline((m_exp(), left_projection()))


def test_pipeline_outputs_matches_sequential():
    M1 = collect_machines(1, "local", True)[0]
    M2 = collect_machines(1, "local", True, alphabet=OUT3, output=OUT3)[0]
    P = Pipeline((M1, M2))
    for t in SIG_TREES_5:
        assert pipeline_outputs(P, t, 8, intermediate_size=64) == \
            sequential_outputs(M1, M2, t, 8, intermediate_size=64), t


def test_linear_bounded_pipeline_relabelers():
    P = Pipeline((identity_relabeler(), identity_relabeler()))
    Q = linear_bounded_pipeline(P)
    assert Q.linear_bound_constant == 1
    assert Q.stages == P.stages


def test_linear_bounded_pipeline_constant_doubles_per_junction():
    M1 = identity_relabeler()
    stages = [M1, m_exp(), left_projection()]
    Q = linear_bounded_pipeline(Pipeline(tuple(stages)))
    assert Q.linear_bound_constant == 4
    P = Pipeline(tuple(stages))
    for t in SIG_TREES_5[:3]:
        direct = pipeline_outputs(P, t, 12, intermediate_size=40)
        via = pipeline_outputs(Q, t, 12, intermediate_size=40)
        assert direct == via, t


def test_linear_bounded_pipeline_single_stage():
    P = Pipeline((m_exp(),))
    Q = linear_bounded_pipeline(P)
    assert Q.linear_bound_constant == 1


# ---------------------------------------------------------------------------
# Helpers

def test_rename_states_preserves_semantics():
    M = m_exp()
    Mr = rename_states(M)
    same_outputs(M, Mr, SIG_TREES_5, 20)
    assert all(q.startswith("q") for q in Mr.states)
    assert rename_states(Mr) is Mr  # already named so
    # q10 sorts before q2, and the names stay all the same
    Mr = rename_states(random_transducer(0, n_states=12))
    assert len(Mr.states) == 12 and rename_states(Mr) is Mr


def test_per_tree_keeps_only_the_last_tree_object(monkeypatch):
    """A memo answers again for the same tree object without calling its
    function; a fresh equal tree is computed anew, and no tree is ever
    compared with another."""
    calls, compared = [], []
    eq = Tree.__eq__
    monkeypatch.setattr(Tree, "__eq__", lambda a, b: (
        compared.append((a, b)) or eq(a, b)))
    get = _per_tree(lambda t, k: calls.append((t, k)) or t.size + k)
    t, copy = comb_tree(50), comb_tree(50)
    assert [get(t, 1), get(t, 1), get(t, 2), get(t, 1)] == [100, 100, 101, 100]
    assert len(calls) == 2
    assert get(copy, 1) == 100 and len(calls) == 3 and calls[-1][0] is copy
    assert get(t, 1) == 100 and len(calls) == 4  # copy replaced t
    assert compared == []


def test_intersect_tests_none_absorbs():
    """None absorbs, and the conjunction of any two guards holds where
    both do.  It keeps the most structured kind the two share: two
    sub-tests stay a sub-test, two automaton-backed guards become a
    marked guard, and a pair with an oracle becomes an oracle."""
    rng = random.Random(5)
    guards = {
        SubTest: [random_subtest(rng), random_subtest(rng)],
        AutomatonTest: [internal_sigma_test(), random_marked_test(rng)],
        OracleTest: [
            OracleTest(lambda t, u: subtree_at(t, u).label == "e", "leaf"),
            OracleTest(lambda t, u: len(u) % 2 == 0, "even-depth")],
    }
    for g in itertools.chain(*guards.values()):
        assert intersect_tests(None, g) is g
        assert intersect_tests(g, None) is g
    assert intersect_tests(None, None) is None
    trees = all_trees(SIGMA_E, 6)
    for (ka, as_), (kb, bs) in itertools.product(guards.items(), repeat=2):
        kind = (OracleTest if OracleTest in (ka, kb) else
                SubTest if ka is kb is SubTest else AutomatonTest)
        for a, b in itertools.product(as_, bs):
            c = intersect_tests(a, b)
            assert type(c) is kind and c.subtest == (a.subtest and b.subtest)
            for t in trees:
                for u in addresses(t):
                    assert eval_test(c, t, u) == (
                        eval_test(a, t, u) and eval_test(b, t, u)), (a, b)


def test_identity_like():
    M = identity_like(SIGMA_E)
    for t in SIG_TREES_5:
        assert enumerate_outputs(M, t, 8) == {t}


def _fixpoint_productive_nondet(M, t):
    """Reference: the round-robin least fixpoint that the Horn-clause
    counters replaced."""
    opts = {cfg: [[(c.state, navigate(t, cfg[1], c.instr))
                   for c in r.calls()] for r in rs]
            for cfg, rs in _applicable_all(M, t)}
    prod = set()
    changed = True
    while changed:
        changed = False
        for cfg, choices in opts.items():
            if cfg not in prod and any(all(s in prod for s in ss)
                                       for ss in choices):
                prod.add(cfg)
                changed = True
    return prod


def test_productive_configs_nondet_matches_fixpoint():
    sizes = set()
    for kind in ("local", "sub", "lookaround"):
        for seed in range(30):
            M = random_transducer(seed, kind, deterministic=False)
            prod = productive_configs_nondet(M)
            for t in all_trees(SIGMA_E, 7):
                want = _fixpoint_productive_nondet(M, t)
                assert prod(t) == want, (kind, seed, t)
                sizes.add(len(want) / (len(M.states) * t.size))
    # some configurations are productive and some are not
    assert min(sizes) < 1 and max(sizes) > 0


# ---------------------------------------------------------------------------
# The phases and the look-ahead conversion as they were before they built
# each rule body and call leaf once, kept as references

class ChildProfileTestReference(NodeTest):
    """``ChildProfileTest`` as it was before look-ahead guards became
    sub-tests.  Holds at (t, u) iff u's label is ``symbol`` and, for every
    tracked automaton, the states of u's child subtrees match the stored
    profile.  A subtree-only test: it never looks above u."""

    subtest = True

    def __init__(self, symbol, profiles, automata):
        self.symbol = symbol
        self.profiles = tuple(tuple(p) for p in profiles)
        self.automata = tuple(automata)

    def matches(self, symbol, kid_states):
        """Whether the test holds at a node labelled ``symbol`` whose
        children run to ``kid_states``, one tuple of automaton states per
        child."""
        return symbol == self.symbol and all(
            kid[i] == prof[k] for k, kid in enumerate(kid_states)
            for i, prof in enumerate(self.profiles))

    def eval(self, t, u):
        node = subtree_at(t, u)
        return self.matches(node.label, (
            tuple(a.run(c) for a in self.automata) for c in node.children))

    def __repr__(self):
        return "ChildProfileTest(%s, %r)" % (self.symbol, self.profiles)


def _lookahead_of_topdown_reference(M, state_ceiling=4096):
    """``lookahead_of_topdown`` as it was, computing the children's
    context classes once per rule and a fresh leaf per call, with guards
    of the reference class."""
    for r in M.rules:
        for c in r.calls():
            if c.instr.kind == "up":
                raise ContractError(
                    "look-ahead conversion needs a machine without up-moves")
    tests = _distinct_tests(M)
    if not tests:
        return M
    base = M.input_alphabet
    auts, pdelta, sink, p0, p1, proj = _marked_product(tests, base)
    tindex = {id(t): i for i, t in enumerate(tests)}
    finals0 = tuple(frozenset(p for p in p1 if p[i] in a.finals)
                    for i, a in enumerate(auts))
    profiles = sorted(p0, key=repr)
    test_cache = {}

    def mk_test(sym, prof):
        key = (sym, prof)
        if key not in test_cache:
            test_cache[key] = ChildProfileTestReference(sym, (prof,),
                                                        (proj,))
        return test_cache[key]

    seen_ceiling = [0]
    by_state = _rules_by(M, lambda r: r.state)

    def rules_for(state):
        q, sbar = state
        seen_ceiling[0] += 1
        if seen_ceiling[0] > state_ceiling:
            raise ResourceError(
                "look-ahead conversion: %d states exceed the ceiling of %d"
                % (seen_ceiling[0], state_ceiling))
        made = []
        for r in by_state.get(q, ()):
            sym = r.symbol
            m = base.rank(sym)
            mk1 = marked_name(sym, 1)
            mk0 = marked_name(sym, 0)
            for prof in itertools.product(profiles, repeat=m):
                if r.test is not None:
                    i = tindex[id(r.test)]
                    if pdelta[(mk1, prof)] not in sbar[i]:
                        continue
                ctx = []
                for c in range(m):
                    ctx.append(tuple(
                        frozenset(p for p in p1
                                  if pdelta[(mk0, prof[:c] + (p,)
                                             + prof[c + 1:])] in s)
                        for s in sbar))

                def fill(cl):
                    if not isinstance(cl, Call):
                        return None
                    if cl.instr == STAY:
                        return Tree(Call((cl.state, sbar), STAY), ())
                    return Tree(Call((cl.state, ctx[cl.instr.index - 1]),
                                     cl.instr), ())

                test = None if m == 0 else mk_test(sym, prof)
                made.append(Rule(state, sym, r.child_no, test,
                                 substitute_leaves(r.rhs, fill)))
        return made

    initials = [(q0, finals0) for q0 in M.initials]
    return _assemble(base, M.output_alphabet, initials, rules_for)


def _leaves_phase_reference(M):
    """``_leaves_phase`` as it was, filtering the rules of every gamma
    symbol and child number again."""
    Mn = _normalize_for_pruning(M)
    det = _is_deterministic_local(Mn)
    alphabet = Mn.input_alphabet
    ex = _abstract_exits(Mn)

    def ghost_rel(t, u, picks):
        def inside(v):  # below a child of u that is not picked
            return len(v) > len(u) and v[len(u)] not in picks
        return frozenset((q, s) for q, s, x in _excursion_exits(
            Mn, t, u, lambda label: label, inside) if x == u)

    ghost = _per_tree(ghost_rel)

    def gname(sym, j, picks, gamma):
        ps = "".join(str(i) for i in picks) or "0"
        gs = "-".join("%s.%s" % p
                      for p in sorted(gamma)) or "0"
        return "%s~n%d~k%s~g%s" % (sym, j, ps, gs)

    by_sym = _rules_by(Mn, lambda r: (r.symbol, r.child_no))
    gamma_syms = {}
    nrules = []
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(alphabet.max_rank + 1):
            for n in range(rank + 1):
                for picks in itertools.combinations(range(1, rank + 1), n):
                    cand = {}
                    for r in by_sym.get((sym, j), ()):
                        if r.kind != "move":
                            continue
                        c = r.rhs.label
                        if c.instr.kind != "down" \
                                or c.instr.index in picks:
                            continue
                        for qbar in ex[(c.instr.index, c.state)]:
                            cand.setdefault(r.state, set()).add(qbar)
                    for gamma in _gamma_candidates(cand, det):
                        name = gname(sym, j, picks, gamma)
                        gamma_syms[name] = (sym, j, picks, gamma)

                        def fn(t, u, picks=picks, gamma=gamma):
                            return ghost(t, u, picks) == gamma
                        nrules.append(Rule(
                            "p", sym, j,
                            OracleTest(fn, "exact-excursions"),
                            out(name, *[call("p", down(i))
                                        for i in picks])))
    gamma_alphabet = RankedAlphabet(
        {name: len(info[2]) for name, info in gamma_syms.items()})
    N = Transducer(alphabet, gamma_alphabet, ["p"], ["p"], nrules)
    mrules = []
    for name, (sym, j, picks, gamma) in gamma_syms.items():
        jprimes = (0,) if j == 0 else tuple(
            range(1, gamma_alphabet.max_rank + 1))
        for jp in jprimes:
            for r in by_sym.get((sym, j), ()):
                if r.kind == "move":
                    c = r.rhs.label
                    if c.instr.kind != "down":
                        mrules.append(Rule(r.state, name, jp, None,
                                           r.rhs))
                    elif c.instr.index in picks:
                        k = picks.index(c.instr.index) + 1
                        mrules.append(Rule(r.state, name, jp, None,
                                           call(c.state, down(k))))
                else:
                    mrules.append(Rule(r.state, name, jp, None, r.rhs))
            for (q, qbar) in sorted(gamma):
                mrules.append(Rule(q, name, jp, None, call(qbar, STAY)))
    Mp = Transducer(gamma_alphabet, Mn.output_alphabet, Mn.states,
                    Mn.initials, mrules)

    witness = None
    if det:
        def witness(t):
            try:
                productive = trace_productive(Mn, t)
            except ContractError:
                return None
            # the productive nodes and their ancestors; each walk up
            # stops at the first node an earlier walk reached
            hot = set()
            for u in productive:
                while u not in hot:
                    hot.add(u)
                    u = u[:-1]

            def kept(u, node):
                return tuple(i for i in range(1, len(node.children) + 1)
                             if u + (i,) in hot)

            def make(u, node, picks, kids):
                g = ghost(t, u, picks)
                return Tree(gname(node.label, child_number(u), picks, g),
                            kids)
            return _rebuild(t, kept, make)

    return Decomposition(Pipeline((N,)), Mp, witness_map=witness)


def _monadic_phase_reference(M):
    """``_monadic_phase`` as it was, filtering the rules of every gamma
    symbol and child number again."""
    Mn = _normalize_for_pruning(M)
    det = _is_deterministic_local(Mn)
    alphabet = Mn.input_alphabet
    maxr = alphabet.max_rank
    syms1 = _rank1_symbols(alphabet)
    hat = {s: "%s~h" % s for s in syms1}
    hat_alphabet = RankedAlphabet(
        dict(alphabet.symbols, **{h: 1 for h in hat.values()}))
    n1rules = []
    for sym in alphabet:
        n1rules += relabel_rules(alphabet, "h", sym, sym,
                                 ["h"] * alphabet.rank(sym))
        if sym in hat:  # the root is never hatted
            n1rules += relabel_rules(alphabet, "h", sym, hat[sym], ["h"])[1:]
    N1 = Transducer(alphabet, hat_alphabet, ["h"], ["h"], n1rules)

    down_end, up_end = _chain_endpoints(Mn)
    hatted = set(hat.values())

    def is_hat(label):
        return label in hatted

    def base_label(label):
        return label[:-2] if label in hatted else label

    def ghost_rel(that, u):
        def inside(v):
            return is_hat(subtree_at(that, v).label)
        rel = set()
        for q, s, x in _excursion_exits(Mn, that, u, base_label, inside):
            beta = "s" if x == u else (
                "u" if len(x) < len(u) else "d%d" % x[len(u)])
            rel.add((q, (s, beta)))
        return frozenset(rel)

    ghost = _per_tree(ghost_rel)

    @_per_tree
    def adjacency(that, u):
        tags = set()
        if u and is_hat(subtree_at(that, u[:-1]).label):
            tags.add("u")
        node = subtree_at(that, u)
        for i in range(1, len(node.children) + 1):
            if is_hat(node.children[i - 1].label):
                tags.add("d%d" % i)
        return frozenset(tags)

    def g2name(sym, j, uset, gamma):
        us = "".join(sorted(uset)) or "0"
        gs = "-".join("%s.%s.%s" % (q, p[0], p[1])
                      for q, p in sorted(gamma)) or "0"
        return "%s~n%d~U%s~g%s" % (sym, j, us, gs)

    by_sym = _rules_by(Mn, lambda r: (r.symbol, r.child_no))
    gamma_syms = {}
    n2rules = []
    for h in hat.values():
        for j in range(1, maxr + 1):
            n2rules.append(Rule("p", h, j, None, call("p", down(1))))
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(maxr + 1):
            tags = []
            if syms1:
                if j >= 1:
                    tags.append("u")
                tags.extend("d%d" % i for i in range(1, rank + 1))
            for n in range(len(tags) + 1):
                for utags in itertools.combinations(tags, n):
                    uset = frozenset(utags)
                    cand = {}
                    for r in by_sym.get((sym, j), ()):
                        if r.kind != "move":
                            continue
                        c = r.rhs.label
                        if c.instr.kind == "up" and "u" in uset:
                            ends = up_end[c.state]
                            for kind, qbar in ends:
                                beta = "s" if kind == "stay" else "u"
                                cand.setdefault(r.state, set()).add(
                                    (qbar, beta))
                        elif c.instr.kind == "down" \
                                and ("d%d" % c.instr.index) in uset:
                            ends = down_end[(c.instr.index, c.state)]
                            for kind, qbar in ends:
                                beta = "s" if kind == "stay" \
                                    else "d%d" % c.instr.index
                                cand.setdefault(r.state, set()).add(
                                    (qbar, beta))
                    for gamma in _gamma_candidates(cand, det):
                        name = g2name(sym, j, uset, gamma)
                        gamma_syms[name] = (sym, j, uset, gamma)

                        def fn(t, u, uset=uset, gamma=gamma):
                            return adjacency(t, u) == uset and \
                                ghost(t, u) == gamma
                        n2rules.append(Rule(
                            "p", sym, j,
                            OracleTest(fn, "exact-chain-excursions"),
                            out(name, *[call("p", down(i))
                                        for i in range(1, rank + 1)])))
    gamma_alphabet = RankedAlphabet(
        {name: alphabet.rank(info[0])
         for name, info in gamma_syms.items()})
    N2 = Transducer(hat_alphabet, gamma_alphabet, ["p"], ["p"], n2rules)

    def beta_instr(beta):
        if beta == "s":
            return STAY
        if beta == "u":
            return UP
        return down(int(beta[1:]))

    mrules = []
    for name, (sym, j, uset, gamma) in gamma_syms.items():
        jprimes = (0,) if j == 0 else tuple(range(1, maxr + 1))
        for jp in jprimes:
            for r in by_sym.get((sym, j), ()):
                if r.kind == "move":
                    c = r.rhs.label
                    tag = "u" if c.instr.kind == "up" else (
                        None if c.instr == STAY
                        else "d%d" % c.instr.index)
                    if tag is not None and tag in uset:
                        continue
                mrules.append(Rule(r.state, name, jp, None, r.rhs))
            for (q, (qbar, beta)) in sorted(gamma):
                mrules.append(Rule(q, name, jp, None,
                                   call(qbar, beta_instr(beta))))
    Mp = Transducer(gamma_alphabet, Mn.output_alphabet, Mn.states,
                    Mn.initials, mrules)

    witness = None
    if det:
        def witness(t):
            try:
                productive = trace_productive(Mn, t)
            except ContractError:
                return None

            def mark(u, node, picks, kids):
                if len(kids) == 1 and u != () \
                        and u not in productive \
                        and node.label in hat:
                    return Tree(hat[node.label], kids)
                return Tree(node.label, kids)

            that = _rebuild(
                t, lambda u, node: range(1, len(node.children) + 1), mark)
            return eval_deterministic(N2, that)[0]

    return Decomposition(Pipeline((N1, N2)), Mp, witness_map=witness)


def _test_classes(M):
    """Per rule, the first rule index sharing its test object (so the
    partition of the rules by test identity), the test's class, and what
    the test reads: an oracle's tag, a profile test's symbol and profile.
    A child-profile test and its reference copy count as one class."""
    first = {}
    found = []
    for k, r in enumerate(M.rules):
        t = r.test
        what = None if t is None else getattr(t, "tag", None)
        if isinstance(t, ChildProfileTestReference):
            what = (t.symbol, t.profiles[0])
        elif isinstance(t, ChildProfileTest):
            what = (t.symbol, t.profile)
        found.append((first.setdefault(id(t), k),
                      type(t).__name__.replace("Reference", ""), what))
    return found


def assert_same_machine(A, B):
    assert (A.states, A.initials) == (B.states, B.initials)
    assert (A.input_alphabet, A.output_alphabet) == \
        (B.input_alphabet, B.output_alphabet)
    assert [(r.state, r.symbol, r.child_no, r.rhs) for r in A.rules] == \
        [(r.state, r.symbol, r.child_no, r.rhs) for r in B.rules]
    assert _test_classes(A) == _test_classes(B)


def assert_same_result(build, reference, M):
    """build(M) and reference(M) give the same machines or decompositions,
    or raise the same error.  Returns build(M), or None on an error."""
    try:
        want = reference(M)
    except (ContractError, ResourceError) as e:
        with pytest.raises(type(e)) as got:
            build(M)
        assert str(got.value) == str(e)
        return None
    got = build(M)
    if isinstance(want, Transducer):
        assert_same_machine(got, want)
        return got
    assert len(got.pruner.stages) == len(want.pruner.stages)
    for a, b in zip(got.pruner.stages, want.pruner.stages):
        assert_same_machine(a, b)
    assert_same_machine(got.remainder, want.remainder)
    assert (got.witness_map is None) == (want.witness_map is None)
    return got


def _phase_cases():
    """The local fixtures, the local remainder of the query transducer,
    and 30 seeded local machines per determinism flag over SIGMA_E and
    over OUT3."""
    yield from (m_exp(), identity_relabeler(), left_projection(),
                split_lookaround(query_transducer())[1])
    for alphabet in (SIGMA_E, OUT3):
        for det in (True, False):
            for seed in range(30):
                yield random_transducer(seed, kind="local", deterministic=det,
                                        alphabet=alphabet, output=OUT3)


def _placements(name, maxr):
    """The child numbers at which a phase's pruner can place the gamma
    symbol ``name``: the root at 0, a kept child j of the leaves phase
    (``~k`` names) at its position among the picks, 1..j, and a node of
    the monadic phase (``~U`` names) at its own child number j, or where
    the topmost hatted ancestor stood when its parent is hatted (tag u),
    which a hat of rank 1 allows only at j = 1."""
    _, n, group, _ = name.rsplit("~", 3)
    j = int(n[1:])
    if j == 0:
        return range(1)
    if group.startswith("k"):
        return range(1, j + 1)
    if "u" not in group[1:]:
        return range(j, j + 1)
    return range(1, maxr + 1) if j == 1 else range(0)


def _without_unplaced(d):
    """The reference decomposition ``d`` less what its own pruner never
    reaches: the monadic pruner's rules that offer tag u at a child
    number of 2 or more, the gamma symbols only those rules output, and
    each remainder rule at a child number where the pruner cannot place
    its gamma symbol (see ``_placements``)."""
    *front, N = d.pruner.stages
    gammas = d.remainder.input_alphabet
    places = {name: _placements(name, gammas.max_rank) for name in gammas}
    kept = RankedAlphabet({name: gammas.rank(name)
                           for name in gammas if places[name]})
    N = Transducer(N.input_alphabet, kept, N.states, N.initials, [
        r for r in N.rules if r.kind != "output" or r.rhs.label in kept])
    Mp = d.remainder
    Mp = Transducer(kept, Mp.output_alphabet, Mp.states, Mp.initials, [
        r for r in Mp.rules if r.child_no in places[r.symbol]])
    return Decomposition(Pipeline((*front, N)), Mp,
                         witness_map=d.witness_map)


def _within(d, names):
    """The machines of the decomposition ``d`` with only the gamma symbols
    ``names``: the pruner rules that output another and the remainder
    rules at another go, and each machine's rules are put in one order."""
    *front, N = d.pruner.stages
    gammas = d.remainder.input_alphabet
    kept = RankedAlphabet({name: gammas.rank(name)
                           for name in gammas if name in names})

    def ordered(M, rules, inp, outp):
        return Transducer(inp, outp, M.states, M.initials, sorted(
            rules, key=lambda r: (r.state, r.symbol, r.child_no, str(r.rhs))))
    Mp = d.remainder
    return [ordered(M, M.rules, M.input_alphabet, M.output_alphabet)
            for M in front] + [
        ordered(N, [r for r in N.rules
                    if r.kind != "output" or r.rhs.label in kept],
                N.input_alphabet, kept),
        ordered(Mp, [r for r in Mp.rules if r.symbol in kept], kept,
                Mp.output_alphabet)]


def assert_within_reference(got, want):
    """``got`` builds some of the gamma symbols of ``want`` and, for
    those, the same pruner and remainder rules.  Returns their count."""
    names = set(got.remainder.input_alphabet)
    assert names <= set(want.remainder.input_alphabet)
    machines = _within(got, names), _within(want, names)
    assert len(machines[0]) == len(machines[1])
    for a, b in zip(*machines):
        assert_same_machine(a, b)
    return len(names)


def test_phases_match_the_references():
    """Both phases build some of the gamma symbols of their references (the
    old over-approximations less what the pruner never reaches) and, for
    those, the references' rules; the leaves phase keeps all of them on
    the deterministic fixtures.  The monadic phase of a factorization,
    which reads only the leaves pruner's outputs, builds some of the
    symbols of the plain monadic phase on the same machine."""
    def reference(phase, M):
        try:
            return _without_unplaced(phase(M))
        except ResourceError:  # the old pair ceiling
            return None

    built, refused, remainders = [0, 0, 0], 0, 0
    for k, M in enumerate(_phase_cases()):
        d1 = _leaves_phase(M)
        want1 = reference(_leaves_phase_reference, M)
        if want1 is not None:
            built[0] += assert_within_reference(d1, want1)
            if k < 4:  # the fixtures
                assert set(d1.remainder.input_alphabet) == \
                    set(want1.remainder.input_alphabet)
        want2 = reference(_monadic_phase_reference, M)
        if want2 is not None:
            built[1] += assert_within_reference(_monadic_phase(M), want2)
        want3 = reference(_monadic_phase_reference, d1.remainder)
        if want3 is None:
            refused += 1
            continue
        plain = _monadic_phase(d1.remainder)
        assert_within_reference(plain, want3)
        built[2] += assert_within_reference(_monadic_phase(
            d1.remainder, _leaves_fits(d1.pruner.stages[0])), plain)
        remainders += 1
    assert remainders >= 100 and min(built) >= 2000, (remainders, built)
    assert refused <= 5, refused


def _check_placed(got, want, outputs):
    """No output of ``want``'s pruner carries a gamma symbol that ``got``
    drops, and wherever one places a gamma symbol, ``got``'s remainder
    has the rules of ``want``'s there."""
    dropped = set(want.remainder.input_alphabet) - \
        set(got.remainder.input_alphabet)
    have, need = (_rules_by(d.remainder, lambda r: (r.symbol, r.child_no))
                  for d in (got, want))
    places = {(node.label, child_number(u))
              for s in outputs for u, node in preorder(s)}
    for place in places:
        assert place[0] not in dropped, place
        assert [(r.state, r.test, r.rhs) for r in have.get(place, ())] == \
            [(r.state, r.test, r.rhs) for r in need.get(place, ())], place
    return len(places)


def test_phases_drop_only_what_the_pruners_never_reach():
    """On every input of up to 7 nodes, every output of a factorization's
    reference pruners (the leaves pruner, then the hatting and the
    monadic pruner on each of its outputs) avoids the dropped gamma
    symbols and places gamma symbols only where the new remainders keep
    the reference's rules; and the witness, run through the new
    remainder, gives the machine's output."""
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer()]
    for det in (True, False):
        machines += [random_transducer(seed, kind="local", deterministic=det,
                                       output=OUT3) for seed in range(30)]
    places = witnesses = 0
    for M in machines:
        inputs = all_trees(M.input_alphabet, 7)
        front, Ml = split_lookaround(M) if _distinct_tests(M) else (None, M)
        fronted = inputs if front is None else [
            eval_deterministic(front, t)[0] for t in inputs]
        want1, got1 = _leaves_phase_reference(Ml), _leaves_phase(Ml)
        pruned = set()
        for t in fronted:
            pruned |= enumerate_outputs(want1.pruner.stages[0], t, 7)
        places += _check_placed(got1, want1, pruned)
        want2 = _monadic_phase_reference(got1.remainder)
        got2 = _monadic_phase(got1.remainder)
        N1, N2 = want2.pruner.stages
        contracted = set()
        for t in pruned:
            for that in enumerate_outputs(N1, t, 7):
                contracted |= enumerate_outputs(N2, that, 7)
        places += _check_placed(got2, want2, contracted)
        d = linear_bounded_factorization(M)
        if d.witness_map is None:
            continue
        for t in inputs:
            s = eval_deterministic(M, t)[0]
            if s is not None:
                w = d.witness_map(t)
                assert eval_deterministic(d.remainder, w)[0] == s, t
                witnesses += 1
    assert witnesses >= 100 and places >= 5000, (witnesses, places)


def _gname(sym, j, picks, gamma):
    ps = "".join(str(i) for i in picks) or "0"
    gs = "-".join("%s.%s" % p for p in sorted(gamma)) or "0"
    return "%s~n%d~k%s~g%s" % (sym, j, ps, gs)


def _g2name(sym, j, uset, gamma):
    us = "".join(sorted(uset)) or "0"
    gs = "-".join("%s.%s.%s" % (q, p[0], p[1])
                  for q, p in sorted(gamma)) or "0"
    return "%s~n%d~U%s~g%s" % (sym, j, us, gs)


def _leaves_ghost(Mn, t, u, picks):
    """What the leaves pruner's guard reads at u of t for ``picks``: each
    (q, s) such that q moves down into a child that is not picked and a
    run of moves comes back up to u in s."""
    def inside(v):
        return len(v) > len(u) and v[len(u)] not in picks
    return frozenset((q, s) for q, s, x in _excursion_exits(
        Mn, t, u, lambda label: label, inside) if x == u)


def _monadic_ghost(Mn, that, u):
    """What the monadic pruner's guard reads at the unhatted node u of the
    hatted tree ``that``: the hatted neighbours and the excursions
    through them."""
    def hatted(v):
        return subtree_at(that, v).label.endswith("~h")
    gamma = frozenset(
        (q, (s, "s" if x == u else "u" if len(x) < len(u)
             else "d%d" % x[len(u)]))
        for q, s, x in _excursion_exits(
            Mn, that, u, lambda label: label.removesuffix("~h"), hatted))
    node = subtree_at(that, u)
    uset = {"d%d" % i for i, c in enumerate(node.children, 1)
            if c.label.endswith("~h")}
    if u and hatted(u[:-1]):
        uset.add("u")
    return frozenset(uset), gamma


def _subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, n) for n in range(len(items) + 1))


def _leaves_exactly(Ml, d1):
    """The leaves phase of Ml builds exactly the gamma symbols that its
    pruner places on trees made of the explored witnesses: one per
    subtree behaviour at each child, the least witness elsewhere.  Each
    built symbol's guard holds on its witness.  Returns their count."""
    Mn = _normalize_for_pruning(Ml)
    alphabet = Mn.input_alphabet
    states, delta = _subtree_behaviours(Mn, _move_tables(Mn))
    wit = min_witnesses((p, sym, kids) for (sym, kids), p in delta.items())
    least = min(wit.values(), key=tree_key)
    per = [{} for _ in range(alphabet.max_rank)]  # one witness a behaviour
    for b in states:
        for i, rel in enumerate(b):
            per[i].setdefault(rel, wit[b])
    big = max(alphabet, key=alphabet.rank)  # a parent at every child number

    def place(sym, j, kids):
        if j == 0:
            return Tree(sym, kids), ()
        return Tree(big, [Tree(sym, kids) if k == j else least
                          for k in range(1, alphabet.rank(big) + 1)]), (j,)

    realized = {}
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(alphabet.max_rank + 1):
            through = []  # per child i: what its excursions read, a witness
            for i in range(1, rank + 1):
                others = tuple(k for k in range(1, rank + 1) if k != i)
                seen = {}
                for w in per[i - 1].values():
                    t, u = place(sym, j, [w if k == i else least
                                          for k in range(1, rank + 1)])
                    seen.setdefault(_leaves_ghost(Mn, t, u, others), w)
                through.append(seen)
            for picks in _subsets(range(1, rank + 1)):
                free = [i for i in range(1, rank + 1) if i not in picks]
                for each in itertools.product(
                        *[through[i - 1].items() for i in free]):
                    kids = [least] * rank
                    for i, (_, w) in zip(free, each):
                        kids[i - 1] = w
                    gamma = frozenset().union(*(g for g, _ in each))
                    realized.setdefault(_gname(sym, j, picks, gamma),
                                        (sym, j, picks, kids))
    assert set(realized) == set(d1.remainder.input_alphabet)
    guards = {r.rhs.label: r.test for r in d1.pruner.stages[0].rules}
    for name, (sym, j, picks, kids) in realized.items():
        t, u = place(sym, j, kids)
        assert _gname(sym, j, picks, _leaves_ghost(Mn, t, u, picks)) == name
        assert eval_test(guards[name], t, u), (name, t)
    return len(realized)


def _monadic_exactly(Mm, d2, fits):
    """The monadic phase of Mm, on the inputs that ``fits`` allows, builds
    exactly the gamma symbols that its pruner places on trees made of the
    explored chain witnesses, each hatted chain completed by least
    subtrees and placed under a root or, for a chain above, with its top
    under a root at every child number; every such tree obeys ``fits``.
    Each built symbol's guard holds on its witness.  Returns their
    count."""
    Mn = _normalize_for_pruning(Mm)
    alphabet = Mn.input_alphabet
    fits = fits or (lambda parent, k, sym: True)

    def sits(sym, j):
        return fits(None, 0, sym) if j == 0 else any(
            fits(x, j, sym) for x in alphabet if alphabet.rank(x) >= j)
    down_chains, up_chains = _chain_behaviours(Mn, _move_tables(Mn), fits,
                                               sits)[:2]
    full = min_witnesses(  # the least subtree at each child of each symbol
        [(x, x, tuple(("kid", x, k) for k in range(1, alphabet.rank(x) + 1)))
         for x in alphabet],
        [(("kid", x, k), y) for x in alphabet
         for k in range(1, alphabet.rank(x) + 1)
         for y in alphabet if fits(x, k, y)])
    roots = [y for y in alphabet if fits(None, 0, y)]

    def obeys(t):  # t, unhatted, is a tree that fits allows
        stack = [(None, 0, t)]
        while stack:
            parent, k, node = stack.pop()
            label = node.label.removesuffix("~h")
            if not fits(parent, k, label):
                return False
            stack.extend((label, i, c) for i, c in enumerate(node.children, 1))
        return True

    def hats(chain, below):  # the chain, top first, hatted over below
        for a in reversed(chain):
            below = Tree(a + "~h", [below])
        return below

    def tree(sym, j, below, above):
        made = placed(sym, j, below, above)
        assert made is None or obeys(made[0]), made
        return made

    def placed(sym, j, below, above):
        node = Tree(sym, [hats(below[i], full[("kid", below[i][-1], 1)])
                          if i in below else full[("kid", sym, i)]
                          for i in range(1, alphabet.rank(sym) + 1)])
        if above is not None:
            y, c, chain = above
            node, u = hats(chain, node), (c,) + (1,) * len(chain)
        elif j == 0:
            return (node, ()) if fits(None, 0, sym) else None
        else:
            ys = [y for y in roots
                  if alphabet.rank(y) >= j and fits(y, j, sym)]
            if not ys:
                return None
            y, c, u = ys[0], j, (j,)
        return Tree(y, [node if k == c else full[("kid", y, k)]
                        for k in range(1, alphabet.rank(y) + 1)]), u

    realized = {}
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(alphabet.max_rank + 1):
            through = {}  # per tag: what its excursions read, a witness
            for i in range(1, rank + 1):
                seen = through["d%d" % i] = {}
                for (a, _), w in down_chains.items():
                    if fits(sym, i, a):
                        made = tree(sym, j, {i: w[::-1]}, None)
                        if made is not None:
                            seen.setdefault(_monadic_ghost(Mn, *made)[1],
                                            ({i: w[::-1]}, None))
            if j == 1:
                seen = through["u"] = {}
                for (b, _), w in up_chains.items():
                    for y in roots:
                        for c in range(1, alphabet.rank(y) + 1):
                            if fits(b, 1, sym) and fits(y, c, w[0]):
                                above = (y, c, w)
                                seen.setdefault(_monadic_ghost(
                                    Mn, *tree(sym, j, {}, above))[1],
                                    ({}, above))
            for uset in _subsets(sorted(through)):
                if "u" not in uset and tree(sym, j, {}, None) is None:
                    continue
                for each in itertools.product(
                        *[through[tag].items() for tag in uset]):
                    below, above = {}, None
                    for _, (b, a) in each:
                        below.update(b)
                        above = above or a
                    gamma = frozenset().union(*(g for g, _ in each))
                    realized.setdefault(_g2name(sym, j, uset, gamma),
                                        (sym, j, below, above))
    assert set(realized) == set(d2.remainder.input_alphabet)
    guards = {r.rhs.label: r.test for r in d2.pruner.stages[1].rules
              if r.kind == "output"}
    for name, (sym, j, below, above) in realized.items():
        that, u = tree(sym, j, below, above)
        assert _g2name(sym, j, *_monadic_ghost(Mn, that, u)) == name
        assert eval_test(guards[name], that, u), (name, that)
    return len(realized)


def test_phases_build_exactly_the_symbols_the_pruners_place():
    """Each phase of the factorization builds exactly the gamma symbols
    its pruner places on the explored witnesses (``_leaves_exactly``,
    ``_monadic_exactly``), and every one it places on an input of up to
    7 nodes: for the monadic phase, every hatting of every output of the
    leaves pruner on those inputs."""
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer()]
    for det in (True, False):
        machines += [random_transducer(seed, kind="local", deterministic=det,
                                       output=OUT3) for seed in range(30)]
    built = placed = 0
    for M in machines:
        inputs = all_trees(M.input_alphabet, 7)
        front, Ml = split_lookaround(M) if _distinct_tests(M) else (None, M)
        if front is not None:
            inputs = [eval_deterministic(front, t)[0] for t in inputs]
        d1 = _leaves_phase(Ml)
        fits = _leaves_fits(d1.pruner.stages[0])
        d2 = _monadic_phase(d1.remainder, fits)
        built += _leaves_exactly(Ml, d1)
        built += _monadic_exactly(d1.remainder, d2, fits)
        Mn1, Mn2 = (_normalize_for_pruning(m) for m in (Ml, d1.remainder))
        have1 = set(d1.remainder.input_alphabet)
        have2 = set(d2.remainder.input_alphabet)
        pruned = set()
        for t in inputs:
            pruned |= enumerate_outputs(d1.pruner.stages[0], t, 7)
            for u, node in preorder(t):
                for picks in _subsets(range(1, len(node.children) + 1)):
                    assert _gname(node.label, child_number(u), picks,
                                  _leaves_ghost(Mn1, t, u, picks)) in have1
                    placed += 1
        for s in pruned:
            for that in enumerate_outputs(d2.pruner.stages[0], s, 7):
                for u, node in preorder(that):
                    if not node.label.endswith("~h"):
                        assert _g2name(node.label, child_number(u), *(
                            _monadic_ghost(Mn2, that, u))) in have2
                        placed += 1
    assert built >= 7000 and placed >= 60000, (built, placed)


def test_lookahead_matches_the_reference():
    """The same machines as the reference conversion, and each sub-test
    guard holds where its reference profile test does, at every node of
    every tree of up to 7 nodes over SIGMA_E, and of up to 6 nodes over
    OUT3 for the machines over OUT3."""
    converted = 0
    machines = [m_exp(), query_transducer()]
    for det in (True, False):
        machines += collect_machines(30, "topdown", det, pred=has_tests)
    out3 = [random_transducer(seed, kind="topdown", deterministic=det,
                              alphabet=OUT3, output=OUT3, max_tests=1)
            for det in (True, False) for seed in range(10)]
    assert all(has_tests(M) for M in out3)
    cases = [(M, all_trees(SIGMA_E, 7)) for M in machines]
    cases += [(M, all_trees(OUT3, 6)) for M in out3]
    for M, trees in cases:
        got = assert_same_result(lookahead_of_topdown,
                                 _lookahead_of_topdown_reference, M)
        if got is None or got is M:
            continue
        converted += 1
        want = _lookahead_of_topdown_reference(M)
        pairs = {(id(a.test), id(b.test)): (a.test, b.test)
                 for a, b in zip(got.rules, want.rules) if a.test is not None}
        for a, b in pairs.values():
            assert isinstance(a, SubTest)
            for t in trees:
                for u in addresses(t):
                    assert eval_test(a, t, u) == eval_test(b, t, u), (a, t, u)
    assert converted >= 80, converted


def test_shared_guard_shortcut_agrees_with_the_product(monkeypatch):
    """Two look-ahead guards at one rule key are proved disjoint, without
    a product, exactly when the product of their marked forms proves it;
    so are equal copies of them, as text gives back."""
    products = []
    joint_nonempty = transducer._joint_nonempty
    monkeypatch.setattr(transducer, "_joint_nonempty", lambda auts: (
        products.append(auts) or joint_nonempty(auts)))

    def unshared(test):
        a = test.aut
        return SubTest(BottomUpAutomaton(a.alphabet, a.states, a.finals,
                                         a.delta, check_total=False))

    pairs = disjoint = 0
    for det in (True, False):
        for M in collect_machines(4, "topdown", det, pred=has_tests,
                                  max_tests=1):
            L = lookahead_of_topdown(M)
            for group in L._index.values():
                for r1, r2 in itertools.combinations(group, 2):
                    if r1.test is None or r2.test is None:
                        continue
                    marked = [Rule(r.state, r.symbol, r.child_no,
                                   AutomatonTest(marked_automaton(r.test)),
                                   r.rhs) for r in (r1, r2)]
                    want = _product_disjoint(L, *marked)
                    for convert in (lambda t: t, unshared):
                        del products[:]
                        got = _product_disjoint(L, *[Rule(
                            r.state, r.symbol, r.child_no, convert(r.test),
                            r.rhs) for r in (r1, r2)])
                        assert got == want, (r1, r2)
                        assert products == [] or not got
                    pairs += 1
                    disjoint += want
    assert 0 < disjoint < pairs, (disjoint, pairs)
