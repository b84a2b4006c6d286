"""Tests for the semantics-preserving machine rewrites."""

import itertools

import pytest

from artifact.core import (
    RankedAlphabet, Tree, addresses, all_trees, leaf, navigate,
)
from artifact.constructions import (
    ChildProfileTest, ContractError, Decomposition, Pipeline, absorb_right,
    compose_det_topdown, compose_su, compose_with_pruning, disjoint_tests,
    domain_automaton, identity_like, intersect_tests, inverse_image,
    linear_bounded_factorization, linear_bounded_pipeline, localize_second,
    lookahead_of_topdown, pipeline_outputs, productivity_decompose,
    productive_configs_nondet, pruning_image, rename_states,
    restrict_domain, restrict_range,
    split_lookaround, split_lookaround_nondet, stay_free, uniformize,
)
from artifact.fixtures import (
    OUT3, SIGMA_E, identity_relabeler, internal_sigma_test, left_projection,
    m_exp, query_transducer, random_automaton, random_transducer,
)
from artifact.regular import BottomUpAutomaton, SubTest, eval_test, _realizable
from artifact.transducer import (
    classify, enumerate_outputs, eval_deterministic, _applicable_all,
)
from corpus import (
    OUT_TREES_5, SIG_TREES_5, collect_machines, has_tests,
    sequential_outputs, single_use_on, stay_acyclic,
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


# ---------------------------------------------------------------------------
# Stay removal

def test_stay_free_requires_assertion():
    with pytest.raises(ContractError):
        stay_free(m_exp(), finitary_asserted=False)


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


def test_split_lookaround_nondet_random():
    for M in collect_machines(8, "sub", False, pred=has_tests):
        N, M2 = split_lookaround_nondet(M)
        assert classify(N).relabeling
        assert classify(M2).local
        check_split(M, N, M2, SIG_TREES_5)


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
    for M1, M2 in zip(firsts, seconds):
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

def singleton_automaton(s, alphabet):
    """The automaton accepting exactly the tree s."""
    subs = set()
    stack = [s]
    while stack:
        node = stack.pop()
        subs.add(node)
        stack.extend(node.children)
    states = ["t%d" % i for i in range(len(subs))]
    index = dict(zip(sorted(subs), states))
    sink = "no"
    delta = {}
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for kids in itertools.product(states + [sink], repeat=rank):
            delta[(sym, kids)] = sink
    for node, st in index.items():
        delta[(node.label,
               tuple(index[c] for c in node.children))] = st
    return BottomUpAutomaton(alphabet, states + [sink], [index[s]], delta,
                             check_total=False)


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
    Mr = restrict_domain(M, L)
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


def test_intersect_tests_none_absorbs():
    t = internal_sigma_test()
    assert intersect_tests(None, t) is t
    assert intersect_tests(t, None) is t


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
