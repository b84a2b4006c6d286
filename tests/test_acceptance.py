"""Acceptance suite: one test per criterion, each asserting the exact
laws and tolerances it states.  Shared machine corpora are cached at
module level so criteria can reuse them."""

import itertools
import random
import time

from artifact.core import Tree, all_trees, leaf
from artifact.constructions import (
    absorb_right, compose_det_topdown, compose_su, compose_with_pruning,
    disjoint_tests, domain_automaton, inverse_image,
    linear_bounded_factorization, localize_second, lookahead_of_topdown,
    pipeline_outputs, productivity_decompose, split_lookaround,
    split_lookaround_nondet, stay_free, uniformize,
)
from artifact.fixtures import (
    OUT3, SIGMA_E, comb_tree, full_binary, identity_relabeler,
    leaf_chooser, left_projection, loop_transducer, m_exp,
    query_transducer,
)
from artifact.forest import (
    at_exponential, decode, encode, flatten_simulator, forest_pipeline,
    string_forest,
)
from artifact.membership import (
    build_sat_fixtures, canonical_assignment, leeuw_transducer,
    verify_tree_fixed_point, word_tree,
)
from artifact.regular import automaton_all, singleton_automaton
from artifact.transducer import (
    config_grammar, enumerate_outputs, eval_deterministic, eval_streaming,
)
from corpus import (
    OUT_TREES_5, SIG_TREES_5, collect_machines, eval_formula, formulas,
    has_tests, satisfiable, sequential_outputs, single_use_on,
    stay_acyclic,
)
from test_constructions import (
    brute_domain, check_annotation, check_decomposition, check_factorization,
    check_split, same_outputs,
)
from test_forest import all_forests


_CACHE = {}


def machines(key, *args, **kwargs):
    if key not in _CACHE:
        _CACHE[key] = collect_machines(*args, **kwargs)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# Criterion 1: the exponential duplicator's exact translation, under 1s.

def test_criterion_01_exponential_duplicator():
    start = time.monotonic()
    M = m_exp()
    for t in all_trees(SIGMA_E, 7):
        n = (t.size + 1) // 2
        assert 1 <= n <= 4
        s, _ = eval_deterministic(M, t)
        assert s == full_binary(n), t
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: construction equivalence on >=30 seeded random machines
# per construction, all inputs up to size 5, under 5 min.

def test_criterion_02_construction_equivalence():
    start = time.monotonic()

    # test disjointification
    for det in (True, False):
        for M in machines(("sub-tests", det), 15, "sub", det,
                          pred=has_tests, seed_limit=20000):
            same_outputs(M, disjoint_tests(M), SIG_TREES_5)

    # stay-move elimination
    for det in (True, False):
        for M in machines(("stay", det), 15, "local", det,
                          pred=stay_acyclic, seed_limit=20000):
            same_outputs(M, stay_free(M), SIG_TREES_5)

    # look-around splitting, deterministic
    for M in machines(("la-det",), 30, "lookaround", True,
                      pred=has_tests, seed_limit=20000):
        N, M2 = split_lookaround(M)
        check_split(M, N, M2, SIG_TREES_5)

    # look-around splitting, nondeterministic
    for M in machines(("sub-tests", False), 15, "sub", False,
                      pred=has_tests, seed_limit=20000) + \
            machines(("local-nd",), 15, "local", False):
        N, M2 = split_lookaround_nondet(M)
        check_split(M, N, M2, SIG_TREES_5)
        check_annotation(M, N, M2, all_trees(SIGMA_E, 7))

    # look-ahead form of top-down machines
    for det in (True, False):
        for M in machines(("td-tests", det), 15, "topdown", det,
                          pred=has_tests, seed_limit=20000):
            same_outputs(M, lookahead_of_topdown(M), SIG_TREES_5)

    # localizing the second stage's tests
    firsts = machines(("local-det",), 30, "local", True)
    seconds = machines(("sub2-tests",), 30, "sub", True, alphabet=OUT3,
                       output=OUT3, pred=has_tests, seed_limit=20000)
    for M1, M2 in zip(firsts, seconds):
        M1p, M2p = localize_second(M1, M2)
        for t in SIG_TREES_5:
            assert sequential_outputs(M1, M2, t, 8) == \
                sequential_outputs(M1p, M2p, t, 8), t

    # composition with a top-down second stage
    td_seconds = machines(("td2-notests",), 30, "topdown", True,
                          alphabet=OUT3, output=OUT3, max_tests=0)
    for M1, M2 in zip(firsts, td_seconds):
        C = compose_det_topdown(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 8) == \
                sequential_outputs(M1, M2, t, 8), t

    # composition with a pruning second stage
    nd_firsts = machines(("local-nd30",), 30, "local", False)
    pr_seconds = machines(("pr2-notests",), 30, "pruning", False,
                          alphabet=OUT3, output=OUT3, max_tests=0)
    for M1, M2 in zip(nd_firsts, pr_seconds):
        C = compose_with_pruning(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 6) == \
                sequential_outputs(M1, M2, t, 6, intermediate_size=12), t

    # composition of a single-use first stage
    su_firsts = machines(("local-su",), 30, "local", True,
                         pred=single_use_on(all_trees(SIGMA_E, 7)),
                         seed_limit=20000)
    su_seconds = machines(("local2-det",), 30, "local", True,
                          alphabet=OUT3, output=OUT3)
    for M1, M2 in zip(su_firsts, su_seconds):
        C = compose_su(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 8) == \
                sequential_outputs(M1, M2, t, 8), t

    # absorbing a right factor, both arms
    td2 = machines(("td2-tests",), 15, "topdown", True, alphabet=OUT3,
                   output=OUT3, seed_limit=20000)
    for M1, M2 in zip(firsts[:15], td2):
        C = absorb_right(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 8) == \
                sequential_outputs(M1, M2, t, 8), t
    pr2 = machines(("pr2-any",), 15, "pruning", False, alphabet=OUT3,
                   output=OUT3, seed_limit=20000)
    for M1, M2 in zip(nd_firsts[:15], pr2):
        C = absorb_right(M1, M2)
        for t in SIG_TREES_5:
            assert enumerate_outputs(C, t, 6) == \
                sequential_outputs(M1, M2, t, 6, intermediate_size=12), t

    # productivity decomposition, both phases
    for det in (True, False):
        for M in machines(("out3-local", det), 15, "local", det,
                          alphabet=OUT3, output=OUT3):
            for phase in ("leaves", "monadic"):
                check_decomposition(M, productivity_decompose(M, phase),
                                    OUT_TREES_5)

    # linear-bounded factorization
    for M in machines(("out3-local", True), 15, "local", True,
                      alphabet=OUT3, output=OUT3)[:10]:
        check_factorization(M, OUT_TREES_5)
    for M in machines(("la-det",), 30, "lookaround", True,
                      pred=has_tests, seed_limit=20000)[:10]:
        check_factorization(M, SIG_TREES_5)
    for M in machines(("td-out3-nd",), 10, "topdown", False,
                      alphabet=OUT3, output=OUT3):
        check_factorization(M, OUT_TREES_5)

    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------------------
# Criterion 3: some intermediate of every factored fixture pipeline has
# size at most exactly twice the output size.

def test_criterion_03_linear_bound_constant():
    for M in (m_exp(), identity_relabeler(), left_projection(),
              query_transducer()):
        d = linear_bounded_factorization(M)
        assert d.constant == 2
        for t in all_trees(M.input_alphabet, 7):
            s, _ = eval_deterministic(M, t)
            if s is None:
                continue
            r = d.witness_map(t)
            assert r is not None, t
            assert eval_deterministic(d.remainder, r)[0] == s, t
            assert r.size <= 2 * s.size, (t, r.size, s.size)


# ---------------------------------------------------------------------------
# Criterion 4: evaluator cost laws on the relabeling and exponential
# fixtures, fitted at small scale and validated at large scale.

def _random_sigma_tree(rng, size):
    if size == 1:
        return leaf("e")
    left = rng.randrange(1, size - 1, 2)
    return Tree("sigma", [_random_sigma_tree(rng, left),
                          _random_sigma_tree(rng, size - 1 - left)])


def test_criterion_04_evaluator_laws():
    rng = random.Random(2024)
    cases = [
        (identity_relabeler(),
         [_random_sigma_tree(rng, n)
          for n in range(1, 100, 2) for _ in range(2)]),
        (m_exp(),
         [comb_tree(n) for n in range(1, 7)]
         + [full_binary(h) for h in (1, 2)]),
    ]
    for M, inputs in cases:
        runs = []
        for t in inputs:
            s, steps = eval_deterministic(M, t)
            assert s is not None
            _, stack = eval_streaming(M, t)
            runs.append((t.size + s.size, steps, stack))
        fit = [r for r in runs if r[0] <= 20]
        big = [r for r in runs if r[0] <= 200]
        assert fit and big
        C = max(steps / total for total, steps, _ in fit)
        for total, steps, stack in big:
            assert steps <= 1.1 * C * total, (total, steps, C)
            assert stack <= len(M.states) * total, (total, stack)


# ---------------------------------------------------------------------------
# Criterion 5: output height is bounded by #states * input size for
# deterministic fixtures; output size likewise for single-use fixtures.

def test_criterion_05_height_and_size_laws():
    det = (m_exp(), identity_relabeler(), left_projection(),
           query_transducer())
    for M in det:
        for t in all_trees(M.input_alphabet, 6):
            s, _ = eval_deterministic(M, t)
            if s is not None:
                assert s.height <= len(M.states) * t.size, t
    single_use = (identity_relabeler(), left_projection(),
                  flatten_simulator(("a", "b")))
    for M in single_use:
        for t in all_trees(M.input_alphabet, 6):
            s, _ = eval_deterministic(M, t)
            if s is not None:
                assert s.size <= len(M.states) * t.size, t


# ---------------------------------------------------------------------------
# Criterion 6: domain and inverse-image automata agree with brute-force
# membership on every fixture transducer; the duplicator is total.

def test_criterion_06_domain_and_inverse_automata():
    fixture_machines = (m_exp(), identity_relabeler(), left_projection(),
                        query_transducer(), leaf_chooser(),
                        loop_transducer(), leeuw_transducer())
    for M in fixture_machines:
        A = domain_automaton(M)
        B = inverse_image(M, automaton_all(M.output_alphabet))
        for t in all_trees(M.input_alphabet, 5):
            want = brute_domain(M, t)
            assert A.accepts(t) == want, t
            assert B.accepts(t) == want, t
    # a non-trivial inverse image: trees mapping to the 4-leaf full tree
    I = inverse_image(m_exp(), singleton_automaton(full_binary(2), SIGMA_E))
    for t in all_trees(SIGMA_E, 5):
        assert I.accepts(t) == (t.size == 3), t
    # the duplicator is total
    A = domain_automaton(m_exp())
    for t in all_trees(SIGMA_E, 9):
        assert A.accepts(t), t


# ---------------------------------------------------------------------------
# Criterion 7: the uniformizer refines the relation and keeps its domain.

def test_criterion_07_uniformizer_contract():
    for M in machines(("td-nd-uni",), 20, "topdown", False):
        U = uniformize(M)
        for t in SIG_TREES_5:
            full = enumerate_outputs(M, t, 10)
            uni = enumerate_outputs(U, t, 10)
            assert uni <= full, t
            assert len(uni) <= 1, t
            assert bool(uni) == bool(full), t


# ---------------------------------------------------------------------------
# Criterion 8: forest encoding laws and the concatenation-alphabet
# exponential fixture.

def test_criterion_08_forest_laws():
    for f in all_forests(("a", "b"), 4):
        assert f.bracket_length <= 12
        t = encode(f)
        assert 3 * t.size == 2 * f.bracket_length + 3
        assert decode(t) == f
    M = at_exponential()
    for n in range(4):
        got = forest_pipeline(M, "flat", string_forest(["sigma"] * n))
        assert got == {string_forest(["delta"] * 2 ** (n + 1))}, n


# ---------------------------------------------------------------------------
# Criterion 9: satisfiability fixtures at full scale, under 2 min.

def test_criterion_09_sat_fixtures():
    start = time.monotonic()
    leeuw, P = build_sat_fixtures()
    for m in (0, 1, 2):
        for n in (1, 2, 3):
            fset = formulas(m, n)
            bound = max(f.size for f in fset)
            for bits in itertools.product("01", repeat=n):
                w = "".join(bits)
                t = word_tree("d" * m + "c" + w + "a")
                assert enumerate_outputs(leeuw, t, bound) == \
                    {f for f in fset if eval_formula(f, w)}, (m, n, w)
            t = word_tree("a" + "b" * n + "c" + "d" * m + "e")
            got = pipeline_outputs(P, t, bound, intermediate_size=128)
            assert got == {f for f in fset if satisfiable(f, n)}, (m, n)
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# Criterion 10: tree fixed points of configuration grammars certify
# evaluation, in both directions.

def test_criterion_10_fixed_point_duality():
    dets = (m_exp(), identity_relabeler(), left_projection()) + tuple(
        machines(("local-det",), 30, "local", True)[:10])
    for M in dets:
        for t in SIG_TREES_5:
            g = config_grammar(M, t)
            h = canonical_assignment(g)
            s, _ = eval_deterministic(M, t)
            if s is None:
                # on a forward-deterministic grammar the canonical
                # assignment is the only candidate, so failure of the
                # verifier certifies that no tree fixed point exists
                assert not verify_tree_fixed_point(g, h), (M, t)
            else:
                assert verify_tree_fixed_point(g, h), (M, t)
                assert h.get(next(iter(g.initials))) == s, (M, t)
