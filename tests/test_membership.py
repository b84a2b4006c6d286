"""Tests for pair/output-language membership, tree fixed points, and the
satisfiability fixtures."""

import itertools
import random

import pytest

from artifact import membership, regular, transducer
from artifact.core import (
    RankedAlphabet, Tree, all_trees, leaf, substitute_leaves,
)
from artifact.constructions import (
    Pipeline, compose_with_pruning, inverse_image, pipeline_outputs,
)
from artifact.fixtures import (
    OUT3, SIGMA_E, comb_tree, full_binary, identity_relabeler,
    left_projection, m_exp, random_automaton, random_transducer,
)
from artifact.membership import (
    FORMULAS, FixedPointAssignment, build_sat_fixtures, canonical_assignment,
    leeuw_transducer, member_output_language, member_pair,
    verify_tree_fixed_point, word_tree,
)
from artifact.regular import (
    OracleTest, RegularTreeGrammar, ResourceError, automaton_all, decide,
    parse_member, singleton_automaton, _flatten_rules, _rhs_nonterminals,
)
from artifact.transducer import (
    ContractError, Rule, Transducer, classify, config_grammar,
    enumerate_outputs, eval_deterministic,
)
from corpus import (
    SIG_TREES_5, collect_machines, eval_formula, formulas, satisfiable,
    sequential_outputs,
)


# ---------------------------------------------------------------------------
# Tree fixed points

A_ONLY = RankedAlphabet({"a": 0})
SMALL = RankedAlphabet({"sigma": 2, "a": 0, "e": 0})


def test_fixed_point_single_rule():
    g = RegularTreeGrammar({"S"}, A_ONLY, {"S"}, [("S", leaf("a"))])
    assert verify_tree_fixed_point(
        g, FixedPointAssignment({"S": leaf("a")}))


def test_fixed_point_rule_equations():
    g = RegularTreeGrammar(
        {"S", "A"}, SMALL, {"S"},
        [("S", Tree("sigma", [leaf("A"), leaf("A")])), ("A", leaf("e"))])
    good = FixedPointAssignment(
        {"S": Tree("sigma", [leaf("e"), leaf("e")]), "A": leaf("e")})
    assert verify_tree_fixed_point(g, good)
    bad = FixedPointAssignment(
        {"S": Tree("sigma", [leaf("e"), leaf("e")]), "A": leaf("a")})
    assert not verify_tree_fixed_point(g, bad)


def test_fixed_point_requires_defined_start():
    g = RegularTreeGrammar({"S"}, A_ONLY, {"S"}, [("S", leaf("a"))])
    assert not verify_tree_fixed_point(g, FixedPointAssignment({}))


def test_fixed_point_subtree_condition():
    g = RegularTreeGrammar({"S", "A"}, SMALL, {"S"}, [("S", leaf("a"))])
    h = FixedPointAssignment({"S": leaf("a"), "A": leaf("e")})
    assert not verify_tree_fixed_point(g, h)


def test_fixed_point_rejects_nondeterministic_grammar():
    g = RegularTreeGrammar({"S"}, SMALL, {"S"},
                           [("S", leaf("a")), ("S", leaf("e"))])
    with pytest.raises(ContractError):
        verify_tree_fixed_point(g, FixedPointAssignment({"S": leaf("a")}))


def _canonical_assignment_recursive(g):
    """Reference for ``canonical_assignment``: each reachable nonterminal
    evaluated by recursion, memoized, None while it is being evaluated."""
    start = next(iter(g.initials))
    rulemap = dict(g.rules)
    memo = {}

    def value(nt):
        if nt not in memo:
            memo[nt] = None
            rhs = rulemap.get(nt)
            if rhs is not None:
                kids = {x: value(x) for x in _rhs_nonterminals(rhs, g)}
                if None not in kids.values():
                    memo[nt] = substitute_leaves(rhs, kids.get)
        return memo[nt]

    value(start)
    return memo


def test_canonical_assignment_matches_evaluation():
    for M in (m_exp(), left_projection(), identity_relabeler()) + tuple(
            collect_machines(6, "local", True)):
        for t in SIG_TREES_5:
            g = config_grammar(M, t)
            h = canonical_assignment(g)
            assert h.mapping == _canonical_assignment_recursive(g), (M, t)
            s, _ = eval_deterministic(M, t)
            if s is None:
                assert not verify_tree_fixed_point(g, h), (M, t)
            else:
                assert verify_tree_fixed_point(g, h), (M, t)
                assert h.get(next(iter(g.initials))) == s


def test_canonical_assignment_on_a_deep_comb():
    """Far above the default recursion limit."""
    t = comb_tree(3000)
    g = config_grammar(identity_relabeler(), t)
    h = canonical_assignment(g)
    assert h.get(next(iter(g.initials))) == t
    assert verify_tree_fixed_point(g, h)


# ---------------------------------------------------------------------------
# Pair membership

def test_member_pair_m_exp():
    P = Pipeline((m_exp(),), 1)
    assert member_pair(P, leaf("e"), full_binary(1))
    assert not member_pair(P, leaf("e"), leaf("e"))


def test_member_pair_bare_transducer():
    assert member_pair(m_exp(), leaf("e"), full_binary(1))


def test_member_pair_deep_identity():
    t = comb_tree(260)
    assert member_pair(identity_relabeler(), t, comb_tree(260))


def test_member_pair_requires_constant_on_multistage():
    P = Pipeline((identity_relabeler(), m_exp()))
    with pytest.raises(ContractError):
        member_pair(P, leaf("e"), full_binary(1))


def test_member_pair_two_stage_agrees_with_enumeration():
    M1, M2 = identity_relabeler(), left_projection()
    P = Pipeline((M1, M2), 8)
    for t in SIG_TREES_5:
        outs = sequential_outputs(M1, M2, t, 5, intermediate_size=8)
        for s in all_trees(SIGMA_E, 5):
            assert member_pair(P, t, s) == (s in outs), (t, s)


def test_member_pair_nondeterministic_stage():
    M = collect_machines(1, "local", False)[0]
    for t in SIG_TREES_5:
        outs = enumerate_outputs(M, t, 5)
        from artifact.fixtures import OUT3
        for s in all_trees(OUT3, 5):
            assert member_pair(M, t, s) == (s in outs), (t, s)


def test_member_pair_deep_rhs_at_default_recursion_limit():
    """A nondeterministic machine one of whose rules emits a chain of 1500
    tau nodes, more than the default recursion limit of 1000: its
    configuration grammar is flattened and parsed without recursion."""
    chain = leaf("e")
    for _ in range(1500):
        chain = Tree("tau", [chain])
    M = Transducer(SIGMA_E, OUT3, ["q"], ["q"],
                   [Rule("q", "e", 0, None, chain),
                    Rule("q", "e", 0, None, leaf("e"))])
    assert not classify(M).deterministic
    assert member_pair(M, leaf("e"), chain)
    assert member_pair(M, leaf("e"), leaf("e"))
    assert not member_pair(M, leaf("e"), chain.children[0])


def test_member_pair_shared_output():
    # m_exp maps a comb of n leaves to the full binary tree of height n:
    # 2^31 - 1 nodes, 31 of them distinct
    assert member_pair(m_exp(), comb_tree(30), full_binary(30))
    assert not member_pair(m_exp(), comb_tree(30), full_binary(29))


def test_member_pair_deterministic_intermediate_ceiling(monkeypatch):
    # a deterministic intermediate beyond the linear bound is handed on:
    # full_binary(5) has 63 nodes, the bound is 1 x 31
    P = Pipeline((m_exp(), left_projection()), 1)
    assert member_pair(P, comb_tree(5), full_binary(4))
    with monkeypatch.context() as m:
        m.setattr(membership, "INTERMEDIATE_CEILING", 62)
        with pytest.raises(ResourceError):
            member_pair(P, comb_tree(5), full_binary(4))
    # beyond the ceiling as well: 2^31 - 1 nodes, which the second stage
    # would visit one by one
    P = Pipeline((m_exp(), identity_relabeler()), 1)
    with pytest.raises(ResourceError):
        member_pair(P, comb_tree(30), leaf("e"))


@pytest.mark.parametrize("kind", ["local", "sub", "lookaround"])
def test_grammar_member_agrees_with_enumeration(kind):
    """Parsing against enumeration on 30 nondeterministic machines with
    one test, through the grammar and through ``member_pair``, which
    parses with the machine's configuration rules.  Candidates are all
    outputs of up to 7 nodes and every output of up to 9 nodes;
    ``enumerate_outputs(M, t, 9)`` holds exactly the outputs of
    ``enumerate_outputs(M, t, |s|)`` for |s| <= 9."""
    small = set(all_trees(OUT3, 7))
    members = 0
    for M in collect_machines(30, kind, False, max_tests=1):
        for t in SIG_TREES_5:
            outs = enumerate_outputs(M, t, 9)
            g = config_grammar(M, t)
            rules, chains = _flatten_rules(g)
            for s in small | outs:
                assert parse_member(rules, chains, g.initials, s) == \
                    (s in outs), (M, t, s)
                assert member_pair(M, t, s) == (s in outs), (M, t, s)
                members += s in outs
    assert members > 0


def test_member_pair_enumerates_only_inner_nondeterministic_stages(
        monkeypatch):
    calls = []

    def counted(M, t, *args):
        calls.append(M)
        return enumerate_outputs(M, t, *args)

    monkeypatch.setattr(membership, "enumerate_outputs", counted)
    _, P = build_sat_fixtures()
    first, second = P.stages
    t = word_tree("abbcdde")
    sat = Tree("or", [Tree("v", [leaf("e")]),
                      Tree("not", [Tree("v", [leaf("e")])])])
    assert member_pair(Pipeline((first, second), 16), t, sat)
    assert member_pair(second, eval_deterministic(first, t)[0], sat)
    assert not calls
    # a nondeterministic stage before a deterministic one still enumerates
    t = comb_tree(2)
    M = collect_machines(
        1, "local", False, output=SIGMA_E,
        pred=lambda M: (not classify(M).deterministic
                        and enumerate_outputs(M, t, 7)))[0]
    r = min(enumerate_outputs(M, t, 7))
    assert member_pair(Pipeline((M, identity_relabeler()), 7), t, r)
    assert calls == [M]


def _member_by_enumeration(stages, const, t, s):
    """Pair membership as it was before parsing: every stage but the last
    enumerates its outputs up to ``const * |s|`` nodes, deterministic ones
    too, and a nondeterministic last stage enumerates up to |s|."""
    if len(stages) == 1:
        M = stages[0]
        if classify(M).deterministic:
            return eval_deterministic(M, t)[0] == s
        return s in enumerate_outputs(M, t, s.size)
    for r in sorted(enumerate_outputs(stages[0], t, const * s.size)):
        if _member_by_enumeration(stages[1:], const, r, s):
            return True
    return False


def test_np_pipeline_member_pair_agrees_with_enumeration():
    """On the SAT pipeline with constant 16 the parsing answer is the
    enumeration answer wherever the only intermediate has at most 16 |s|
    nodes, and the satisfiability answer everywhere."""
    _, P = build_sat_fixtures()
    P = Pipeline(P.stages, 16)
    for n, m in ((1, 0), (2, 0), (2, 1), (3, 1)):
        t = word_tree("a" + "b" * n + "c" + "d" * m + "e")
        r, _ = eval_deterministic(P.stages[0], t)
        fset = formulas(m, n)
        for s in set(all_trees(FORMULAS, 4)) | formulas(1, n):
            got = member_pair(P, t, s)
            assert got == (s in fset and satisfiable(s, n)), (n, m, s)
            if r.size <= 16 * s.size:
                assert got == _member_by_enumeration(P.stages, 16, t, s), \
                    (n, m, s)


def test_np_pipeline_member_pair_beyond_the_constant():
    # the only intermediate has 63 nodes, more than 16 |v(v(e))| = 48
    _, P = build_sat_fixtures()
    P = Pipeline(P.stages, 16)
    t = word_tree("abbbcde")
    s = Tree("v", [Tree("v", [leaf("e")])])
    assert eval_deterministic(P.stages[0], t)[0].size == 63
    assert member_pair(P, t, s)
    assert not _member_by_enumeration(P.stages, 16, t, s)


# ---------------------------------------------------------------------------
# Output-language membership

def test_member_output_identity_pipeline():
    P = Pipeline((identity_relabeler(),), 1)
    L = singleton_automaton(leaf("e"), SIGMA_E)
    assert member_output_language(P, L, leaf("e"))
    assert not member_output_language(P, L, full_binary(1))


def test_member_output_m_exp_range():
    P = Pipeline((m_exp(),), 1)
    L = automaton_all(SIGMA_E)
    fulls = {full_binary(h) for h in (1, 2, 3)}
    for s in all_trees(SIGMA_E, full_binary(3).size):
        assert member_output_language(P, L, s) == (s in fulls), s


def _pulled_back_witness(P, L, s):
    """decide() on L and the inverse image of {s} through every stage."""
    A = singleton_automaton(s, P.stages[-1].output_alphabet)
    for M in reversed(P.stages):
        A = inverse_image(M, A)
    return decide(L.intersect(A))


def _check_output_language(P, L, inputs, outputs_of):
    """member_output_language on every s of up to 7 nodes over the last
    output alphabet: a "yes" must come with decide's witness t of the
    pulled-back language, t in L and (t, s) a pair; a "no" must agree with
    the outputs of all inputs in L of up to 7 nodes.  Returns the number
    of "yes" answers."""
    seen = set()
    for t in inputs:
        if L.accepts(t):
            seen |= outputs_of(t)
    yes = 0
    for s in all_trees(P.stages[-1].output_alphabet, 7):
        if member_output_language(P, L, s):
            yes += 1
            empty, _, t = _pulled_back_witness(P, L, s)
            assert not empty, s
            assert L.accepts(t) and member_pair(P, t, s), (s, t)
        else:
            assert s not in seen, s
    return yes


INPUTS_7 = all_trees(SIGMA_E, 7)


@pytest.mark.parametrize("kind", ["relabeling", "topdown", "local"])
@pytest.mark.parametrize("det", [True, False])
def test_member_output_language_agrees_with_enumeration(kind, det):
    rng = random.Random("output-language:%s:%s" % (kind, det))
    yes = 0
    for k, M in enumerate(collect_machines(30, kind, det, max_tests=1)):
        L = automaton_all(SIGMA_E) if k % 2 else random_automaton(rng,
                                                                  SIGMA_E)
        yes += _check_output_language(
            Pipeline((M,)), L, INPUTS_7,
            lambda t, M=M: enumerate_outputs(M, t, 7))
    assert yes > 0


def test_member_output_language_two_stage_pipelines():
    rng = random.Random("output-language:pipelines")
    firsts = collect_machines(4, "topdown", True, max_tests=1)
    seconds = (collect_machines(2, "local", False, alphabet=OUT3,
                                max_tests=1)
               + collect_machines(1, "topdown", True, alphabet=OUT3,
                                  max_tests=1))
    yes = 0
    for k, (M1, M2) in enumerate(itertools.product(firsts, seconds)):
        # a deterministic first stage: the constant only sets the
        # intermediate ceiling of member_pair
        P = Pipeline((M1, M2), 64)
        L = automaton_all(SIGMA_E) if k % 2 else random_automaton(rng,
                                                                  SIGMA_E)
        yes += _check_output_language(
            P, L, INPUTS_7,
            lambda t, M1=M1, M2=M2: sequential_outputs(M1, M2, t, 7))
    assert yes > 0


def test_member_output_all_pruning_stages_reject_foreign_trees():
    # every stage is pruning, so the answer is read off the image of L:
    # a symbol outside its alphabet or a wrong rank answers no, as the
    # pull-back of {s} does
    P = Pipeline((random_transducer(0, kind="relabeling"),))
    L = automaton_all(SIGMA_E)
    for s in (Tree("tau", [leaf("e")]), Tree("sigma", [leaf("e")])):
        assert not member_output_language(P, L, s), s
        assert _pulled_back_witness(P, L, s)[0], s
    s = Tree("sigma", [leaf("e"), leaf("e")])
    assert member_output_language(P, L, s) == \
        (not _pulled_back_witness(P, L, s)[0])


def _counting(monkeypatch, name):
    calls = []
    real = getattr(membership, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(membership, name, counted)
    return calls


def test_member_output_oracle_guard_takes_the_fallback(monkeypatch):
    """Composing with a pruner that deletes the second subtree guards the
    root rules with an oracle test, so neither the pruning image nor the
    inverse image can be built and the inputs are enumerated.  The
    answers agree with the outputs of all inputs of up to 7 nodes, and
    for the identity with the two-stage pipeline, whose stages both
    push forward."""
    L = automaton_all(SIGMA_E)
    # an output s of the identity has the input sigma(s, e); m_exp
    # outputs full_binary(n - 1) on an input of 2n - 1 nodes
    for M1, const in ((identity_relabeler(), 2), (m_exp(), 1)):
        C = compose_with_pruning(M1, left_projection())
        assert any(isinstance(r.test, OracleTest) for r in C.rules)
        with pytest.raises(ContractError):
            inverse_image(C, L)
        fused = Pipeline((C,), const)
        staged = Pipeline((M1, left_projection()), const)
        seen = set()
        for t in INPUTS_7:
            seen |= enumerate_outputs(C, t, 7)
        enumerated = _counting(monkeypatch, "all_trees")
        for s in all_trees(SIGMA_E, 7):
            before = len(enumerated)
            got = member_output_language(fused, L, s)
            assert len(enumerated) == before + 1
            if const == 1:
                # every input of up to |s| nodes is among INPUTS_7
                assert got == (s in seen), s
            else:
                assert got == member_output_language(staged, L, s), s
                assert got or s not in seen, s
        monkeypatch.undo()
        with pytest.raises(ContractError):
            member_output_language(Pipeline((C,)), L, leaf("e"))


def test_member_output_m_exp_enumerates_nothing(monkeypatch):
    enumerated = _counting(monkeypatch, "all_trees")
    paired = _counting(monkeypatch, "_member")
    P = Pipeline((m_exp(),))  # no constant: the pull-back needs none
    L = automaton_all(SIGMA_E)
    for s in [full_binary(h) for h in range(5)] + all_trees(SIGMA_E, 9):
        assert member_output_language(P, L, s) == (
            s.height > 0 and s == full_binary(s.height))
    assert member_output_language(P, L, full_binary(6))
    assert not member_output_language(
        P, L, Tree("sigma", [full_binary(5), full_binary(4)]))
    assert enumerated == [] and paired == []


# ---------------------------------------------------------------------------
# Satisfiability fixtures

def test_leeuw_outputs_true_formulas():
    M = leeuw_transducer()
    for m in (0, 1):
        for n in (1, 2):
            fset = formulas(m, n)
            bound = max(f.size for f in fset)
            for bits in itertools.product("01", repeat=n):
                w = "".join(bits)
                t = word_tree("d" * m + "c" + w + "a")
                got = enumerate_outputs(M, t, bound)
                want = {f for f in fset if eval_formula(f, w)}
                assert got == want, (m, n, w)


def test_np_pipeline_outputs_satisfiable_formulas():
    _, P = build_sat_fixtures()
    for m in (0, 1):
        for n in (1, 2):
            fset = formulas(m, n)
            bound = max(f.size for f in fset)
            t = word_tree("a" + "b" * n + "c" + "d" * m + "e")
            got = pipeline_outputs(P, t, bound, intermediate_size=64)
            want = {f for f in fset if satisfiable(f, n)}
            assert got == want, (m, n)


def test_member_pair_parses_without_a_grammar(monkeypatch):
    """The SAT pipeline's nondeterministic last stage is decided by the
    machine's configuration rules: no configuration grammar is built and
    no chain closure formed.  On a b^2 c d^64 e, whose intermediate has
    535 nodes, the answers are the truth table's."""
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (transducer, regular, membership):
        for name in ("config_grammar", "grammar_chain_closure"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    counted(name, getattr(mod, name)))
    _, P = build_sat_fixtures()
    P = Pipeline(P.stages, 16)
    t = word_tree("abbc" + "d" * 64 + "e")
    assert eval_deterministic(P.stages[0], t)[0].size == 535
    answers = set()
    for phi in formulas(1, 2):
        not_phi = Tree("not", [phi])
        for s in (phi, Tree("and", [phi, not_phi]),
                  Tree("or", [phi, not_phi])):
            want = satisfiable(s, 2)
            assert member_pair(P, t, s) == want, s
            answers.add(want)
    assert answers == {True, False}
    assert counts == {}


def test_np_pipeline_member_pair():
    _, P = build_sat_fixtures()
    P = Pipeline(P.stages, 16)
    t = word_tree("abbcdde")
    sat = Tree("or", [Tree("v", [leaf("e")]),
                      Tree("not", [Tree("v", [leaf("e")])])])
    unsat = Tree("and", [Tree("v", [leaf("e")]),
                         Tree("not", [Tree("v", [leaf("e")])])])
    assert member_pair(P, t, sat)
    assert not member_pair(P, t, unsat)
