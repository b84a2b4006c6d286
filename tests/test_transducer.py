"""Tests for the transducer model: validation, class flags, the
configuration grammar, the three evaluation engines, single-use checking,
productive-node tracing, and the rule normalizers."""

import random

import pytest

from artifact import regular, transducer
from artifact.core import (
    AlphabetError, RankedAlphabet, Tree, addresses, all_trees, down, leaf,
    mark_node, navigate, parse_tree, serialize_tree, subtree_at, STAY, UP,
)
from artifact.fixtures import (
    OUT3, SIGMA_E, comb_tree, full_binary, identity_relabeler,
    internal_sigma_test, leaf_chooser, left_projection, loop_transducer,
    m_exp, query_transducer, random_marked_test, random_transducer,
)
from artifact.regular import AutomatonTest, BottomUpAutomaton
from artifact.transducer import (
    Call, ContractError, Rule, Transducer, call, check_single_use, classify,
    config_grammar, enumerate_outputs, eval_deterministic, eval_streaming,
    marked_position_automaton, normalize_general, normalize_outputs_stay,
    out, trace_productive, _applicable_all, _choice_map, _productive_from,
)

DET_KINDS = ("local", "sub", "lookaround", "topdown", "pruning", "relabeling")


def _outputs_by_rewriting(M, t, max_size):
    """Independent bounded-derivation oracle: breadth-first rewriting of
    sentential forms (trees over the output alphabet with configuration
    leaves), replacing the leftmost configuration by every applicable
    rule.  Sound and complete for outputs of size <= max_size because
    rewriting never shrinks a form."""

    def leftmost(form, path=()):
        if isinstance(form.label, tuple):
            return path
        for i, c in enumerate(form.children, 1):
            hit = leftmost(c, path + (i,))
            if hit is not None:
                return hit
        return None

    def replace(form, path, sub):
        if not path:
            return sub
        kids = list(form.children)
        kids[path[0] - 1] = replace(kids[path[0] - 1], path[1:], sub)
        return Tree(form.label, kids)

    def instantiate(rhs, u):
        if isinstance(rhs.label, Call):
            c = rhs.label
            return leaf((c.state, navigate(t, u, c.instr)))
        return Tree(rhs.label, [instantiate(ch, u) for ch in rhs.children])

    done = set()
    seen = set()
    frontier = {leaf((q0, ())) for q0 in M.initials}
    while frontier:
        nxt = set()
        for form in frontier:
            if form in seen or form.size > max_size:
                continue
            seen.add(form)
            path = leftmost(form)
            if path is None:
                done.add(form)
                continue
            q, u = subtree_at(form, path).label
            for r in M.applicable_rules(q, t, u):
                nxt.add(replace(form, path, instantiate(r.rhs, u)))
        frontier = nxt - seen
    return done


# ---------------------------------------------------------------------------
# construction and validation

def test_rule_kinds():
    m = m_exp()
    kinds = {r.kind for r in m.rules}
    assert kinds == {"move", "output"}
    general = Rule("d", "e", 0, None,
                   out("sigma", out("sigma", call("q", STAY),
                                    call("q", STAY)),
                       call("q", STAY)))
    assert general.kind == "general"


def test_validation_rejects_up_at_root():
    with pytest.raises(ValueError):
        Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"],
                   [Rule("q", "e", 0, None, call("q", UP))])


def test_validation_rejects_down_beyond_rank():
    with pytest.raises(ValueError):
        Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"],
                   [Rule("q", "e", 0, None, call("q", down(1)))])


def test_validation_rejects_output_arity_mismatch():
    with pytest.raises(ValueError):
        Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"],
                   [Rule("q", "e", 0, None, out("sigma", call("q", STAY)))])


def test_validation_rejects_unknown_state():
    with pytest.raises(ValueError):
        Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"],
                   [Rule("q", "e", 0, None, call("p", STAY))])


def test_text_format_roundtrip():
    test = internal_sigma_test()
    m = Transducer(SIGMA_E, SIGMA_E, ["q", "p"], ["q"], [
        Rule("q", "sigma", 0, test, out("sigma", call("p", down(1)),
                                        call("p", down(2)))),
        Rule("p", "e", 1, None, leaf("e")),
        Rule("p", "e", 2, None, leaf("e")),
    ])
    text = m.format(test_names={test: "T"})
    back = Transducer.parse(text, tests={"T": test})
    assert back.states == m.states
    assert back.initials == m.initials
    assert len(back.rules) == len(m.rules)
    for t in all_trees(SIGMA_E, 5):
        assert enumerate_outputs(back, t, 8) == enumerate_outputs(m, t, 8)
    assert back.format(test_names={test: "T"}) == text


def test_format_roundtrip_m_exp():
    m = m_exp()
    back = Transducer.parse(m.format())
    for t in all_trees(SIGMA_E, 5):
        assert enumerate_outputs(back, t, 8) == enumerate_outputs(m, t, 8)


# ---------------------------------------------------------------------------
# class flags

def test_classify_m_exp():
    flags = classify(m_exp())
    assert flags.deterministic and flags.local and flags.sub_testing
    assert not flags.top_down
    assert not flags.pruning
    assert not flags.relabeling


def test_classify_identity_relabeler():
    flags = classify(identity_relabeler())
    assert flags.relabeling and flags.pruning and flags.top_down
    assert flags.deterministic and flags.local


def test_classify_left_projection():
    flags = classify(left_projection())
    assert flags.deterministic and flags.local and flags.top_down
    assert flags.pruning
    assert not flags.relabeling


def test_classify_query():
    flags = classify(query_transducer())
    assert flags.deterministic
    assert not flags.local
    assert not flags.sub_testing
    assert not flags.top_down


def test_classify_overlapping_tests_not_deterministic():
    t = internal_sigma_test()
    m = Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], [
        Rule("q", "sigma", 1, t, leaf("e")),
        Rule("q", "sigma", 1, None, leaf("e")),
    ])
    assert not classify(m).deterministic


def test_classify_complementary_tests_deterministic():
    t = internal_sigma_test()
    tc = AutomatonTest(t.aut.complement())
    m = Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], [
        Rule("q", "sigma", 1, t, leaf("e")),
        Rule("q", "sigma", 1, tc, leaf("e")),
    ])
    assert classify(m).deterministic


def test_classify_two_initials_not_deterministic():
    m = Transducer(SIGMA_E, SIGMA_E, ["q", "p"], ["q", "p"],
                   [Rule("q", "e", 0, None, leaf("e"))])
    assert not classify(m).deterministic


def test_class_flag_implications_on_random_machines():
    """relabeling => pruning => topDown and local => subTesting."""
    for seed in range(12):
        for kind in DET_KINDS:
            flags = classify(random_transducer(seed, kind))
            if flags.relabeling:
                assert flags.pruning
            if flags.pruning:
                assert flags.top_down
            if flags.local:
                assert flags.sub_testing


def test_random_generator_hits_requested_class():
    for seed in range(8):
        assert classify(random_transducer(seed, "local")).local
        assert classify(random_transducer(seed, "sub")).sub_testing
        assert classify(random_transducer(seed, "topdown")).top_down
        assert classify(random_transducer(seed, "pruning")).pruning
        assert classify(random_transducer(seed, "relabeling")).relabeling
        for kind in DET_KINDS:
            assert classify(random_transducer(seed, kind)).deterministic


def test_marked_position_automaton():
    aut = marked_position_automaton(SIGMA_E, "sigma", 1)
    t = parse_tree("sigma(sigma(e,e),e)", SIGMA_E)
    from artifact.core import mark_node
    assert aut.accepts(mark_node(t, (1,)))
    assert not aut.accepts(mark_node(t, ()))
    assert not aut.accepts(mark_node(t, (2,)))
    root = marked_position_automaton(SIGMA_E, "sigma", 0)
    assert root.accepts(mark_node(t, ()))
    assert not root.accepts(mark_node(t, (1,)))


# ---------------------------------------------------------------------------
# configuration grammar

def test_config_grammar_on_leaf():
    g = config_grammar(m_exp(), leaf("e"))
    assert len(g.nonterminals) == 4  # states x one node
    from artifact.regular import enumerate_grammar
    assert enumerate_grammar(g, 5) == {parse_tree("sigma(e,e)", SIGMA_E)}


def test_config_grammar_empty_when_no_rule_applies():
    t = parse_tree("sigma(e,e)", SIGMA_E)
    g = config_grammar(loop_transducer(), t)
    assert g.rules_for(("q", ())) == []
    assert enumerate_outputs(loop_transducer(), t, 10) == set()


def test_config_grammar_nonterminal_count():
    m = m_exp()
    for t in all_trees(SIGMA_E, 5):
        g = config_grammar(m, t)
        assert len(g.nonterminals) == len(m.states) * t.size


# ---------------------------------------------------------------------------
# guards evaluated per tree

def _outcome(fn):
    try:
        return fn()
    except (AlphabetError, KeyError) as e:
        return type(e)


def _partial(aut, drop):
    """The automaton without the transitions into the state ``drop``."""
    return BottomUpAutomaton(
        aut.alphabet, aut.states, aut.finals,
        {k: p for k, p in aut.delta.items() if p != drop}, check_total=False)


def test_applicable_all_is_per_node_applicable_rules():
    """Same rules at every configuration, or the same exception first,
    with partial automata and labels outside the alphabets."""
    pos = marked_position_automaton(SIGMA_E, "sigma", 1)
    no_e = dict(pos.delta)
    del no_e[("e#0", ())]
    machines = [query_transducer()] + [
        query_transducer(AutomatonTest(aut)) for aut in (
            _partial(pos, "bad"), _partial(pos, "ok"),
            BottomUpAutomaton(pos.alphabet, pos.states, pos.finals, no_e,
                              check_total=False))]
    machines += [random_transducer(seed, kind=kind)
                 for seed in range(10) for kind in ("lookaround", "sub")]
    trees = all_trees(SIGMA_E, 5) + [
        Tree("sigma", [leaf("a"), leaf("e")]),
        Tree("sigma", [leaf("e"), Tree("sigma", [leaf("e"), leaf("a")])])]
    raised = set()
    for M in machines:
        for t in trees:
            want = _outcome(lambda: [
                ((q, u), M.applicable_rules(q, t, u))
                for u in addresses(t) for q in M.states])
            assert _outcome(lambda: list(_applicable_all(M, t))) == want
            if not isinstance(want, list):
                raised.add(want)
    assert raised == {AlphabetError, KeyError}


def _random_binary_tree(rng, leaves):
    if leaves == 1:
        return leaf("e")
    left = rng.randint(1, leaves - 1)
    return Tree("sigma", [_random_binary_tree(rng, left),
                          _random_binary_tree(rng, leaves - left)])


def test_lookaround_evaluation_marks_no_tree(monkeypatch):
    M = query_transducer()
    t = _random_binary_tree(random.Random(3), 100)
    calls = []

    def counting(*args):
        calls.append(args)
        return mark_node(*args)

    monkeypatch.setattr(regular, "mark_node", counting)
    s, _ = eval_deterministic(M, t)
    assert calls == []
    assert enumerate_outputs(M, t, s.size) == {s}


# ---------------------------------------------------------------------------
# bounded enumeration

def test_enumerate_m_exp_small():
    m = m_exp()
    assert enumerate_outputs(m, leaf("e"), 8) == {full_binary(1)}
    assert enumerate_outputs(m, parse_tree("sigma(e,e)", SIGMA_E), 8) == \
        {full_binary(2)}
    assert enumerate_outputs(m, comb_tree(3), 20) == {full_binary(3)}


def test_enumerate_leaf_chooser():
    outs = enumerate_outputs(leaf_chooser(), leaf("e"), 3)
    assert outs == {leaf("a"), leaf("b")}


def test_enumerate_respects_size_bound():
    assert enumerate_outputs(m_exp(), comb_tree(3), 10) == set()


def test_enumeration_agrees_with_rewriting_oracle():
    """Dual route: grammar-based enumeration vs direct sentential-form
    rewriting, on fixture machines and random machines."""
    machines = [m_exp(), leaf_chooser(), loop_transducer(), left_projection()]
    machines += [random_transducer(seed, kind, deterministic=False)
                 for seed in range(4) for kind in ("local", "topdown")]
    for m in machines:
        for t in all_trees(m.input_alphabet, 4):
            assert enumerate_outputs(m, t, 6) == \
                _outputs_by_rewriting(m, t, 6)


# ---------------------------------------------------------------------------
# deterministic evaluation

def test_eval_m_exp_three_leaves():
    s, steps = eval_deterministic(m_exp(), parse_tree(
        "sigma(e,sigma(e,e))", SIGMA_E))
    assert s == full_binary(3)
    assert s.size == 2 ** 4 - 1
    assert steps > 0


def test_eval_loop_is_absent():
    s, _ = eval_deterministic(loop_transducer(), leaf("e"))
    assert s is None


def test_eval_rejects_nondeterminism():
    with pytest.raises(ContractError):
        eval_deterministic(leaf_chooser(), leaf("e"))


def test_eval_agrees_with_enumeration():
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer()]
    machines += [random_transducer(seed, kind, alphabet=OUT3)
                 for seed in range(6) for kind in DET_KINDS]
    for m in machines:
        for t in all_trees(m.input_alphabet, 5):
            s, _ = eval_deterministic(m, t)
            if s is None:
                assert enumerate_outputs(m, t, 8) == set()
            else:
                assert enumerate_outputs(m, t, s.size) == {s}


def test_determinism_means_at_most_one_output():
    for seed in range(10):
        for kind in DET_KINDS:
            m = random_transducer(seed, kind, alphabet=OUT3)
            for t in all_trees(OUT3, 5):
                assert len(enumerate_outputs(m, t, 7)) <= 1


def test_shared_output_is_cheap_to_measure():
    # ten leaves give a full binary tree with 2^10 leaves; the evaluator
    # shares structure, so this must be immediate
    s, steps = eval_deterministic(m_exp(), comb_tree(10))
    assert s.height == 10
    assert s.size == 2 ** 11 - 1
    assert steps < 500


# ---------------------------------------------------------------------------
# demand-driven productivity

def _fixpoint_productive(rmap, t):
    """Reference: the global least fixpoint over every configuration with
    a chosen rule, which the depth-first search replaced."""
    succs = {cfg: [(c.state, navigate(t, cfg[1], c.instr))
                   for c in r.calls()] for cfg, r in rmap.items()}
    prod = set()
    changed = True
    while changed:
        changed = False
        for cfg, ss in succs.items():
            if cfg not in prod and all(s in prod for s in ss):
                prod.add(cfg)
                changed = True
    return prod, succs


def _fixpoint_eval(M, t):
    """Reference evaluation on the least fixpoint, counting steps as
    eval_deterministic documents them."""
    rmap = _choice_map(M, t)
    prod, succs = _fixpoint_productive(rmap, t)
    init = (next(iter(M.initials)), ())
    if init not in prod:
        return None, 0
    value = {}
    steps = [0]

    def eval_cfg(cfg):
        if cfg not in value:
            rule = rmap[cfg]
            steps[0] += 1
            if rule.kind == "move":
                steps[0] += 1
                value[cfg] = eval_cfg(succs[cfg][0])
            else:
                value[cfg] = build(rule.rhs, cfg[1])
        return value[cfg]

    def build(node, u):
        if isinstance(node.label, Call):
            return eval_cfg((node.label.state,
                             navigate(t, u, node.label.instr)))
        steps[0] += 1
        return Tree(node.label, [build(c, u) for c in node.children])

    return eval_cfg(init), steps[0]


def test_productivity_matches_least_fixpoint():
    """Same productive set with every configuration as a root, a valid
    post-order, and the same outputs and steps from the initial one; the
    local machines move up and stay, so their graphs have cycles."""
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer(), loop_transducer()]
    machines += [random_transducer(seed, "local") for seed in range(30)]
    cyclic = 0
    for M in machines:
        for t in all_trees(M.input_alphabet, 7):
            rmap = _choice_map(M, t)
            want, _ = _fixpoint_productive(rmap, t)
            prod, order, succs = _productive_from(rmap, rmap, t)
            assert prod == want
            assert sorted(order) == sorted(want)
            position = {cfg: i for i, cfg in enumerate(order)}
            assert all(position[s] < position[cfg]
                       for cfg in order for s in succs[cfg])
            assert eval_deterministic(M, t) == _fixpoint_eval(M, t)
            cyclic += any(cfg in ss for cfg, ss in succs.items())
    assert cyclic


# (machine, input, steps) measured with the global fixpoint evaluator
PINNED_STEPS = [
    (m_exp, comb_tree(4), 26),
    (m_exp, comb_tree(8), 58),
    (identity_relabeler, full_binary(3), 30),
    (identity_relabeler, comb_tree(50), 198),
    (left_projection, comb_tree(5), 4),
    (left_projection, full_binary(3), 16),
    (query_transducer, full_binary(2), 36),
    (query_transducer, comb_tree(6), 60),
]


def test_steps_are_pinned():
    for machine, t, steps in PINNED_STEPS:
        assert eval_deterministic(machine(), t)[1] == steps


def test_left_projection_never_walks_the_second_subtree(monkeypatch):
    seen = []

    def counting(t, u, instr):
        seen.append(u)
        return navigate(t, u, instr)

    monkeypatch.setattr(transducer, "navigate", counting)
    t = Tree("sigma", [full_binary(2), full_binary(3)])
    for evaluate in (eval_deterministic, eval_streaming):
        seen.clear()
        assert evaluate(left_projection(), t)[0] == full_binary(2)
        assert seen and not any(u[:1] == (2,) for u in seen)


def test_ambiguity_at_an_unreachable_configuration_raises():
    base = identity_relabeler()
    rules = list(base.rules)
    for j in range(3):
        rules += [Rule("z", "e", j, None, leaf("e")),
                  Rule("z", "e", j, None, call("q", STAY))]
    M = Transducer(SIGMA_E, SIGMA_E, ["q", "z"], ["q"], rules)
    for evaluate in (eval_deterministic, eval_streaming):
        with pytest.raises(ContractError):
            evaluate(M, comb_tree(3))


def test_eval_deep_comb():
    t = comb_tree(3000)
    assert eval_deterministic(identity_relabeler(), t)[0] == t


# ---------------------------------------------------------------------------
# streaming evaluation

def test_streaming_m_exp():
    t = parse_tree("sigma(e,e)", SIGMA_E)
    s, max_len = eval_streaming(m_exp(), t)
    assert s == full_binary(2)
    assert serialize_tree(s) == "sigma(sigma(e,e),sigma(e,e))"
    assert max_len >= 1


def test_streaming_absent_outside_domain():
    s, max_len = eval_streaming(loop_transducer(), leaf("e"))
    assert s is None and max_len == 0


def test_streaming_agrees_with_deterministic():
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer()]
    machines += [random_transducer(seed, kind, alphabet=OUT3)
                 for seed in range(6) for kind in DET_KINDS]
    for m in machines:
        for t in all_trees(m.input_alphabet, 6):
            expected, _ = eval_deterministic(m, t)
            got, _ = eval_streaming(m, t)
            assert got == expected


def test_streaming_deep_comb():
    t = comb_tree(1000)
    assert eval_streaming(identity_relabeler(), t)[0] == \
        eval_deterministic(identity_relabeler(), t)[0]


def test_streaming_stack_bound_identity():
    m = identity_relabeler()
    for t in all_trees(SIGMA_E, 7):
        _, max_len = eval_streaming(m, t)
        assert max_len <= t.size + len(m.states) * t.size


def test_streaming_stack_bound_general():
    """maxStackLen <= #states * (|t| + |s|) across deterministic
    machines."""
    machines = [m_exp(), identity_relabeler(), left_projection()]
    machines += [random_transducer(seed, kind, alphabet=OUT3)
                 for seed in range(4) for kind in DET_KINDS]
    for m in machines:
        for t in all_trees(m.input_alphabet, 5):
            s, max_len = eval_streaming(m, t)
            if s is not None:
                assert max_len <= len(m.states) * (t.size + s.size)


# ---------------------------------------------------------------------------
# single-use

def test_identity_is_single_use():
    ok, witness = check_single_use(identity_relabeler(),
                                   all_trees(SIGMA_E, 7))
    assert ok and witness is None


def test_query_is_not_single_use():
    t = parse_tree("sigma(sigma(e,e),sigma(e,e))", SIGMA_E)
    ok, witness = check_single_use(query_transducer(), [t])
    assert not ok
    _, state, u = witness
    assert state in ("p", "pp")


def test_m_exp_is_not_single_use():
    ok, witness = check_single_use(m_exp(), all_trees(SIGMA_E, 5))
    assert not ok


def test_single_use_monotone_under_corpus_shrinking():
    corpus = all_trees(SIGMA_E, 5)
    m = left_projection()
    ok, _ = check_single_use(m, corpus)
    assert ok
    for t in corpus:
        sub_ok, _ = check_single_use(m, [t])
        assert sub_ok


def test_single_use_size_bound():
    """Single-use machines have |s| <= #states * |t|."""
    for m in (identity_relabeler(), left_projection()):
        for t in all_trees(SIGMA_E, 6):
            ok, _ = check_single_use(m, [t])
            assert ok
            s, _ = eval_deterministic(m, t)
            if s is not None:
                assert s.size <= len(m.states) * t.size


def test_height_bound_deterministic():
    """height(s) <= #states * |t| for deterministic machines."""
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer()]
    machines += [random_transducer(seed, kind, alphabet=OUT3)
                 for seed in range(5) for kind in DET_KINDS]
    for m in machines:
        for t in all_trees(m.input_alphabet, 6):
            s, _ = eval_deterministic(m, t)
            if s is not None:
                assert s.height <= len(m.states) * t.size


# ---------------------------------------------------------------------------
# productive-node tracing

def test_trace_identity_all_productive():
    for t in all_trees(SIGMA_E, 5):
        res = trace_productive(identity_relabeler(), t)
        assert res.productive_nodes == frozenset(addresses(t))
        assert res.zero_productive and res.productive


def test_trace_left_projection_misses_right_subtree():
    t = parse_tree("sigma(e,e)", SIGMA_E)
    res = trace_productive(left_projection(), t)
    assert (2,) not in res.productive_nodes
    assert not res.zero_productive


def test_trace_outside_domain_raises():
    with pytest.raises(ContractError):
        trace_productive(loop_transducer(), leaf("e"))


def test_trace_productive_size_relation():
    """For productive runs, |t| <= 2 |s|."""
    machines = [identity_relabeler()]
    machines += [random_transducer(seed, "local", alphabet=OUT3)
                 for seed in range(8)]
    for m in machines:
        for t in all_trees(m.input_alphabet, 6):
            s, _ = eval_deterministic(m, t)
            if s is None:
                continue
            res = trace_productive(m, t)
            if res.productive:
                assert t.size <= 2 * s.size


# ---------------------------------------------------------------------------
# normalizers

def test_normalize_general_equivalent():
    gen = Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], [
        Rule("q", "sigma", 0, None,
             out("sigma", out("sigma", call("q", down(1)),
                              call("q", down(2))),
                 leaf("e"))),
        Rule("q", "e", 0, None, leaf("e")),
        Rule("q", "e", 1, None, leaf("e")),
        Rule("q", "e", 2, None, leaf("e")),
    ])
    norm = normalize_general(gen)
    assert all(r.kind != "general" for r in norm.rules)
    for t in all_trees(SIGMA_E, 5):
        assert enumerate_outputs(norm, t, 9) == enumerate_outputs(gen, t, 9)
    gflags, nflags = classify(gen), classify(norm)
    assert nflags.deterministic == gflags.deterministic
    assert nflags.local == gflags.local
    assert nflags.top_down == gflags.top_down


def test_normalize_outputs_stay_equivalent():
    m = m_exp()
    norm = normalize_outputs_stay(m)
    assert all(c.label.instr == STAY
               for r in norm.rules if r.kind == "output"
               for c in r.rhs.children)
    for t in all_trees(SIGMA_E, 5):
        s, _ = eval_deterministic(norm, t)
        expected, _ = eval_deterministic(m, t)
        assert s == expected
    nflags = classify(norm)
    assert nflags.deterministic and nflags.local


def test_normalizers_preserve_random_machines():
    for seed in range(5):
        m = random_transducer(seed, "local", deterministic=False,
                              alphabet=OUT3)
        norm = normalize_outputs_stay(normalize_general(m))
        for t in all_trees(OUT3, 4):
            assert enumerate_outputs(norm, t, 6) == \
                enumerate_outputs(m, t, 6)
