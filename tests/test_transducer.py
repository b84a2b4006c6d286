"""Tests for the transducer model: validation, class flags, the
configuration grammar, the three evaluation engines, single-use checking,
productive-node tracing, and the rule normalizers."""

import itertools
import random

import pytest

import engine_reference as reference
from artifact import regular, transducer
from artifact.constructions import (
    deterministic_values, linear_bounded_factorization, lookahead_of_topdown,
    rename_states,
)
from artifact.core import (
    AlphabetError, MarkedAlphabet, RankedAlphabet, Tree, TreeError,
    TreeIndex, addresses, all_trees, child_number, depth1_productions, down,
    leaf, mark_node, navigate, parse_tree, preorder, serialize_tree,
    substitute_leaves, subtree_at, tree_from_preorder, STAY, UP,
)
from artifact.fixtures import (
    OUT3, SIGMA_E, comb_tree, full_binary, identity_relabeler,
    internal_sigma_test, leaf_chooser, left_projection, loop_transducer,
    m_exp, query_transducer, random_marked_test, random_transducer,
)
from artifact.membership import build_sat_fixtures
from artifact.regular import (
    AutomatonTest, BottomUpAutomaton, SubTest, parse_member, _flatten_rules,
)
from artifact.transducer import (
    Call, ContractError, Rule, Transducer, call, check_single_use, classify,
    config_grammar, enumerate_outputs, eval_deterministic, eval_streaming,
    marked_position_automaton, normalize_general, normalize_outputs_stay,
    out, trace_productive, _applicable_all, _format_rhs,
)
from test_regular import _eval_test_all_reference

DET_KINDS = ("local", "sub", "lookaround", "topdown", "pruning", "relabeling")


def _applicable_rules(M, q, t, u):
    """The rules applicable at configuration (q, u) of t, each guard
    evaluated on its own by ``eval_test``."""
    return [r for r in M.rules_at(q, subtree_at(t, u).label, child_number(u))
            if regular.eval_test(r.test, t, u)]


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
            for r in _applicable_rules(M, q, t, u):
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


def test_validation_reports_the_first_fault_in_pre_order():
    rhs = out("sigma", out("sigma", call("p", STAY), out("e", leaf("e"))),
              call("q", UP))
    with pytest.raises(ValueError, match=r"^call state 'p' unknown$"):
        Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"],
                   [Rule("q", "e", 0, None, rhs)])


def test_validation_of_a_deep_rhs_at_default_recursion_limit():
    depth = 5000
    rhs = call("q", STAY)
    for _ in range(depth):
        rhs = out("tau", rhs)
    M = Transducer(SIGMA_E, OUT3, ["q"], ["q"],
                   [Rule("q", "e", 0, None, rhs)])
    assert M.rules[0].rhs.height == depth


def _validation_message(rules, input_alphabet=SIGMA_E,
                        output_alphabet=SIGMA_E, states=("q", "p")):
    with pytest.raises(ValueError) as e:
        Transducer(input_alphabet, output_alphabet, states, ["q"], rules)
    return str(e.value)


def test_a_rule_valid_in_one_machine_is_validated_again_in_another():
    def rule():
        return Rule("q", "sigma", 1, None,
                    out("sigma", call("p", down(2)), call("q", UP)))

    ok = rule()
    Transducer(SIGMA_E, SIGMA_E, ["q", "p"], ["q"], [ok])
    sigma1 = RankedAlphabet({"sigma": 1, "e": 0})
    sigma3 = RankedAlphabet({"sigma": 3, "e": 0})
    for kwargs, message in [
            (dict(states=["q"]), "call state 'p' unknown"),
            (dict(input_alphabet=sigma1), "down_2 exceeds rank of 'sigma'"),
            (dict(output_alphabet=sigma3), "output arity mismatch at "
             "'sigma' in Rule(<q,sigma,1> -> sigma((p, down 2), (q, up)))")]:
        assert _validation_message([ok], **kwargs) == message
        assert _validation_message([rule()], **kwargs) == message
    # the first faulty rule in rule order is reported, after valid ones
    bad = Rule("q", "e", 0, None, call("q", UP))
    assert _validation_message([ok, bad, rule()]) == (
        "up-instruction at child number 0 in Rule(<q,e,0> -> (q, up))")


def test_a_shared_rhs_is_checked_again_where_its_faults_can_differ():
    down2, up = call("q", down(2)), call("q", UP)
    for rules, message in [
            ([Rule("q", "sigma", 0, None, down2),
              Rule("q", "tau", 0, None, down2)],
             "down_2 exceeds rank of 'tau'"),
            ([Rule("q", "e", 1, None, up), Rule("q", "e", 0, None, up)],
             "up-instruction at child number 0 in Rule(<q,e,0> -> (q, up))")]:
        assert _validation_message(rules, OUT3, OUT3) == message


def test_validation_is_reused_only_under_the_same_objects(monkeypatch):
    checked = []
    real = Transducer._validate_rule

    def counting(self, r, walked):
        checked.append(r)
        real(self, r, walked)

    monkeypatch.setattr(Transducer, "_validate_rule", counting)
    M = m_exp()
    n = len(M.rules)
    assert len(checked) == n
    Transducer(M.input_alphabet, M.output_alphabet, M.states, M.initials,
               M.rules)
    assert len(checked) == n
    # equal but distinct alphabets, or a new state set, validate again
    for inp, outp, states in [
            (RankedAlphabet(M.input_alphabet.symbols), M.output_alphabet,
             M.states),
            (M.input_alphabet, RankedAlphabet(M.output_alphabet.symbols),
             M.states),
            (M.input_alphabet, M.output_alphabet, set(M.states))]:
        del checked[:]
        Transducer(inp, outp, states, M.initials, M.rules)
        assert checked == list(M.rules)


def test_the_domain_restricted_remainder_validates_only_changed_rules(
        monkeypatch):
    from artifact import constructions
    checked = []
    real_validate = Transducer._validate_rule
    real_restrict = constructions._restrict_domain_test
    copies = []

    def counting(self, r, walked):
        checked.append(r)
        real_validate(self, r, walked)

    def restrict(M, test):
        del checked[:]
        R = real_restrict(M, test)
        copies.append((M, R, list(checked)))
        return R

    monkeypatch.setattr(Transducer, "_validate_rule", counting)
    monkeypatch.setattr(constructions, "_restrict_domain_test", restrict)
    constructions.linear_bounded_factorization(query_transducer())
    [(M, R, validated)] = copies
    kept = {id(r) for r in M.rules}
    changed = [r for r in R.rules if id(r) not in kept]
    assert validated == changed
    # the root rules of the initial states: 42 of the 3752 remainder rules
    assert 0 < len(changed) == sum(r.state in M.initials and r.child_no == 0
                                   for r in M.rules) < len(M.rules) // 50


def _walks(rhs):
    """The kind, the call leaves in pre-order and the output symbol count
    of a rhs, read off a fresh walk."""
    nodes = [n for _, n in preorder(rhs)]
    calls = tuple(n.label for n in nodes if isinstance(n.label, Call))
    kind = "move" if isinstance(rhs.label, Call) else (
        "output" if all(isinstance(c.label, Call) for c in rhs.children)
        else "general")
    return kind, calls, len(nodes) - len(calls)


def _general_machines():
    """Three one-state machines with a general rule: one rewrites the
    root sigma node into sigma(sigma(left, right), e); one emits
    sigma(e, itself) at the root leaf and so loops there; and one turns
    every sigma node into sigma(right, sigma(left, e)), so that its
    outputs tell the order of the plugged values apart."""
    nested = Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], [
        Rule("q", "sigma", 0, None,
             out("sigma", out("sigma", call("q", down(1)),
                              call("q", down(2))),
                 leaf("e"))),
        Rule("q", "e", 0, None, leaf("e")),
        Rule("q", "e", 1, None, leaf("e")),
        Rule("q", "e", 2, None, leaf("e")),
    ])
    looping = Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], [Rule(
        "q", "e", 0, None, out("sigma", out("e"), call("q", STAY)))])
    mirror = Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], [
        r for j in (0, 1, 2) for r in (
            Rule("q", "sigma", j, None, out(
                "sigma", call("q", down(2)),
                out("sigma", call("q", down(1)), leaf("e")))),
            Rule("q", "e", j, None, leaf("e")))])
    return [nested, looping, mirror]


def test_cached_rule_walks_match_fresh_walks():
    general = _general_machines()[1]
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer(), leaf_chooser(), loop_transducer(),
                general, normalize_general(general)]
    for kind in DET_KINDS:
        for det in (True, False):
            machines += [random_transducer(seed, kind=kind, deterministic=det)
                         for seed in range(10)]
    kinds = set()
    for M in machines:
        for r in M.rules:
            want = _walks(r.rhs)
            for _ in range(2):  # the walk, then the kept values
                assert (r.kind, r.calls(), r.output_symbol_count()) == want
            kinds.add(r.kind)
    assert kinds == {"move", "output", "general"}


def test_deep_rhs_at_default_recursion_limit():
    """A rule emitting a chain of 5000 tau nodes is formatted, evaluated
    by both engines, flattened into depth-1 productions, turned into a
    configuration grammar that parses its output, normalized into output
    rules, parsed back from its text and renamed, and a faulty one is
    reported by its ValueError."""
    depth = 5000

    def chain(leaf_):
        rhs = leaf_
        for _ in range(depth):
            rhs = out("tau", rhs)
        return rhs

    rule = Rule("q", "e", 0, None, chain(call("p", STAY)))
    assert repr(rule) == "Rule(<q,e,0> -> %s(p, stay)%s)" % (
        "tau(" * depth, ")" * depth)
    M = Transducer(SIGMA_E, OUT3, ["q", "p"], ["q"],
                   [rule, Rule("p", "e", 0, None, out("e"))])
    want = chain(leaf("e"))
    assert eval_deterministic(M, leaf("e")) == (want, depth + 3)
    assert eval_streaming(M, leaf("e")) == (want, 1)
    prods, calls = depth1_productions(rule.rhs,
                                      lambda x: isinstance(x, Call))
    assert rule.productions() == tuple(prods)
    assert prods[-1] == (depth - 1, "tau", ((True, 0),))
    assert calls == [Call("p", STAY)]
    g = config_grammar(M, leaf("e"))
    assert set(g.rules) == {(("q", ()), chain(leaf(("p", ())))),
                            (("p", ()), leaf("e"))}
    assert parse_member(*_flatten_rules(g), g.initials, want)
    assert not parse_member(*_flatten_rules(g), g.initials, want.children[0])
    N = normalize_general(M)
    assert len(N.rules) == depth + 2
    assert eval_deterministic(N, leaf("e"))[0] == want

    def rule_tuples(M):
        return [(r.state, r.symbol, r.child_no, r.test, r.rhs)
                for r in M.rules]

    assert rule_tuples(Transducer.parse(M.format())) == rule_tuples(M)
    renamed = rename_states(M)  # p is q0, q is q1
    assert renamed.rules[0].rhs == chain(call("q0", STAY))
    assert eval_deterministic(renamed, leaf("e")) == (want, depth + 3)
    with pytest.raises(ValueError, match="^up-instruction at child number 0"):
        Transducer(SIGMA_E, OUT3, ["q"], ["q"],
                   [Rule("q", "e", 0, None, chain(call("q", UP)))])


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


def test_classify_partial_subtest_automaton():
    """Sub-tests over an automaton with the one transition e -> p: the
    automaton product reads a transition it lacks, so the input corpus
    decides, and there a guard whose run raises at a node does not
    hold."""
    L = BottomUpAutomaton(SIGMA_E, ["p"], ["p"], {("e", ()): "p"},
                          check_total=False)

    def twice(symbol):
        return Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], [
            Rule("q", symbol, 0, SubTest(L), out("e")) for _ in range(2)])

    assert not classify(twice("e")).deterministic  # both hold at the root e
    assert classify(twice("sigma")).deterministic  # neither holds at sigma


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
    assert all(lhs != ("q", ()) for lhs, _ in g.rules)
    assert enumerate_outputs(loop_transducer(), t, 10) == set()


def test_config_grammar_nonterminal_count():
    m = m_exp()
    for t in all_trees(SIGMA_E, 5):
        g = config_grammar(m, t)
        assert len(g.nonterminals) == len(m.states) * t.size


def test_config_rules_rebuild_the_config_grammar():
    """Each rule's productions, inner nodes expanded, and each chain edge
    give back the rules of ``config_grammar``, as many times each."""
    general = Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"], [Rule(
        "q", "e", 0, None, out("sigma", out("e"), call("q", STAY))),
        Rule("q", "sigma", 0, None, out("sigma", out(
            "sigma", call("q", down(2)), out("e")), call("q", down(1))))])
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer(), leaf_chooser(), loop_transducer(),
                general, normalize_general(general)]
    for kind in DET_KINDS:
        machines += [random_transducer(seed, kind=kind, deterministic=False)
                     for seed in range(5)]
    kinds = set()
    for M in machines:
        kinds.update(r.kind for r in M.rules)
        for t in all_trees(M.input_alphabet, 7):
            prods, chains, initials = transducer.config_rules(M, t)
            inner = {lhs: (sym, kids) for lhs, sym, kids in prods
                     if len(lhs) == 3}  # (configuration, rule, node)

            def build(sym, kids):
                return Tree(sym, [build(*inner[k]) if k in inner
                                  else leaf(k) for k in kids])

            got = [(lhs, build(sym, kids)) for lhs, sym, kids in prods
                   if lhs not in inner] + [(a, leaf(b)) for a, b in chains]
            g = config_grammar(M, t)
            assert sorted(map(repr, got)) == sorted(map(repr, g.rules)), \
                (M, t)
            assert initials == g.initials
    assert kinds == {"move", "output", "general"}


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


def _partial_query_machines():
    """The query transducer with partial position automata as its guard:
    missing transitions into "bad" or "ok", and no transition at e#0."""
    pos = marked_position_automaton(SIGMA_E, "sigma", 1)
    no_e = dict(pos.delta)
    del no_e[("e#0", ())]
    return [query_transducer(AutomatonTest(aut)) for aut in (
        _partial(pos, "bad"), _partial(pos, "ok"),
        BottomUpAutomaton(pos.alphabet, pos.states, pos.finals, no_e,
                          check_total=False))]


# trees with a leaf outside SIGMA_E
A_LEAF_TREES = [
    Tree("sigma", [leaf("a"), leaf("e")]),
    Tree("sigma", [leaf("e"), Tree("sigma", [leaf("e"), leaf("a")])])]


def test_applicable_all_is_per_node_applicable_rules():
    """Same rules at every configuration, or the same exception first,
    with partial automata and labels outside the alphabets."""
    machines = [query_transducer()] + _partial_query_machines()
    machines += [random_transducer(seed, kind=kind)
                 for seed in range(10) for kind in ("lookaround", "sub")]
    trees = all_trees(SIGMA_E, 5) + A_LEAF_TREES
    raised = set()
    for M in machines:
        for t in trees:
            want = _outcome(lambda: [
                ((q, u), _applicable_rules(M, q, t, u))
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

def _choice_map(M, t):
    """Reference: the eager rule choice the on-demand ``_Choice``
    replaced.  It picks a rule at every configuration, reading every guard
    on the whole tree, and raises at the first ambiguous one."""
    rmap = {}
    for cfg, cands in _applicable_all(M, t):
        if len(cands) > 1:
            raise ContractError(
                "two rules applicable at configuration %r" % (cfg,))
        elif cands:
            rmap[cfg] = cands[0]
    return rmap


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
            want, _ = _fixpoint_productive(_choice_map(M, t), t)
            tab = transducer._Computation(
                M, t, [(q, i) for i in range(t.size) for q in M.states])
            prod = [tab.cfgs[n] for n in tab.order]
            assert sorted(prod) == sorted(want)
            assert all(tab.status[n] == (tab.cfgs[n] in want)
                       for n in range(len(tab.cfgs)))
            position = {n: k for k, n in enumerate(tab.order)}
            assert all(position[s] < position[n]
                       for n in tab.order for s in tab.succs[n])
            assert eval_deterministic(M, t) == _fixpoint_eval(M, t)
            cyclic += any(n in ss for n, ss in tab.succs.items())
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
    successors = transducer._successors

    def counting(rule, t, u):
        seen.append(u)
        return successors(rule, t, u)

    monkeypatch.setattr(transducer, "_successors", counting)
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


def test_ambiguity_of_overlapping_guards_at_an_unreachable_key_raises():
    """Two rules whose automaton guards overlap (an e node at child
    number j, and every node) at a key the computation never reaches."""
    base = identity_relabeler()
    every = AutomatonTest(regular.automaton_all(MarkedAlphabet(SIGMA_E)))
    rules = list(base.rules)
    for j in range(3):
        at_e = AutomatonTest(marked_position_automaton(SIGMA_E, "e", j))
        rules += [Rule("z", "e", j, at_e, leaf("e")),
                  Rule("z", "e", j, every, call("q", STAY))]
    M = Transducer(SIGMA_E, SIGMA_E, ["q", "z"], ["q"], rules)
    assert not classify(M).deterministic
    for evaluate in (eval_deterministic, eval_streaming):
        with pytest.raises(ContractError,
                           match="^two rules applicable at configuration"):
            evaluate(M, comb_tree(3))


def test_eval_deep_comb():
    """On the identity comb of 3000 leaves: the input back, with the
    reference engine's steps and stack length, output at every node, and
    no node visited twice."""
    M, t = identity_relabeler(), comb_tree(3000)
    got = eval_deterministic(M, t)
    assert got[0] == t
    assert got == reference.eval_deterministic(M, t)
    assert eval_streaming(M, t) == reference.eval_streaming(M, t) \
        == (t, 3001)
    assert trace_productive(M, t) == frozenset(addresses(t))
    assert check_single_use(M, [t]) == (True, None)


# ---------------------------------------------------------------------------
# rules chosen on demand

def _eager_computation(M, t, roots):
    """Reference for ``engine_reference._computation``: the eager pair it
    replaced, a rule chosen at every configuration by ``_choice_map``,
    then ``_productive_from`` over that dict."""
    rmap = _choice_map(M, t)
    return (rmap,) + reference._productive_from(roots, rmap, t)


def _answer(fn):
    try:
        return "answer", fn()
    except (AlphabetError, KeyError, ContractError) as e:
        return "raised", type(e), str(e)


# calls of the test below where only the eager engine raises: all of them
# AlphabetError, on the two trees with an a leaf
ANSWERED_WHERE_EAGER_RAISED = 276


def test_rules_chosen_on_demand_match_the_eager_engine(monkeypatch):
    """Same outputs, steps, stack depths, traces, single-use verdicts and
    exception messages as with every rule chosen up front; the eager
    engine may only raise AlphabetError or KeyError at a configuration the
    computation never reaches, where the new one answers."""
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer(), leaf_chooser(), loop_transducer()]
    machines += [random_transducer(seed, kind)
                 for kind in ("local", "lookaround", "sub", "topdown")
                 for seed in range(30)]
    machines += _partial_query_machines()
    rng = random.Random(11)
    trees = all_trees(SIGMA_E, 7) + [
        _random_binary_tree(rng, rng.randint(16, 61)) for _ in range(16)]
    trees += A_LEAF_TREES

    def outcomes(M, t, stream, engine=transducer):
        return [_answer(lambda: engine.eval_deterministic(M, t)),
                _answer(lambda: engine.eval_streaming(M, t))
                if stream else None,
                _answer(lambda: engine.trace_productive(M, t)),
                _answer(lambda: engine.check_single_use(M, [t]))]

    kinds = set()
    answered = 0
    for M in machines:
        for t in trees:
            # streaming builds the explicit output: m_exp's has 2^height
            # leaves
            s = _answer(lambda: eval_deterministic(M, t))[1]
            stream = not isinstance(s, tuple) or s[0] is None \
                or s[0].size <= 10 ** 4
            new = outcomes(M, t, stream)
            with monkeypatch.context() as m:
                m.setattr(reference, "_computation", _eager_computation)
                old = outcomes(M, t, stream, reference)
            for got, want in zip(new, old):
                if want is None:
                    continue
                kinds.add(want[:2])
                if got != want:
                    # trace_productive answers "outside the domain" by
                    # raising
                    assert got[0] == "answer" or got[1:] == (
                        ContractError, "no accepting computation on this "
                        "input")
                    assert want[:2] in {("raised", AlphabetError),
                                        ("raised", KeyError)}
                    answered += 1
    assert ("raised", ContractError) in kinds
    assert answered == ANSWERED_WHERE_EAGER_RAISED


def test_guards_are_read_on_demand(monkeypatch):
    """On a bank machine, and a tree on which its computation reads some
    of its guards but not all: fewer guard tables than distinct guards,
    but not none, and each pair of rules at a key proved disjoint once
    per machine, whether classify or an evaluation asks first."""
    tables, products = [], []
    node_verdicts, joint_nonempty = (transducer.node_verdicts,
                                     transducer._joint_nonempty)
    monkeypatch.setattr(transducer, "node_verdicts", lambda test, *args: (
        tables.append(test) or node_verdicts(test, *args)))
    monkeypatch.setattr(transducer, "_joint_nonempty", lambda auts: (
        products.append(auts) or joint_nonempty(auts)))
    t = _random_binary_tree(random.Random(11), 41)
    assert t.size == 81
    M = random_transducer(9, kind="lookaround")
    guards = {r.test for r in M.rules if r.test is not None}
    pairs = [(r1, r2) for group in M._index.values()
             for r1, r2 in itertools.combinations(group, 2)]
    assert pairs and all(r.test is not None for p in pairs for r in p)
    with monkeypatch.context() as m:
        m.setattr(reference, "_computation", _eager_computation)
        want = reference.eval_deterministic(M, t)
    assert len(tables) == len(guards)
    tables.clear()
    assert eval_deterministic(M, t) == want
    assert 0 < len(tables) < len(guards)
    assert len(products) == len(pairs)
    products.clear()
    assert eval_deterministic(M, t) == want
    assert products == []
    M = random_transducer(9, kind="lookaround")
    assert classify(M).deterministic
    assert eval_deterministic(M, t) == want
    assert eval_streaming(M, t)[0] == want[0]
    assert len(products) == len(pairs)


def test_contexts_only_on_the_root_paths_asked_about(monkeypatch):
    """On the tree above, eval_deterministic builds the top-down contexts
    that the look-around guards over one table share only on the root
    paths of the nodes it asks those guards about, and at fewer than |t|
    nodes.  The bank machine asks no guard there, so the first 40 random
    look-around machines run too."""
    lookups = []
    node_verdicts = transducer.node_verdicts
    monkeypatch.setattr(transducer, "node_verdicts", lambda test, ix, *runs: (
        lookups.append((ix, node_verdicts(test, ix, *runs)))
        or lookups[-1][1]))
    t = _random_binary_tree(random.Random(5), 41)
    assert t.size == 81
    eval_deterministic(random_transducer(9, kind="lookaround"), t)
    assert lookups == []
    for seed in range(40):
        eval_deterministic(random_transducer(seed, kind="lookaround"), t)
    # the guards over one table share its LookAround: count each once,
    # with the nodes any of them asked about
    arounds = {}
    for ix, verdicts in lookups:
        assert isinstance(verdicts.around, regular.LookAround)
        arounds.setdefault(verdicts.around, (ix, set()))[1].update(verdicts)
    built = asked = 0
    for around, (ix, nodes) in arounds.items():
        paths = set()
        for i in nodes:
            while i is not None and i not in paths:
                paths.add(i)
                i = ix.parents[i]
        made = {i for i, c in enumerate(around.contexts) if c is not None}
        assert made <= paths
        assert len(made) < t.size
        built, asked = built + len(made), asked + len(nodes)
    # 30 guard lookups share 18 LookArounds, ask 21 nodes and build 32
    # contexts (54 with one set per guard); before contexts were built on
    # demand, every node's context was built for each guard
    assert asked and built * 10 < len(arounds) * t.size


def _classify_every_pair(M):
    """Reference: classify as before the overlap record, every pair of
    rules at a key decided by ``_tests_disjoint`` in rule order (a record
    that leaves every pair undecided)."""
    M._overlaps = {key: [(r1, r2, None)
                         for r1, r2 in itertools.combinations(group, 2)]
                   for key, group in M._index.items()}
    return classify(M)


def test_classify_reads_the_overlap_record():
    """The same flags, or the same exception type, as deciding every
    pair; each machine is built afresh for each side."""
    makers = [m_exp, identity_relabeler, left_projection, query_transducer,
              leaf_chooser, loop_transducer]
    makers += [lambda s=seed, k=kind, d=det: random_transducer(s, k, d)
               for kind in DET_KINDS for det in (True, False)
               for seed in range(30)]
    makers += [lambda k=k: _partial_query_machines()[k] for k in range(3)]
    seen = set()
    for make in makers:
        want = _outcome(lambda: _classify_every_pair(make()))
        assert _outcome(lambda: classify(make())) == want
        seen.add(getattr(want, "deterministic", want))
    # a partial guard automaton sends its pair to the corpus, so no
    # KeyError leaks
    assert seen == {True, False}


def test_classify_again_takes_no_product(monkeypatch):
    """A second ``classify`` of a machine answers from its overlap record:
    on the SAT pipeline's second stage it takes no automaton product, and
    its flags are the first's.  Every pair of the record that the
    product decided is one that the product shows to overlap."""
    products = []
    joint_nonempty = transducer._joint_nonempty
    monkeypatch.setattr(transducer, "_joint_nonempty", lambda auts: (
        products.append(auts) or joint_nonempty(auts)))
    M = build_sat_fixtures()[1].stages[1]
    first = classify(M)
    assert products and not first.deterministic
    del products[:]
    assert classify(M) == first and products == []
    decided = [pair for pairs in transducer._overlap_record(M).values()
               for pair in pairs if pair[2] is not None]
    assert decided and all(overlap for _, _, overlap in decided)


def test_tree_hash_is_the_hash_of_its_label_and_child_hashes():
    """Set orders depend on it: a tree hashes as the tuple of its label
    and its children's hashes, on random trees with call labels."""
    rng = random.Random("hash")
    instrs = [STAY, UP, down(1), down(2)]

    def grow(depth):
        label = Call(rng.choice(["q", ("p", 1)]), rng.choice(instrs))
        if depth == 0 or rng.random() < 0.3:
            return Tree(label)
        label = rng.choice(["sigma", "tau", label])
        return Tree(label, [grow(depth - 1)
                            for _ in range(rng.randint(1, 3))])
    for _ in range(50):
        for _, node in preorder(grow(5)):
            assert hash(node) == hash(
                (node.label,) + tuple(hash(c) for c in node.children))


def _both_hold_somewhere(r1, r2, corpus):
    """Whether some node of some corpus tree, at the rules' key, satisfies
    both guards; a guard whose run raises does not hold there."""
    for t in corpus:
        for u, node in preorder(t):
            if node.label != r1.symbol or child_number(u) != r1.child_no:
                continue
            try:
                if regular.eval_test(r1.test, t, u) \
                        and regular.eval_test(r2.test, t, u):
                    return True
            except (KeyError, AlphabetError):
                pass
    return False


def test_overlap_record_leaves_out_only_disjoint_pairs():
    """On 300 random machines every pair the record leaves out has a guard
    and is disjoint on every input of up to 5 nodes; some left-out pairs
    have exactly one unguarded rule, which the product proves too.
    ``classify`` gives the flags of deciding every pair."""
    one_guard_left_out = 0
    for kind in ("sub", "lookaround", "topdown", "pruning", "relabeling"):
        for det in (True, False):
            for seed in range(30):
                M = random_transducer(seed, kind, det)
                corpus = all_trees(M.input_alphabet, 5)
                record = transducer._overlap_record(M)
                for key, group in M._index.items():
                    kept = [pair[:2] for pair in record.get(key, ())]
                    for pair in itertools.combinations(group, 2):
                        if pair in kept:
                            continue
                        guards = [r.test for r in pair if r.test is not None]
                        assert guards
                        assert not _both_hold_somewhere(*pair, corpus)
                        one_guard_left_out += len(guards) == 1
                want = _classify_every_pair(random_transducer(seed, kind, det))
                assert classify(M) == want
    assert one_guard_left_out > 0


# ---------------------------------------------------------------------------
# successors found once per configuration, and the streaming replay

def _navigate_successors(rule, t, u):
    """Reference for ``transducer._successors``: one ``navigate`` per call,
    each walking the address from the root."""
    return [(c.state, navigate(t, u, c.instr)) for c in rule.calls()]


def _inverse_instruction(instr, u):
    """The instruction undoing ``instr`` taken at node u."""
    if instr.kind == "up":
        return down(child_number(u))
    if instr.kind == "down":
        return UP
    return STAY


def _cursor_streaming(M, t):
    """Reference for ``eval_streaming``: the loop that walks the cursor
    with ``navigate`` and pushes inverse instructions to restore it."""
    if len(M.initials) != 1:
        raise ContractError("streaming evaluation needs one initial state")
    N = normalize_outputs_stay(normalize_general(M))
    N._overlaps = transducer._overlap_record(M)
    q0 = next(iter(N.initials))
    rmap, prod, _, _ = reference._computation(N, t, [(q0, ())])
    if (q0, ()) not in prod:
        return None, 0
    emitted = []
    u = ()
    stack = [("state", q0)]
    max_len = 1
    while stack:
        kind, x = stack.pop()
        if kind == "restore":
            u = navigate(t, u, x)
            continue
        rule = rmap[(x, u)]
        if rule.kind == "move":
            c = rule.rhs.label
            if c.instr.kind != "stay":
                stack.append(("restore", _inverse_instruction(c.instr, u)))
                u = navigate(t, u, c.instr)
            stack.append(("state", c.state))
        else:
            emitted.append(rule.rhs.label)
            for child in reversed(rule.rhs.children):
                stack.append(("state", child.label.state))
        if len(stack) > max_len:
            max_len = len(stack)
    try:
        return tree_from_preorder(emitted, N.output_alphabet.rank), max_len
    except ValueError:
        raise ContractError("emission stream is not a single tree") from None


def _substitution_values(rmap, order, succs):
    """Reference for ``engine_reference._values``: a move rule takes its
    successor's value, an output rule fills its call leaves in turn."""
    value = {}
    steps = 0
    for cfg in order:
        rule = rmap[cfg]
        steps += 1
        if rule.kind == "move":
            steps += 1
            value[cfg] = value[succs[cfg][0]]
            continue
        nxt = iter(succs[cfg]).__next__
        value[cfg] = substitute_leaves(
            rule.rhs, lambda c: value[nxt()] if isinstance(c, Call) else None)
        steps += rule.output_symbol_count()
    return value, steps


def _navigate_instantiate(rhs, t, u):
    """Reference for a rule of ``config_grammar``: each call leaf filled
    by its own ``navigate``."""
    return substitute_leaves(
        rhs, lambda c: leaf((c.state, navigate(t, u, c.instr)))
        if isinstance(c, Call) else None)


def _result(fn):
    """``_answer``, with TreeError among the exceptions compared."""
    try:
        return "answer", fn()
    except (AlphabetError, KeyError, ContractError, TreeError) as e:
        return "raised", type(e), str(e)


# a sigma node with one child: every machine that enters it and calls
# down 2 there meets a TreeError
ILL_RANKED = Tree("sigma", [Tree("sigma", [leaf("e"), leaf("e")])])


def test_successors_and_replay_match_the_navigate_engine(monkeypatch):
    """Same successor lists at every configuration and applicable rule,
    the same outputs and steps, streamed outputs and stack lengths,
    traces, single-use verdicts and grammar rules, or the same exception
    and message, as the reference engine with one ``navigate`` per call
    and the streaming cursor walked by inverse instructions."""
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer(), leaf_chooser(), loop_transducer()]
    machines += [random_transducer(seed, kind)
                 for kind in DET_KINDS for seed in range(30)]
    rng = random.Random(15)
    trees = all_trees(SIGMA_E, 7) + [
        _random_binary_tree(rng, rng.randint(16, 61)) for _ in range(16)]
    trees.append(ILL_RANKED)

    def outcomes(M, t, engine, evaluate_streaming=eval_streaming):
        det = _result(lambda: engine.eval_deterministic(M, t))
        # streaming builds the explicit output: m_exp's has 2^height
        # leaves
        big = det[0] == "answer" and det[1][0] is not None \
            and det[1][0].size > 10 ** 4
        stream = None if big else _result(lambda: evaluate_streaming(M, t))
        return [det, stream, _result(lambda: engine.trace_productive(M, t)),
                _result(lambda: engine.check_single_use(M, [t]))]

    messages = set()

    def grammar_rules(M, t):
        """The reference rules, comparing the successor lists on the way,
        in the order in which ``config_grammar`` reaches them."""
        rules = []
        for cfg, rs in _applicable_all(M, t):
            for r in rs:
                u = cfg[1]
                want = _result(lambda: _navigate_successors(r, t, u))
                assert _result(lambda: transducer._successors(r, t, u)) \
                    == want
                if want[0] == "raised":
                    messages.add(want[2])
                rules.append((cfg, _navigate_instantiate(r.rhs, t, u)))
        return tuple(rules)

    for M in machines:
        for t in trees:
            assert _result(lambda: config_grammar(M, t).rules) == \
                _result(lambda: grammar_rules(M, t))
            new = outcomes(M, t, transducer)
            with monkeypatch.context() as m:
                m.setattr(reference, "_successors", _navigate_successors)
                m.setattr(reference, "_values", _substitution_values)
                old = outcomes(M, t, reference, _cursor_streaming)
            assert new == old
            messages.update(x[2] for x in new if x and x[0] == "raised")
    assert "down_2 at a node of rank 1" in messages
    rule = Rule("q", "e", 1, None, call("q", UP))
    for call_ in (lambda: _navigate_successors(rule, leaf("e"), ()),
                  lambda: transducer._successors(rule, leaf("e"), ())):
        with pytest.raises(TreeError, match="^up at the root$"):
            call_()


def test_successors_walk_to_a_node_once(monkeypatch):
    """One walk per configuration that moves down, none for the others:
    on the comb with n leaves, the identity relabeler walks to each of
    its n - 1 inner nodes once, and streaming, whose normalized machine
    moves down from two states there, twice."""
    walks = []
    monkeypatch.setattr(transducer, "subtree_at",
                        lambda t, u: walks.append(u) or subtree_at(t, u))
    for n in (5, 50):
        t = comb_tree(n)
        for evaluate, count in ((eval_deterministic, n - 1),
                                (eval_streaming, 2 * (n - 1))):
            walks.clear()
            assert evaluate(identity_relabeler(), t)[0] == t
            assert len(walks) == count


def test_successors_run_once_per_entered_configuration(monkeypatch):
    """``_successors`` runs once at each configuration the search entered
    and found a rule at, and these are the configurations the reference
    engine expands; the table numbers each configuration once."""
    calls = []
    successors = transducer._successors
    monkeypatch.setattr(transducer, "_successors", lambda rule, t, u: (
        calls.append(u) or successors(rule, t, u)))
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer(), loop_transducer()]
    machines += [random_transducer(seed, kind)
                 for kind in ("local", "lookaround") for seed in range(10)]
    entered = 0
    for M in machines:
        for t in all_trees(SIGMA_E, 7):
            roots = [(q0, 0) for q0 in M.initials]
            calls.clear()
            tab = transducer._Computation(M, t, roots)
            ruled = [tab.cfgs[n] for n, r in tab.rules.items()
                     if r is not None]
            assert sorted(calls) == sorted(u for _, u in ruled)
            assert len(set(tab.cfgs)) == len(tab.cfgs)
            _, _, _, succs = reference._computation(
                M, t, [(q0, ()) for q0 in M.initials])
            assert sorted(succs) == sorted(ruled)
            entered += len(ruled)
    assert entered


def test_table_engine_matches_the_reference_engine():
    """Every configuration's output (``deterministic_values``), traces and
    single-use verdicts, on machines with one initial state and with every
    state initial, or the same exception and message, as the reference
    engine."""
    machines = [m_exp(), identity_relabeler(), left_projection(),
                query_transducer(), leaf_chooser(), loop_transducer()]
    machines += [random_transducer(seed, kind, deterministic=det)
                 for kind in ("local", "lookaround", "topdown")
                 for det in (True, False) for seed in range(8)]
    machines += _partial_query_machines()
    machines += [Transducer(M.input_alphabet, M.output_alphabet, M.states,
                            M.states, M.rules) for M in machines[6:30]]
    # general rules, whose values are plugged into a copy of their rhs;
    # their one state is already every state
    machines += _general_machines()
    trees = all_trees(SIGMA_E, 5) + A_LEAF_TREES + [ILL_RANKED]
    seen = set()
    for M in machines:
        values = deterministic_values(M)
        for t in trees:
            for new, old in (
                    (lambda: values(t),
                     lambda: reference.deterministic_values(M, t)),
                    (lambda: trace_productive(M, t),
                     lambda: reference.trace_productive(M, t)),
                    (lambda: check_single_use(M, [t]),
                     lambda: reference.check_single_use(M, [t]))):
                got = _result(new)
                assert got == _result(old)
                seen.add((len(M.initials), got[0] == "answer" or got[1]))
    assert {(1, True), (2, True), (1, ContractError), (2, ContractError),
            (1, TreeError)} <= seen


def test_guards_over_one_table_share_one_bottom_up_run(monkeypatch):
    """The look-ahead machine's 16 sub-test guards read one transition
    table, so reading every configuration runs it bottom-up once per tree;
    each guard's verdicts are those it has on its own."""
    N = lookahead_of_topdown(random_transducer(0, kind="topdown"))
    guards = {r.test for r in N.rules if r.test is not None}
    assert len(guards) == 16
    assert len({id(g.aut.delta) for g in guards}) == 1
    reads = []
    node_verdicts = transducer.node_verdicts
    monkeypatch.setattr(transducer, "node_verdicts", lambda test, ix, runs: (
        reads.append((test, ix, runs)) or node_verdicts(test, ix, runs)))
    most = 0
    for t in all_trees(N.input_alphabet, 7):
        want = [((q, u), _applicable_rules(N, q, t, u))
                for u in addresses(t) for q in N.states]
        reads.clear()
        assert list(_applicable_all(N, t)) == want
        # one runs dict for the tree, and at most one bottom-up run in it
        assert len({id(runs) for _, _, runs in reads}) <= 1
        assert all(len(runs) == 1 for _, _, runs in reads)
        for g, ix, runs in reads:
            assert node_verdicts(g, ix, runs) == node_verdicts(g, ix)
        most = max(most, len(reads))
    assert most == len(guards)


def test_guards_over_one_table_share_one_look_around(monkeypatch):
    """Read through the ``LookAround`` shared by the guards over one
    table, in a random order over guards and nodes, every look-around
    guard's verdict at every node is the reference's; and one evaluation
    builds at most one ``LookAround`` per distinct (table, marked
    alphabet), one for the query transducer's two guards."""
    built = []

    class Counting(regular.LookAround):
        def __init__(self, aut, *args):
            built.append((id(aut.delta), id(aut.alphabet)))
            super().__init__(aut, *args)

    monkeypatch.setattr(regular, "LookAround", Counting)
    machines = [query_transducer()] + _partial_query_machines() + [
        random_transducer(seed, kind="lookaround") for seed in range(40)]
    rng = random.Random(21)
    trees = all_trees(SIGMA_E, 7) + [
        _random_binary_tree(rng, rng.randint(11, 61)) for _ in range(50)]
    assert {t.size for t in trees[-50:]} <= set(range(21, 122))
    for k, M in enumerate(machines):
        guards = list(dict.fromkeys(r.test for r in M.rules
                                    if isinstance(r.test, AutomatonTest)))
        tables = {(id(g.aut.delta), id(g.aut.alphabet)) for g in guards}
        for t in trees:
            ix, runs, verdicts = TreeIndex(t), {}, {}
            want = {g: _eval_test_all_reference(g, t) for g in guards}
            reads = [(g, i) for g in guards for i in range(t.size)]
            rng.shuffle(reads)
            built.clear()
            for g, i in reads:
                if g not in verdicts:
                    verdicts[g] = regular.node_verdicts(g, ix, runs)
                assert verdicts[g][i] == want[g].get(ix.addrs[i]), (k, t, i)
            assert len(built) == len(runs) == len(tables)
            built.clear()
            _result(lambda: eval_deterministic(M, t))
            assert len(set(built)) == len(built) <= len(tables)
            if k == 0 and t.size > 1:  # both query guards read at the root
                assert len(guards) == 2 and len(built) == 1


def test_oracle_guards_are_read_without_a_verdict_table(monkeypatch):
    """The leaves pruner of the query transducer's factorization has only
    oracle guards: reading its rules and enumerating its outputs ask
    ``node_verdicts`` for nothing, its rules apply where each guard,
    evaluated on its own, says they do, and on small trees its outputs are
    those that rewriting gives."""
    F = linear_bounded_factorization(query_transducer())
    front, P = F.pruner.stages[:2]
    assert P.rules and all(r.test is not None and r.test.aut is None
                           for r in P.rules)
    trees = [eval_deterministic(front, t)[0]
             for t in all_trees(SIGMA_E, 9) + [full_binary(8), comb_tree(30)]]
    reads = []
    node_verdicts = transducer.node_verdicts
    monkeypatch.setattr(transducer, "node_verdicts", lambda *a: (
        reads.append(a) or node_verdicts(*a)))
    nonempty = 0
    for t in trees:
        want = [((q, u), _applicable_rules(P, q, t, u))
                for u in addresses(t) for q in P.states]
        assert list(_applicable_all(P, t)) == want
        if t.size <= 9:
            outputs = enumerate_outputs(P, t, t.size)
            assert outputs == _outputs_by_rewriting(P, t, t.size)
            nonempty += bool(outputs)
    assert reads == [] and nonempty


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
        assert trace_productive(identity_relabeler(), t) == \
            frozenset(addresses(t))


def test_trace_left_projection_misses_right_subtree():
    t = parse_tree("sigma(e,e)", SIGMA_E)
    assert (2,) not in trace_productive(left_projection(), t)


def test_trace_outside_domain_raises():
    with pytest.raises(ContractError):
        trace_productive(loop_transducer(), leaf("e"))


def test_trace_productive_size_relation():
    """For runs productive at every leaf and monadic node,
    |t| <= 2 |s|."""
    machines = [identity_relabeler()]
    machines += [random_transducer(seed, "local", alphabet=OUT3)
                 for seed in range(8)]
    for m in machines:
        for t in all_trees(m.input_alphabet, 6):
            s, _ = eval_deterministic(m, t)
            if s is None:
                continue
            nodes = trace_productive(m, t)
            if all(u in nodes for u, node in preorder(t)
                   if len(node.children) <= 1):
                assert t.size <= 2 * s.size


# ---------------------------------------------------------------------------
# normalizers

def test_normalize_general_equivalent():
    gen = _general_machines()[0]
    norm = normalize_general(gen)
    assert all(r.kind != "general" for r in norm.rules)
    for t in all_trees(SIGMA_E, 5):
        assert enumerate_outputs(norm, t, 9) == enumerate_outputs(gen, t, 9)
    gflags, nflags = classify(gen), classify(norm)
    assert nflags.deterministic == gflags.deterministic
    assert nflags.local == gflags.local
    assert nflags.top_down == gflags.top_down


def test_normalize_general_numbers_states_in_pre_order():
    """Output node k of rule i in pre-order gets the state ("gen", i, k),
    and a chain of 20000 rhs nodes streams at the default recursion
    limit."""
    M = Transducer(SIGMA_E, OUT3, ["q", "p"], ["q"], [
        Rule("q", "e", 0, None,
             out("sigma", out("tau", call("p", STAY)), leaf("e"))),
        Rule("p", "e", 0, None, leaf("e"))])
    N = normalize_general(M)
    assert {(r.state, _format_rhs(r.rhs)) for r in N.rules} == {
        ("q", "(('gen', 0, 0), stay)"),
        (("gen", 0, 0), "sigma((('gen', 0, 1), stay), (('gen', 0, 2), stay))"),
        (("gen", 0, 1), "tau((p, stay))"), (("gen", 0, 2), "e"),
        ("p", "e")}
    depth = 20000
    rhs = call("p", STAY)
    for _ in range(depth):
        rhs = out("tau", rhs)
    M = Transducer(SIGMA_E, OUT3, ["q", "p"], ["q"],
                   [Rule("q", "e", 0, None, rhs),
                    Rule("p", "e", 0, None, leaf("e"))])
    made = normalize_general(M).states - M.states
    assert len(made) == depth
    assert all(len(q) == 3 and isinstance(q[2], int) for q in made)
    s, max_len = eval_streaming(M, leaf("e"))
    assert (s.height, s.size, max_len) == (depth, depth + 1, 1)


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
