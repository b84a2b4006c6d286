"""Every operation check accepts the program's result and rejects a
deliberately corrupted one; the oracles agree with known answers; the
tracer restores what it wraps."""

import dataclasses
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from artifact import core, fixtures as FX, transducer  # noqa: E402
from artifact.constructions import Decomposition  # noqa: E402
from artifact.core import Tree, leaf  # noqa: E402
from artifact.regular import BottomUpAutomaton  # noqa: E402
from artifact.transducer import ClassFlags, Transducer  # noqa: E402

import oracles as O  # noqa: E402
import walker as W  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _nowhere(M):
    """A machine with M's alphabets and no rules: undefined everywhere."""
    return Transducer(M.input_alphabet, M.output_alphabet, ["z"], ["z"], [])


def corrupt(x):
    """A wrong result of the same shape."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, Tree):
        return Tree(x.label + "~", x.children)
    if x is None:
        return leaf("e")
    if isinstance(x, BottomUpAutomaton):
        return x.complement()
    if isinstance(x, Transducer):
        return _nowhere(x)
    if isinstance(x, ClassFlags):
        return dataclasses.replace(x, local=not x.local)
    if isinstance(x, Decomposition):
        return dataclasses.replace(x, witness_map=lambda t: None)
    if isinstance(x, (set, frozenset)):
        return set(list(x)[1:])
    if isinstance(x, list):
        return [corrupt(i) for i in x]
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], int) \
            and isinstance(x[1], str):
        return x[0], x[1].rstrip("\n") + "x\n"  # the run command's output
    if isinstance(x, tuple) and isinstance(x[0], BottomUpAutomaton):
        return (corrupt(x[0]),) + x[1:]  # (automaton, decide verdict)
    if isinstance(x, tuple) and isinstance(x[0], Transducer) \
            and len(x) == 2:
        return x[0], _nowhere(x[1])  # split_lookaround's pair
    if isinstance(x, tuple):
        return (corrupt(x[0]),) + x[1:]  # (tree, counter)
    raise TypeError(type(x))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checks_accept_results_and_reject_corruptions(workload):
    for op in workloads.build(workload, 7):
        result = op.run()
        assert op.check(result) is None, op.kind
        assert op.check(corrupt(result)) is not None, op.kind


def test_sat_oracle():
    v1 = W.node("v", W.node("e"))
    assert O.satisfiable(W.node("or", v1, W.node("not", v1)), 1)
    assert not O.satisfiable(W.node("and", v1, W.node("not", v1)), 1)


def test_image_oracle():
    assert O.is_full_binary(FX.full_binary(3))
    assert not O.is_full_binary(FX.full_binary(0))
    assert not O.is_full_binary(FX.comb_tree(3))


def test_true_formulas_match_hand_count():
    # depth 0 over one variable: v(e) alone, true iff the letter is 1
    assert O.true_formulas(0, 1, "1") == {("v", ("e",))}
    assert O.true_formulas(0, 1, "0") == set()
    # depth 1 under w = 1: v, or(v,v), and(v,v); not(v) is false
    assert len(O.true_formulas(1, 1, "1")) == 3


def test_small_trees_count():
    # sigma/e trees: 1, 1, 2, 5 trees with 1, 3, 5, 7 nodes
    assert len(O.small_trees(FX.SIGMA_E, 7)) == 9
    assert len(O.small_trees(FX.SIGMA_E, 7)) == \
        len(core.all_trees(FX.SIGMA_E, 7))


def test_tracer_counts_and_restores():
    original = transducer.eval_deterministic
    original_lt = core.Tree.__lt__
    tracer = Tracer()
    tracer.install()
    try:
        transducer.eval_deterministic(FX.identity_relabeler(),
                                      FX.comb_tree(5))
        sorted([FX.comb_tree(2), FX.full_binary(1)])
    finally:
        tracer.uninstall()
    assert transducer.eval_deterministic is original
    assert core.Tree.__lt__ is original_lt
    assert tracer.counters["transducer.eval_deterministic.steps"] > 0
    assert tracer.calls["core.subtree_at"] > 0
    assert tracer.calls["core.tree_lt"] >= 1
    assert tracer.inclusive["transducer.eval_deterministic"] > 0


def test_lookaround_bank_is_the_first_machines_with_the_rule_count():
    bank = []
    seed = 0
    while len(bank) < len(workloads.LOOKAROUND_BANK):
        M = FX.random_transducer(seed, kind="lookaround")
        if workloads._guarded(M) == workloads.GUARDED_RULES:
            bank.append(seed)
        seed += 1
    assert tuple(bank) == workloads.LOOKAROUND_BANK
