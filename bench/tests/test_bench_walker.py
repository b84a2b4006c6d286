"""The reference walker agrees with the program's deterministic evaluator
on every small input, and handles inputs deeper than the recursion
limit."""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from artifact import cli, fixtures as FX  # noqa: E402
from artifact.core import all_trees, serialize_tree  # noqa: E402
from artifact.transducer import classify, eval_deterministic  # noqa: E402

import walker as W  # noqa: E402

KINDS = ("local", "lookaround", "sub", "topdown", "pruning", "relabeling")


def _agree(M, max_size=7):
    for t in all_trees(M.input_alphabet, max_size):
        s, _ = eval_deterministic(M, t)
        w = W.output(M, t)
        assert (s is None) == (w is None), (M, serialize_tree(t))
        if s is not None:
            assert W.same_tree(s, w), (M, serialize_tree(t))
            assert W.serialize(w) == serialize_tree(s)
            assert w.size == s.size


def _deterministic_fixtures():
    found = []
    for name, make in sorted(cli.FIXTURES.items()):
        M = make()
        if classify(M).deterministic:
            found.append((name, M))
    return found


@pytest.mark.parametrize("name,M", _deterministic_fixtures())
def test_walker_agrees_on_fixtures(name, M):
    _agree(M)


@pytest.mark.parametrize("kind", KINDS)
def test_walker_agrees_on_random_machines(kind):
    for seed in range(30):
        _agree(FX.random_transducer(seed, kind=kind), max_size=7)


def test_walker_rejects_nondeterminism():
    with pytest.raises(W.NotDeterministic):
        W.output(FX.leaf_chooser(), FX.comb_tree(1))


def test_walker_undefined_on_cycle():
    assert W.output(FX.loop_transducer(), FX.comb_tree(1)) is None


def test_walker_is_iterative():
    t = FX.comb_tree(5000)
    w = W.output(FX.identity_relabeler(), t)
    assert W.same_tree(t, w)
    assert w.size == t.size
    assert W.serialize(w).count("(") == 4999


def test_same_tree_shares_work():
    # the duplicator's output has 2^31 - 1 explicit nodes
    t = FX.comb_tree(30)
    s, _ = eval_deterministic(FX.m_exp(), t)
    w = W.output(FX.m_exp(), t)
    assert W.same_tree(s, w)
    assert not W.same_tree(s, W.output(FX.m_exp(), FX.comb_tree(29)))
