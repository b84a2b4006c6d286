"""Property tests over small random grammars and trees, drawn with
hypothesis."""

import pytest
from hypothesis import given, strategies as st

from artifact.core import (
    RankedAlphabet, Tree, all_trees, leaf, substitute_leaves,
    tree_from_preorder,
)
from artifact.fixtures import OUT3
from artifact.regular import RegularTreeGrammar, enumerate_grammar, \
    parse_member, _flatten_rules, _labels

NONTERMINALS = ("S", "A", "B")


def _rhs(nts):
    """Right-hand sides over OUT3 whose leaves may be nonterminals, and
    chain rules: a bare nonterminal."""
    leaves = st.sampled_from(("e", "e") + nts).map(leaf)
    return st.one_of(st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(lambda c: Tree("tau", [c])),
            st.tuples(kids, kids).map(lambda cs: Tree("sigma", cs))),
        max_leaves=4), st.sampled_from(nts).map(leaf))


@st.composite
def grammars(draw):
    """One to three nonterminals with one to three rules each."""
    nts = NONTERMINALS[:draw(st.integers(1, len(NONTERMINALS)))]
    rules = [(nt, rhs) for nt in nts
             for rhs in draw(st.lists(_rhs(nts), min_size=1, max_size=3))]
    return RegularTreeGrammar(nts, OUT3, ["S"], rules)


@given(grammars(), st.integers(1, 7))
def test_enumeration_and_parsing_agree(g, n):
    lang = enumerate_grammar(g, n)
    rules, chains = _flatten_rules(g)
    for t in all_trees(g.terminals, n):
        assert (t in lang) == parse_member(rules, chains, g.initials, t), \
            (g.rules, t)


# ---------------------------------------------------------------------------
# Tree idioms: leaf substitution and pre-order rebuilding

MIXED = RankedAlphabet({"sigma": 2, "tau": 1, "e": 0, "a": 0, "b": 0})
LEAVES = ("e", "a", "b")


def _trees(max_leaves=12):
    return st.recursive(
        st.sampled_from(LEAVES).map(leaf),
        lambda kids: st.one_of(
            kids.map(lambda c: Tree("tau", [c])),
            st.tuples(kids, kids).map(lambda cs: Tree("sigma", cs))),
        max_leaves=max_leaves)


def _substitute_reference(t, fill):
    """Leaf substitution by structural recursion."""
    if not t.children:
        new = fill(t.label)
        return t if new is None else new
    return Tree(t.label, [_substitute_reference(c, fill) for c in t.children])


@given(_trees(), st.dictionaries(st.sampled_from(LEAVES), _trees(4)))
def test_substitute_leaves_matches_recursive_reference(t, fill_map):
    asked, asked_ref = [], []

    def recording(log):
        return lambda x: log.append(x) or fill_map.get(x)

    assert substitute_leaves(t, recording(asked)) == \
        _substitute_reference(t, recording(asked_ref))
    assert asked == asked_ref  # the leaves, in pre-order


@given(_trees())
def test_tree_from_preorder_inverts_labels(t):
    assert tree_from_preorder(list(_labels([t])), MIXED.rank) == t


@given(_trees(), st.data())
def test_tree_from_preorder_rejects_a_label_dropped_or_added(t, data):
    """Dropping or inserting a label of rank other than 1 changes the sum
    of (rank - 1) over the labels, which is -1 for exactly one tree."""
    labels = list(_labels([t]))
    for bad in (labels[:-1], labels + ["e"]):
        with pytest.raises(ValueError):
            tree_from_preorder(bad, MIXED.rank)
    i = data.draw(st.integers(0, len(labels) - 1))
    if MIXED.rank(labels[i]) != 1:
        with pytest.raises(ValueError):
            tree_from_preorder(labels[:i] + labels[i + 1:], MIXED.rank)
    j = data.draw(st.integers(0, len(labels)))
    extra = data.draw(st.sampled_from(("sigma", "e", "a")))
    with pytest.raises(ValueError):
        tree_from_preorder(labels[:j] + [extra] + labels[j:], MIXED.rank)
