"""Tests for alphabets, trees, addressing, marking, and serialization."""

import pytest

from artifact.core import (
    AlphabetError, MarkedAlphabet, ParseError, RankedAlphabet, Tree, TreeError,
    STAY, UP, addresses, all_trees, child_number, down, leaf, mark_node,
    marked_address, navigate, parse_tree, preorder, serialize_tree,
    subtree_at, tree_metrics, unmark_tree,
)

SIGMA_E = RankedAlphabet({"sigma": 2, "e": 0})
GRAMMAR_ALPHA = RankedAlphabet({"sigma": 2, "tau": 1, "a": 0})


# ---------------------------------------------------------------------------
# alphabets

def test_alphabet_basics():
    assert SIGMA_E.rank("sigma") == 2
    assert SIGMA_E.max_rank == 2
    assert "e" in SIGMA_E
    assert "b" not in SIGMA_E


def test_alphabet_rejects_bad_names():
    with pytest.raises(AlphabetError):
        RankedAlphabet({"a(b": 0})
    with pytest.raises(AlphabetError):
        RankedAlphabet({"a b": 0})
    with pytest.raises(AlphabetError):
        RankedAlphabet({"": 0})
    with pytest.raises(AlphabetError):
        RankedAlphabet({"a": -1})


def test_alphabet_yield_invisible_must_be_nullary():
    with pytest.raises(AlphabetError):
        RankedAlphabet({"a": 1}, yield_invisible=["a"])


def test_alphabet_text_roundtrip():
    text = SIGMA_E.format()
    assert RankedAlphabet.parse(text) == SIGMA_E
    lam = RankedAlphabet({"a": 0, "lam": 0}, yield_invisible=["lam"])
    assert RankedAlphabet.parse(lam.format()) == lam


# ---------------------------------------------------------------------------
# parsing and serialization

def test_parse_smallest_branching_tree():
    t = parse_tree("sigma(e,e)", SIGMA_E)
    assert t.size == 3


def test_parse_grammar_example_tree():
    # the running example tree of size 5
    t = parse_tree("sigma(tau(tau(a)),a)", GRAMMAR_ALPHA)
    assert t.size == 5


def test_parse_arity_mismatch():
    with pytest.raises(ParseError):
        parse_tree("sigma(e)", SIGMA_E)


def test_parse_unknown_symbol_offset():
    with pytest.raises(ParseError) as exc:
        parse_tree("sigma(e,b)", SIGMA_E)
    assert exc.value.offset == 8


def test_parse_whitespace_separated_children():
    assert parse_tree("sigma(e e)", SIGMA_E) == parse_tree("sigma(e,e)", SIGMA_E)


def test_parse_serialize_roundtrip_exhaustive():
    """parse∘serialize is the identity on all valid trees up to size 8."""
    for t in all_trees(GRAMMAR_ALPHA, 8):
        assert parse_tree(serialize_tree(t), GRAMMAR_ALPHA) == t


# ---------------------------------------------------------------------------
# metrics

def test_metrics_leaf():
    assert tree_metrics(leaf("e")) == (1, 0, ("e",))


def test_metrics_example_tree():
    t = parse_tree("sigma(tau(tau(a)),a)", GRAMMAR_ALPHA)
    assert tree_metrics(t) == (5, 3, ("a", "a"))


def test_metrics_right_comb():
    t = parse_tree("sigma(e,sigma(e,e))", SIGMA_E)
    assert tree_metrics(t) == (5, 2, ("e", "e", "e"))


def test_yield_invisible_symbols_skipped():
    alpha = RankedAlphabet({"f": 2, "a": 0, "lam": 0}, yield_invisible=["lam"])
    t = parse_tree("f(lam,a)", alpha)
    assert tree_metrics(t, alpha) == (3, 1, ("a",))


def test_size_law_leaves_and_monadic():
    """|t| <= 2*#leaves - 1 + #monadic for every tree."""
    for t in all_trees(GRAMMAR_ALPHA, 7):
        leaves = monadic = 0
        stack = [t]
        while stack:
            n = stack.pop()
            if not n.children:
                leaves += 1
            elif len(n.children) == 1:
                monadic += 1
            stack.extend(n.children)
        assert t.size <= 2 * leaves - 1 + monadic


# ---------------------------------------------------------------------------
# navigation

def test_navigate_down_up():
    t = parse_tree("sigma(e,e)", SIGMA_E)
    assert navigate(t, (), down(2)) == (2,)
    assert navigate(t, (1,), UP) == ()
    assert navigate(t, (1,), STAY) == (1,)


def test_navigate_errors():
    t = leaf("e")
    with pytest.raises(TreeError):
        navigate(t, (), UP)
    t2 = parse_tree("sigma(e,e)", SIGMA_E)
    with pytest.raises(TreeError):
        navigate(t2, (1,), down(1))


def test_child_number_convention():
    assert child_number(()) == 0
    assert child_number((1,)) == 1
    assert child_number((2, 1)) == 1


def test_addresses_preorder():
    t = parse_tree("sigma(tau(a),a)", GRAMMAR_ALPHA)
    assert addresses(t) == [(), (1,), (1, 1), (2,)]
    assert subtree_at(t, (1, 1)).label == "a"
    # pre-order is the lexicographic order of Dewey addresses, also on a
    # path deeper than the recursion limit allows for recursive walks
    path = leaf("a")
    for _ in range(300):
        path = Tree("tau", [path])
    for t in all_trees(GRAMMAR_ALPHA, 9) + [path]:
        us = addresses(t)
        assert us == sorted(us)
        assert preorder(t) == [(u, subtree_at(t, u)) for u in us]


# ---------------------------------------------------------------------------
# marking

def test_mark_root():
    t = parse_tree("sigma(e,e)", SIGMA_E)
    m = mark_node(t, ())
    assert serialize_tree(m) == "sigma#1(e#0,e#0)"


def test_mark_second_child():
    t = parse_tree("sigma(e,e)", SIGMA_E)
    m = mark_node(t, (2,))
    assert serialize_tree(m) == "sigma#0(e#0,e#1)"


def test_mark_unmark_roundtrip_exhaustive():
    for t in all_trees(SIGMA_E, 6):
        for u in addresses(t):
            m = mark_node(t, u)
            assert marked_address(m) == u
            assert unmark_tree(m) == t


def test_marked_alphabet_shape():
    m = MarkedAlphabet(SIGMA_E)
    assert m.rank("sigma#0") == 2
    assert m.rank("sigma#1") == 2
    assert m.rank("e#1") == 0
    assert len(m) == 4


# ---------------------------------------------------------------------------
# enumeration helper

def test_all_trees_counts():
    ts = all_trees(SIGMA_E, 5)
    # sizes over {sigma:2, e:0}: 1 tree of size 1, 1 of size 3, 2 of size 5
    assert [t.size for t in ts] == [1, 3, 5, 5]
    assert len(set(ts)) == len(ts)


def test_tree_ordering_size_then_lexicographic():
    a = parse_tree("sigma(e,e)", SIGMA_E)
    b = leaf("e")
    assert b < a
    c = parse_tree("sigma(sigma(e,e),e)", SIGMA_E)
    d = parse_tree("sigma(e,sigma(e,e))", SIGMA_E)
    assert d < c  # "sigma(e,..." sorts before "sigma(sigma..."


def test_tree_equality_deep():
    def comb(n):
        t = leaf("e")
        for _ in range(n - 1):
            t = Tree("sigma", [leaf("e"), t])
        return t

    assert comb(300) == comb(300)
    assert comb(300) != comb(299)
    # same size, shape and hash inputs except one label deep down
    a = comb(300)
    b = Tree("sigma", [leaf("e"), Tree("sigma", [leaf("e"), leaf("f")])])
    for _ in range(297):
        b = Tree("sigma", [leaf("e"), b])
    assert a.size == b.size and a != b
