"""Tests for alphabets, trees, addressing, marking, and serialization."""

import sys

import pytest

from artifact.core import (
    AlphabetError, MarkedAlphabet, ParseError, RankedAlphabet, Tree, TreeError,
    TreeIndex, STAY, UP, addresses, all_trees, child_number, down, leaf,
    mark_node, marked_name, navigate, parse_tree, preorder, serialize_tree,
    split_marked_name, subtree_at, tree_key, _valid_symbol_name,
)
from artifact.cli import main
from artifact.fixtures import OUT3, comb_tree

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


def _valid_by_characters(name):
    """The symbol-name check as a predicate on each character."""
    if not isinstance(name, str) or not name:
        return False
    return not any(c in "()[]{}," or c.isspace() for c in name)


def test_symbol_name_check_matches_the_character_predicate():
    for fmt in ("%s", "a%sb"):
        names = [fmt % chr(i) for i in range(0x110000)]
        assert [_valid_symbol_name(n) for n in names] == \
            [_valid_by_characters(n) for n in names]
    for name in ("", "sigma~n1~k12~gq0.q1", "a\u3000b", "a\n", None, 3):
        assert _valid_symbol_name(name) == _valid_by_characters(name)


def test_alphabet_text_roundtrip():
    text = SIGMA_E.format()
    assert RankedAlphabet.parse(text) == SIGMA_E


def test_alphabet_line_has_two_fields(tmp_path, capsys):
    """A third field, such as the flag ``invisible``, is a format error,
    also in an ``.alpha`` file given to the command line."""
    text = "sigma:2\ne:0\nlambda:0:invisible\n"
    with pytest.raises(AlphabetError, match="line 3: expected name:rank"):
        RankedAlphabet.parse(text)
    path = tmp_path / "lambda.alpha"
    path.write_text(text)
    code = main(["inverse-image", "--transducer", "identity", "--language",
                 "all:%s" % path, "--out", str(tmp_path / "out.aut")])
    assert code == 2
    assert "expected name:rank" in capsys.readouterr().err


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


def test_parse_serialize_deep_comb_at_default_recursion_limit():
    t = leaf("e")
    for _ in range(10 ** 4 - 1):
        t = Tree("sigma", [leaf("e"), t])
    text = serialize_tree(t)
    assert text == "sigma(e," * (10 ** 4 - 1) + "e" + ")" * (10 ** 4 - 1)
    assert parse_tree(text, SIGMA_E) == t
    with pytest.raises(ParseError) as exc:
        parse_tree(text[:-1], SIGMA_E)
    assert exc.value.offset == 0  # the outermost '(' is the unclosed one


def _plain_serialize(t):
    """The reference writer: every node in pre-order, no reuse of text."""
    parts = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        label = node.label
        parts.append(label if isinstance(label, str) else repr(label))
        if node.children:
            parts.append("(")
            stack.append(")")
            for k in range(len(node.children) - 1, -1, -1):
                stack.append(node.children[k])
                if k:
                    stack.append(",")
    return "".join(parts)


def test_serialize_shared_outputs_match_the_plain_writer():
    from artifact.fixtures import comb_tree, m_exp
    from artifact.transducer import eval_deterministic
    for n in range(1, 17):
        out = eval_deterministic(m_exp(), comb_tree(n))[0]
        assert out.height == n
        assert serialize_tree(out) == _plain_serialize(out), n


def test_serialize_random_machine_outputs_match_the_plain_writer():
    from artifact.fixtures import random_transducer
    from artifact.transducer import enumerate_outputs, eval_deterministic
    inputs = all_trees(SIGMA_E, 9)
    for seed in range(20):
        det = random_transducer(seed, kind="local")
        nondet = random_transducer(seed, kind="topdown", deterministic=False)
        for t in inputs:
            out = eval_deterministic(det, t)[0]
            if out is not None:
                assert serialize_tree(out) == _plain_serialize(out)
        for t in inputs[:8]:
            for out in enumerate_outputs(nondet, t, 12):
                assert serialize_tree(out) == _plain_serialize(out)


def test_serialize_random_dags_match_the_plain_writer():
    """Trees built from a pool of shared objects, so that a repeated
    subtree is met at every size and depth, some labels not strings."""
    import random
    rng = random.Random(7)
    pool = [leaf("e"), leaf(("x", 1))]
    for _ in range(400):
        kids = [rng.choice(pool[-40:] if rng.random() < 0.7 else pool)
                for _ in range(rng.choice((1, 2, 2, 3)))]
        t = Tree(rng.choice(("f", ("g", 2))), kids)
        if t.size <= 5000:
            pool.append(t)
    assert max(t.size for t in pool) > 4 * 32
    for t in pool:
        assert serialize_tree(t) == _plain_serialize(t)


def test_serialize_full_binary_of_height_20_by_doubling():
    from artifact.fixtures import full_binary
    text = "e"
    for _ in range(20):
        text = "sigma(%s,%s)" % (text, text)
    assert serialize_tree(full_binary(20)) == text


def test_serialize_comb_of_1e5_leaves_at_default_recursion_limit():
    assert sys.getrecursionlimit() <= 10 ** 4
    t = comb_tree(10 ** 5)
    assert serialize_tree(t) == _plain_serialize(t)
    shared = Tree("sigma", [t, t])
    assert serialize_tree(shared) == "sigma(%s,%s)" % ((_plain_serialize(t),) * 2)


# ---------------------------------------------------------------------------
# metrics

def test_metrics_leaf():
    assert (leaf("e").size, leaf("e").height) == (1, 0)


def test_metrics_example_tree():
    t = parse_tree("sigma(tau(tau(a)),a)", GRAMMAR_ALPHA)
    assert (t.size, t.height) == (5, 3)


def test_metrics_right_comb():
    t = parse_tree("sigma(e,sigma(e,e))", SIGMA_E)
    assert (t.size, t.height) == (5, 2)


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


def test_tree_index_is_preorder():
    for t in all_trees(SIGMA_E, 7) + all_trees(OUT3, 7):
        ix = TreeIndex(t)
        assert ix.addrs == addresses(t)
        assert ix.nodes == [node for _, node in preorder(t)]
        assert ix.child_nos == [child_number(u) for u in ix.addrs]
        at_root = mark_node(t, ())  # 0-marked everywhere but the root
        assert ix.marked == [marked_name(t.label, 0)] + [
            subtree_at(at_root, u).label for u in ix.addrs[1:]]
        for i, (node, cs) in enumerate(zip(ix.nodes, ix.kids)):
            assert len(cs) == len(node.children)
            assert all(node.children[k] is ix.nodes[j]
                       for k, j in enumerate(cs))
            assert all(ix.parents[j] == i for j in cs)
        assert ix.parents[0] is None
        assert [ix.addrs[p] for p in ix.parents[1:]] == \
            [u[:-1] for u in ix.addrs[1:]]


def test_tree_index_deep_comb():
    t = comb_tree(10 ** 4)
    ix = TreeIndex(t)
    assert len(ix.nodes) == t.size
    # the spine nodes have the even ids: a leaf, then the next spine node
    for i in range(0, t.size - 1, 2):
        assert ix.kids[i] == [i + 1, i + 2]
        assert ix.child_nos[i + 1:i + 3] == [1, 2]
        assert ix.nodes[i + 2] is ix.nodes[i].children[1]
    assert ix.kids[-1] == [] and ix.nodes[-1].label == "e"


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


def _assert_marked(m, t, u):
    """m has t's shape, and each node carries t's label, 1-marked at u
    and 0-marked elsewhere."""
    pairs = list(zip(preorder(m), preorder(t)))
    assert m.size == t.size == len(pairs)
    for (a, node), (b, base) in pairs:
        assert a == b
        assert split_marked_name(node.label) == (base.label, int(a == u))


def test_mark_unmark_roundtrip_exhaustive():
    for t in all_trees(SIGMA_E, 6):
        for u in addresses(t):
            _assert_marked(mark_node(t, u), t, u)


def test_mark_deep_comb_at_default_recursion_limit():
    n = 10 ** 4
    assert sys.getrecursionlimit() <= n
    t = comb_tree(n)
    k = n // 2
    m = mark_node(t, (2,) * k)
    assert serialize_tree(m) == (
        "sigma#0(e#0," * k + "sigma#1(e#0," + "sigma#0(e#0," * (n - 2 - k)
        + "e#0" + ")" * (n - 1))
    with pytest.raises(TreeError):
        mark_node(t, (2,) * n)


def test_deep_marked_comb_reads_back_at_default_recursion_limit():
    n = 3000
    assert sys.getrecursionlimit() <= n
    t = comb_tree(n)
    for u in ((), (2,) * (n - 1), (2,) * (n // 2) + (1,)):
        _assert_marked(mark_node(t, u), t, u)


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


def test_all_trees_key_sort_matches_comparison_sort():
    for alphabet in (SIGMA_E, OUT3):
        ts = all_trees(alphabet, 11)
        assert ts == sorted(ts)  # Tree.__lt__, two serializations a call
        assert ts == sorted(ts, key=tree_key)


def test_tree_equality_shared_subtrees():
    # separately built, so no node of one is a node of the other; the
    # explicit size is 2^31 - 1, the shared size 31 nodes
    def full(h):
        t = leaf("e")
        for _ in range(h):
            t = Tree("sigma", [t, t])
        return t

    assert full(30) == full(30)
    assert full(30) != full(29)
    # the one differing leaf sits under every shared path
    odd = leaf("f")
    for _ in range(30):
        odd = Tree("sigma", [odd, odd])
    assert odd.size == full(30).size and odd != full(30)
