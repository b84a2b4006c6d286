"""Tests for forests, the binary encoding, flattening, the bridge
transducers, and pipeline runs on forests."""

import itertools
import random
import sys

import pytest

from artifact.core import RankedAlphabet, Tree, TreeError, all_trees, leaf
from artifact.constructions import Pipeline
from artifact.fixtures import SIGMA_E, identity_relabeler
from artifact.forest import (
    CONCAT, EMPTY, LAMBDA, Forest, at_exponential, bracket_tokens, decode,
    decode_homomorphism, encode, encoding_alphabets, flatten,
    flatten_simulator, flatten_yield, forest_pipeline, string_forest,
)
from artifact.regular import _labels
from artifact.transducer import (
    ContractError, check_single_use, classify, eval_deterministic,
)


def all_forests(symbols, max_nodes):
    """Every forest over the symbols with at most max_nodes nodes."""
    by_nodes = [[EMPTY]]
    for n in range(1, max_nodes + 1):
        level = []
        for sym in symbols:
            for k in range(n):
                for child in by_nodes[k]:
                    for rest in by_nodes[n - 1 - k]:
                        level.append(Forest(((sym, child),) + rest.trees))
        by_nodes.append(level)
    return [f for level in by_nodes for f in level]


def encode_recursive(f):
    """Structural-recursion encoder used as the oracle for encode."""
    if not f.trees:
        return leaf("e")
    (sym, child), rest = f.trees[0], Forest(f.trees[1:])
    return Tree(sym, [encode_recursive(child), encode_recursive(rest)])


# ---------------------------------------------------------------------------
# Forest values and parsing

def test_forest_parse_roundtrip():
    for text in ("", "a[]", "a[]b[]", "a[b[]c[]]", "a[b[c[]]]a[]"):
        f = Forest.parse(text)
        assert str(f) == text
        assert Forest.parse(str(f)) == f


def test_forest_parse_rejects_malformed():
    for text in ("a", "a[", "a[]]", "[]", "a[]extra"):
        with pytest.raises(TreeError):
            Forest.parse(text)


def test_bracket_length_counts_labels_and_brackets():
    assert EMPTY.bracket_length == 0
    assert Forest.parse("a[]b[]").bracket_length == 6
    assert Forest.parse("sigma[sigma[]]").bracket_length == 6


def test_bracket_tokens():
    assert bracket_tokens(Forest.parse("a[b[]]")) == ("a", "[", "b", "[",
                                                      "]", "]")


def _random_forest(rng, nodes):
    """A forest of exactly ``nodes`` nodes over a, b and c."""
    trees = []
    while nodes:
        size = rng.randint(1, nodes)
        trees.append((rng.choice("abc"), _random_forest(rng, size - 1)))
        nodes -= size
    return Forest(trees)


def _node_count_recursive(f):
    return sum(1 + _node_count_recursive(child) for _, child in f.trees)


def _str_recursive(f):
    return "".join("%s[%s]" % (label, _str_recursive(child))
                   for label, child in f.trees)


def test_forest_walks_match_recursive_references():
    rng = random.Random(3)
    forests = all_forests("ab", 4) + [
        _random_forest(rng, rng.randint(0, 80)) for _ in range(200)]
    for f in forests:
        assert f.node_count == _node_count_recursive(f)
        assert str(f) == _str_recursive(f)


def test_forest_walks_at_depth_3000():
    """Far above the default recursion limit."""
    f = EMPTY
    for _ in range(3000):
        f = Forest((("a", f),))
    assert f.node_count == 3000
    assert f.bracket_length == 9000
    assert str(f) == "a[" * 3000 + "]" * 3000


def test_forest_parse_roundtrip_at_depth_3000():
    text = "b[]" + "a[" * 3000 + "c[]" + "]" * 3000
    f = Forest.parse(text)
    g = Forest.parse("c[]")
    for _ in range(3000):
        g = Forest((("a", g),))
    assert f == Forest((("b", EMPTY),) + g.trees)
    assert str(f) == text
    assert Forest.parse(str(f)) == f
    toks = bracket_tokens(f)
    assert "".join(toks) == text and len(toks) == 3 * f.node_count


def test_forest_hash_and_equality_at_depth_3000():
    def nested(innermost):
        f = Forest((("a", EMPTY), (innermost, EMPTY)))
        for _ in range(3000):
            f = Forest((("a", f),))
        return f

    f, g, h = nested("b"), nested("b"), nested("c")
    assert f is not g and hash(f) == hash(g)
    assert f == g and not f != g
    assert f != h and h != g
    assert len({f, g, h}) == 2
    assert f != Forest((("a", f.trees[0][1]), ("a", EMPTY)))
    assert f != "a[]"


# ---------------------------------------------------------------------------
# Encoding and decoding

def test_encode_empty_forest():
    assert encode(EMPTY) == leaf("e")


def test_encode_two_leaves():
    f = Forest.parse("a[]b[]")
    t = encode(f)
    assert t == Tree("a", [leaf("e"), Tree("b", [leaf("e"), leaf("e")])])
    assert t.size == 5 == 2 * f.bracket_length // 3 + 1


def test_encode_nested():
    f = Forest.parse("sigma[sigma[]]")
    t = encode(f)
    assert t == Tree("sigma", [Tree("sigma", [leaf("e"), leaf("e")]),
                               leaf("e")])
    assert decode(t) == f


def test_encode_decode_inverse_and_size_law():
    for f in all_forests(("a", "b"), 4):
        assert f.bracket_length <= 12
        t = encode(f)
        assert t == encode_recursive(f)
        assert t.size * 3 == 2 * f.bracket_length + 3
        assert decode(t) == f


def test_decode_encode_identity_on_trees():
    sigma_e, _ = encoding_alphabets(("a", "b"))
    for t in all_trees(sigma_e, 7):
        assert encode(decode(t)) == t


def test_decode_rejects_bad_shapes():
    with pytest.raises(TreeError):
        decode(leaf("a"))


def _decode_recursive(t):
    """decode as a structural recursion, kept as its reference."""
    if not t.children:
        if t.label != "e":
            raise TreeError("decode leaf must be e, got %r" % (t.label,))
        return EMPTY
    if len(t.children) != 2:
        raise TreeError("decode needs rank-2 nodes, got %r" % (t.label,))
    head = (t.label, _decode_recursive(t.children[0]))
    return Forest((head,) + _decode_recursive(t.children[1]).trees)


def _flatten_recursive(t):
    """flatten as a structural recursion, kept as its reference."""
    if not t.children:
        if t.label != "e":
            raise TreeError("flatten leaf must be e, got %r" % (t.label,))
        return EMPTY
    if t.label == CONCAT:
        left = _flatten_recursive(t.children[0])
        return Forest(left.trees + _flatten_recursive(t.children[1]).trees)
    if len(t.children) != 1:
        raise TreeError("flatten symbol %r must have rank 1" % (t.label,))
    return Forest(((t.label, _flatten_recursive(t.children[0])),))


def _unranked_trees(labels, max_size, max_rank=3):
    """Every tree of at most ``max_size`` nodes over ``labels``, each node
    with 0 to ``max_rank`` children whatever its label."""
    by_size = [[], [leaf(x) for x in labels]]
    for n in range(2, max_size + 1):
        level = []
        for rank in range(1, max_rank + 1):
            for sizes in _compositions(n - 1, rank):
                for kids in itertools.product(*(by_size[k] for k in sizes)):
                    level += [Tree(x, kids) for x in labels]
        by_size.append(level)
    return [t for level in by_size for t in level]


def _compositions(n, parts):
    if parts == 1:
        return [(n,)]
    return [(k,) + rest for k in range(1, n)
            for rest in _compositions(n - k, parts - 1)]


def _outcome(fn, t):
    try:
        return "value", fn(t)
    except (TreeError, IndexError) as e:
        return type(e), str(e)


def test_decode_and_flatten_match_recursive_references():
    """The same forest, or the same first error, on every tree of up to 6
    nodes whatever its labels' ranks, malformed ones included."""
    trees = _unranked_trees(("e", CONCAT, "a"), 6)
    assert len(trees) > 10000
    kinds = set()
    for fn, ref in ((decode, _decode_recursive),
                    (flatten, _flatten_recursive)):
        for t in trees:
            got = _outcome(fn, t)
            assert got == _outcome(ref, t), (fn, t)
            kinds.add(got[0])
    assert kinds == {"value", TreeError, IndexError}


def test_decode_and_flatten_at_depth_3000():
    """Right and left spines far above the default recursion limit, well
    formed and with a malformed bottom."""
    n = 3000
    assert sys.getrecursionlimit() < n
    nested = EMPTY
    for _ in range(n):
        nested = Forest((("a", nested),))
    for f in (string_forest(["a"] * n), nested):
        assert decode(encode(f)) == f
    right = left = chain = leaf("e")
    for _ in range(n):
        right = Tree(CONCAT, [Tree("a", [leaf("e")]), right])
        left = Tree(CONCAT, [left, Tree("a", [leaf("e")])])
        chain = Tree("a", [chain])
    for t in (right, left):
        assert flatten(t) == string_forest(["a"] * n)
    assert flatten(chain) == nested
    bottom = Tree("a", [leaf("b")])
    for _ in range(n):
        bottom = Tree("a", [bottom])
    with pytest.raises(TreeError, match="flatten leaf must be e, got 'b'"):
        flatten(bottom)
    spine = leaf("b")
    for _ in range(n):
        spine = Tree("a", [leaf("e"), spine])
    with pytest.raises(TreeError, match="decode leaf must be e, got 'b'"):
        decode(spine)


# ---------------------------------------------------------------------------
# Flattening

def test_flatten_equations():
    assert flatten(leaf("e")) == EMPTY
    t = Tree(CONCAT, [Tree("a", [leaf("e")]),
                      Tree(CONCAT, [Tree("b", [leaf("e")]), leaf("e")])])
    assert flatten(t) == Forest.parse("a[]b[]")


def test_flatten_not_injective():
    a = Tree("a", [leaf("e")])
    padded = Tree(CONCAT, [leaf("e"), a])
    assert flatten(a) == flatten(padded) == Forest.parse("a[]")


def test_flatten_surjective_on_enumeration():
    _, delta_at = encoding_alphabets(("a", "b"))
    image = {flatten(t) for t in all_trees(delta_at, 8)}
    for f in all_forests(("a", "b"), 3):
        assert f in image, f


# ---------------------------------------------------------------------------
# Bridge transducers

def test_decode_homomorphism_equation():
    h = decode_homomorphism(("a", "b"))
    for t in all_trees(h.input_alphabet, 7):
        s, _ = eval_deterministic(h, t)
        assert flatten(s) == decode(t), t


def test_flatten_simulator_computes_encoded_flattening():
    M = flatten_simulator(("a", "b"))
    for t in all_trees(M.input_alphabet, 7):
        s, _ = eval_deterministic(M, t)
        assert s is not None and decode(s) == flatten(t), t


def test_flatten_simulator_class():
    M = flatten_simulator(("a", "b"))
    flags = classify(M)
    assert flags.deterministic and flags.local
    ok, _ = check_single_use(M, all_trees(M.input_alphabet, 6))
    assert ok


def test_flatten_yield():
    M = flatten_yield(("a", "b"))
    A = M.output_alphabet
    assert classify(M).deterministic and classify(M).top_down
    for t in all_trees(M.input_alphabet, 7):
        s, _ = eval_deterministic(M, t)
        # the yield: the leaves in pre-order, less the padding
        toks = tuple("[" if x == "lbr" else "]" if x == "rbr" else x
                     for x in _labels([s])
                     if A.rank(x) == 0 and x != LAMBDA)
        assert toks == bracket_tokens(flatten(t)), t


# ---------------------------------------------------------------------------
# Pipelines on forests

def test_forest_pipeline_identity_dec():
    P = Pipeline((identity_relabeler(),), 1)
    for f in all_forests(("sigma",), 3):
        assert forest_pipeline(P, "dec", f) == {f}


def test_forest_pipeline_at_exponential():
    M = at_exponential()
    for n in range(3):
        got = forest_pipeline(M, "flat", string_forest(["sigma"] * n))
        assert got == {string_forest(["delta"] * 2 ** (n + 1))}, n


def test_forest_pipeline_flat_agrees_with_dec_after_homomorphism():
    base = Pipeline((identity_relabeler(),), 1)
    extended = Pipeline((identity_relabeler(), decode_homomorphism(("sigma",))))
    for f in all_forests(("sigma",), 3):
        assert forest_pipeline(extended, "flat", f) == \
            forest_pipeline(base, "dec", f)


def test_forest_pipeline_rejects_mode_and_alphabet_mismatch():
    P = Pipeline((identity_relabeler(),), 1)
    with pytest.raises(ContractError):
        forest_pipeline(P, "flat", EMPTY)
    with pytest.raises(ContractError):
        forest_pipeline(P, "tree", EMPTY)
    with pytest.raises(ContractError):
        forest_pipeline(at_exponential(), "dec", EMPTY)
