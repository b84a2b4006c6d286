"""Unranked forests, their binary tree encoding, flattening of trees over
the concatenation alphabet, and the bridge transducers relating the two
output conventions.

A forest is a sequence of unranked trees written in bracket syntax,
``f ::= '' | sym '[' f ']' f``.  Its bracket length counts one unit per
label and one per bracket, so a forest with n nodes has bracket length 3n
and its binary encoding has exactly 2n + 1 nodes.
"""

import re

from .core import (
    RankedAlphabet, TreeError, UP, down, leaf, tree_from_preorder,
)
from .constructions import Pipeline, pipeline_outputs
from .regular import _labels
from .transducer import (
    Call, ContractError, Rule, Transducer, call, classify,
    eval_deterministic, out,
)

CONCAT = "@"
LAMBDA = "lambda"


class Forest:
    """A sequence of unranked trees; each element is a (label, Forest)
    pair."""

    __slots__ = ("trees", "_hash")

    def __init__(self, trees=()):
        trees = tuple(trees)
        for el in trees:
            if (not isinstance(el, tuple) or len(el) != 2
                    or not isinstance(el[1], Forest)):
                raise TreeError("forest element must be (label, Forest), "
                                "got %r" % (el,))
        self.trees = trees  # hashed from the children's hashes, any depth
        self._hash = hash(tuple((label, f._hash) for label, f in trees))

    def __eq__(self, other):
        if not isinstance(other, Forest):
            return False
        # an explicit stack for any depth; each pair is expanded once
        stack, compared = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            pair = (id(a), id(b))
            if a is b or pair in compared:
                continue
            if a._hash != b._hash or len(a.trees) != len(b.trees) or any(
                    x[0] != y[0] for x, y in zip(a.trees, b.trees)):
                return False
            compared.add(pair)
            stack += [(x[1], y[1]) for x, y in zip(a.trees, b.trees)]
        return True

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self.trees)

    def __lt__(self, other):
        return str(self) < str(other)

    def __str__(self):
        return "".join("]" if el is None else "%s[" % (el[0],)
                       for el in self._elements())

    def __repr__(self):
        return "Forest.parse(%r)" % (str(self),)

    def _elements(self):
        """Every (label, child forest) element in pre-order, each followed
        by None where its child forest ends; iterative, for any depth."""
        stack = [self]
        while stack:
            x = stack.pop()
            if isinstance(x, Forest):
                for el in reversed(x.trees):
                    stack += [None, el[1], el]
            else:
                yield x

    @property
    def node_count(self):
        return sum(el is not None for el in self._elements())

    @property
    def bracket_length(self):
        """Length of the bracket string, one unit per label and per
        bracket."""
        return 3 * self.node_count

    @classmethod
    def parse(cls, text):
        return _parse_forest(text.strip())


EMPTY = Forest(())


# a label runs up to a bracket or a space
_LABEL = re.compile(r"[^\s\[\]]*")
_SPACE = re.compile(r"\s*")


def _parse_forest(text):
    """The forest written in ``text``, in one left-to-right scan: each
    element still open waits on a stack with its label and the trees
    before it in the enclosing forest."""
    stack = []  # per open element: (label, the trees before it)
    trees, pos, end = [], 0, len(text)
    while True:
        pos = _SPACE.match(text, pos).end()
        if pos == end:
            if stack:
                raise TreeError("missing ']' in forest at ''")
            return Forest(trees)
        if text[pos] == "]":
            if not stack:
                raise TreeError("trailing input in forest: %r"
                                % (text[pos:],))
            label, outer = stack.pop()
            outer.append((label, Forest(trees)))
            trees = outer
            pos += 1
            continue
        start, pos = pos, _LABEL.match(text, pos).end()
        if pos == start or pos == end or text[pos] != "[":
            raise TreeError("expected sym'[' in forest at %r"
                            % (text[start:],))
        stack.append((text[start:pos], trees))
        trees = []
        pos += 1


def string_forest(labels):
    """The monadic-free forest a1[]a2[]...an[] spelling a string."""
    return Forest(tuple((label, EMPTY) for label in labels))


def bracket_tokens(f):
    """The bracket string of the forest as a token sequence."""
    toks = []
    for el in f._elements():
        toks += ["]"] if el is None else [el[0], "["]
    return tuple(toks)


def encoding_alphabets(symbols):
    """The rank-2 encoding alphabet (every symbol rank 2 plus e) and the
    concatenation alphabet (every symbol rank 1 plus rank-2 @ and e) for
    an unranked symbol set."""
    symbols = sorted(set(symbols))
    for reserved in ("e", CONCAT):
        if reserved in symbols:
            raise ContractError("symbol %r is reserved" % (reserved,))
    sigma_e = RankedAlphabet({**{s: 2 for s in symbols}, "e": 0})
    delta_at = RankedAlphabet({**{s: 1 for s in symbols},
                               CONCAT: 2, "e": 0})
    return sigma_e, delta_at


def encode(f):
    """The binary tree encoding of a forest: drop every left bracket,
    turn every right bracket into e, append one final e, and read the
    result back in pre-order with all labels at rank 2."""
    toks = [t if t != "]" else "e" for t in bracket_tokens(f) if t != "["]
    toks.append("e")
    return tree_from_preorder(toks, lambda sym: 0 if sym == "e" else 2)


def _read_forest(t, step):
    """The forest that t spells, read in one pre-order walk with an
    explicit stack.  ``step(x)`` raises TreeError on a malformed node x,
    or returns whether x opens an element labelled x.label and the child
    numbers to read in order, where None closes the element x opened.  A
    missing child raises IndexError when reached, so the first error is
    the one a recursive reading raises first."""
    trees, opened, work = [], [], [([t], 0)]
    while work:
        item = work.pop()
        if item is None:
            label, outer = opened.pop()
            outer.append((label, Forest(trees)))
            trees = outer
            continue
        x = item[0][item[1]]
        opens, reads = step(x)
        if opens:
            opened.append((x.label, trees))
            trees = []
        work += [None if k is None else (x.children, k)
                 for k in reversed(reads)]
    return Forest(trees)


def decode(t):
    """The inverse of encode: the rank-2 tree read back as a forest."""
    def step(x):
        if not x.children:
            if x.label != "e":
                raise TreeError("decode leaf must be e, got %r" % (x.label,))
            return False, ()
        if len(x.children) != 2:
            raise TreeError("decode needs rank-2 nodes, got %r" % (x.label,))
        return True, (0, None, 1)

    return _read_forest(t, step)


def flatten(t):
    """The forest value of a tree over a concatenation alphabet:
    e is the empty forest, @ concatenates, and every rank-1 symbol wraps
    its argument.  Surjective but not injective."""
    def step(x):
        if not x.children:
            if x.label != "e":
                raise TreeError("flatten leaf must be e, got %r"
                                % (x.label,))
            return False, ()
        if x.label == CONCAT:
            return False, (0, 1)
        if len(x.children) != 1:
            raise TreeError("flatten symbol %r must have rank 1"
                            % (x.label,))
        return True, (0, None)

    return _read_forest(t, step)


# ---------------------------------------------------------------------------
# Running pipelines on forests

def _is_encoding_alphabet(A):
    return ("e" in A and A.rank("e") == 0
            and all(A.rank(s) == 2 for s in A if s != "e"))


def _is_concat_alphabet(A):
    return ("e" in A and A.rank("e") == 0
            and CONCAT in A and A.rank(CONCAT) == 2
            and all(A.rank(s) == 1 for s in A if s not in ("e", CONCAT)))


def forest_pipeline(P, mode, f, max_size=None):
    """All forests obtained by encoding f, running it through the
    pipeline, and decoding (mode "dec") or flattening (mode "flat") each
    output.  Without a size bound every stage must be deterministic; with
    one, stage outputs are enumerated up to the bound."""
    stages = Pipeline.of(P).stages
    if mode not in ("dec", "flat"):
        raise ContractError("mode must be 'dec' or 'flat', got %r"
                            % (mode,))
    if not _is_encoding_alphabet(stages[0].input_alphabet):
        raise ContractError("pipeline input alphabet does not encode "
                            "forests")
    last = stages[-1].output_alphabet
    ok = _is_concat_alphabet(last) if mode == "flat" \
        else _is_encoding_alphabet(last)
    if not ok:
        raise ContractError("pipeline output alphabet does not fit mode "
                            "%r" % (mode,))
    if max_size is not None:
        outs = pipeline_outputs(stages, encode(f), max_size)
    else:
        outs = {encode(f)}
        for M in stages:
            nxt = set()
            for r in outs:
                if not classify(M).deterministic:
                    raise ContractError("nondeterministic stage needs a "
                                        "size bound")
                s, _ = eval_deterministic(M, r)
                if s is not None:
                    nxt.add(s)
            outs = nxt
    convert = flatten if mode == "flat" else decode
    return {convert(s) for s in outs}


# ---------------------------------------------------------------------------
# Bridge transducers

def decode_homomorphism(symbols):
    """The homomorphism h from rank-2 encodings into the concatenation
    alphabet, h(d(t1,t2)) = @(d(h(t1)), h(t2)); flattening after h equals
    decoding."""
    sigma_e, delta_at = encoding_alphabets(symbols)
    rules = []
    for j in range(3):
        rules.append(Rule("q", "e", j, None, leaf("e")))
        for sym in sorted(set(symbols)):
            rules.append(Rule("q", sym, j, None,
                              out(CONCAT,
                                  out(sym, call("q", down(1))),
                                  call("q", down(2)))))
    return Transducer(sigma_e, delta_at, ["q"], ["q"], rules)


def flatten_simulator(symbols):
    """The local single-use deterministic machine computing
    encode(flatten(t)) by a depth-first traversal split across output
    branches: each rank-1 node starts one branch for its subforest and one
    for the forest following it."""
    sigma_e, delta_at = encoding_alphabets(symbols)
    syms = sorted(set(symbols))
    rules = []
    for j in range(3):
        rules.append(Rule("d", CONCAT, j, None, call("d", down(1))))
        rules.append(Rule("u1", CONCAT, j, None, call("d", down(2))))
        for sym in syms:
            rules.append(Rule("u1", sym, j, None, leaf("e")))
    for j in (1, 2):
        for sym in syms:
            rules.append(Rule("d", sym, j, None,
                              out(sym, call("d", down(1)),
                                  call("u%d" % j, UP))))
        rules.append(Rule("d", "e", j, None, call("u%d" % j, UP)))
        rules.append(Rule("u2", CONCAT, j, None, call("u%d" % j, UP)))
    for sym in syms:
        rules.append(Rule("d", sym, 0, None,
                          out(sym, call("d", down(1)), leaf("e"))))
    rules.append(Rule("d", "e", 0, None, leaf("e")))
    rules.append(Rule("u2", CONCAT, 0, None, leaf("e")))
    return Transducer(delta_at, sigma_e, ["d", "u1", "u2"], ["d"], rules)


def flatten_yield(symbols):
    """The deterministic top-down local machine whose output yield is the
    bracket string of the flattened input, less the padding symbol."""
    _, delta_at = encoding_alphabets(symbols)
    syms = sorted(set(symbols))
    omega = RankedAlphabet(
        {**{s: 0 for s in syms},
         "lbr": 0, "rbr": 0, LAMBDA: 0, CONCAT: 2, "omega": 4})
    rules = []
    for j in range(3):
        rules.append(Rule("p", CONCAT, j, None,
                          out(CONCAT, call("p", down(1)),
                              call("p", down(2)))))
        rules.append(Rule("p", "e", j, None, leaf(LAMBDA)))
        for sym in syms:
            rules.append(Rule("p", sym, j, None,
                              out("omega", leaf(sym), leaf("lbr"),
                                  call("p", down(1)), leaf("rbr"))))
    return Transducer(delta_at, omega, ["p"], ["p"], rules)


# ---------------------------------------------------------------------------
# The concatenation-alphabet exponential fixture

def at_exponential():
    """The exponential duplicator re-targeted at the concatenation
    alphabet: rank-2 output nodes become @, output leaves become a
    rank-1 symbol over e, so the encoded string of n letters flattens to
    a string of 2^(n+1) letters."""
    from .fixtures import m_exp
    base = m_exp()
    _, omega_at = encoding_alphabets(["delta"])

    def convert(rhs):
        labels = []  # in pre-order: sigma becomes @, an output leaf delta(e)
        for x in _labels([rhs]):
            if isinstance(x, Call):
                labels.append(x)
            elif x == "sigma":
                labels.append(CONCAT)
            else:
                labels += ["delta", "e"]
        return tree_from_preorder(
            labels, lambda x: 0 if isinstance(x, Call) else omega_at.rank(x))

    rules = [Rule(r.state, r.symbol, r.child_no, r.test, convert(r.rhs))
             for r in base.rules]
    return Transducer(base.input_alphabet, omega_at, base.states,
                      base.initials, rules)
