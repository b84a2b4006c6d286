"""Ranked alphabets, trees, Dewey node addressing, and node marking.

Trees are immutable values: a node carries a label and a tuple of child
trees, and caches its size and height at construction time so that shared
(DAG-structured) outputs of the evaluators stay cheap to measure.  Node
addresses are 1-based Dewey paths represented as plain tuples of ints; the
empty tuple addresses the root.  The child number of the root is 0 by
convention.
"""

import functools
import re
import sys

# A symbol name is a non-empty run of characters that are neither
# whitespace (``\s``, the characters of ``str.isspace``) nor any of ()[]{},
_SYMBOL_NAME = re.compile(r"[^\s()\[\]{},]+")


def _valid_symbol_name(name):
    return isinstance(name, str) and _SYMBOL_NAME.fullmatch(name) is not None


class AlphabetError(ValueError):
    pass


class TreeError(ValueError):
    pass


class RankedAlphabet:
    """A finite map from symbol names to ranks (non-negative arities)."""

    __slots__ = ("symbols", "max_rank")

    def __init__(self, symbols):
        symbols = dict(symbols)
        for name, rank in symbols.items():
            if not _valid_symbol_name(name):
                raise AlphabetError("invalid symbol name: %r" % (name,))
            if not isinstance(rank, int) or rank < 0:
                raise AlphabetError("invalid rank for %r: %r" % (name, rank))
        self.symbols = symbols
        self.max_rank = max(symbols.values(), default=0)

    def rank(self, name):
        try:
            return self.symbols[name]
        except KeyError:
            raise AlphabetError("unknown symbol: %r" % (name,)) from None

    def __contains__(self, name):
        return name in self.symbols

    def __iter__(self):
        return iter(sorted(self.symbols))

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return (isinstance(other, RankedAlphabet)
                and self.symbols == other.symbols)

    def __hash__(self):
        return hash(frozenset(self.symbols.items()))

    def __repr__(self):
        items = ",".join("%s:%d" % (n, r) for n, r in sorted(self.symbols.items()))
        return "RankedAlphabet({%s})" % items

    @classmethod
    def parse(cls, text):
        """Parse the ``name:rank`` line format (blank lines ignored)."""
        symbols = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) != 2:
                raise AlphabetError("line %d: expected name:rank" % lineno)
            name = parts[0].strip()
            try:
                rank = int(parts[1])
            except ValueError:
                raise AlphabetError("line %d: bad rank %r" % (lineno, parts[1]))
            if name in symbols:
                raise AlphabetError("line %d: duplicate symbol %r" % (lineno, name))
            symbols[name] = rank
        return cls(symbols)

    def format(self):
        lines = []
        for name in sorted(self.symbols):
            lines.append("%s:%d" % (name, self.symbols[name]))
        return "\n".join(lines) + "\n"


MARK_SEP = "#"


class MarkedAlphabet(RankedAlphabet):
    """The alphabet of node-marked trees: one 0-variant and one 1-variant
    per base symbol, ranks preserved.  Marked names are ``name#0`` and
    ``name#1``."""

    __slots__ = ("base",)

    def __init__(self, base):
        symbols = {}
        for name, rank in base.symbols.items():
            symbols[marked_name(name, 0)] = rank
            symbols[marked_name(name, 1)] = rank
        super().__init__(symbols)
        self.base = base

    def __repr__(self):
        return "MarkedAlphabet(%r)" % (self.base,)


def marked_name(name, bit):
    return "%s%s%d" % (name, MARK_SEP, bit)


def split_marked_name(name):
    """Return (base name, bit) of a marked symbol name."""
    base, sep, bit = name.rpartition(MARK_SEP)
    if sep != MARK_SEP or bit not in ("0", "1"):
        raise AlphabetError("not a marked symbol name: %r" % (name,))
    return base, int(bit)


class Tree:
    """An ordered labeled tree.  Immutable; size and height are cached so
    that structure-shared trees (as produced by the deterministic
    evaluator) are measured in time linear in the shared representation."""

    __slots__ = ("label", "children", "size", "height", "_hash")

    def __init__(self, label, children=()):
        self.label = label
        self.children = tuple(children)
        size = 1
        height = 0
        key = [label]
        for c in self.children:
            size += c.size
            if c.height >= height:
                height = c.height + 1
            key.append(c._hash)
        self.size = size
        self.height = height
        self._hash = hash(tuple(key))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        if (self._hash != other._hash or self.size != other.size
                or self.label != other.label
                or len(self.children) != len(other.children)):
            return False
        # the same checks on every pair of nodes below, with an explicit
        # stack so that deep trees do not exhaust the recursion limit.  A
        # pair of nodes is expanded once, so with shared subtrees the work
        # is linear in the shared size.
        stack = list(zip(self.children, other.children))
        compared = set()
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a._hash != b._hash or a.size != b.size or a.label != b.label
                    or len(a.children) != len(b.children)):
                return False
            pair = (id(a), id(b))
            if pair in compared:
                continue
            compared.add(pair)
            stack.extend(zip(a.children, b.children))
        return True

    def __lt__(self, other):
        """Order by (size, serialized text) — the canonical tie-break used
        for minimal witnesses and fixed-element choices.  To sort many
        trees, ``sorted(trees, key=tree_key)`` serializes each one once."""
        if self.size != other.size:
            return self.size < other.size
        return serialize_tree(self) < serialize_tree(other)

    def __repr__(self):
        if self.size > 40:
            return "Tree(size=%d, height=%d)" % (self.size, self.height)
        return "Tree(%s)" % serialize_tree(self)


def leaf(label):
    return Tree(label, ())


def tree_key(t):
    """The canonical order of ``Tree.__lt__`` as a sort key."""
    return t.size, serialize_tree(t)


# A subtree of at least this many nodes is written once per object: the
# deterministic evaluator's outputs share their repeated subtrees.
_SHARE_MIN = 32


class _EndOfShared:
    """Stands, in the writer's stack, after the children of a subtree
    whose text may be reused; its size sends it down the sharing branch."""

    label = None
    children = (None,)
    size = sys.maxsize


_END_OF_SHARED = _EndOfShared()


def serialize_tree(t):
    """Mandatory parentheses and commas for rank >= 1, bare name for
    leaves.  This is the bit-exact interchange format.

    One iterative pre-order pass.  In a tree of more than twice
    _SHARE_MIN nodes, a subtree of at least _SHARE_MIN nodes and at most
    half the size of the nearest such subtree around it has the span of
    its text recorded, and when the same object is met again that text
    is joined once and reused, so a tree with shared subtrees is written
    in time near its shared size."""
    parts = []
    append = parts.append
    stack = []  # (siblings, index of the next one) of each open node
    children, i = (t,), 0
    share = _SHARE_MIN if t.size > 2 * _SHARE_MIN else sys.maxsize
    spans = None  # id of a recorded subtree -> (start, end) or its text
    while True:
        if i < len(children):
            node = children[i]
            if i:
                append(",")
            i += 1
            label = node.label
            if not node.children:
                append(label if isinstance(label, str) else repr(label))
                continue
            if node.size >= share:
                if node is _END_OF_SHARED:
                    node, start, limit = marks.pop()
                    spans[id(node)] = (start, len(parts))
                    children, i = stack.pop()
                    continue
                if spans is None:
                    spans, marks, limit = {}, [], t.size // 2
                if node.size <= limit:
                    span = spans.get(id(node))
                    if span is not None:
                        if type(span) is tuple:
                            span = spans[id(node)] = "".join(
                                parts[span[0]:span[1]])
                        append(span)
                        continue
                    # record this one: its children come first, then the
                    # end marker
                    marks.append((node, len(parts), limit))
                    limit = node.size // 2
                    stack.append((children, i))
                    children, i = (_END_OF_SHARED,), 0
            append(label if isinstance(label, str) else repr(label))
            append("(")
            stack.append((children, i))
            children, i = node.children, 0
        elif stack:
            append(")")
            children, i = stack.pop()
        else:
            return "".join(parts)


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__("%s (at byte %d)" % (message, offset))
        self.offset = offset


def parse_tree(text, alphabet):
    """Parse ``t ::= name | name '(' t (',' t)* ')'``; commas between
    children are optional (whitespace also separates).  Errors carry the
    byte offset of the offending position."""
    return _parse_term(text, alphabet)


def _parse_term(text, alphabet, read_leaf=None):
    """``parse_tree``, iterative.  When ``read_leaf`` is given, a term
    that starts with '(' is a leaf that ``read_leaf(text, pos)`` reads
    from there, returning the leaf and the position after it."""
    pos = [0]
    n = len(text)

    def skip_ws():
        while pos[0] < n and text[pos[0]].isspace():
            pos[0] += 1

    def parse_name():
        m = _SYMBOL_NAME.match(text, pos[0])
        if m is None:
            raise ParseError("expected symbol name", pos[0])
        pos[0] = m.end()
        return m.group()

    def make(name, start, children):
        rank = alphabet.rank(name)
        if len(children) != rank:
            raise ParseError(
                "symbol %r has rank %d but %d children given"
                % (name, rank, len(children)), start)
        return Tree(name, children)

    open_terms = []  # (name, start, children) of each unclosed '('
    while True:
        skip_ws()
        start = pos[0]
        if read_leaf is not None and text.startswith("(", start):
            done, pos[0] = read_leaf(text, start)
        else:
            name = parse_name()
            if name not in alphabet:
                raise ParseError("unknown symbol %r" % name, start)
            skip_ws()
            if pos[0] < n and text[pos[0]] == "(":
                pos[0] += 1
                skip_ws()
                open_terms.append((name, start, []))
                done = None
            else:
                done = make(name, start, [])
        while True:
            if done is not None:
                if not open_terms:
                    skip_ws()
                    if pos[0] != n:
                        raise ParseError("trailing input", pos[0])
                    return done
                open_terms[-1][2].append(done)
                skip_ws()
                if pos[0] < n and text[pos[0]] == ",":
                    pos[0] += 1
                    skip_ws()
            if pos[0] < n and text[pos[0]] != ")":
                break  # the next child of the innermost open term
            name, start, children = open_terms.pop()
            if pos[0] >= n:
                raise ParseError("unclosed '('", start)
            pos[0] += 1
            done = make(name, start, children)


def substitute_leaves(t, fill):
    """t with every leaf whose label ``fill`` maps to a tree replaced by
    that tree; a leaf for which ``fill`` returns None stays.  ``fill`` is
    called on the leaves in pre-order, and the copy is built with an
    explicit stack."""
    if not t.children:
        new = fill(t.label)
        return t if new is None else new
    stack = [(t, iter(t.children), [])]  # node, children left, built
    while True:
        node, kids, built = stack[-1]
        for c in kids:
            if c.children:
                stack.append((c, iter(c.children), []))
                break
            new = fill(c.label)
            built.append(c if new is None else new)
        else:
            stack.pop()
            node = Tree(node.label, built)
            if not stack:
                return node
            stack[-1][2].append(node)


def depth1_productions(t, is_var):
    """t as depth-1 productions (n, label, kids), one per node whose
    label is not a variable, numbered in pre-order with the root 0; a kid
    is (True, k) for the k-th variable leaf or (False, m) for node m.
    Returns the productions in pre-order and the labels of the variable
    leaves in pre-order.  A variable root gives no productions."""
    prods, labels = [], []
    stack = [(t, None)]  # each node adds itself to its parent's kids
    while stack:
        node, siblings = stack.pop()
        if is_var(node.label):
            if siblings is not None:
                siblings.append((True, len(labels)))
            labels.append(node.label)
            continue
        if siblings is not None:
            siblings.append((False, len(prods)))
        kids = []
        prods.append((len(prods), node.label, kids))
        stack.extend((c, kids) for c in reversed(node.children))
    return [(n, sym, tuple(kids)) for n, sym, kids in prods], labels


def tree_from_preorder(labels, rank):
    """The tree whose node labels in pre-order are ``labels``, a node
    labelled x having ``rank(x)`` children, built with an explicit stack.
    Raises ValueError unless the labels spell exactly one tree."""
    done = None
    pending = []  # [label, its rank, its children so far] of open nodes
    for label in labels:
        if done is not None:
            raise ValueError("labels go on after a whole tree")
        pending.append([label, rank(label), []])
        while len(pending[-1][2]) == pending[-1][1]:
            label, _, kids = pending.pop()
            if not pending:
                done = Tree(label, kids)
                break
            pending[-1][2].append(Tree(label, kids))
    if done is None:
        raise ValueError("labels end before the tree is whole")
    return done


# ---------------------------------------------------------------------------
# Node addresses: 1-based Dewey paths as tuples of ints.

ROOT = ()


def child_number(u):
    """The child number of the addressed node; 0 for the root."""
    return u[-1] if u else 0


def subtree_at(t, u):
    node = t
    for i in u:
        if not 1 <= i <= len(node.children):
            raise TreeError("address %r not in tree" % (u,))
        node = node.children[i - 1]
    return node


def preorder(t):
    """All (address, subtree) pairs of t in pre-order, which is the
    lexicographic order of the Dewey addresses."""
    out = []
    stack = [((), t)]
    while stack:
        u, node = stack.pop()
        out.append((u, node))
        for i in range(len(node.children), 0, -1):
            stack.append((u + (i,), node.children[i - 1]))
    return out


def distinct_postorder(t, enter=None):
    """The distinct subtrees of t (by identity), each once, children
    before their parent and left to right, without recursion.  ``enter``,
    when given, is called on each of them as the walk first reaches it,
    before its children."""
    if enter is not None:
        enter(t)
    seen = {id(t)}
    stack = [(t, iter(t.children))]
    while stack:
        node, kids = stack[-1]
        for c in kids:
            if id(c) not in seen:
                seen.add(id(c))
                if enter is not None:
                    enter(c)
                stack.append((c, iter(c.children)))
                break
        else:
            stack.pop()
            yield node


def addresses(t):
    """All node addresses of t in pre-order."""
    return [u for u, _ in preorder(t)]


class TreeIndex:
    """The nodes of t in pre-order, the root 0, without recursion: per
    node id its subtree, child number, parent id (None at the root) and
    child ids.  The Dewey addresses (which take memory quadratic in the
    depth) and the 0-marked labels are computed on first use and then
    shared."""

    def __init__(self, t):
        self.nodes, self.child_nos, self.kids = [], [], []
        self.parents = []
        stack = [(t, 0, None)]
        while stack:
            node, j, parent = stack.pop()
            i = len(self.nodes)
            if parent is not None:
                self.kids[parent].append(i)
            self.nodes.append(node)
            self.child_nos.append(j)
            self.parents.append(parent)
            self.kids.append([])
            for k in range(len(node.children), 0, -1):
                stack.append((node.children[k - 1], k, i))

    @functools.cached_property
    def addrs(self):
        addrs = [()] * len(self.nodes)
        for i, cs in enumerate(self.kids):  # parents come first
            for j in cs:
                addrs[j] = addrs[i] + (self.child_nos[j],)
        return addrs

    @functools.cached_property
    def marked(self):
        suffix = marked_name("", 0)
        return [n.label + suffix for n in self.nodes]


class Instruction:
    """A walking instruction: stay, up, or down_i (i >= 1)."""

    __slots__ = ("kind", "index")

    def __init__(self, kind, index=None):
        if kind not in ("stay", "up", "down"):
            raise ValueError("bad instruction kind %r" % (kind,))
        if (kind == "down") != (index is not None):
            raise ValueError("down needs an index; stay/up take none")
        if kind == "down" and index < 1:
            raise ValueError("down index must be >= 1")
        self.kind = kind
        self.index = index

    def __eq__(self, other):
        return (isinstance(other, Instruction)
                and self.kind == other.kind and self.index == other.index)

    def __hash__(self):
        return hash((self.kind, self.index))

    def __repr__(self):
        if self.kind == "down":
            return "down_%d" % self.index
        return self.kind


STAY = Instruction("stay")
UP = Instruction("up")


def down(i):
    return Instruction("down", i)


def navigate(t, u, instr):
    """Apply an instruction to an address, or raise TreeError when it is
    inapplicable (up at the root, down beyond the rank)."""
    node = subtree_at(t, u)
    if instr.kind == "stay":
        return u
    if instr.kind == "up":
        if not u:
            raise TreeError("up at the root")
        return u[:-1]
    if instr.index > len(node.children):
        raise TreeError("down_%d at a node of rank %d"
                        % (instr.index, len(node.children)))
    return u + (instr.index,)


def try_navigate(t, u, instr):
    """navigate, but returns None instead of raising."""
    if instr.kind == "stay":
        return u
    if instr.kind == "up":
        return u[:-1] if u else None
    node = subtree_at(t, u)
    if instr.index > len(node.children):
        return None
    return u + (instr.index,)


def mark_node(t, u):
    """The marked representation of (t, u): every label becomes its
    0-variant except the node at u, which becomes its 1-variant.

    Iterative: the 0-marked copy of each distinct subtree is built once,
    children first, and the path from u up to the root is rebuilt around
    the 1-marked node."""
    path = [t]
    for i in u:
        if not 1 <= i <= len(path[-1].children):
            raise TreeError("address %r not in tree" % (u,))
        path.append(path[-1].children[i - 1])
    zero = {}
    for node in distinct_postorder(t):
        zero[id(node)] = Tree(marked_name(node.label, 0),
                              [zero[id(c)] for c in node.children])
    node = path.pop()
    marked = Tree(marked_name(node.label, 1),
                  [zero[id(c)] for c in node.children])
    for i, node in zip(reversed(u), reversed(path)):
        kids = [zero[id(c)] for c in node.children]
        kids[i - 1] = marked
        marked = Tree(marked_name(node.label, 0), kids)
    return marked


def all_trees(alphabet, max_size):
    """All alphabet-valid trees of size <= max_size, sorted canonically.

    The workhorse of every exhaustive small-scope suite.
    """
    by_size = {s: [] for s in range(1, max_size + 1)}
    for s in range(1, max_size + 1):
        for name in sorted(alphabet.symbols):
            rank = alphabet.rank(name)
            if rank == 0:
                if s == 1:
                    by_size[s].append(leaf(name))
                continue
            for combo in _size_splits(s - 1, rank, by_size):
                by_size[s].append(Tree(name, combo))
    out = []
    for s in range(1, max_size + 1):
        out.extend(by_size[s])
    out.sort(key=tree_key)
    return out


def _size_splits(total, k, by_size):
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - (k - 1) + 1):
        for t in by_size.get(first, ()):
            for rest in _size_splits(total - first, k - 1, by_size):
                yield (t,) + rest
