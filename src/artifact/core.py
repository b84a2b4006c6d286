"""Ranked alphabets, trees, Dewey node addressing, and node marking.

Trees are immutable values: a node carries a label and a tuple of child
trees, and caches its size and height at construction time so that shared
(DAG-structured) outputs of the evaluators stay cheap to measure.  Node
addresses are 1-based Dewey paths represented as plain tuples of ints; the
empty tuple addresses the root.  The child number of the root is 0 by
convention.
"""

_FORBIDDEN_NAME_CHARS = set("()[]{},")


def _valid_symbol_name(name):
    if not isinstance(name, str) or not name:
        return False
    if any(c in _FORBIDDEN_NAME_CHARS or c.isspace() for c in name):
        return False
    return True


class AlphabetError(ValueError):
    pass


class TreeError(ValueError):
    pass


class RankedAlphabet:
    """A finite map from symbol names to ranks (non-negative arities).

    ``yield_invisible`` is an optional set of rank-0 symbols that are
    skipped when computing yields.
    """

    __slots__ = ("symbols", "max_rank", "yield_invisible")

    def __init__(self, symbols, yield_invisible=()):
        symbols = dict(symbols)
        for name, rank in symbols.items():
            if not _valid_symbol_name(name):
                raise AlphabetError("invalid symbol name: %r" % (name,))
            if not isinstance(rank, int) or rank < 0:
                raise AlphabetError("invalid rank for %r: %r" % (name, rank))
        for name in yield_invisible:
            if symbols.get(name) != 0:
                raise AlphabetError(
                    "yield-invisible symbol %r must have rank 0" % (name,))
        self.symbols = symbols
        self.max_rank = max(symbols.values(), default=0)
        self.yield_invisible = frozenset(yield_invisible)

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
                and self.symbols == other.symbols
                and self.yield_invisible == other.yield_invisible)

    def __hash__(self):
        return hash((frozenset(self.symbols.items()), self.yield_invisible))

    def __repr__(self):
        items = ",".join("%s:%d" % (n, r) for n, r in sorted(self.symbols.items()))
        return "RankedAlphabet({%s})" % items

    @classmethod
    def parse(cls, text):
        """Parse the ``name:rank`` line format (blank lines ignored)."""
        symbols = {}
        invisible = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) not in (2, 3):
                raise AlphabetError("line %d: expected name:rank" % lineno)
            name = parts[0].strip()
            try:
                rank = int(parts[1])
            except ValueError:
                raise AlphabetError("line %d: bad rank %r" % (lineno, parts[1]))
            if name in symbols:
                raise AlphabetError("line %d: duplicate symbol %r" % (lineno, name))
            symbols[name] = rank
            if len(parts) == 3:
                if parts[2].strip() != "invisible":
                    raise AlphabetError("line %d: unknown flag %r" % (lineno, parts[2]))
                invisible.append(name)
        return cls(symbols, invisible)

    def format(self):
        lines = []
        for name in sorted(self.symbols):
            suffix = ":invisible" if name in self.yield_invisible else ""
            lines.append("%s:%d%s" % (name, self.symbols[name], suffix))
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
        for c in self.children:
            size += c.size
            if c.height >= height:
                height = c.height + 1
        self.size = size
        self.height = height
        self._hash = hash((label,) + tuple(c._hash for c in self.children))

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
        # stack so that deep trees do not exhaust the recursion limit
        stack = list(zip(self.children, other.children))
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a._hash != b._hash or a.size != b.size or a.label != b.label
                    or len(a.children) != len(b.children)):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __lt__(self, other):
        """Order by (size, serialized text) — the canonical tie-break used
        for minimal witnesses and fixed-element choices."""
        if self.size != other.size:
            return self.size < other.size
        return serialize_tree(self) < serialize_tree(other)

    def __repr__(self):
        if self.size > 40:
            return "Tree(size=%d, height=%d)" % (self.size, self.height)
        return "Tree(%s)" % serialize_tree(self)


def leaf(label):
    return Tree(label, ())


def serialize_tree(t):
    """Mandatory parentheses and commas for rank >= 1, bare name for
    leaves.  This is the bit-exact interchange format."""
    parts = []
    _serialize_into(t, parts)
    return "".join(parts)


def _serialize_into(t, parts):
    label = t.label if isinstance(t.label, str) else repr(t.label)
    parts.append(label)
    if t.children:
        parts.append("(")
        for i, c in enumerate(t.children):
            if i:
                parts.append(",")
            _serialize_into(c, parts)
        parts.append(")")


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__("%s (at byte %d)" % (message, offset))
        self.offset = offset


def parse_tree(text, alphabet):
    """Parse ``t ::= name | name '(' t (',' t)* ')'``; commas between
    children are optional (whitespace also separates).  Errors carry the
    byte offset of the offending position."""
    pos = [0]
    n = len(text)

    def skip_ws():
        while pos[0] < n and text[pos[0]].isspace():
            pos[0] += 1

    def parse_name():
        start = pos[0]
        while pos[0] < n:
            c = text[pos[0]]
            if c in _FORBIDDEN_NAME_CHARS or c.isspace():
                break
            pos[0] += 1
        if pos[0] == start:
            raise ParseError("expected symbol name", start)
        return text[start:pos[0]]

    def parse_term():
        skip_ws()
        start = pos[0]
        name = parse_name()
        if name not in alphabet:
            raise ParseError("unknown symbol %r" % name, start)
        rank = alphabet.rank(name)
        skip_ws()
        children = []
        if pos[0] < n and text[pos[0]] == "(":
            pos[0] += 1
            skip_ws()
            while pos[0] < n and text[pos[0]] != ")":
                children.append(parse_term())
                skip_ws()
                if pos[0] < n and text[pos[0]] == ",":
                    pos[0] += 1
                    skip_ws()
            if pos[0] >= n:
                raise ParseError("unclosed '('", start)
            pos[0] += 1
        if len(children) != rank:
            raise ParseError(
                "symbol %r has rank %d but %d children given"
                % (name, rank, len(children)), start)
        return Tree(name, children)

    t = parse_term()
    skip_ws()
    if pos[0] != n:
        raise ParseError("trailing input", pos[0])
    return t


def tree_metrics(t, alphabet=None):
    """Return (size, height, yield) where the yield is the tuple of leaf
    labels in pre-order, skipping the alphabet's yield-invisible symbols."""
    invisible = alphabet.yield_invisible if alphabet is not None else frozenset()
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(reversed(node.children))
        elif node.label not in invisible:
            out.append(node.label)
    return t.size, t.height, tuple(out)


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


def addresses(t):
    """All node addresses of t in pre-order."""
    return [u for u, _ in preorder(t)]


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
    0-variant except the node at u, which becomes its 1-variant."""
    subtree_at(t, u)  # validates the address
    return _mark(t, u)


def _mark(t, u):
    # u == () marks this node; u is None means the mark lies elsewhere
    bit = 1 if u == () else 0
    children = []
    for i, c in enumerate(t.children, 1):
        if u is not None and u != () and u[0] == i:
            children.append(_mark(c, u[1:]))
        else:
            children.append(_mark(c, None))
    return Tree(marked_name(t.label, bit), children)


def unmark_tree(t):
    name, _ = split_marked_name(t.label)
    return Tree(name, [unmark_tree(c) for c in t.children])


def marked_address(t):
    """The address of the unique 1-marked node of a marked tree, or None."""
    found = []

    def walk(node, u):
        _, bit = split_marked_name(node.label)
        if bit:
            found.append(u)
        for i, c in enumerate(node.children, 1):
            walk(c, u + (i,))

    walk(t, ())
    if len(found) != 1:
        return None
    return found[0]


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
    out.sort()
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
