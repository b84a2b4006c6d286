"""Reference walker for deterministic tree-walking transducers.

Written apart from ``artifact.transducer`` and ``artifact.regular``: it
reads a machine's rules and its test automata's transition tables and
never calls ``eval_test``, ``mark_node``, ``BottomUpAutomaton.run`` or the
program's evaluators.  Everything here is iterative, so it handles inputs
deeper than the interpreter's recursion limit.

Output trees are ``Node`` values that share structure between repeated
configurations; ``same_tree`` compares them against the program's ``Tree``
values and ``serialize`` prints either kind in the interchange format.
"""

from artifact.constructions import ChildProfileTest
from artifact.regular import AutomatonTest, OracleTest, SubTest
from artifact.transducer import Call


class NotDeterministic(Exception):
    """Two rules apply at one configuration."""


class Node:
    """An output node; ``size`` is the explicit size of the tree."""

    __slots__ = ("label", "children", "size")

    def __init__(self, label, children=()):
        self.label = label
        self.children = tuple(children)
        self.size = 1 + sum(c.size for c in self.children)


def node(label, *children):
    return Node(label, children)


# ---------------------------------------------------------------------------
# Trees: indexing, comparison, serialization

class Indexed:
    """A tree flattened into pre-order arrays; node 0 is the root."""

    __slots__ = ("trees", "labels", "parent", "child_no", "kids", "_addr")

    def __init__(self, t):
        self.trees, self.labels, self.parent = [], [], []
        self.child_no, self.kids = [], []
        stack = [(t, -1, 0)]
        while stack:
            tree, p, j = stack.pop()
            i = len(self.trees)
            self.trees.append(tree)
            self.labels.append(tree.label)
            self.parent.append(p)
            self.child_no.append(j)
            self.kids.append([])
            if p >= 0:
                self.kids[p].append(i)
            for k in range(len(tree.children), 0, -1):
                stack.append((tree.children[k - 1], i, k))
        self._addr = None

    def __len__(self):
        return len(self.labels)

    def address(self, i):
        """The 1-based Dewey address of node i."""
        if self._addr is None:
            addr = [()] * len(self.labels)
            for v in range(1, len(self.labels)):
                addr[v] = addr[self.parent[v]] + (self.child_no[v],)
            self._addr = addr
        return self._addr[i]


def run_states(aut, idx, relabel=None):
    """The automaton state of every subtree of the indexed tree, read from
    the transition table; ``relabel`` maps input labels to automaton
    symbols."""
    states = [None] * len(idx)
    for i in range(len(idx) - 1, -1, -1):
        label = idx.labels[i] if relabel is None else relabel(idx.labels[i])
        states[i] = aut.delta[(label, tuple(states[k] for k in idx.kids[i]))]
    return states


def run_tree(aut, t):
    """The state ``aut`` reaches on the whole tree ``t``."""
    return run_states(aut, Indexed(t))[0]


def marked(label, bit):
    return "%s#%d" % (label, bit)


def same_tree(a, b):
    """Structural equality of two trees (program ``Tree`` or ``Node``),
    iterative and linear in the shared representations."""
    seen = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        key = (id(x), id(y))
        if key in seen:
            continue
        seen.add(key)
        if x.label != y.label or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def serialize(t):
    """The interchange text of a tree: bare leaves, ``name(c1,c2)``
    otherwise."""
    parts = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        parts.append(item.label)
        if item.children:
            parts.append("(")
            stack.append(")")
            for k in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[k])
                if k:
                    stack.append(",")
    return "".join(parts)


def explicit_size(t):
    """Number of nodes of the explicit tree, counted over shared
    subtrees once per occurrence."""
    memo = {}
    stack = [(t, False)]
    while stack:
        x, done = stack.pop()
        if id(x) in memo:
            continue
        if done:
            memo[id(x)] = 1 + sum(memo[id(c)] for c in x.children)
            continue
        stack.append((x, True))
        stack.extend((c, False) for c in x.children)
    return memo[id(t)]


def to_tuple(t):
    """A hashable nested-tuple copy of a small tree."""
    memo = {}
    stack = [(t, False)]
    while stack:
        x, done = stack.pop()
        if id(x) in memo:
            continue
        if done:
            memo[id(x)] = (x.label,) + tuple(memo[id(c)] for c in x.children)
            continue
        stack.append((x, True))
        stack.extend((c, False) for c in x.children)
    return memo[id(t)]


# ---------------------------------------------------------------------------
# Rule tests

class _Tests:
    """Evaluates rule tests on one indexed input, memoized per (test,
    node)."""

    def __init__(self, idx):
        self.idx = idx
        self.memo = {}
        self.unmarked = {}
        self.subtree = {}

    def holds(self, test, v):
        if test is None:
            return True
        key = (id(test), v)
        hit = self.memo.get(key)
        if hit is None:
            hit = self._eval(test, v)
            self.memo[key] = hit
        return hit

    def _eval(self, test, v):
        idx = self.idx
        if isinstance(test, AutomatonTest):
            return self._marked_run(test.aut, v) in test.aut.finals
        if isinstance(test, SubTest):
            return self._sub_states(test.aut)[v] in test.aut.finals
        if isinstance(test, ChildProfileTest):
            if idx.labels[v] != test.symbol:
                return False
            for aut, prof in zip(test.automata, test.profiles):
                states = self._sub_states(aut)
                for k, p in zip(idx.kids[v], prof):
                    if states[k] != p:
                        return False
            return True
        if isinstance(test, OracleTest):
            # oracle guards are closures the construction under check
            # built; they are part of the machine, not of its evaluator
            return bool(test.fn(idx.trees[0], idx.address(v)))
        raise TypeError("unknown test %r" % (test,))

    # caches key on id(aut) and keep aut alive beside its states, so that
    # the id cannot be reused by another automaton

    def _sub_states(self, aut):
        entry = self.subtree.get(id(aut))
        if entry is None:
            entry = self.subtree[id(aut)] = (run_states(aut, self.idx), aut)
        return entry[0]

    def _marked_run(self, aut, v):
        """The state of ``aut`` on the input marked at v: the unmarked
        subtree states, then one climb from v to the root."""
        idx = self.idx
        entry = self.unmarked.get(id(aut))
        if entry is None:
            entry = self.unmarked[id(aut)] = (
                run_states(aut, idx, lambda a: marked(a, 0)), aut)
        base = entry[0]
        delta = aut.delta
        cur = v
        st = delta[(marked(idx.labels[v], 1),
                    tuple(base[k] for k in idx.kids[v]))]
        while idx.parent[cur] >= 0:
            p = idx.parent[cur]
            st = delta[(marked(idx.labels[p], 0),
                        tuple(st if k == cur else base[k]
                              for k in idx.kids[p]))]
            cur = p
        return st


# ---------------------------------------------------------------------------
# Deterministic evaluation

def _rule_index(M):
    index = {}
    for r in M.rules:
        index.setdefault((r.state, r.symbol, r.child_no), []).append(r)
    return index


def is_call(label):
    return isinstance(label, Call)


def _target(idx, v, instr):
    if instr.kind == "stay":
        return v
    if instr.kind == "up":
        return idx.parent[v] if v else None
    kids = idx.kids[v]
    return kids[instr.index - 1] if instr.index <= len(kids) else None


def calls(rhs):
    """The call leaves of a right-hand side, in pre-order."""
    found = []
    stack = [rhs]
    while stack:
        n = stack.pop()
        if is_call(n.label):
            found.append(n.label)
        else:
            stack.extend(reversed(n.children))
    return found


_UNDEF = object()


def output(M, t):
    """The output of the deterministic machine M on t, or None when it is
    undefined: a demand-driven, memoized depth-first walk from the
    initial configuration.  A cycle or a missing rule makes a
    configuration undefined; two applicable rules raise
    ``NotDeterministic``."""
    if len(M.initials) != 1:
        raise NotDeterministic("%d initial states" % len(M.initials))
    idx = Indexed(t)
    tests = _Tests(idx)
    index = _rule_index(M)
    value = {}
    opened = {}
    root = (next(iter(M.initials)), 0)
    stack = [root]
    while stack:
        cfg = stack[-1]
        if cfg in value:
            stack.pop()
            continue
        if cfg not in opened:
            q, v = cfg
            rules = [r for r in index.get((q, idx.labels[v],
                                           idx.child_no[v]), ())
                     if tests.holds(r.test, v)]
            if len(rules) > 1:
                raise NotDeterministic("two rules at %r" % (cfg,))
            if not rules:
                value[cfg] = _UNDEF
                stack.pop()
                continue
            succs = []
            for c in calls(rules[0].rhs):
                w = _target(idx, v, c.instr)
                succs.append(None if w is None else (c.state, w))
            opened[cfg] = (rules[0], succs)
            if None in succs or any(s in opened and s not in value
                                    for s in succs):
                value[cfg] = _UNDEF  # a bad move, or a cycle
                stack.pop()
                continue
            stack.extend(s for s in succs if s not in value)
            continue
        rule, succs = opened[cfg]
        stack.pop()
        vals = [value[s] for s in succs]
        if any(x is _UNDEF for x in vals):
            value[cfg] = _UNDEF
            continue
        it = iter(vals)
        value[cfg] = _instantiate(rule.rhs, it)
    out = value[root]
    return None if out is _UNDEF else out


def _instantiate(rhs, vals):
    if is_call(rhs.label):
        return next(vals)
    return Node(rhs.label, [_instantiate(c, vals) for c in rhs.children])


# ---------------------------------------------------------------------------
# Nondeterministic semantics on small inputs

def _applicable(idx, tests, index, q, v):
    return [r for r in index.get((q, idx.labels[v], idx.child_no[v]), ())
            if tests.holds(r.test, v)]


def productive(M, t):
    """Whether some finite computation of M (any rule choice) starts at an
    initial configuration on t: the least fixpoint of productive
    configurations."""
    idx = Indexed(t)
    tests = _Tests(idx)
    index = _rule_index(M)
    options = {}
    for v in range(len(idx)):
        for q in M.states:
            opts = []
            for r in _applicable(idx, tests, index, q, v):
                succs = [(c.state, _target(idx, v, c.instr))
                         for c in calls(r.rhs)]
                if all(s[1] is not None for s in succs):
                    opts.append(succs)
            options[(q, v)] = opts
    prod = set()
    changed = True
    while changed:
        changed = False
        for cfg, opts in options.items():
            if cfg not in prod and any(all(s in prod for s in ss)
                                       for ss in opts):
                prod.add(cfg)
                changed = True
    return any((q, 0) in prod for q in M.initials)


def accepts_pair(M, t, s):
    """Whether s is one of the outputs of M on t (any rule choice): the
    least fixpoint of facts "configuration (q, v) derives the subtree of s
    at node w"."""
    idx = Indexed(t)
    sidx = Indexed(s)
    tests = _Tests(idx)
    index = _rule_index(M)
    rules_at = {}
    for v in range(len(idx)):
        for q in M.states:
            rules_at[(q, v)] = _applicable(idx, tests, index, q, v)
    facts = set()

    def matches(rhs, v, w):
        if is_call(rhs.label):
            tgt = _target(idx, v, rhs.label.instr)
            return tgt is not None and (rhs.label.state, tgt, w) in facts
        if rhs.label != sidx.labels[w] or \
                len(rhs.children) != len(sidx.kids[w]):
            return False
        return all(matches(c, v, k)
                   for c, k in zip(rhs.children, sidx.kids[w]))

    changed = True
    while changed:
        changed = False
        for (q, v), rules in rules_at.items():
            for w in range(len(sidx)):
                if (q, v, w) in facts:
                    continue
                if any(matches(r.rhs, v, w) for r in rules):
                    facts.add((q, v, w))
                    changed = True
    return any((q, 0, 0) in facts for q in M.initials)
