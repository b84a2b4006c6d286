"""Reference for the per-tree engine of ``artifact.transducer``: the
engine as it was before configurations were numbered, with its records
spread over dicts keyed by (state, address).  ``_Choice`` picks the rule
at a configuration on first entry, ``_productive_from`` searches depth
first, ``_values`` builds the outputs, and the streaming replay walks an
address cursor.  The evaluators below read these structures as the
engine's callers did.  ``_computation``, ``_successors`` and ``_values``
are read from this module's namespace at call time, so that a test can
replace them."""

from artifact.core import TreeIndex, preorder, tree_from_preorder
from artifact.transducer import (
    ContractError, normalize_general, normalize_outputs_stay, _overlap_record,
    _plug, _rule_reader, _successors,
)


class _Choice:
    """The rule (or None) at each configuration of M on t, chosen when the
    search first asks (``get``) and kept in ``rules``.  The choice must be
    unique (two applicable rules raise ContractError).  Only the keys of
    M's overlap record can be ambiguous, so they are checked at every node
    up front, in pre-order and in ``M.states`` order."""

    def __init__(self, M, t):
        self.ix = ix = TreeIndex(t)
        self.applicable = _rule_reader(M, t, ix)
        self.rules, self.ids = {}, {(): 0}
        overlaps = _overlap_record(M)
        for i, u in enumerate(ix.addrs if overlaps else ()):
            for q in M.states:
                if (q, ix.nodes[i].label, ix.child_nos[i]) in overlaps:
                    self.choose((q, u), i)

    def choose(self, cfg, i):  # cfg at node i
        cands = self.applicable(cfg[0], i, cfg[1])
        if len(cands) > 1:
            raise ContractError(
                "two rules applicable at configuration %r" % (cfg,))
        rule = self.rules[cfg] = cands[0] if cands else None
        return rule

    def get(self, cfg):
        u = cfg[1]
        i = self.ids.get(u)
        if i is None:  # the search enters a node's parent first
            i = self.ids[u] = self.ix.kids[self.ids[u[:-1]]][u[-1] - 1]
        return self.choose(cfg, i)


def _productive_from(roots, rmap, t):
    """Demand-driven productivity: one iterative depth-first search from
    the ``roots`` over the successors of the rules chosen by ``rmap.get``
    (a dict, or a ``_Choice``).  Returns (productive set, post-order of the
    productive configurations reached, successor lists of the
    configurations expanded)."""
    prod = set()
    order = []
    succs = {}
    status = {}  # True productive, False not, None on the search path
    path = []  # [configuration, its successors, index of the next one]

    def enter(cfg):
        rule = rmap.get(cfg)
        if rule is None:
            status[cfg] = False
            return
        status[cfg] = None
        succs[cfg] = ss = _successors(rule, t, cfg[1])
        path.append([cfg, ss, 0])

    for root in roots:
        if root in status:
            continue
        enter(root)
        while path:
            frame = path[-1]
            cfg, ss, i = frame
            if i < len(ss):
                s = ss[i]
                if s not in status:
                    enter(s)
                    if status[s] is None:
                        continue
                if status[s]:
                    frame[2] = i + 1
                    continue
                status[cfg] = False
            else:
                status[cfg] = True
                prod.add(cfg)
                order.append(cfg)
            path.pop()
    return prod, order, succs


def _computation(M, t, roots):
    """(chosen rules, productive set, post-order, successor lists) of M on
    t from ``roots``, (state, address) configurations."""
    choice = _Choice(M, t)
    return (choice.rules,) + _productive_from(roots, choice, t)


def _values(rmap, order, succs):
    """The output tree of every configuration in ``order`` and the step
    count of building them."""
    value = {}
    steps = 0
    for cfg in order:
        rule = rmap[cfg]
        value[cfg] = _plug(rule.rhs, [value[s] for s in succs[cfg]])
        steps += 1 + (rule.kind == "move") + rule.output_symbol_count()
    return value, steps


def eval_deterministic(M, t):
    if len(M.initials) != 1:
        raise ContractError("deterministic evaluation needs one initial state")
    init = (next(iter(M.initials)), ())
    rmap, prod, order, succs = _computation(M, t, [init])
    if init not in prod:
        return None, 0
    value, steps = _values(rmap, order, succs)
    return value[init], steps


def eval_streaming(M, t):
    """The replay with an address cursor and a stack of pending states and
    cursor restores."""
    if len(M.initials) != 1:
        raise ContractError("streaming evaluation needs one initial state")
    N = normalize_outputs_stay(normalize_general(M))
    N._overlaps = _overlap_record(M)
    q0 = next(iter(N.initials))
    rmap, prod, _, succs = _computation(N, t, [(q0, ())])
    if (q0, ()) not in prod:
        return None, 0
    emitted, u, stack, max_len = [], (), [("state", q0)], 1
    while stack:
        kind, x = stack.pop()
        if kind == "restore":
            u = x
            continue
        rule = rmap[(x, u)]
        if rule.kind == "move":
            q, v = succs[(x, u)][0]
            if rule.rhs.label.instr.kind != "stay":
                stack.append(("restore", u))
                u = v
            stack.append(("state", q))
        else:
            emitted.append(rule.rhs.label)
            stack.extend(("state", c.label.state)
                         for c in reversed(rule.rhs.children))
        max_len = max(max_len, len(stack))
    try:
        return tree_from_preorder(emitted, N.output_alphabet.rank), max_len
    except ValueError:
        raise ContractError("emission stream is not a single tree") from None


def check_single_use(M, corpus):
    roots = [(q0, ()) for q0 in M.initials]
    for t in sorted(corpus):
        _, prod, order, succs = _computation(M, t, roots)
        for init in roots:
            if init not in prod:
                continue
            mult = dict.fromkeys(order, 0)
            mult[init] = 1
            for cfg in reversed(order):
                for s in succs[cfg]:
                    mult[s] += mult[cfg]
            for (q, u), m in mult.items():
                if m >= 2:
                    return False, (t, q, u)
    return True, None


def trace_productive(M, t):
    roots = [(q0, ()) for q0 in M.initials]
    rmap, prod, order, succs = _computation(M, t, roots)
    live = {cfg for cfg in roots if cfg in prod}
    if not live:
        raise ContractError("no accepting computation on this input")
    nodes = set()
    for cfg in reversed(order):
        if cfg in live:
            live.update(succs[cfg])
            if rmap[cfg].output_symbol_count() > 0:
                nodes.add(cfg[1])
    return frozenset(nodes)


def deterministic_values(M, t):
    """``constructions.deterministic_values(M)(t)``."""
    every = ((q, u) for u, _ in preorder(t) for q in M.states)
    rmap, _, order, succs = _computation(M, t, every)
    return _values(rmap, order, succs)[0]
