"""Regular tree grammars, total deterministic bottom-up tree automata,
regular node tests, and their decision procedures.

The canonical representation of a node test is a total deterministic
bottom-up automaton over the marked alphabet (one distinguished node).
Tests that arise as domains of auxiliary walkers are kept as exact
per-tree oracles instead; only an explicit conversion pays the
exponential automaton-construction cost.
"""

import copy
import functools
import heapq
import itertools

from .core import (
    AlphabetError, MarkedAlphabet, RankedAlphabet, Tree, depth1_productions,
    distinct_postorder, mark_node, marked_name, split_marked_name,
    substitute_leaves, subtree_at, tree_key,
)


class ResourceError(RuntimeError):
    """A configurable construction ceiling was exceeded."""


# ---------------------------------------------------------------------------
# Bottom-up automata

class BottomUpAutomaton:
    """A total deterministic bottom-up tree automaton (Sigma, P, F, delta).

    ``delta`` maps (symbol, state tuple) to a state and must be defined for
    every symbol and every state tuple of matching arity.
    """

    __slots__ = ("alphabet", "states", "finals", "delta")

    def __init__(self, alphabet, states, finals, delta, check_total=True):
        self.alphabet = alphabet
        self.states = frozenset(states)
        self.finals = frozenset(finals)
        self.delta = dict(delta)
        if not self.finals <= self.states:
            raise ValueError("finals must be a subset of states")
        if check_total:
            self._check_total()

    def _check_total(self):
        if not self.states:
            raise ValueError("automaton needs at least one state")
        states = sorted(self.states, key=repr)
        for sym in self.alphabet.symbols:
            rank = self.alphabet.rank(sym)
            for combo in itertools.product(states, repeat=rank):
                key = (sym, combo)
                if key not in self.delta:
                    raise ValueError("delta undefined for %r" % (key,))
                if self.delta[key] not in self.states:
                    raise ValueError("delta maps outside the state set at %r"
                                     % (key,))

    def run(self, t):
        """Return delta(t), memoized over shared subtrees and without
        recursion.  A label is checked as the walk enters its node and a
        transition is taken once the node's children are done, so the
        first failure raises as a recursive run would."""
        alphabet, delta = self.alphabet, self.delta

        def check(node):
            if node.label not in alphabet:
                raise AlphabetError("symbol %r not in automaton alphabet"
                                    % (node.label,))

        memo = {}
        for node in distinct_postorder(t, check):
            memo[id(node)] = delta[
                (node.label, tuple(memo[id(c)] for c in node.children))]
        return memo[id(t)]

    def accepts(self, t):
        return self.run(t) in self.finals

    def with_finals(self, finals):
        """This automaton with other finals, sharing states and transitions."""
        twin = copy.copy(self)
        twin.finals = frozenset(finals)
        return twin

    def complement(self):
        return self.with_finals(self.states - self.finals)

    def _product(self, other, final_pred):
        if self.alphabet.symbols != other.alphabet.symbols:
            raise AlphabetError("boolean operations need a common alphabet")
        states = set(itertools.product(self.states, other.states))
        delta = {}
        for sym in self.alphabet.symbols:
            rank = self.alphabet.rank(sym)
            for combo in itertools.product(states, repeat=rank):
                left = self.delta[(sym, tuple(p for p, _ in combo))]
                right = other.delta[(sym, tuple(q for _, q in combo))]
                delta[(sym, combo)] = (left, right)
        finals = {(p, q) for p, q in states
                  if final_pred(p in self.finals, q in other.finals)}
        return BottomUpAutomaton(self.alphabet, states, finals, delta,
                                 check_total=False)

    def intersect(self, other):
        return self._product(other, lambda a, b: a and b)

    def union(self, other):
        return self._product(other, lambda a, b: a or b)

    def format(self):
        lines = ["alphabet:"]
        lines.append(self.alphabet.format().rstrip("\n"))
        order = _state_order(self)
        names = _state_names(order)
        pos = {p: i for i, p in enumerate(order)}
        lines.append("states:")
        lines.append(" ".join(names[p] for p in order))
        lines.append("finals:")
        lines.append(" ".join(names[p] for p in order if p in self.finals))
        for (sym, combo), p in sorted(
                self.delta.items(),
                key=lambda kv: (kv[0][0], [pos[q] for q in kv[0][1]])):
            args = ",".join([sym] + [names[q] for q in combo])
            lines.append("delta(%s) = %s" % (args, names[p]))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        section = None
        alpha_lines, states, finals, delta_lines = [], [], [], []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("alphabet:", "states:", "finals:"):
                section = line[:-1]
                continue
            if line.startswith("delta("):
                delta_lines.append(line)
                continue
            if section == "alphabet":
                alpha_lines.append(line)
            elif section == "states":
                states.extend(line.split())
            elif section == "finals":
                finals.extend(line.split())
            else:
                raise ValueError("unexpected line %r" % line)
        alphabet = RankedAlphabet.parse("\n".join(alpha_lines))
        delta = {}
        for line in delta_lines:
            head, _, result = line.partition("=")
            result = result.strip()
            inner = head.strip()[len("delta("):].rstrip()
            if not inner.endswith(")"):
                raise ValueError("bad delta line %r" % line)
            parts = [p.strip() for p in inner[:-1].split(",")]
            sym, args = parts[0], tuple(parts[1:])
            if alphabet.rank(sym) != len(args):
                raise ValueError("arity mismatch in %r" % line)
            delta[(sym, args)] = result
        return cls(alphabet, states, finals, delta)


def _state_order(aut):
    """The states of aut by least witness tree, then the states without a
    witness in repr order.  Only the order among unrealizable states that
    hold sets depends on string hashing."""
    witness = _realizable(aut)
    return sorted(witness, key=witness.get) + sorted(
        aut.states.difference(witness), key=repr)


def _state_names(order):
    """String states keep their names; the others are numbered by their
    position in ``order``."""
    return {p: p if isinstance(p, str) else "s%d" % i
            for i, p in enumerate(order)}


def automaton_all(alphabet):
    """The automaton accepting every tree over the alphabet."""
    delta = {}
    for sym in alphabet.symbols:
        rank = alphabet.rank(sym)
        for combo in itertools.product(["*"], repeat=rank):
            delta[(sym, combo)] = "*"
    return BottomUpAutomaton(alphabet, ["*"], ["*"], delta, check_total=False)


def singleton_automaton(s, alphabet):
    """The automaton accepting exactly the tree s, and nothing when s is
    not a tree over the alphabet.  Its states are the distinct subtrees of
    s, named t0, t1, ... in post-order, and the sink "no"; every other
    transition goes to the sink, so delta is total.  A subtree that is not
    over the alphabet has no transition into its state."""
    index = {}
    for node in distinct_postorder(s):
        if node not in index:
            index[node] = "t%d" % len(index)
    states = list(index.values()) + ["no"]
    delta = {}
    for sym in alphabet:
        for kids in itertools.product(states, repeat=alphabet.rank(sym)):
            delta[(sym, kids)] = "no"
    for node, p in index.items():
        key = (node.label, tuple(index[c] for c in node.children))
        if key in delta:
            delta[key] = p
    return BottomUpAutomaton(alphabet, states, [index[s]], delta,
                             check_total=False)


# ---------------------------------------------------------------------------
# Saturation: bottom-up exploration, Horn least models, least witnesses

def explore(alphabet, step, ceiling, what):
    """The states reachable bottom-up under ``step(symbol, combo)``, which
    returns a state, or None for no state (the sink).

    Leaves are stepped first; each later round steps only the combos that
    touch a state first found in the round before, so every (symbol,
    combo) over the reachable states is stepped exactly once.  Returns
    (states, delta) with delta defined where ``step`` gave a state.
    Raises ResourceError, naming ``what``, once more than ``ceiling``
    states appear; the reachable set, and so whether that happens, does
    not depend on the order of exploration."""
    states = set()
    delta = {}
    old, fresh = [], []
    batch = [(sym, ()) for sym in alphabet if alphabet.rank(sym) == 0]
    while True:
        for sym, combo in batch:
            target = step(sym, combo)
            if target is None:
                continue
            delta[(sym, combo)] = target
            if target not in states:
                states.add(target)
                fresh.append(target)
                if len(states) > ceiling:
                    raise ResourceError(
                        "%s: %d states exceed the ceiling of %d"
                        % (what, len(states), ceiling))
        if not fresh:
            return states, delta
        batch = _combos_touching(alphabet, old, fresh)
        old, fresh = old + fresh, []


def _combos_touching(alphabet, old, frontier):
    """Every (symbol, combo) over old + frontier with at least one
    frontier state, each once: position i holds the first frontier
    state."""
    known = old + frontier
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for i in range(rank):
            for combo in itertools.product(
                    *([old] * i + [frontier] + [known] * (rank - 1 - i))):
                yield sym, combo


def least_model(clauses):
    """The least model of the propositional Horn clauses ``head <- body``,
    given as (head, body) pairs; an empty body makes a fact.

    Each clause counts its distinct body atoms not yet derived, and a
    queue of derived atoms counts them down, so the time is linear in the
    total size of the clauses (Dowling and Gallier 1984)."""
    heads = []
    missing = []  # per clause: body atoms not yet derived
    waiting = {}  # atom -> clauses with it in their body
    queue = []
    for head, body in clauses:
        body = set(body)
        for atom in body:
            waiting.setdefault(atom, []).append(len(heads))
        heads.append(head)
        missing.append(len(body))
        if not body:
            queue.append(head)
    model = set()
    while queue:
        atom = queue.pop()
        if atom in model:
            continue
        model.add(atom)
        for k in waiting.get(atom, ()):
            missing[k] -= 1
            if not missing[k]:
                queue.append(heads[k])
    return model


def min_witnesses(rules, chains=()):
    """Map each derivable head of the depth-1 rules (head, symbol, kids)
    and chain edges (head, nonterminal) to the least tree it derives,
    ordered by size, then serialized text.

    Knuth's generalization of Dijkstra's algorithm: a rule becomes a
    candidate once all its kids have their least tree, and the least
    candidate overall settles its head for good; a tree is larger than
    each of its subtrees, so no later candidate can undercut it.  A chain
    edge is a rule with symbol None and one kid, whose tree it passes
    on."""
    rules = [*rules, *((head, None, (nt,)) for head, nt in chains)]
    witness = {}
    missing = []
    waiting = {}
    heap = []

    def push(k):
        head, sym, kids = rules[k]
        t = witness[kids[0]] if sym is None else Tree(
            sym, [witness[q] for q in kids])
        heapq.heappush(heap, (tree_key(t), k, head, t))

    for k, (_, _, kids) in enumerate(rules):
        distinct = set(kids)
        for q in distinct:
            waiting.setdefault(q, []).append(k)
        missing.append(len(distinct))
        if not distinct:
            push(k)
    while heap:
        *_, head, t = heapq.heappop(heap)
        if head in witness:
            continue
        witness[head] = t
        for k in waiting.get(head, ()):
            missing[k] -= 1
            if not missing[k]:
                push(k)
    return witness


# ---------------------------------------------------------------------------
# Decision procedures

def _realizable(aut):
    """States with a nonempty language, with a minimal witness each
    (ties broken by size then serialized text)."""
    return min_witnesses((p, sym, combo)
                         for (sym, combo), p in aut.delta.items())


def is_empty(aut):
    """Whether the automaton accepts no tree: ``decide(aut)[0]``, from the
    least model of the transitions alone, without witness trees."""
    realizable = least_model((p, combo)
                             for (_, combo), p in aut.delta.items())
    return realizable.isdisjoint(aut.finals)


def decide(aut):
    """Return (empty, finite, witness) for the automaton's language."""
    witness = _realizable(aut)
    best = None
    for p in aut.finals:
        if p in witness and (best is None or witness[p] < best):
            best = witness[p]
    if best is None:
        return True, True, None
    rules = [(p, sym, combo) for (sym, combo), p in aut.delta.items()]
    return False, _finite(rules, (), aut.finals, witness), best


def _finite(rules, chains, initials, realizable):
    """Whether the language derived from ``initials`` by the depth-1
    ``rules`` (head, symbol, kids) and chain edges (head, nonterminal) is
    finite, given the ``realizable`` heads.  A head is useful when it is
    realizable and an initial reaches it through rules whose other kids
    are all realizable.  The language is infinite exactly when a useful
    head lies on a cycle that passes through a rule: a rule adds a node,
    a chain edge does not (Comon et al., TATA, ch. 1)."""
    below, down = {}, {}  # a head's kids by its rules, and by its chains too
    for head, _, kids in rules:
        if all(q in realizable for q in kids):
            below.setdefault(head, set()).update(kids)
            down.setdefault(head, set()).update(kids)
    for head, nt in chains:
        if nt in realizable:
            down.setdefault(head, set()).add(nt)
    useful = least_model([(p, ()) for p in initials if p in realizable]
                         + [(q, (p,)) for p, kids in down.items()
                            for q in kids])
    for p in useful:
        seen = set()
        frontier = set(below.get(p, ()))
        while frontier:
            if p in frontier:
                return False
            seen |= frontier
            frontier = {r for q in frontier for r in down.get(q, ())} - seen
    return True


# ---------------------------------------------------------------------------
# Regular tree grammars

class RegularTreeGrammar:
    """Rules map a nonterminal to a tree over the terminal alphabet whose
    leaves may also be nonterminals (treated as rank 0)."""

    __slots__ = ("nonterminals", "terminals", "initials", "rules")

    def __init__(self, nonterminals, terminals, initials, rules):
        self.nonterminals = frozenset(nonterminals)
        self.terminals = terminals
        self.initials = frozenset(initials)
        self.rules = tuple(rules)
        if not self.initials <= self.nonterminals:
            raise ValueError("initials must be nonterminals")
        for lhs, rhs in self.rules:
            if lhs not in self.nonterminals:
                raise ValueError("rule lhs %r is not a nonterminal" % (lhs,))
            self._check_rhs(rhs)

    def _check_rhs(self, rhs):
        stack = [rhs]  # pre-order, so the first fault found is the same
        while stack:
            node = stack.pop()
            if node.label in self.nonterminals:
                if node.children:
                    raise ValueError("nonterminal %r used with children"
                                     % (node.label,))
                continue
            if self.terminals.rank(node.label) != len(node.children):
                raise ValueError("arity mismatch at %r" % (node.label,))
            stack.extend(reversed(node.children))

    def is_nonterminal(self, label):
        return label in self.nonterminals


def _flatten_rules(g):
    """g's rules as depth-1 productions (lhs, symbol, tuple of child
    nonterminals) and chain edges (lhs, nonterminal).  Every inner node
    of a rhs but its root is named ("_flat", n), n counting in pre-order
    over the rules."""
    flat, chains, fresh = [], [], 0
    for lhs, rhs in g.rules:
        prods, nts = depth1_productions(rhs, g.is_nonterminal)
        if not prods:
            chains.append((lhs, nts[0]))
            continue
        names = [lhs] + [("_flat", fresh + n) for n in range(len(prods) - 1)]
        fresh += len(prods) - 1
        flat.extend((names[n], sym, tuple(nts[k] if var else names[k]
                                          for var, k in kids))
                    for n, sym, kids in prods)
    return flat, chains


def _subset_step(rules, chains):
    """The function (symbol, child sets) -> frozenset of the nonterminals
    that derive a node with that label and children derived from those
    sets, by the depth-1 ``rules`` (lhs, symbol, kids) and the chain
    edges (lhs, nonterminal).  A rule applies only to a node with as many
    children as the rule has.  The rules are indexed by (symbol, arity,
    first child), so a node reads only the rules that its first child's
    set can satisfy; the heads found are then closed under the chain
    edges, read backwards, for this set alone."""
    index, up = {}, {}
    for lhs, sym, kids in rules:
        index.setdefault((sym, len(kids), kids[0] if kids else None),
                         []).append((lhs, kids[1:]))
    for lhs, nt in chains:
        up.setdefault(nt, []).append(lhs)

    def target_of(sym, sets):
        rest = sets[1:]
        found = {lhs for k in (sets[0] if sets else (None,))
                 for lhs, kids in index.get((sym, len(sets), k), ())
                 if all(x in m for x, m in zip(kids, rest))}
        stack = list(found)
        while stack:
            for lhs in up.get(stack.pop(), ()):
                if lhs not in found:
                    found.add(lhs)
                    stack.append(lhs)
        return frozenset(found)
    return target_of


def parse_member(rules, chains, initials, s):
    """Whether s derives from one of the ``initials`` by the depth-1
    ``rules`` and chain edges (see ``_subset_step``), in one bottom-up
    pass over the distinct subtrees of s (CYK for tree grammars): each
    subtree gets the set of nonterminals deriving it, read off the rules
    of its label from its children's sets.  Stops at the first subtree
    that nothing derives."""
    target_of = _subset_step(rules, chains)
    derives = {}
    for node in distinct_postorder(s):
        nts = target_of(node.label,
                        [derives[id(c)] for c in node.children])
        if not nts:
            return False
        derives[id(node)] = nts
    return not derives[id(s)].isdisjoint(initials)


_SUBSET_CEILING = 4096  # the most subset states of a grammar's automaton


def grammar_to_automaton(g):
    """``rules_to_automaton`` on the grammar's flattened rules and chain
    edges."""
    return rules_to_automaton(g.terminals, *_flatten_rules(g), g.initials,
                              _SUBSET_CEILING)


def rules_to_automaton(terminals, rules, chains, initials, ceiling):
    """Subset construction over depth-1 ``rules`` and chain edges (see
    ``_subset_step``); a subset is final when it meets ``initials``.
    Raises ResourceError when more than ``ceiling`` subset states
    appear."""
    states, delta = explore(terminals, _subset_step(rules, chains),
                            ceiling, "subset construction")
    finals = {s for s in states if s & initials}
    return BottomUpAutomaton(terminals, states, finals, delta,
                             check_total=False)


def grammar_chain_closure(g, max_len=None):
    """Map each nonterminal to the nonterminals reachable through chain
    rules (paths of length <= max_len when given)."""
    step = {}
    for lhs, rhs in g.rules:
        if g.is_nonterminal(rhs.label):
            step.setdefault(lhs, set()).add(rhs.label)
    bound = max_len if max_len is not None else len(g.nonterminals)
    reach = {nt: {nt} for nt in g.nonterminals}
    for nt in step:
        frontier = {nt}
        for _ in range(bound):
            frontier = {y for x in frontier for y in step.get(x, ())} \
                - reach[nt]
            if not frontier:
                break
            reach[nt] |= frontier
    return reach


def enumerate_grammar(g, max_size, max_chain_len=None, max_count=None):
    """All terminal trees of size <= max_size derivable from an initial
    nonterminal, with at most ``max_chain_len`` chain rules in a row when
    it is given.

    Only the nonterminals that the initials reach are enumerated, each
    keeping its trees in buckets by size.  The rounds are semi-naive:
    after the first one, a rule is expanded only with child tuples that
    hold a tree new in the previous round, and only with tuples whose
    sizes fit ``max_size``, so each (rule, child tuple) is formed once.
    Raises ResourceError once the trees found for the reachable
    nonterminals together number more than ``max_count``."""
    reach = grammar_chain_closure(g, max_chain_len)
    prods = {}
    for lhs, rhs in g.rules:
        if not g.is_nonterminal(rhs.label):
            prods.setdefault(lhs, []).append(rhs)
    # takers[mid]: the reachable nonterminals that get the trees of mid's
    # rules, mid being on a chain from them
    takers = {}
    needed = list(g.initials)
    lang = {nt: set() for nt in needed}
    for nt in needed:  # grows while the loop runs
        for mid in reach[nt]:
            takers.setdefault(mid, []).append(nt)
            for rhs in prods.get(mid, ()):
                for k in _rhs_nonterminals(rhs, g):
                    if k not in lang:
                        lang[k] = set()
                        needed.append(k)
    # size -> trees, found before the last round and in it
    old = {nt: {} for nt in needed}
    new = {nt: {} for nt in needed}
    count = 0

    def found(t, nts):
        nonlocal count
        for nt in nts:
            if t not in lang[nt]:
                lang[nt].add(t)
                new[nt].setdefault(t.size, []).append(t)
                count += 1
                if max_count is not None and count > max_count:
                    raise ResourceError(
                        "grammar enumeration: %d trees exceed the ceiling "
                        "of %d" % (count, max_count))

    rules = []
    for mid, nts in takers.items():
        for rhs in prods.get(mid, ()):
            kids = _rhs_nonterminals(rhs, g)
            if kids:
                rules.append((nts, _rhs_builder(rhs, g.nonterminals), kids,
                              rhs.size - len(kids)))
            elif rhs.size <= max_size:
                found(rhs, nts)
    while any(new.values()):
        delta, new = new, {nt: {} for nt in needed}
        full = dict(old)
        for nt, buckets in delta.items():
            if buckets:
                full[nt] = merged = dict(old[nt])
                for size, ts in buckets.items():
                    merged[size] = merged.get(size, []) + ts
        for nts, build, kids, base in rules:
            for i, kid in enumerate(kids):
                # the first child with a new tree is child i
                pools = ([old[k] for k in kids[:i]] + [delta[kid]]
                         + [full[k] for k in kids[i + 1:]])
                if not all(pools):
                    continue
                for sizes in _size_vectors(pools, max_size - base):
                    for picks in itertools.product(
                            *[p[s] for p, s in zip(pools, sizes)]):
                        found(build(picks), nts)
        old = full
    out = set()
    for nt in g.initials:
        out |= lang[nt]
    return out


def _rhs_builder(rhs, nonterminals):
    """The function from picks, one tree per nonterminal leaf of rhs in
    pre-order, to rhs with those leaves replaced by them.  A depth-1 rhs
    whose leaves are all nonterminals builds ``Tree(rhs.label, picks)`` in
    one step; any other rhs is copied by ``substitute_leaves``."""
    if all(not c.children and c.label in nonterminals for c in rhs.children):
        return functools.partial(Tree, rhs.label)

    def build(picks):
        nxt = iter(picks).__next__
        return substitute_leaves(
            rhs, lambda x: nxt() if x in nonterminals else None)
    return build


def _size_vectors(pools, budget):
    """Every choice of one size per pool (a map from sizes to trees, none
    empty) whose sum is at most budget."""
    least = [0] * (len(pools) + 1)
    for j in reversed(range(len(pools))):
        least[j] = least[j + 1] + min(pools[j])

    def extend(j, left):
        if j == len(pools):
            yield ()
            return
        for size in pools[j]:
            if size + least[j + 1] <= left:
                for rest in extend(j + 1, left - size):
                    yield (size,) + rest
    return extend(0, budget)


def grammar_finite(g):
    """Whether L(g) is finite: ``_finite`` on g's flattened rules and
    chain edges."""
    rules, chains = _flatten_rules(g)
    realizable = least_model([(head, kids) for head, _, kids in rules]
                             + [(head, (nt,)) for head, nt in chains])
    return _finite(rules, chains, g.initials, realizable)


def _labels(trees):
    """Every node label of the trees, each tree in pre-order, left to
    right."""
    stack = list(trees)[::-1]
    while stack:
        n = stack.pop()
        yield n.label
        stack.extend(reversed(n.children))


def _rhs_nonterminals(rhs, g):
    """The nonterminal leaves of a right-hand side, left to right."""
    return [label for label in _labels([rhs]) if g.is_nonterminal(label)]


# ---------------------------------------------------------------------------
# Node tests

class NodeTest:
    """A guard.  ``aut`` is its automaton, None for an oracle; a
    ``subtest`` reads only the node's subtree."""

    aut = None
    subtest = False

    def eval(self, t, u):
        raise NotImplementedError


class AutomatonTest(NodeTest):
    """A regular test given by an automaton over the marked alphabet."""

    __slots__ = ("aut",)

    def __init__(self, aut):
        if not isinstance(aut.alphabet, MarkedAlphabet):
            raise ValueError("AutomatonTest needs a marked-alphabet automaton")
        self.aut = aut

    def eval(self, t, u):
        return self.aut.accepts(mark_node(t, u))

    def __repr__(self):
        return "AutomatonTest(%d states)" % len(self.aut.states)


class SubTest(NodeTest):
    """A sub-test T(L): holds at (t, u) iff the subtree at u is in L."""

    subtest = True
    __slots__ = ("aut",)

    def __init__(self, aut):
        self.aut = aut

    def eval(self, t, u):
        return self.aut.accepts(subtree_at(t, u))

    def __repr__(self):
        return "SubTest(%d states)" % len(self.aut.states)


class OracleTest(NodeTest):
    """An exact test backed by a deterministic, terminating evaluator
    closure; carries a description tag for diagnostics."""

    __slots__ = ("fn", "tag")

    def __init__(self, fn, tag):
        self.fn = fn
        self.tag = tag

    def eval(self, t, u):
        return bool(self.fn(t, u))

    def __repr__(self):
        return "OracleTest(%s)" % self.tag


def eval_test(test, t, u):
    """Evaluate a node test; None means the always-true (local) guard."""
    subtree_at(t, u)  # validates the address
    if test is None:
        return True
    return test.eval(t, u)


def node_verdicts(test, ix, runs=None):
    """The verdicts of an automaton-backed test on the indexed tree ``ix``
    (a ``core.TreeIndex``), read by node id (``verdicts[i]``), or None for
    a test without an automaton (an oracle).  A node where ``eval_test``
    raises (a label outside the automaton's alphabet, or a run that hits a
    transition the automaton lacks) has the verdict None; which nodes those
    are differs from node to node for sub-tests and partial automata.

    A ``SubTest`` needs only the bottom-up run, and its verdicts are a
    list.  An ``AutomatonTest`` runs bottom-up once with every label
    unmarked; its verdicts are a ``LookAround``, which builds the top-down
    contexts on demand.  ``runs``, a dict kept only while the tests read
    with it live, holds the bottom-up run of each transition table, so
    that tests differing only in their final states share one run."""
    aut = test.aut
    if aut is None:
        return None
    delta, symbols = aut.delta, aut.alphabet.symbols
    marked = not test.subtest
    labels = ix.marked if marked else [n.label for n in ix.nodes]
    if marked and not symbols.keys() >= set(labels):
        return [None] * len(labels)  # every marked run reads the whole tree
    runs = {} if runs is None else runs
    key = (id(delta), id(aut.alphabet), marked)
    if key not in runs:
        # state[i] is None where the run on node i's subtree raises;
        # combos[i] holds the states of node i's children
        state, combos = runs[key] = [None] * len(labels), [None] * len(labels)
        for i in reversed(range(len(labels))):  # children before parents
            combo = combos[i] = tuple([state[j] for j in ix.kids[i]])
            if labels[i] in symbols and None not in combo:
                state[i] = delta.get((labels[i], combo))
    state, combos = runs[key]
    if not marked:
        return [None if p is None else p in aut.finals for p in state]
    return LookAround(aut, ix, combos)


class LookAround:
    """The verdicts of an ``AutomatonTest`` on an indexed tree, each
    computed when first read (``self[i]``) and then kept.

    A node's context maps a state of its subtree to whether the run then
    ends in a final state; a state whose run up hits a missing transition
    has no entry.  The verdict at node i is the outcome of the state its
    subtree takes when i is marked (look-around by relabeling, Bloem and
    Engelfriet).  Reading node i climbs ``ix.parents`` to the nearest node
    with a context and builds the contexts back down that path, so each
    node's context is built at most once, in any read order, and only on
    the root paths of the nodes read.  Contexts are interned by content,
    so that the child context of each (context, parent label, sibling
    states around the hole) is built once; ``interned`` keeps every
    context alive, so the ids in ``made``'s keys stay unique."""

    def __init__(self, aut, ix, combos):
        self.aut, self.ix, self.combos = aut, ix, combos
        root = {p: p in aut.finals for p in aut.states}
        self.contexts = [root] + [None] * (len(combos) - 1)
        self.interned = {frozenset(root.items()): root}
        self.made, self.verdicts = {}, {}

    def __getitem__(self, i):
        verdicts = self.verdicts
        if i in verdicts:
            return verdicts[i]
        verdict = verdicts[i] = self.context(i).get(self.aut.delta.get(
            (marked_name(self.ix.nodes[i].label, 1), self.combos[i])))
        return verdict

    def context(self, i):
        """Node i's context, built down from its nearest ancestor with
        one."""
        ix, combos, contexts = self.ix, self.combos, self.contexts
        delta, states = self.aut.delta, self.aut.states
        path = []
        while contexts[i] is None:
            path.append(i)
            i = ix.parents[i]
        above = contexts[i]
        for j in reversed(path):
            p, k = ix.parents[j], ix.child_nos[j] - 1
            name, combo = ix.marked[p], list(combos[p])
            combo[k] = None
            key = (id(above), name, tuple(combo))
            ctx = self.made.get(key)
            if ctx is None:
                ctx = {}
                for q in states:
                    combo[k] = q
                    r = delta.get((name, tuple(combo)))
                    if r in above:
                        ctx[q] = above[r]
                ctx = self.made[key] = self.interned.setdefault(
                    frozenset(ctx.items()), ctx)
            above = contexts[j] = ctx
        return above


def marked_automaton(test):
    """The automaton over the marked alphabet of the test's own alphabet
    that accepts the trees marked at a node where the test holds.  A
    marked guard is its own automaton; a sub-test's automaton runs below
    the mark, freezes its verdict at the marked node and passes it upward.
    An oracle has none and is rejected."""
    aut = test.aut
    if aut is None:
        raise ValueError("cannot convert %r to an automaton test" % (test,))
    if not test.subtest:
        return aut
    marked = MarkedAlphabet(aut.alphabet)
    bot = [("bot", p) for p in aut.states]
    states = bot + [("top", False), ("top", True), ("sink",)]
    delta = {}
    for name in marked.symbols:
        base, bit = split_marked_name(name)
        rank = marked.rank(name)
        for combo in itertools.product(states, repeat=rank):
            tops = [x for x in combo if x[0] == "top"]
            if any(x == ("sink",) for x in combo) or len(tops) > 1 or \
                    (tops and bit == 1):
                delta[(name, combo)] = ("sink",)
            elif tops:
                delta[(name, combo)] = tops[0]
            else:
                p = aut.delta[(base, tuple(x[1] for x in combo))]
                if bit == 1:
                    delta[(name, combo)] = ("top", p in aut.finals)
                else:
                    delta[(name, combo)] = ("bot", p)
    return BottomUpAutomaton(
        marked, states, [("top", True)], delta, check_total=False)
