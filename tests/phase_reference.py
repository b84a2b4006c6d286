"""The over-approximations that the productivity phases enumerated their
gamma symbols from before they explored the exact excursion behaviours,
kept as references: ``_abstract_exits`` and ``_chain_endpoints`` bound
the exits of move-only excursions, and ``_gamma_candidates`` makes every
candidate summary over them.  ``_excursion_exits`` is the per-node search
that the phases' guards ran before they read the explored behaviours."""

import itertools

from artifact.core import STAY, child_number, navigate, subtree_at
from artifact.regular import ResourceError, least_model


def _excursion_exits(Mn, t, u, label, inside):
    """The move-only excursions from node u of t: every (q, s, x) such
    that a move rule of state q at u enters a node where ``inside`` holds
    and a run of move rules through such nodes first reaches a node x
    where it does not, in state s.  ``label`` maps the labels of t to
    symbols of Mn.  A validated rule moves up only below the root and
    down only within the rank, so every move applies."""
    def moves(s, v, node):
        for r in Mn.rules_at(s, label(node.label), child_number(v)):
            if r.kind == "move":
                c = r.rhs.label
                yield c.state, navigate(t, v, c.instr)

    top = subtree_at(t, u)
    for q in sorted(Mn.states, key=repr):
        stack = [(s, v) for s, v in moves(q, u, top) if inside(v)]
        seen = set(stack)
        while stack:
            p, v = stack.pop()
            for s, x in moves(p, v, subtree_at(t, v)):
                if not inside(x):
                    yield q, s, x
                elif (s, x) not in seen:
                    seen.add((s, x))
                    stack.append((s, x))


def _rank1_symbols(alphabet):
    return [s for s in alphabet if alphabet.rank(s) == 1]


def _least_sets(keys, facts, copies):
    """The least sets over ``keys`` that hold each fact (key, value) and,
    for each copy (key, source, guard), every value of source once all
    the (key, value) atoms of guard hold.

    They are the least model of the Horn clauses (key, v) <- (source, v)
    & guard.  Copies pass values through unchanged, so v ranges over the
    fact values alone."""
    values = {v for _, v in facts}
    model = least_model(
        [(f, ()) for f in facts]
        + [((key, v), ((src, v),) + guard)
           for key, src, guard in copies for v in values])
    sets = {key: set() for key in keys}
    for key, v in model:
        sets[key].add(v)
    return sets


def _abstract_exits(Mn):
    """Over-approximate, for every child number i and state q, the states
    in which a move-only computation entering a subtree at child number i
    in state q can leave it upward again: an up move is an exit, a stay
    move shares the exits of its target, and a down_k move into state p
    shares the exits of (i, q3) for every exit q3 of (k, p)."""
    states = sorted(Mn.states, key=repr)
    keys = [(i, q) for i in range(1, Mn.input_alphabet.max_rank + 1)
            for q in states]
    moves = [(r, r.rhs.label) for r in Mn.rules
             if r.kind == "move" and r.child_no]
    facts = [((r.child_no, r.state), c.state) for r, c in moves
             if c.instr.kind == "up"]
    exits = {v for _, v in facts}
    copies = []
    for r, c in moves:
        i = r.child_no
        if c.instr == STAY:
            copies.append(((i, r.state), (i, c.state), ()))
        elif c.instr.kind == "down":
            copies += [((i, r.state), (i, q3),
                        (((c.instr.index, c.state), q3),)) for q3 in exits]
    return _least_sets(keys, facts, copies)


def _chain_endpoints(Mn):
    """Over-approximate the endpoints of move-only excursions through
    chains of monadic nodes.  Returns (down_end, up_end): down_end[(i, q)]
    are ("stay"|"down", state) endpoints after entering a chain hanging
    below child i in state q; up_end[q] are ("stay"|"up", state) endpoints
    after entering the chain above in state q."""
    syms1 = _rank1_symbols(Mn.input_alphabet)
    maxr = Mn.input_alphabet.max_rank
    states = sorted(Mn.states, key=repr)

    def moves(q, js):
        return [r.rhs.label for s1 in syms1 for j in js
                for r in Mn.rules_at(q, s1, j) if r.kind == "move"]

    # descent: positions ("top", i) with child number i, or "deep" with
    # child number 1; endpoints arrive back at the entry node ("stay") or
    # at the first unmarked descendant ("down").  ascent: positions
    # "chtop" (child number unknown, 1..maxr) or "chin" (child number 1);
    # endpoints arrive back at the entry node ("stay") or at the nearest
    # unmarked ancestor ("up").
    descent = [("top", i) for i in range(1, maxr + 1)] + ["deep"]
    ascent = ["chtop", "chin"]
    keys = [(q, pos) for q in states for pos in descent + ascent]
    facts, copies = [], []
    for q, pos in keys:
        js = range(1, maxr + 1) if pos == "chtop" else (
            (1,) if pos in ("deep", "chin") else (pos[1],))
        for c in moves(q, js):
            via = []
            if c.instr == STAY:
                via = [pos]
            elif c.instr.kind == "down" and pos in descent:
                facts.append(((q, pos), ("down", c.state)))
                via = ["deep"]
            elif c.instr.kind == "down":
                facts.append(((q, pos), ("stay", c.state)))
                via = ["chin"]
            elif pos == "deep":
                via = descent
            elif pos == "chin":
                via = ascent
            else:  # up from the top of the chain
                facts.append(((q, pos), (
                    "stay" if pos in descent else "up", c.state)))
            copies += [((q, pos), (c.state, p), ()) for p in via]
    ends = _least_sets(keys, facts, copies)
    down_end = {(i, q): frozenset(ends[(q, ("top", i))])
                for i in range(1, maxr + 1) for q in states}
    up_end = {q: frozenset(ends[(q, "chtop")] | ends[(q, "chin")])
              for q in states}
    return down_end, up_end


# The most candidate excursion pairs at one symbol for which a phase on a
# nondeterministic machine makes a gamma symbol per subset: 2**12 of them.
_PAIR_CEILING = 12


def _gamma_candidates(cand_by_source, deterministic):
    """All candidate excursion summaries: partial choice functions over
    the sources for a deterministic machine, arbitrary subsets of the
    candidate pairs otherwise."""
    sources = sorted(cand_by_source, key=repr)
    if deterministic:
        per = []
        for q in sources:
            opts = [None] + sorted(cand_by_source[q], key=repr)
            per.append([(q, o) for o in opts])
        result = []
        for choice in itertools.product(*per):
            result.append(frozenset((q, o) for q, o in choice
                                    if o is not None))
        return result
    pairs = sorted({(q, o) for q in sources for o in cand_by_source[q]},
                   key=repr)
    if len(pairs) > _PAIR_CEILING:
        raise ResourceError(
            "candidate excursion pairs: %d pairs exceed the ceiling of %d"
            % (len(pairs), _PAIR_CEILING))
    result = []
    for n in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, n):
            result.append(frozenset(combo))
    return result
