"""Independent oracles for the benchmark's checks.

Each check takes an operation's result and returns None when it holds or
a one-line reason when it does not.  The oracles use the reference walker
(``walker``) and plain enumerations written here; they never call the
program's evaluators, ``eval_test``, ``mark_node`` or
``BottomUpAutomaton.run``.  Construction results are checked by the
properties their methods must have, on every input up to a small size.
"""

import itertools

from artifact.core import Tree

import walker as W


# ---------------------------------------------------------------------------
# Small trees

def small_trees(alphabet, max_size):
    """Every tree over the ranked alphabet with at most ``max_size``
    nodes, smallest first."""
    by_size = {}
    for size in range(1, max_size + 1):
        found = []
        for sym in sorted(alphabet.symbols):
            rank = alphabet.symbols[sym]
            for split in _splits(size - 1, rank):
                pools = [by_size.get(k, ()) for k in split]
                for kids in itertools.product(*pools):
                    found.append(Tree(sym, kids))
        by_size[size] = found
    return [t for size in range(1, max_size + 1) for t in by_size[size]]


def _splits(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


def accepts(aut, t):
    """Acceptance by the transition table, without the program's run."""
    return W.run_tree(aut, t) in aut.finals


def _same_or_both_none(a, b):
    if a is None or b is None:
        return a is None and b is None
    return W.same_tree(a, b)


def _then(M, t):
    return None if t is None else W.output(M, t)


# ---------------------------------------------------------------------------
# Evaluation oracles

def check_output(M, t, got):
    """``got`` is the program's output tree (or None) of M on t."""
    want = W.output(M, t)
    if not _same_or_both_none(got, want):
        return "output differs from the reference walker"
    return None


def check_cli_run(M, t, rc, text):
    """The ``run`` command printed the walker's output and exited 0, or
    printed UNDEFINED and exited 1."""
    want = W.output(M, t)
    if want is None:
        expected = (1, "UNDEFINED\n")
    else:
        expected = (0, W.serialize(want) + "\n")
    if (rc, text) != expected:
        return "run printed %r (exit %r), expected exit %r" % (
            text[:60], rc, expected[0])
    return None


def is_full_binary(t):
    """Whether t is a full binary sigma/e tree of height >= 1: the image
    of the exponential duplicator."""
    if not t.children:
        return False
    depths = set()
    stack = [(t, 0)]
    while stack:
        x, d = stack.pop()
        if x.label == "e" and not x.children:
            depths.add(d)
        elif x.label == "sigma" and len(x.children) == 2:
            stack.extend((c, d + 1) for c in x.children)
        else:
            return False
    return len(depths) == 1


# ---------------------------------------------------------------------------
# Boolean formulas

def formula_value(phi, w):
    """Truth value of a formula over or/and/not and variables v^l(e),
    where v^l(e) reads the l-th letter of the valuation w."""
    memo = {}
    stack = [(phi, False)]
    while stack:
        x, done = stack.pop()
        if id(x) in memo:
            continue
        if x.label == "v":
            depth, y = 0, x
            while y.label == "v":
                depth, y = depth + 1, y.children[0]
            memo[id(x)] = int(w[depth - 1])
        elif not done:
            stack.append((x, True))
            stack.extend((c, False) for c in x.children)
        else:
            vals = [memo[id(c)] for c in x.children]
            if x.label == "not":
                memo[id(x)] = 1 - vals[0]
            elif x.label == "or":
                memo[id(x)] = vals[0] | vals[1]
            else:
                memo[id(x)] = vals[0] & vals[1]
    return memo[id(phi)]


def satisfiable(phi, n):
    """Truth-table satisfiability over n variables."""
    return any(formula_value(phi, "".join(bits))
               for bits in itertools.product("01", repeat=n))


def variables(n):
    out, t = [], W.node("e")
    for _ in range(n):
        t = W.node("v", t)
        out.append(t)
    return out


def true_formulas(m, n, w):
    """Every formula with nesting depth <= m over variables v^1..v^n that
    is true under the valuation w, as nested tuples."""
    cur = {}
    for t in variables(n):
        cur[W.to_tuple(t)] = formula_value(t, w)
    for _ in range(m):
        nxt = dict(cur)
        for a, va in cur.items():
            nxt[("not", a)] = 1 - va
            for b, vb in cur.items():
                nxt[("or", a, b)] = va | vb
                nxt[("and", a, b)] = va & vb
        cur = nxt
    return {f for f, v in cur.items() if v}


# ---------------------------------------------------------------------------
# Construction properties

def check_domain(M, A, inputs):
    """A accepts t iff the deterministic machine M has an output on t."""
    for t in inputs:
        if accepts(A, t) != (W.output(M, t) is not None):
            return "domain automaton disagrees on %s" % W.serialize(t)
    return None


def check_inverse_image(M, L, A, decided, inputs):
    """A accepts t iff M's output on t lies in L; the decided witness, if
    any, is accepted, and an empty verdict has no small member."""
    any_member = False
    for t in inputs:
        s = W.output(M, t)
        want = s is not None and accepts(L, s)
        any_member |= want
        if accepts(A, t) != want:
            return "inverse image disagrees on %s" % W.serialize(t)
    empty, _finite, witness = decided
    if empty and any_member:
        return "decide says empty but a small member exists"
    if not empty and (witness is None or not accepts(A, witness)):
        return "decide's witness is not accepted"
    return None


def check_pruning_image(M, A, decided, inputs):
    """Every output of M on a small input is accepted by the image
    automaton, and decide's witness is accepted."""
    any_output = False
    for t in inputs:
        s = W.output(M, t)
        if s is not None:
            any_output = True
            if not accepts(A, s):
                return "image automaton rejects the output on %s" \
                    % W.serialize(t)
    empty, _finite, witness = decided
    if empty and any_output:
        return "decide says empty but an output exists"
    if not empty and (witness is None or not accepts(A, witness)):
        return "decide's witness is not accepted"
    return None


def check_same_translation(first, second, reference, inputs):
    """Running the machines ``first`` then ``second`` (``second`` may be
    None) agrees with the reference machine on every input."""
    for t in inputs:
        got = W.output(first, t)
        if second is not None:
            got = _then(second, got)
        if not _same_or_both_none(got, W.output(reference, t)):
            return "translation differs on %s" % W.serialize(t)
    return None


def check_compose(M1, M2, C, inputs):
    """The composed machine agrees with the two stages in turn."""
    for t in inputs:
        want = _then(M2, W.output(M1, t))
        if not _same_or_both_none(W.output(C, t), want):
            return "composition differs on %s" % W.serialize(t)
    return None


def check_uniformize(M, U, inputs):
    """U is deterministic, has M's domain, and picks one of M's
    outputs."""
    for t in inputs:
        s = W.output(U, t)
        if (s is not None) != W.productive(M, t):
            return "uniformizer's domain differs on %s" % W.serialize(t)
        if s is not None and not W.accepts_pair(M, t, s):
            return "uniformizer's output on %s is not an output of M" \
                % W.serialize(t)
    return None


def check_factorization(M, d, inputs):
    """For every input with an output s, the witness r has |r| <= 2|s|
    and the remainder maps r to s."""
    if d.constant != 2:
        return "factorization constant is %r" % (d.constant,)
    for t in inputs:
        s = W.output(M, t)
        if s is None:
            continue
        r = d.witness_map(t)
        if r is None:
            return "no witness for %s" % W.serialize(t)
        if W.explicit_size(r) > 2 * s.size:
            return "witness larger than twice the output on %s" \
                % W.serialize(t)
        if not _same_or_both_none(W.output(d.remainder, r), s):
            return "remainder does not map the witness to the output"
    return None


def syntactic_flags(M):
    """The class flags that follow from the rules alone."""
    def instrs(r):
        return [c.instr for c in W.calls(r.rhs)]

    def kind(r):
        if W.is_call(r.rhs.label):
            return "move"
        if all(W.is_call(c.label) for c in r.rhs.children):
            return "output"
        return "general"

    def pruning_rule(r):
        if kind(r) == "move":
            return r.rhs.label.instr.kind == "down"
        if kind(r) != "output":
            return False
        idxs = [c.label.instr.index if c.label.instr.kind == "down" else None
                for c in r.rhs.children]
        return None not in idxs and idxs == sorted(set(idxs))

    def relabeling_rule(r):
        rank = M.input_alphabet.symbols[r.symbol]
        return (kind(r) == "output" and len(r.rhs.children) == rank
                and all(c.label.instr.kind == "down"
                        and c.label.instr.index == i
                        for i, c in enumerate(r.rhs.children, 1)))

    top_down = all(i.kind != "up" for r in M.rules for i in instrs(r))
    return {
        "local": all(r.test is None for r in M.rules),
        "sub_testing": all(r.test is None or r.test.subtest
                           for r in M.rules),
        "top_down": top_down,
        "pruning": top_down and all(pruning_rule(r) for r in M.rules),
        "relabeling": all(relabeling_rule(r) for r in M.rules),
    }


def check_classify(M, flags, inputs):
    """The syntactic flags match, and a machine flagged deterministic
    never offers two rules on a small input."""
    for name, want in syntactic_flags(M).items():
        if getattr(flags, name) != want:
            return "flag %s is %r" % (name, getattr(flags, name))
    if flags.deterministic:
        for t in inputs:
            try:
                W.output(M, t)
            except W.NotDeterministic:
                return "flagged deterministic but two rules apply on %s" \
                    % W.serialize(t)
    return None
