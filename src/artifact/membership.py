"""Membership queries for pipelines, tree fixed points of configuration
grammars, and the satisfiability fixtures.

Pair membership evaluates the deterministic stages of a pipeline and
decides a nondeterministic last stage by parsing the output bottom-up
against that stage's configuration rules on its input, read straight off
the machine (``transducer.config_rules``, ``regular.parse_member``): the
reduction of membership for a nondeterministic stage after deterministic
ones to context-free membership, without building the grammar's trees or
closing its chain rules globally.  The pipeline's linear-bound constant
bounds only the intermediates of nondeterministic stages that are not
last, which are still enumerated.  The output of a deterministic stage
that is not last is handed on whole, unless it exceeds both the linear
bound and INTERMEDIATE_CEILING, which raises ResourceError.

Output-language membership uses that inverse images of regular tree
languages are regular: s is an output on some input in L exactly when L,
pushed forward through the leading pruning stages, meets the inverse
image of {s} under the remaining stages, and that is an emptiness test.
Inputs are enumerated only for a stage whose inverse image cannot be
built.
"""

from dataclasses import dataclass

from .core import (
    RankedAlphabet, Tree, UP, all_trees, distinct_postorder, down, leaf,
    substitute_leaves, tree_key,
)
from .constructions import Pipeline, inverse_image, pruning_image
from .regular import (
    ResourceError, is_empty, parse_member, singleton_automaton,
    _rhs_nonterminals,
)
from .transducer import (
    ContractError, Rule, Transducer, call, classify, config_rules,
    enumerate_outputs, eval_deterministic, out,
)


# ---------------------------------------------------------------------------
# Tree fixed points

@dataclass
class FixedPointAssignment:
    """Maps grammar nonterminals to output trees; absent or None entries
    mean undefined."""

    mapping: dict

    def get(self, nt):
        return self.mapping.get(nt)


def _check_forward_deterministic(g):
    if len(g.initials) != 1:
        raise ContractError("fixed points need a single initial "
                            "nonterminal")
    seen = set()
    for lhs, _ in g.rules:
        if lhs in seen:
            raise ContractError("grammar is not forward deterministic")
        seen.add(lhs)
    return next(iter(g.initials))


def _substitute(rhs, value, nonterminals):
    """rhs with nonterminal leaves replaced through ``value``; None if any
    of them is undefined.  ``value`` is not asked again after that."""
    undefined = []

    def fill(label):
        if undefined or label not in nonterminals:
            return None
        v = value(label)
        if v is None:
            undefined.append(label)
        return v

    t = substitute_leaves(rhs, fill)
    return None if undefined else t


def verify_tree_fixed_point(g, h):
    """Whether h is a tree fixed point of the forward-deterministic
    grammar g: the initial nonterminal is defined, every defined value is
    a subtree of the initial one, and every rule whose left-hand side is
    defined holds as an equation."""
    start = _check_forward_deterministic(g)
    root = h.get(start)
    if root is None:
        return False
    subs = set()
    stack = [root]
    while stack:
        node = stack.pop()
        subs.add(node)
        stack.extend(node.children)
    for nt in g.nonterminals:
        val = h.get(nt)
        if val is not None and val not in subs:
            return False
    for lhs, rhs in g.rules:
        if h.get(lhs) is None:
            continue
        if _substitute(rhs, h.get, g.nonterminals) != h.get(lhs):
            return False
    return True


def canonical_assignment(g):
    """The assignment mapping every nonterminal reachable from the start
    symbol to the unique tree it derives (None when the derivation does
    not terminate); unreachable nonterminals stay undefined.

    One depth-first post-order over the nonterminals, with an explicit
    stack: a nonterminal's value is built once its rhs nonterminals are
    settled, and one still on the path is part of a cycle, so whatever
    reaches it stays None."""
    start = _check_forward_deterministic(g)
    rulemap = {lhs: rhs for lhs, rhs in g.rules}

    def kids(nt):
        rhs = rulemap.get(nt)
        return iter(() if rhs is None else _rhs_nonterminals(rhs, g))

    value = {}
    path = {start}
    stack = [(start, kids(start))]
    while stack:
        nt, pending = stack[-1]
        for k in pending:
            if k not in value and k not in path:
                path.add(k)
                stack.append((k, kids(k)))
                break
        else:
            stack.pop()
            path.discard(nt)
            rhs = rulemap.get(nt)
            value[nt] = None if rhs is None else _substitute(
                rhs, value.get, g.nonterminals)
    return FixedPointAssignment(value)


# ---------------------------------------------------------------------------
# Pair and output-language membership

# Explicit size above which the output of a deterministic stage that is
# not last, and that exceeds the linear bound, is not handed on: the next
# stage's work grows with the explicit size of its input.
INTERMEDIATE_CEILING = 1 << 20


def _require_constant(const):
    if const is None:
        raise ContractError("multi-stage membership needs a linear-bound "
                            "constant")


def _member(stages, det, const, t, s):
    """Whether (t, s) is a pair of the stages, whose determinism flags are
    ``det``.  Deterministic stages are evaluated, a nondeterministic last
    stage is decided by parsing s against its configuration rules, and
    only a nondeterministic stage before the last enumerates its outputs,
    up to ``const * |s|`` nodes and smallest first.  Raises ResourceError
    when a deterministic stage before the last outputs more than both
    ``const * |s|`` and INTERMEDIATE_CEILING nodes."""
    for i, M in enumerate(stages):
        last = i == len(stages) - 1
        if det[i]:
            t = eval_deterministic(M, t)[0]
            if t is None:
                return False
            if last:
                return t == s
            if t.size > max(const * s.size, INTERMEDIATE_CEILING):
                raise ResourceError(
                    "membership: an intermediate of %d nodes exceeds the "
                    "linear bound of %d and the ceiling of %d"
                    % (t.size, const * s.size, INTERMEDIATE_CEILING))
        elif last:
            return parse_member(*config_rules(M, t), s)
        else:
            return any(_member(stages[i + 1:], det[i + 1:], const, r, s)
                       for r in sorted(enumerate_outputs(M, t,
                                                         const * s.size),
                                       key=tree_key))


def member_pair(P, t, s):
    """Whether (t, s) is a translation pair of the pipeline.

    Deterministic stages are evaluated and their outputs handed on whole;
    an intermediate beyond both the linear bound and INTERMEDIATE_CEILING
    raises ResourceError.  A nondeterministic last stage is decided
    without enumeration: s is parsed bottom-up (``regular.parse_member``)
    against the stage's configuration rules on its input
    (``transducer.config_rules``), its rules' depth-1 productions per
    configuration with move rules as chain edges, so no configuration
    grammar is built and each subtree of s closes only its own set of
    configurations under the chain edges.  Only a nondeterministic stage
    that is not last enumerates its candidate intermediates r, with |r|
    bounded by the linear-bound constant times |s|, smallest first; a
    multi-stage pipeline needs that constant even when no such stage
    exists."""
    P = Pipeline.of(P)
    const = P.linear_bound_constant
    if len(P.stages) > 1:
        _require_constant(const)
    det = [classify(M).deterministic for M in P.stages]
    return _member(P.stages, det, const, t, s)


def _pull_back(stages, s):
    """The automaton of the inputs on which the stages can output s,
    pulled back from the singleton {s} one stage at a time, last stage
    first; None when a stage's inverse image cannot be built (a guard
    that is not automaton-backed, or a construction ceiling)."""
    A = singleton_automaton(s, stages[-1].output_alphabet)
    for M in reversed(stages):
        try:
            A = inverse_image(M, A)
        except (ContractError, ResourceError):
            return None
    return A


def member_output_language(P, L, s):
    """Whether s is an output of the pipeline on some input in L.

    The input language is pushed forward through the leading pruning
    stages (``pruning_image``) and {s} is pulled back through the
    remaining ones (``inverse_image``); s is an output exactly when the
    two languages meet, which ``is_empty`` tells without a size bound or
    a linear-bound constant.  Only when a stage's inverse image cannot be
    built (a guard that is not automaton-backed, or a construction
    ceiling) are the inputs of up to the constant times |s| nodes
    enumerated and decided by pair membership; that fallback needs the
    constant."""
    P = Pipeline.of(P)
    stages, const = list(P.stages), P.linear_bound_constant
    cur = L
    while stages:
        try:
            cur = pruning_image(stages[0], cur)
        except (ContractError, ResourceError):
            break  # not a pruning stage, or its image cannot be built
        stages.pop(0)
    if not stages:
        # a tree with a symbol outside the image's alphabet, or of the
        # wrong rank, is not in it
        ranks = cur.alphabet.symbols
        return (all(ranks.get(n.label) == len(n.children)
                    for n in distinct_postorder(s)) and cur.accepts(s))
    A = _pull_back(stages, s)
    if A is not None:
        return not is_empty(cur.intersect(A))
    _require_constant(const)
    det = [classify(M).deterministic for M in stages]
    for t in all_trees(stages[0].input_alphabet, const * s.size):
        if cur.accepts(t) and _member(stages, det, const, t, s):
            return True
    return False


# ---------------------------------------------------------------------------
# Satisfiability fixtures

FORMULAS = RankedAlphabet({"or": 2, "and": 2, "not": 1, "v": 1, "e": 0})
WORDS = RankedAlphabet({"c": 1, "d": 1, "0": 1, "1": 1, "a": 0})
NP_INPUT = RankedAlphabet({"a": 1, "b": 1, "c": 1, "d": 1, "e": 0})
VALUATIONS = RankedAlphabet({"a": 2, "0": 2, "1": 2, "c": 1, "d": 1,
                             "e": 0})


def word_tree(word):
    """The monadic tree spelling the word from root to leaf; the last
    letter must have rank 0."""
    t = leaf(word[-1])
    for ch in reversed(word[:-1]):
        t = Tree(ch, [t])
    return t


def _dedup(rules):
    seen = set()
    out_rules = []
    for r in rules:
        key = (r.state, r.symbol, r.child_no, repr(r.rhs))
        if key not in seen:
            seen.add(key)
            out_rules.append(r)
    return out_rules


def leeuw_transducer():
    """The top-down local machine translating d^m c w a into every
    formula over {or, and, not} with variables v^l e that is true under
    the valuation w, with operator nesting depth at most m.  State q_i
    generates formulas of value i."""
    rules = []
    for j in (0, 1):
        for i in (0, 1):
            for k in (0, 1):
                rules.append(Rule("q%d" % (i | k), "d", j, None,
                                  out("or", call("q%d" % i, down(1)),
                                      call("q%d" % k, down(1)))))
                rules.append(Rule("q%d" % (i & k), "d", j, None,
                                  out("and", call("q%d" % i, down(1)),
                                      call("q%d" % k, down(1)))))
            rules.append(Rule("q%d" % (1 - i), "d", j, None,
                              out("not", call("q%d" % i, down(1)))))
            rules.append(Rule("q%d" % i, "d", j, None,
                              call("q%d" % i, down(1))))
            rules.append(Rule("q%d" % i, "c", j, None,
                              out("v", call("q%d" % i, down(1)))))
            for w in ("0", "1"):
                rules.append(Rule("q%d" % i, w, j, None,
                                  out("v", call("q%d" % i, down(1)))))
            rules.append(Rule("q%d" % i, str(i), j, None, leaf("e")))
    return Transducer(WORDS, FORMULAS, ["q0", "q1"], ["q1"],
                      _dedup(rules))


def _np_first_stage():
    """Deterministic machine unfolding a b^n c d^m e into the tree whose
    root-to-leaf paths spell a w c d^m e for every valuation w of length
    n."""
    rules = [Rule("q", "a", 0, None,
                  out("a", call("q0", down(1)), call("q1", down(1))))]
    for i in (0, 1):
        rules.append(Rule("q%d" % i, "b", 1, None,
                          out(str(i), call("q0", down(1)),
                              call("q1", down(1)))))
        rules.append(Rule("q%d" % i, "c", 1, None,
                          out("c", call("p", down(1)))))
    rules.append(Rule("p", "d", 1, None, out("d", call("p", down(1)))))
    rules.append(Rule("p", "e", 1, None, leaf("e")))
    return Transducer(NP_INPUT, VALUATIONS, ["q", "q0", "q1", "p"], ["q"],
                      rules)


def _np_second_stage():
    """Nondeterministic machine picking a leaf of the valuation tree and
    simulating the word-to-formula machine upward along that path."""
    rules = []
    for sym in VALUATIONS:
        rank = VALUATIONS.rank(sym)
        for j in (0, 1, 2):
            for k in range(1, rank + 1):
                rules.append(Rule("s", sym, j, None, call("s", down(k))))
    for j in (1, 2):
        rules.append(Rule("s", "e", j, None, call("q1", UP)))
        for i in (0, 1):
            for k in (0, 1):
                rules.append(Rule("q%d" % (i | k), "d", j, None,
                                  out("or", call("q%d" % i, UP),
                                      call("q%d" % k, UP))))
                rules.append(Rule("q%d" % (i & k), "d", j, None,
                                  out("and", call("q%d" % i, UP),
                                      call("q%d" % k, UP))))
            rules.append(Rule("q%d" % (1 - i), "d", j, None,
                              out("not", call("q%d" % i, UP))))
            rules.append(Rule("q%d" % i, "d", j, None,
                              call("q%d" % i, UP)))
            rules.append(Rule("q%d" % i, "c", j, None,
                              out("v", call("q%d" % i, UP))))
            for w in ("0", "1"):
                rules.append(Rule("q%d" % i, w, j, None,
                                  out("v", call("q%d" % i, UP))))
            rules.append(Rule("q%d" % i, str(i), j, None, leaf("e")))
    return Transducer(VALUATIONS, FORMULAS, ["s", "q0", "q1"], ["s"],
                      _dedup(rules))


def build_sat_fixtures():
    """The word-to-true-formulas machine and the two-stage pipeline
    mapping a b^n c d^m e to all satisfiable formulas with n variables
    and nesting depth at most m."""
    return leeuw_transducer(), Pipeline((_np_first_stage(),
                                         _np_second_stage()))
