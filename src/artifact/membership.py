"""Membership queries for pipelines, tree fixed points of configuration
grammars, and the satisfiability fixtures.

Pair membership on a factored pipeline enumerates intermediate trees
bounded by the pipeline's linear-bound constant; output-language
membership additionally pushes the input language through the leading
pruning stages.
"""

from dataclasses import dataclass

from .core import RankedAlphabet, Tree, UP, all_trees, down, leaf
from .constructions import Pipeline, pruning_image
from .transducer import (
    ContractError, Rule, Transducer, call, classify, enumerate_outputs,
    eval_deterministic, out,
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
    of them is undefined."""
    if rhs.label in nonterminals:
        return value(rhs.label)
    kids = []
    for ch in rhs.children:
        v = _substitute(ch, value, nonterminals)
        if v is None:
            return None
        kids.append(v)
    return Tree(rhs.label, kids)


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
    not terminate); unreachable nonterminals stay undefined."""
    start = _check_forward_deterministic(g)
    rulemap = {lhs: rhs for lhs, rhs in g.rules}
    reachable = set()
    stack = [start]
    while stack:
        nt = stack.pop()
        if nt in reachable:
            continue
        reachable.add(nt)
        rhs = rulemap.get(nt)
        if rhs is None:
            continue
        inner = [rhs]
        while inner:
            node = inner.pop()
            if node.label in g.nonterminals:
                stack.append(node.label)
            inner.extend(node.children)
    memo = {}

    def value(nt):
        if nt in memo:
            return memo[nt]
        memo[nt] = None
        rhs = rulemap.get(nt)
        if rhs is not None:
            memo[nt] = _substitute(rhs, value, g.nonterminals)
        return memo[nt]

    return FixedPointAssignment({nt: value(nt) for nt in reachable})


# ---------------------------------------------------------------------------
# Pair and output-language membership

def _member(stages, const, t, s):
    if len(stages) == 1:
        M = stages[0]
        if classify(M).deterministic:
            return eval_deterministic(M, t)[0] == s
        return s in enumerate_outputs(M, t, s.size)
    if const is None:
        raise ContractError("multi-stage membership needs a linear-bound "
                            "constant")
    for r in sorted(enumerate_outputs(stages[0], t, const * s.size)):
        if _member(stages[1:], const, r, s):
            return True
    return False


def member_pair(P, t, s):
    """Whether (t, s) is a translation pair of the pipeline: evaluate or
    enumerate single stages directly, and search multi-stage intermediates
    r with |r| bounded by the linear-bound constant times |s|, smallest
    candidates first."""
    P = Pipeline.of(P)
    return _member(P.stages, P.linear_bound_constant, t, s)


def member_output_language(P, L, s):
    """Whether s is an output of the pipeline on some input in L.  The
    input language is pushed forward through the leading pruning stages;
    the remaining stages are handled by bounded input enumeration and
    pair membership."""
    P = Pipeline.of(P)
    stages, const = list(P.stages), P.linear_bound_constant
    cur = L
    while stages and classify(stages[0]).pruning:
        cur = pruning_image(stages[0], cur)
        stages.pop(0)
    if not stages:
        return cur.accepts(s)
    if const is None:
        raise ContractError("multi-stage membership needs a linear-bound "
                            "constant")
    for t in all_trees(stages[0].input_alphabet, const * s.size):
        if cur.accepts(t) and _member(tuple(stages), const, t, s):
            return True
    return False


# ---------------------------------------------------------------------------
# Satisfiability fixtures

FORMULAS = RankedAlphabet({"or": 2, "and": 2, "not": 1, "v": 1, "e": 0})
WORDS = RankedAlphabet({"c": 1, "d": 1, "0": 1, "1": 1, "a": 0})
NP_INPUT = RankedAlphabet({"a": 1, "b": 1, "c": 1, "d": 1, "e": 0})
VALUATIONS = RankedAlphabet({"a": 2, "0": 2, "1": 2, "c": 1, "d": 1,
                             "e": 0})


def word_tree(word, alphabet=WORDS):
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
