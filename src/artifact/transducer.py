"""Tree-walking transducers: rule syntax and validation, class predicates,
the per-input configuration grammar, and three evaluation engines.

A transducer walks a single input tree with a finite-state head.  A rule
fires at a configuration (state, node) when the node's label, its child
number, and the rule's node test all match; the right-hand side is a tree
over the output alphabet whose leaves may be calls (state, instruction)
that continue the walk at a neighbouring node.  The derivable output trees
of an input t are exactly the language of the regular tree grammar built
by ``config_grammar``; ``config_rules`` gives the same grammar as depth-1
productions and chain edges, without building a right-hand side.
"""

import itertools
import math
import re
from dataclasses import dataclass

from .core import (
    AlphabetError, MarkedAlphabet, ParseError, RankedAlphabet, Tree,
    TreeError, all_trees, child_number, depth1_productions, down, leaf,
    preorder, split_marked_name, subtree_at, substitute_leaves,
    tree_from_preorder, Instruction, TreeIndex, STAY, UP, _parse_term,
)
from .regular import (
    BottomUpAutomaton, NodeTest, RegularTreeGrammar, eval_test, explore,
    marked_automaton, node_verdicts, _state_names,
)


class ContractError(RuntimeError):
    """A caller-facing precondition or runtime contract was violated."""


class Call:
    """A call leaf (state, instruction) in a rule right-hand side."""

    __slots__ = ("state", "instr")

    def __init__(self, state, instr):
        if not isinstance(instr, Instruction):
            raise ValueError("call needs an Instruction, got %r" % (instr,))
        self.state = state
        self.instr = instr

    def __eq__(self, other):
        return (isinstance(other, Call)
                and self.state == other.state and self.instr == other.instr)

    def __hash__(self):
        return hash((self.state, self.instr))

    def __repr__(self):
        return "<%s,%r>" % (self.state, self.instr)


def call(state, instr):
    """A rhs leaf calling ``state`` after executing ``instr``."""
    return Tree(Call(state, instr), ())


def out(symbol, *children):
    """A rhs output node."""
    return Tree(symbol, children)


class Rule:
    """One transducer rule <q, symbol, childNo, test> -> rhs.

    The rhs is a tree whose internal labels are output symbols and whose
    leaves are either rank-0 output symbols or Call objects.  A rhs that is
    a single call is a move rule; an output symbol whose children are all
    calls is an (ordinary) output rule; anything else is a general rule.
    """

    __slots__ = ("state", "symbol", "child_no", "test", "rhs", "_kind",
                 "_calls", "_outputs", "_flat", "_valid_in")

    def __init__(self, state, symbol, child_no, test, rhs):
        self.state = state
        self.symbol = symbol
        self.child_no = child_no
        self.test = test
        self.rhs = rhs
        # never mutated: rhs walks are kept, and the signature it was valid in
        self._kind = self._calls = self._outputs = self._flat = None
        self._valid_in = None

    @property
    def kind(self):
        if self._kind is None:
            rhs = self.rhs
            self._kind = "move" if isinstance(rhs.label, Call) else (
                "output" if all(isinstance(c.label, Call)
                                for c in rhs.children) else "general")
        return self._kind

    def calls(self):
        """All Call leaves of the rhs, in pre-order, with repetition."""
        if self._calls is None:  # one walk keeps the output count too
            found, count, stack = [], 0, [self.rhs]
            while stack:
                n = stack.pop()
                if isinstance(n.label, Call):
                    found.append(n.label)
                else:
                    count += 1
                    stack.extend(reversed(n.children))
            self._calls, self._outputs = tuple(found), count
        return self._calls

    def output_symbol_count(self):
        self.calls()
        return self._outputs

    def productions(self):
        """The rhs as depth-1 productions (node, symbol, kids), one per
        output node, numbered in pre-order with the root 0; a kid is
        (True, k) for the k-th call of ``calls()`` or (False, n) for
        output node n.  Empty for a move rule."""
        if self._flat is None:
            self._flat = tuple(depth1_productions(
                self.rhs, lambda label: isinstance(label, Call))[0])
        return self._flat

    def __repr__(self):
        return "Rule(<%s,%s,%d%s> -> %s)" % (
            self.state, self.symbol, self.child_no,
            "" if self.test is None else ",test", _format_rhs(self.rhs))


def relabel_rules(alphabet, state, symbol, new, kids, test=None):
    """The rules, one per child number of ``alphabet``, by which ``state``
    at ``symbol`` emits ``new`` over the children and enters child i in
    state ``kids[i-1]``."""
    rhs = out(new, *[call(k, down(i)) for i, k in enumerate(kids, 1)])
    return [Rule(state, symbol, j, test, rhs)
            for j in range(alphabet.max_rank + 1)]


class Transducer:
    """M = (input alphabet, output alphabet, states, initials, rules)."""

    __slots__ = ("input_alphabet", "output_alphabet", "states", "initials",
                 "rules", "_index", "_overlaps")

    def __init__(self, input_alphabet, output_alphabet, states, initials,
                 rules):
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.states = frozenset(states)
        self.initials = frozenset(initials)
        self.rules = tuple(rules)
        if not self.initials:
            raise ValueError("transducer needs at least one initial state")
        if not self.initials <= self.states:
            raise ValueError("initials must be states")
        self._index = {}
        self._overlaps = None  # filled by _overlap_record on first use
        # a rule validated under these very alphabet and state objects is
        # valid here; a rhs is walked once per (child number 0?, rank)
        sig = (input_alphabet, output_alphabet, self.states)
        walked = set()
        for r in self.rules:
            seen = r._valid_in
            if not (seen and seen[0] is input_alphabet
                    and seen[1] is output_alphabet and seen[2] is sig[2]):
                self._validate_rule(r, walked)
                r._valid_in = sig
            self._index.setdefault((r.state, r.symbol, r.child_no), []).append(r)

    def _validate_rule(self, r, walked):
        if r.state not in self.states:
            raise ValueError("rule state %r unknown" % (r.state,))
        rank = self.input_alphabet.rank(r.symbol)
        if not 0 <= r.child_no <= self.input_alphabet.max_rank:
            raise ValueError("child number %r out of range" % (r.child_no,))
        if r.test is not None and not isinstance(r.test, NodeTest):
            raise ValueError("bad node test %r" % (r.test,))
        key = (id(r.rhs), r.child_no == 0, rank)
        if key in walked:  # the same walk passed for an earlier rule
            return
        stack = [r.rhs]  # pre-order, so the first fault found is the same
        while stack:
            node = stack.pop()
            if isinstance(node.label, Call):
                if node.children:
                    raise ValueError("call leaf with children in %r" % (r,))
                c = node.label
                if c.state not in self.states:
                    raise ValueError("call state %r unknown" % (c.state,))
                if c.instr.kind == "up" and r.child_no == 0:
                    raise ValueError("up-instruction at child number 0 in %r"
                                     % (r,))
                if c.instr.kind == "down" and c.instr.index > rank:
                    raise ValueError("down_%d exceeds rank of %r"
                                     % (c.instr.index, r.symbol))
                continue
            if self.output_alphabet.rank(node.label) != len(node.children):
                raise ValueError("output arity mismatch at %r in %r"
                                 % (node.label, r))
            stack.extend(reversed(node.children))
        walked.add(key)

    def rules_at(self, state, symbol, child_no):
        return self._index.get((state, symbol, child_no), [])

    # -- text format --------------------------------------------------------

    def format(self, test_names=None):
        """Serialize to the sectioned text format.  ``test_names`` maps test
        objects (by identity) to names; unnamed tests are an error."""
        # states in order of first appearance in the rules, so that the
        # text does not depend on string hashing
        order = list(dict.fromkeys(
            q for r in self.rules for q in [r.state] + [
                c.state for c in r.calls()]))
        order += sorted(self.states.difference(order), key=repr)
        names = _state_names(order)
        lines = ["input:"]
        lines.append(self.input_alphabet.format().rstrip("\n"))
        lines.append("output:")
        lines.append(self.output_alphabet.format().rstrip("\n"))
        lines.append("states: " + " ".join(names[q] for q in order))
        lines.append("initial: " + " ".join(
            names[q] for q in order if q in self.initials))
        lines.append("rules:")
        for r in self.rules:
            head = [names[r.state], r.symbol, str(r.child_no)]
            if r.test is not None:
                by_id = {id(t): n for t, n in (test_names or {}).items()}
                if id(r.test) not in by_id:
                    raise ValueError("no name for test %r" % (r.test,))
                head.append(by_id[id(r.test)])
            lines.append("<%s> -> %s" % (", ".join(head),
                                         _format_rhs(r.rhs, names)))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text, tests=None):
        """Parse the sectioned text format; ``tests`` maps names to
        NodeTest objects for the optional fourth lhs field."""
        tests = tests or {}
        section = None
        blocks = {"input": [], "output": []}
        states, initials, rule_lines = [], [], []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("input:", "output:", "rules:"):
                section = line[:-1]
                continue
            if line.startswith("states:"):
                states = line[len("states:"):].split()
                continue
            if line.startswith("initial:"):
                initials = line[len("initial:"):].split()
                continue
            if section in ("input", "output"):
                blocks[section].append(line)
            elif section == "rules":
                rule_lines.append(line)
            else:
                raise ValueError("unexpected line %r" % line)
        inp = RankedAlphabet.parse("\n".join(blocks["input"]))
        outp = RankedAlphabet.parse("\n".join(blocks["output"]))
        rules = []
        for line in rule_lines:
            head, _, rhs_text = line.partition("->")
            head = head.strip()
            if not (head.startswith("<") and head.endswith(">")):
                raise ValueError("bad rule head %r" % line)
            parts = [p.strip() for p in head[1:-1].split(",")]
            if len(parts) not in (3, 4):
                raise ValueError("rule head needs 3 or 4 fields: %r" % line)
            q, sym, j = parts[0], parts[1], int(parts[2])
            test = None
            if len(parts) == 4:
                if parts[3] not in tests:
                    raise ValueError("unknown test name %r" % parts[3])
                test = tests[parts[3]]
            rules.append(Rule(q, sym, j, test,
                              _parse_term(rhs_text, outp, _read_call)))
        return cls(inp, outp, states, initials, rules)


def _format_rhs(node, names=None):
    parts = []
    stack = [node]  # nodes still to write, and the text between them
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node.label, Call):
            c = node.label
            q = c.state if names is None else names[c.state]
            if c.instr.kind == "down":
                parts.append("(%s, down %d)" % (q, c.instr.index))
            else:
                parts.append("(%s, %s)" % (q, c.instr.kind))
        elif not node.children:
            parts.append(node.label)
        else:
            parts.append("%s(" % (node.label,))
            stack.append(")")
            for k, c in enumerate(reversed(node.children)):
                if k:
                    stack.append(", ")
                stack.append(c)
    return "".join(parts)


# A call leaf of the text format: (state, stay|up|down k)
_CALL_LEAF = re.compile(
    r"\(\s*([^\s(),]+)\s*,\s*(?:(stay|up)|down\s+(\d+))\s*\)")


def _read_call(text, pos):
    m = _CALL_LEAF.match(text, pos)
    if m is None:
        raise ParseError("expected a call (state, stay|up|down k)", pos)
    if m[2] is None:
        instr = down(int(m[3]))
    else:
        instr = STAY if m[2] == "stay" else UP
    return call(m[1], instr), m.end()


# ---------------------------------------------------------------------------
# Class flags

@dataclass(frozen=True)
class ClassFlags:
    deterministic: bool
    local: bool
    sub_testing: bool
    top_down: bool
    pruning: bool
    relabeling: bool


def marked_position_automaton(alphabet, symbol, child_no):
    """The automaton over the marked alphabet accepting exactly the marked
    trees whose marked node carries ``symbol`` and has the given child
    number (0 meaning the root)."""
    marked = MarkedAlphabet(alphabet)
    states = ["none", "just", "ok", "bad"]
    delta = {}
    for name in marked.symbols:
        base, bit = split_marked_name(name)
        rank = marked.rank(name)
        for combo in itertools.product(states, repeat=rank):
            key = (name, combo)
            hits = [(i, x) for i, x in enumerate(combo, 1)
                    if x in ("just", "ok")]
            if "bad" in combo or len(hits) > 1 or (bit == 1 and hits):
                delta[key] = "bad"
            elif bit == 1:
                delta[key] = "just" if base == symbol else "bad"
            elif hits:
                i, x = hits[0]
                if x == "ok":
                    delta[key] = "ok"
                else:
                    delta[key] = "ok" if i == child_no else "bad"
            else:
                delta[key] = "none"
    finals = {"ok"} | ({"just"} if child_no == 0 else set())
    return BottomUpAutomaton(marked, states, finals, delta, check_total=False)


def _joint_nonempty(auts):
    """Whether the intersection of the automata languages is nonempty:
    whether some reachable tuple of their states is final in each."""
    def step(sym, combo):
        return tuple(a.delta[(sym, tuple(c[i] for c in combo))]
                     for i, a in enumerate(auts))

    reach, _ = explore(auts[0].alphabet, step, math.inf, "joint product")
    return any(all(p in a.finals for p, a in zip(tup, auts)) for tup in reach)


def _product_disjoint(M, r1, r2):
    """Whether the automaton product proves the guards of two rules with
    the same (state, symbol, childNo) disjoint, where each guard is absent
    or has an automaton; an absent guard holds everywhere and takes no
    part in the product.  Two sub-tests with one transition table and no
    common final state need no product.  Raises KeyError where a partial
    automaton lacks a transition it reads."""
    t1, t2 = r1.test, r2.test
    if t1 is not None and t2 is not None and t1.subtest and t2.subtest \
            and t1.aut.finals.isdisjoint(t2.aut.finals) and (
                t1.aut.delta is t2.aut.delta or t1.aut.delta == t2.aut.delta):
        return True
    pos = marked_position_automaton(M.input_alphabet, r1.symbol, r1.child_no)
    return not _joint_nonempty([marked_automaton(t) for t in (t1, t2)
                                if t is not None] + [pos])


def _tests_disjoint(M, r1, r2, corpus_bound):
    """Whether two rules with the same (state, symbol, childNo) can never
    both be applicable: by the automaton product where it decides, else on
    the inputs of size at most ``corpus_bound``."""
    if all(r.test is None or r.test.aut is not None for r in (r1, r2)):
        try:
            return _product_disjoint(M, r1, r2)
        except KeyError:  # a partial automaton: the corpus decides
            pass
    for t in all_trees(M.input_alphabet, corpus_bound):
        for u, node in preorder(t):
            if node.label != r1.symbol or child_number(u) != r1.child_no:
                continue
            try:
                if eval_test(r1.test, t, u) and eval_test(r2.test, t, u):
                    return False
            except (KeyError, AlphabetError):  # a guard whose run raises
                pass  # does not hold here
    return True


def _overlap_record(M):
    """The pairs (r1, r2, overlap) of M's rules at one (state, symbol,
    childNo) key, by key in rule order, that ``_product_disjoint`` does
    not prove disjoint: overlap is True for a nonempty product (taken once
    per (symbol, childNo) for unguarded pairs), None for an oracle guard
    or a partial automaton, whose product raises KeyError.  Kept on M."""
    if M._overlaps is None:
        record, bare = {}, {}
        for key, group in M._index.items():
            for r1, r2 in itertools.combinations(group, 2):
                overlap = None
                if r1.test is None and r2.test is None:
                    if key[1:] not in bare:
                        bare[key[1:]] = not _product_disjoint(M, r1, r2)
                    overlap = bare[key[1:]]
                elif all(r.test is None or r.test.aut is not None
                         for r in (r1, r2)):
                    try:
                        overlap = not _product_disjoint(M, r1, r2)
                    except KeyError:
                        pass
                if overlap is not False:
                    record.setdefault(key, []).append((r1, r2, overlap))
        M._overlaps = record
    return M._overlaps


def is_local(M):
    """Whether no rule of M carries a test."""
    return all(r.test is None for r in M.rules)


def is_top_down(M):
    """Whether no rule of M moves up."""
    return all(c.instr.kind != "up" for r in M.rules for c in r.calls())


def is_pruning(M):
    """Whether every rule of M is a move down or an output rule whose
    calls all move down, to increasing children."""
    for r in M.rules:
        if r.kind == "move":
            if r.rhs.label.instr.kind != "down":
                return False
        elif r.kind == "output":
            idxs = []
            for c in r.rhs.children:
                if c.label.instr.kind != "down":
                    return False
                idxs.append(c.label.instr.index)
            if not all(a < b for a, b in zip(idxs, idxs[1:])):
                return False
        else:
            return False
    return True


def is_relabeling(M):
    """Whether every rule of M outputs one symbol whose children are the
    calls down to each input child in order."""
    def rule_relabeling(r):
        if r.kind != "output":
            return False
        rank = M.input_alphabet.rank(r.symbol)
        if len(r.rhs.children) != rank:
            return False
        return all(c.label.instr == down(i)
                   for i, c in enumerate(r.rhs.children, 1))
    return all(rule_relabeling(r) for r in M.rules)


def classify(M, corpus_bound=6):
    """Compute the class flags of M by rule inspection; the determinism
    flag additionally needs pairwise test disjointness, read from the
    overlap record where its product decides and tried on a bounded input
    corpus otherwise."""
    deterministic = len(M.initials) == 1 and all(
        overlap is None and _tests_disjoint(M, r1, r2, corpus_bound)
        for pairs in _overlap_record(M).values()
        for r1, r2, overlap in pairs)
    return ClassFlags(
        deterministic=deterministic, local=is_local(M),
        sub_testing=all(r.test is None or r.test.subtest for r in M.rules),
        top_down=is_top_down(M), pruning=is_pruning(M),
        relabeling=is_relabeling(M))


# ---------------------------------------------------------------------------
# Configuration grammar and bounded enumeration

def _rule_reader(M, t, ix):
    """``applicable(q, i, u)``: the rules of M applicable at configuration
    (q, u) of t, where u is node i of t's index ``ix``.  Each automaton or
    sub-test guard gets one verdict lookup (``node_verdicts``) the first
    time a rule asks about it, read by node id: the guards over one
    transition table share one bottom-up run, and an automaton guard
    builds its top-down contexts only on the root paths of the nodes
    asked about.  Oracle guards are evaluated per node (``test.eval``, on
    the address the index gave), and so is a node without a verdict,
    where the evaluation raises its own exception."""
    tables, runs = {}, {}

    def holds(test, i, u):
        if test is None:
            return True
        if test.aut is None:
            return test.eval(t, u)
        if test not in tables:
            tables[test] = node_verdicts(test, ix, runs)
        verdict = tables[test][i]
        return test.eval(t, u) if verdict is None else verdict

    rules_at, nodes, child_nos = M._index.get, ix.nodes, ix.child_nos

    def applicable(q, i, u):
        return [r for r in rules_at((q, nodes[i].label, child_nos[i]), ())
                if holds(r.test, i, u)]
    return applicable


def _applicable_all(M, t):
    """Yield ((q, u), the rules applicable there) for every configuration
    of M on t, addresses in pre-order and states in ``M.states`` order."""
    ix = TreeIndex(t)
    applicable = _rule_reader(M, t, ix)
    for i, u in enumerate(ix.addrs):
        for q in M.states:
            yield (q, u), applicable(q, i, u)


def config_grammar(M, t):
    """The regular tree grammar over output terminals whose nonterminals
    are the configurations (state, address) of M on t and whose language is
    exactly the set of outputs of M on t."""
    nts = set()
    rules = []
    for cfg, rs in _applicable_all(M, t):
        nts.add(cfg)
        rules.extend((cfg, _plug(r.rhs, map(leaf, _successors(r, t, cfg[1]))))
                     for r in rs)
    initials = {(q0, ()) for q0 in M.initials}
    return RegularTreeGrammar(nts, M.output_alphabet, initials, rules)


def config_rules(M, t):
    """The configuration grammar of M on t read straight off the rules,
    without building a rhs: (productions, chains, initials).  Each
    applicable rule r, k-th at configuration c, gives the depth-1
    productions (lhs, symbol, kids) of ``r.productions()``, its root
    named c, its other output nodes n named (c, k, n) and its calls the
    successor configurations; a move rule gives the chain edge (c, its
    successor) instead."""
    prods, chains = [], []
    for cfg, rs in _applicable_all(M, t):
        for k, r in enumerate(rs):
            succ = _successors(r, t, cfg[1])
            if r.kind == "move":
                chains.append((cfg, succ[0]))
                continue
            for n, sym, kids in r.productions():
                prods.append((
                    (cfg, k, n) if n else cfg, sym,
                    tuple(succ[i] if is_call else (cfg, k, i)
                          for is_call, i in kids)))
    return prods, chains, {(q0, ()) for q0 in M.initials}


def _plug(rhs, items):
    """rhs with its call leaves replaced by ``items`` in pre-order."""
    nxt = iter(items).__next__
    return substitute_leaves(
        rhs, lambda c: nxt() if isinstance(c, Call) else None)


def enumerate_outputs(M, t, max_output_size, max_chain_len=None):
    """Bounded-semantics oracle: all outputs of M on t of size at most
    ``max_output_size`` reachable with move-rule runs of length at most
    ``max_chain_len`` between output rules.  The default chain bound
    #states * |t| covers every loop-free run and hence every output."""
    from .regular import enumerate_grammar
    if max_chain_len is None:
        max_chain_len = len(M.states) * t.size
    g = config_grammar(M, t)
    return enumerate_grammar(g, max_output_size, max_chain_len)


# ---------------------------------------------------------------------------
# Deterministic evaluation

def _successors(rule, t, u):
    """Successor configurations of applying ``rule`` at node u, in rhs
    pre-order, with repetition.  Only down calls need the node, walked to
    once; an inapplicable call raises TreeError as ``core.navigate`` does."""
    found, rank = [], None
    for c in rule.calls():
        instr = c.instr
        if instr.kind == "stay":
            found.append((c.state, u))
        elif instr.kind == "up":
            if not u:
                raise TreeError("up at the root")
            found.append((c.state, u[:-1]))
        else:
            if rank is None:
                rank = len(subtree_at(t, u).children)
            if instr.index > rank:
                raise TreeError("down_%d at a node of rank %d"
                                % (instr.index, rank))
            found.append((c.state, u + (instr.index,)))
    return found


class _Computation:
    """The configurations of M on t that one depth-first search from each
    root, a (state, node id) pair of t's ``TreeIndex``, reaches.  Each
    yield of a root or ``_successors`` is one lookup in a dict that
    numbers a configuration when first met, its node id read off the
    yielding node; all else reads by number.  ``cfgs[n]`` is (state,
    address); once n is entered, ``rules[n]`` is the rule chosen there
    (or None), ``succs[n]`` its successors in rhs pre-order, ``status[n]``
    whether it is productive (None while on the search path).  ``order``
    is the post-order of the productive ones, ``roots`` each root's number.

    Two applicable rules raise ContractError.  Only the keys of M's
    overlap record can be ambiguous, so they are checked at every node up
    front, in pre-order and in ``M.states`` order.

    A configuration is productive iff it has a chosen rule, all of its
    successors are productive, and it does not reach itself.  A reached
    configuration without a rule, or an edge back to one on the search
    path, makes the configuration that reaches it unproductive, and the
    search leaves its remaining successors alone."""

    __slots__ = ("cfgs", "rules", "succs", "status", "order", "roots")

    def __init__(self, M, t, roots):
        ix = TreeIndex(t)
        applicable = _rule_reader(M, t, ix)
        overlaps = _overlap_record(M)

        def choose(cfg, i):  # cfg at node i
            cands = applicable(cfg[0], i, cfg[1])
            if len(cands) > 1:
                raise ContractError(
                    "two rules applicable at configuration %r" % (cfg,))
            return cands[0] if cands else None

        for i, u in enumerate(ix.addrs if overlaps else ()):
            for q in M.states:
                if (q, ix.nodes[i].label, ix.child_nos[i]) in overlaps:
                    choose((q, u), i)

        cfgs, rules, succs, status = [], {}, {}, {}
        number, nodes, kids, parents = {}, [], ix.kids, ix.parents
        self.cfgs, self.rules, self.succs = cfgs, rules, succs
        self.status, self.order, self.roots = status, [], []
        path = []  # [configuration number, its successors, next index]

        def add(cfg, i):  # cfg at node i, met for the first time
            number[cfg] = len(cfgs)
            cfgs.append(cfg)
            nodes.append(i)
            return len(cfgs) - 1

        def enter(n):
            cfg, i = cfgs[n], nodes[n]
            rule = rules[n] = choose(cfg, i)
            if rule is None:
                status[n] = False
                return
            status[n] = None
            ss = succs[n] = []
            for c, s in zip(rule.calls(), _successors(rule, t, cfg[1])):
                m = number.get(s)
                if m is None:
                    kind = c.instr.kind
                    m = add(s, i if kind == "stay" else parents[i]
                            if kind == "up" else kids[i][c.instr.index - 1])
                ss.append(m)
            path.append([n, ss, 0])

        for q, i in roots:
            cfg = (q, ix.addrs[i] if i else ())
            root = number[cfg] if cfg in number else add(cfg, i)
            self.roots.append(root)
            if root in status:
                continue
            enter(root)
            while path:
                frame = path[-1]
                n, ss, k = frame
                if k < len(ss):
                    s = ss[k]
                    if s not in status:
                        enter(s)
                        if status[s] is None:
                            continue  # descend; s is decided when popped
                    if status[s]:
                        frame[2] = k + 1
                        continue
                    status[n] = False  # no rule, unproductive, or a cycle
                else:
                    status[n] = True
                    self.order.append(n)
                path.pop()


def _values(tab):
    """The output tree of every productive configuration of ``tab`` (a
    ``_Computation``), by number (None at the others), and the step count
    of building them: a rule instantiation per configuration, a chain
    edge per move rule, and a constructed node per output symbol.
    Repeated configurations share their output subtree."""
    value, steps = [None] * len(tab.cfgs), 0
    for n in tab.order:  # every successor comes first
        rule = tab.rules[n]
        # the successors are listed in the rhs pre-order of their calls
        value[n] = _plug(rule.rhs, [value[s] for s in tab.succs[n]])
        # a rule instantiation, a chain edge for a move, the output nodes
        steps += 1 + (rule.kind == "move") + rule.output_symbol_count()
    return value, steps


def eval_deterministic(M, t):
    """Evaluate a deterministic transducer on t.

    Returns (output tree or None, step count).  The output tree shares
    structure across repeated configurations, so its explicit size may be
    exponential in the work done.  Steps count rule instantiations,
    chain-edge traversals, and constructed output nodes.  Rules and guards
    are read only at the configurations reachable from the initial one;
    ambiguity (ContractError) only at the overlap record's keys, on all t.
    """
    if len(M.initials) != 1:
        raise ContractError("deterministic evaluation needs one initial state")
    tab = _Computation(M, t, [(next(iter(M.initials)), 0)])
    if not tab.status[tab.roots[0]]:
        return None, 0
    value, steps = _values(tab)
    return value[tab.roots[0]], steps


# ---------------------------------------------------------------------------
# Streaming evaluation

def eval_streaming(M, t):
    """Evaluate a deterministic transducer by replaying its computation in
    leftmost-derivation order with a stack of pending configurations and
    cursor restores; output symbols are emitted in pre-order.

    Returns (output tree or None, maximum stack length).  Output rules are
    internally normalized to stay-only calls first, so the stack holds
    only states, each at its node, and a marker where a move returns.
    Rules, guards and ambiguity are read as in ``eval_deterministic``.
    """
    if len(M.initials) != 1:
        raise ContractError("streaming evaluation needs one initial state")
    N = normalize_outputs_stay(normalize_general(M))
    N._overlaps = _overlap_record(M)  # the keys they add hold one rule each
    tab = _Computation(N, t, [(next(iter(N.initials)), 0)])
    if not tab.status[tab.roots[0]]:
        return None, 0
    rules, succs = tab.rules, tab.succs
    emitted, stack, max_len = [], [tab.roots[0]], 1
    while stack:
        n = stack.pop()
        if n is None:  # a cursor restore
            continue
        rule = rules[n]
        if rule.kind == "move":
            if rule.rhs.label.instr.kind != "stay":
                stack.append(None)
            stack.append(succs[n][0])
        else:
            emitted.append(rule.rhs.label)
            stack.extend(reversed(succs[n]))
        max_len = max(max_len, len(stack))
    try:
        return tree_from_preorder(emitted, N.output_alphabet.rank), max_len
    except ValueError:
        raise ContractError("emission stream is not a single tree") from None


# ---------------------------------------------------------------------------
# Single-use check and productive-node tracing

def check_single_use(M, corpus):
    """Whether M visits no input node twice in the same state, over the
    unique derivations on the given corpus trees.  Returns (flag,
    counterexample) where the counterexample is (tree, state, address)."""
    for t in sorted(corpus):
        tab = _Computation(M, t, [(q0, 0) for q0 in M.initials])
        for root in tab.roots:
            if not tab.status[root]:
                continue
            # derivation multiplicities, pushed from each configuration to
            # its successors in reverse post-order
            mult = [0] * len(tab.cfgs)
            mult[root] = 1
            for n in reversed(tab.order):
                for s in tab.succs[n]:
                    mult[s] += mult[n]
            for n in tab.order:
                if mult[n] >= 2:
                    return False, (t,) + tab.cfgs[n]
    return True, None


def trace_productive(M, t):
    """The frozenset of input nodes at which the one deterministic
    computation of M (as in ``eval_deterministic``) applies a rule that
    emits at least one output symbol."""
    tab = _Computation(M, t, [(q0, 0) for q0 in M.initials])
    live = {n for n in tab.roots if tab.status[n]}
    if not live:
        raise ContractError("no accepting computation on this input")
    # the configurations reachable from a productive initial one, found in
    # reverse post-order, where every predecessor comes first
    nodes = set()
    for n in reversed(tab.order):
        if n in live:
            live.update(tab.succs[n])
            if tab.rules[n].output_symbol_count() > 0:
                nodes.add(tab.cfgs[n][1])
    return frozenset(nodes)


# ---------------------------------------------------------------------------
# Normalizers

def normalize_general(M):
    """Rewrite general rules into move and output rules by giving every
    output node of a general rhs its own state ("gen", rule index, the
    node's pre-order number), entered with a stay-call.
    Preserves determinism and the sub-testing, local, top-down, and
    single-use properties."""
    if all(r.kind != "general" for r in M.rules):
        return M
    states = set(M.states)
    rules = []
    for idx, r in enumerate(M.rules):
        if r.kind != "general":
            rules.append(r)
            continue
        # output node k of the rhs gets the state ("gen", idx, k)
        calls = r.calls()
        for k, sym, kids in r.productions():
            states.add(("gen", idx, k))
            rhs = [Tree(calls[i], ()) if is_call
                   else call(("gen", idx, i), STAY) for is_call, i in kids]
            rules.append(Rule(("gen", idx, k), r.symbol, r.child_no,
                              r.test, Tree(sym, rhs)))
        rules.append(Rule(r.state, r.symbol, r.child_no, r.test,
                          call(("gen", idx, 0), STAY)))
    return Transducer(M.input_alphabet, M.output_alphabet, states,
                      M.initials, rules)


def normalize_outputs_stay(M):
    """Rewrite output rules so that all their calls use the stay
    instruction, moving each non-stay call into a fresh intermediate state.
    Preserves determinism and the sub-testing, local, top-down, and
    single-use properties (not pruning or relabeling)."""
    if all(r.kind != "output"
           or all(c.label.instr == STAY for c in r.rhs.children)
           for r in M.rules):
        return M
    states = set(M.states)
    rules = []
    for idx, r in enumerate(M.rules):
        if r.kind != "output" or all(c.label.instr == STAY
                                     for c in r.rhs.children):
            rules.append(r)
            continue
        kids = []
        for i, c in enumerate(r.rhs.children, 1):
            if c.label.instr == STAY:
                kids.append(c)
            else:
                name = ("sos", idx, i)
                states.add(name)
                rules.append(Rule(name, r.symbol, r.child_no, r.test,
                                  Tree(c.label, ())))
                kids.append(call(name, STAY))
        rules.append(Rule(r.state, r.symbol, r.child_no, r.test,
                          Tree(r.rhs.label, kids)))
    return Transducer(M.input_alphabet, M.output_alphabet, states,
                      M.initials, rules)
