"""Tree-walking transducers: rule syntax and validation, class predicates,
the per-input configuration grammar, and three evaluation engines.

A transducer walks a single input tree with a finite-state head.  A rule
fires at a configuration (state, node) when the node's label, its child
number, and the rule's node test all match; the right-hand side is a tree
over the output alphabet whose leaves may be calls (state, instruction)
that continue the walk at a neighbouring node.  The derivable output trees
of an input t are exactly the language of the regular tree grammar built
by ``config_grammar``.
"""

import itertools
from dataclasses import dataclass

from .core import (
    MarkedAlphabet, RankedAlphabet, Tree, all_trees, child_number, down,
    leaf, navigate, preorder, split_marked_name, subtree_at,
    Instruction, STAY, UP,
)
from .regular import (
    AutomatonTest, BottomUpAutomaton, NodeTest, RegularTreeGrammar, SubTest,
    eval_test, eval_test_all, to_automaton_test,
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

    __slots__ = ("state", "symbol", "child_no", "test", "rhs")

    def __init__(self, state, symbol, child_no, test, rhs):
        self.state = state
        self.symbol = symbol
        self.child_no = child_no
        self.test = test
        self.rhs = rhs

    @property
    def kind(self):
        if isinstance(self.rhs.label, Call):
            return "move"
        if all(isinstance(c.label, Call) for c in self.rhs.children):
            return "output"
        return "general"

    def calls(self):
        """All Call leaves of the rhs, in pre-order, with repetition."""
        found = []
        stack = [self.rhs]
        while stack:
            n = stack.pop()
            if isinstance(n.label, Call):
                found.append(n.label)
            else:
                stack.extend(reversed(n.children))
        return found

    def output_symbol_count(self):
        count = 0
        stack = [self.rhs]
        while stack:
            n = stack.pop()
            if not isinstance(n.label, Call):
                count += 1
                stack.extend(n.children)
        return count

    def __repr__(self):
        return "Rule(<%s,%s,%d%s> -> %s)" % (
            self.state, self.symbol, self.child_no,
            "" if self.test is None else ",test", _format_rhs(self.rhs))


class Transducer:
    """M = (input alphabet, output alphabet, states, initials, rules)."""

    __slots__ = ("input_alphabet", "output_alphabet", "states", "initials",
                 "rules", "_index")

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
        for r in self.rules:
            self._validate_rule(r)
            self._index.setdefault((r.state, r.symbol, r.child_no), []).append(r)

    def _validate_rule(self, r):
        if r.state not in self.states:
            raise ValueError("rule state %r unknown" % (r.state,))
        rank = self.input_alphabet.rank(r.symbol)
        if not 0 <= r.child_no <= self.input_alphabet.max_rank:
            raise ValueError("child number %r out of range" % (r.child_no,))
        if r.test is not None and not isinstance(r.test, NodeTest):
            raise ValueError("bad node test %r" % (r.test,))

        def check(node):
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
                return
            if self.output_alphabet.rank(node.label) != len(node.children):
                raise ValueError("output arity mismatch at %r in %r"
                                 % (node.label, r))
            for c in node.children:
                check(c)

        check(r.rhs)

    def rules_at(self, state, symbol, child_no):
        return self._index.get((state, symbol, child_no), [])

    def applicable_rules(self, state, t, u):
        """The rules applicable to configuration (state, u) on tree t."""
        node = subtree_at(t, u)
        out_ = []
        for r in self.rules_at(state, node.label, child_number(u)):
            if eval_test(r.test, t, u):
                out_.append(r)
        return out_

    # -- text format --------------------------------------------------------

    def format(self, test_names=None):
        """Serialize to the sectioned text format.  ``test_names`` maps test
        objects (by identity) to names; unnamed tests are an error."""
        names = {}
        for q in sorted(self.states, key=repr):
            names[q] = q if isinstance(q, str) else "s%d" % len(names)
        lines = ["input:"]
        lines.append(self.input_alphabet.format().rstrip("\n"))
        lines.append("output:")
        lines.append(self.output_alphabet.format().rstrip("\n"))
        lines.append("states: " + " ".join(
            names[q] for q in sorted(self.states, key=repr)))
        lines.append("initial: " + " ".join(
            names[q] for q in sorted(self.initials, key=repr)))
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
                              _parse_rhs(rhs_text.strip(), outp)))
        return cls(inp, outp, states, initials, rules)


def _format_rhs(node, names=None):
    if isinstance(node.label, Call):
        c = node.label
        q = c.state if names is None else names[c.state]
        if c.instr.kind == "down":
            return "(%s, down %d)" % (q, c.instr.index)
        return "(%s, %s)" % (q, c.instr.kind)
    if not node.children:
        return node.label
    return "%s(%s)" % (node.label,
                       ", ".join(_format_rhs(c, names) for c in node.children))


def _parse_rhs(text, output_alphabet):
    pos = [0]
    n = len(text)

    def skip_ws():
        while pos[0] < n and text[pos[0]].isspace():
            pos[0] += 1

    def parse_name():
        start = pos[0]
        while pos[0] < n and text[pos[0]] not in "(),":
            if text[pos[0]].isspace():
                break
            pos[0] += 1
        if pos[0] == start:
            raise ValueError("expected a name at %d in %r" % (start, text))
        return text[start:pos[0]]

    def expect(ch):
        skip_ws()
        if pos[0] >= n or text[pos[0]] != ch:
            raise ValueError("expected %r at %d in %r" % (ch, pos[0], text))
        pos[0] += 1

    def parse_item():
        skip_ws()
        if pos[0] < n and text[pos[0]] == "(":
            # a call: (state, instr)
            pos[0] += 1
            skip_ws()
            state = parse_name()
            expect(",")
            skip_ws()
            word = parse_name()
            if word == "down":
                skip_ws()
                idx = parse_name()
                instr = down(int(idx))
            elif word == "stay":
                instr = STAY
            elif word == "up":
                instr = UP
            else:
                raise ValueError("bad instruction %r in %r" % (word, text))
            expect(")")
            return call(state, instr)
        sym = parse_name()
        rank = output_alphabet.rank(sym)
        children = []
        skip_ws()
        if pos[0] < n and text[pos[0]] == "(":
            pos[0] += 1
            skip_ws()
            while pos[0] < n and text[pos[0]] != ")":
                children.append(parse_item())
                skip_ws()
                if pos[0] < n and text[pos[0]] == ",":
                    pos[0] += 1
                    skip_ws()
            expect(")")
        if len(children) != rank:
            raise ValueError("output symbol %r has rank %d, got %d children"
                             % (sym, rank, len(children)))
        return Tree(sym, children)

    item = parse_item()
    skip_ws()
    if pos[0] != n:
        raise ValueError("trailing input in rhs %r" % text)
    return item


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
    finitary_asserted: bool


def _rule_instructions(r):
    return [c.instr for c in r.calls()]


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


def _automaton_like(test):
    return test is None or isinstance(test, (AutomatonTest, SubTest))


def _joint_nonempty(auts):
    """Whether the intersection of the automata languages is nonempty,
    explored over reachable state tuples only (worklist construction)."""
    alphabet = auts[0].alphabet
    reach = set()
    fresh = []
    hit = []

    def record(sym, combo):
        tup = tuple(a.delta[(sym, tuple(c[i] for c in combo))]
                    for i, a in enumerate(auts))
        if tup not in reach:
            reach.add(tup)
            fresh.append(tup)
            if all(p in a.finals for p, a in zip(tup, auts)):
                hit.append(tup)

    for sym in alphabet.symbols:
        if alphabet.rank(sym) == 0:
            record(sym, ())
    old = []
    while fresh and not hit:
        frontier, fresh = fresh, []
        known = old + frontier
        for sym in alphabet.symbols:
            rank = alphabet.rank(sym)
            if rank == 0:
                continue
            for i in range(rank):
                for combo in itertools.product(
                        *([old] * i + [frontier] + [known] * (rank - 1 - i))):
                    record(sym, combo)
        old = known
    return bool(hit)


def _tests_disjoint(M, r1, r2, corpus_bound):
    """Whether two rules with the same (state, symbol, childNo) can never
    both be applicable."""
    if _automaton_like(r1.test) and _automaton_like(r2.test):
        a1 = to_automaton_test(r1.test, M.input_alphabet).aut
        a2 = to_automaton_test(r2.test, M.input_alphabet).aut
        pos = marked_position_automaton(M.input_alphabet, r1.symbol,
                                        r1.child_no)
        return not _joint_nonempty([a1, a2, pos])
    for t in all_trees(M.input_alphabet, corpus_bound):
        for u, node in preorder(t):
            if node.label != r1.symbol or child_number(u) != r1.child_no:
                continue
            if eval_test(r1.test, t, u) and eval_test(r2.test, t, u):
                return False
    return True


def classify(M, finitary_asserted=False, corpus_bound=6):
    """Compute the class flags of M by rule inspection; the determinism
    flag additionally needs pairwise test disjointness, decided exactly for
    automaton-backed tests and on a bounded input corpus otherwise."""
    local = all(r.test is None for r in M.rules)
    sub_testing = all(r.test is None or r.test.subtest for r in M.rules)
    top_down = all(i.kind != "up"
                   for r in M.rules for i in _rule_instructions(r))

    def rule_pruning(r):
        if r.kind == "move":
            return r.rhs.label.instr.kind == "down"
        if r.kind != "output":
            return False
        idxs = []
        for c in r.rhs.children:
            if c.label.instr.kind != "down":
                return False
            idxs.append(c.label.instr.index)
        return all(a < b for a, b in zip(idxs, idxs[1:]))

    pruning = top_down and all(rule_pruning(r) for r in M.rules)

    def rule_relabeling(r):
        if r.kind != "output":
            return False
        rank = M.input_alphabet.rank(r.symbol)
        if len(r.rhs.children) != rank:
            return False
        return all(c.label.instr == down(i)
                   for i, c in enumerate(r.rhs.children, 1))

    relabeling = all(rule_relabeling(r) for r in M.rules)

    deterministic = len(M.initials) == 1
    if deterministic:
        for group in M._index.values():
            for r1, r2 in itertools.combinations(group, 2):
                if not _tests_disjoint(M, r1, r2, corpus_bound):
                    deterministic = False
                    break
            if not deterministic:
                break
    return ClassFlags(deterministic=deterministic, local=local,
                      sub_testing=sub_testing, top_down=top_down,
                      pruning=pruning, relabeling=relabeling,
                      finitary_asserted=finitary_asserted)


# ---------------------------------------------------------------------------
# Configuration grammar and bounded enumeration

def _applicable_all(M, t):
    """Yield ((q, u), the rules applicable there) for every configuration
    of M on t, addresses in pre-order and states in ``M.states`` order.

    Each automaton or sub-test guard is evaluated for all nodes of t at
    once, the first time a rule asks about it (``eval_test_all``).  Oracle
    guards go to ``eval_test`` per node, and so does a node the table
    leaves out, where ``eval_test`` raises its own exception."""
    tables = {}

    def holds(test, u):
        if test is None:
            return True
        if test not in tables:
            tables[test] = eval_test_all(test, t) or {}
        verdict = tables[test].get(u)
        return eval_test(test, t, u) if verdict is None else verdict

    for u, node in preorder(t):
        j = child_number(u)
        for q in M.states:
            yield (q, u), [r for r in M.rules_at(q, node.label, j)
                           if holds(r.test, u)]


def config_grammar(M, t):
    """The regular tree grammar over output terminals whose nonterminals
    are the configurations (state, address) of M on t and whose language is
    exactly the set of outputs of M on t."""
    nts = set()
    rules = []
    for cfg, rs in _applicable_all(M, t):
        nts.add(cfg)
        rules.extend((cfg, _instantiate(r.rhs, t, cfg[1])) for r in rs)
    initials = {(q0, ()) for q0 in M.initials}
    return RegularTreeGrammar(nts, M.output_alphabet, initials, rules)


def _instantiate(rhs, t, u):
    if isinstance(rhs.label, Call):
        c = rhs.label
        return leaf((c.state, navigate(t, u, c.instr)))
    return Tree(rhs.label, [_instantiate(ch, t, u) for ch in rhs.children])


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

def _choice_map(M, t, run=None):
    """Map each configuration to its chosen applicable rule.

    With ``run`` absent the choice must be unique (two applicable rules
    raise ContractError); otherwise ``run`` maps configurations to the rule
    to apply and is validated against applicability.
    """
    rmap = {}
    for cfg, cands in _applicable_all(M, t):
        if run is not None and cfg in run:
            if run[cfg] not in cands:
                raise ContractError(
                    "run chooses an inapplicable rule at %r" % (cfg,))
            rmap[cfg] = run[cfg]
        elif len(cands) > 1:
            if run is not None:
                raise ContractError(
                    "ambiguous configuration %r needs a run choice" % (cfg,))
            raise ContractError(
                "two rules applicable at configuration %r" % (cfg,))
        elif cands:
            rmap[cfg] = cands[0]
    return rmap


def _successors(rule, t, u):
    """Successor configurations of applying ``rule`` at node u, in rhs
    pre-order, with repetition."""
    return [(c.state, navigate(t, u, c.instr)) for c in rule.calls()]


def _productive_from(roots, rmap, t):
    """Demand-driven productivity: one iterative depth-first search from
    the ``roots`` over the successors of the rules chosen in ``rmap``.

    A configuration is productive iff it has a chosen rule, all of its
    successors are productive, and it does not reach itself.  Successors
    are computed only for configurations the search reaches.  A reached
    configuration without a rule, or an edge back to a configuration on
    the current search path, makes the configuration that reaches it
    unproductive, and the search leaves its remaining successors alone.

    Returns (productive set, post-order of the productive configurations
    reached, successor lists of the configurations expanded).  Every
    successor of a productive configuration precedes it in the post-order.
    """
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
                        continue  # descend; s is decided when it is popped
                if status[s]:
                    frame[2] = i + 1
                    continue
                status[cfg] = False  # no rule, unproductive, or a cycle
            else:
                status[cfg] = True
                prod.add(cfg)
                order.append(cfg)
            path.pop()
    return prod, order, succs


def _values(rmap, order, succs):
    """The output tree of every configuration in ``order`` (a post-order of
    productive configurations) and the step count of building them: a rule
    instantiation per configuration, a chain edge per move rule, and a
    constructed node per output symbol.  Repeated configurations share
    their output subtree."""
    value = {}
    steps = 0
    for cfg in order:
        rule = rmap[cfg]
        steps += 1  # rule instantiation
        if rule.kind == "move":
            steps += 1  # chain edge
            value[cfg] = value[succs[cfg][0]]
            continue
        # the successors are listed in the rhs pre-order of their calls
        nxt = iter(succs[cfg]).__next__
        counter = [0]

        def build(node):
            if isinstance(node.label, Call):
                return value[nxt()]
            counter[0] += 1
            return Tree(node.label, [build(c) for c in node.children])

        value[cfg] = build(rule.rhs)
        steps += counter[0]
    return value, steps


def eval_deterministic(M, t):
    """Evaluate a deterministic transducer on t.

    Returns (output tree or None, step count).  The output tree shares
    structure across repeated configurations, so its explicit size may be
    exponential in the work done.  Steps count rule instantiations,
    chain-edge traversals, and constructed output nodes.  Only the
    configurations reachable from the initial one are explored.
    """
    if len(M.initials) != 1:
        raise ContractError("deterministic evaluation needs one initial state")
    init = (next(iter(M.initials)), ())
    rmap = _choice_map(M, t)
    prod, order, succs = _productive_from([init], rmap, t)
    if init not in prod:
        return None, 0
    value, steps = _values(rmap, order, succs)
    return value[init], steps


# ---------------------------------------------------------------------------
# Streaming evaluation

def _inverse_instruction(instr, u):
    """The instruction undoing ``instr`` taken at node u."""
    if instr.kind == "up":
        return down(child_number(u))
    if instr.kind == "down":
        return UP
    return STAY


def eval_streaming(M, t):
    """Evaluate a deterministic transducer by simulating the leftmost
    derivation with a tree cursor and a stack of pending states and cursor
    restores; output symbols are emitted in pre-order.

    Returns (output tree or None, maximum stack length).  Output rules are
    internally normalized to stay-only calls first, so the stack holds
    only states and single-step restore instructions.
    """
    if len(M.initials) != 1:
        raise ContractError("streaming evaluation needs one initial state")
    N = normalize_outputs_stay(normalize_general(M))
    q0 = next(iter(N.initials))
    rmap = _choice_map(N, t)
    prod, _, _ = _productive_from([(q0, ())], rmap, t)
    if (q0, ()) not in prod:
        return None, 0
    emitted = []
    u = ()
    stack = [("state", q0)]
    max_len = 1
    while stack:
        kind, x = stack.pop()
        if kind == "restore":
            u = navigate(t, u, x)
            continue
        rule = rmap[(x, u)]
        if rule.kind == "move":
            c = rule.rhs.label
            if c.instr.kind != "stay":
                stack.append(("restore", _inverse_instruction(c.instr, u)))
                u = navigate(t, u, c.instr)
            stack.append(("state", c.state))
        else:
            emitted.append(rule.rhs.label)
            for child in reversed(rule.rhs.children):
                stack.append(("state", child.label.state))
        if len(stack) > max_len:
            max_len = len(stack)
    # rebuild the tree from its pre-order emission with an explicit stack
    # of unfinished nodes [symbol, rank, children so far]
    finished = []
    pending = []
    for sym in emitted:
        pending.append([sym, N.output_alphabet.rank(sym), []])
        while pending and len(pending[-1][2]) == pending[-1][1]:
            sym, _, kids = pending.pop()
            (pending[-1][2] if pending else finished).append(Tree(sym, kids))
    if pending or len(finished) != 1:
        raise ContractError("emission stream is not a single tree")
    return finished[0], max_len


# ---------------------------------------------------------------------------
# Single-use check and productive-node tracing

def check_single_use(M, corpus):
    """Whether M visits no input node twice in the same state, over the
    unique derivations on the given corpus trees.  Returns (flag,
    counterexample) where the counterexample is (tree, state, address)."""
    for t in sorted(corpus):
        rmap = _choice_map(M, t)
        roots = [(q0, ()) for q0 in M.initials]
        prod, order, succs = _productive_from(roots, rmap, t)
        for init in roots:
            if init not in prod:
                continue
            # derivation multiplicities, pushed from each configuration to
            # its successors in reverse post-order
            mult = dict.fromkeys(order, 0)
            mult[init] = 1
            for cfg in reversed(order):
                for s in succs[cfg]:
                    mult[s] += mult[cfg]
            for (q, u), m in mult.items():
                if m >= 2:
                    return False, (t, q, u)
    return True, None


@dataclass(frozen=True)
class TraceResult:
    productive_nodes: frozenset
    zero_productive: bool
    productive: bool


def trace_productive(M, t, run=None):
    """The input nodes at which the (chosen) accepting computation applies
    a rule that emits at least one output symbol.

    ``run`` optionally maps configurations to the rule to apply there; for
    deterministic M it may be omitted.  zero_productive holds when every
    leaf is productive; productive additionally needs every monadic node.
    """
    rmap = _choice_map(M, t, run)
    roots = [(q0, ()) for q0 in M.initials]
    prod, order, succs = _productive_from(roots, rmap, t)
    live = {cfg for cfg in roots if cfg in prod}
    if not live:
        raise ContractError("no accepting computation on this input")
    # the configurations reachable from a productive initial one, found in
    # reverse post-order, where every predecessor comes first
    nodes = set()
    for cfg in reversed(order):
        if cfg in live:
            live.update(succs[cfg])
            if rmap[cfg].output_symbol_count() > 0:
                nodes.add(cfg[1])
    leaves = []
    monadic = []
    for u, node in preorder(t):
        k = len(node.children)
        if k == 0:
            leaves.append(u)
        elif k == 1:
            monadic.append(u)
    zero = all(u in nodes for u in leaves)
    full = zero and all(u in nodes for u in monadic)
    return TraceResult(frozenset(nodes), zero, full)


# ---------------------------------------------------------------------------
# Normalizers

def normalize_general(M):
    """Rewrite general rules into move and output rules by giving every
    output node of a general rhs its own state, entered with a stay-call.
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

        def emit(node, path):
            name = ("gen", idx, path)
            states.add(name)
            kids = []
            for i, c in enumerate(node.children, 1):
                if isinstance(c.label, Call):
                    kids.append(Tree(c.label, ()))
                else:
                    kids.append(call(emit(c, path + (i,)), STAY))
            rules.append(Rule(name, r.symbol, r.child_no, r.test,
                              Tree(node.label, kids)))
            return name

        top = emit(r.rhs, ())
        rules.append(Rule(r.state, r.symbol, r.child_no, r.test,
                          call(top, STAY)))
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
