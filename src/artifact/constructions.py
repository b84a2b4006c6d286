"""Closure constructions on tree-walking transducers.

The operations here rewrite machines while preserving their semantics (or
a stated projection of it): test disjointification, stay removal, domain
and range restriction, look-around splitting, look-ahead conversion,
sequential composition in several regimes, uniformization, domain and
image automata, the two productivity phases (leaf pruning and monadic
chain contraction), and the linear-bounded pipeline factorization built
from them.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass

from .core import (
    MarkedAlphabet, RankedAlphabet, Tree, child_number, down, leaf,
    marked_name, navigate, preorder, split_marked_name, substitute_leaves,
    tree_key, try_navigate, STAY, UP,
)
from .regular import (
    AutomatonTest, BottomUpAutomaton, OracleTest,
    RegularTreeGrammar, ResourceError, SubTest, automaton_all,
    enumerate_grammar, eval_test, explore, grammar_finite, least_model,
    marked_automaton, min_witnesses, rules_to_automaton, _flatten_rules,
    _labels,
)
from .transducer import (
    Call, ContractError, Rule, Transducer, call, classify,
    enumerate_outputs, eval_deterministic, is_local, is_pruning,
    is_relabeling, is_top_down, normalize_general, normalize_outputs_stay,
    out, relabel_rules, trace_productive,
    _applicable_all, _Computation, _successors, _values,
)


# ---------------------------------------------------------------------------
# Shared helpers

def rename_states(M):
    """An isomorphic copy of M whose states are short strings, numbered in
    a repr-sorted order; M itself when its states have those names."""
    if M.states == {"q%d" % k for k in range(len(M.states))}:
        return M
    names = {}
    for s in sorted(M.states, key=repr):
        names[s] = "q%d" % len(names)

    def fill(c):
        if isinstance(c, Call):
            return Tree(Call(names[c.state], c.instr), ())
        return None

    rules = [Rule(names[r.state], r.symbol, r.child_no, r.test,
                  substitute_leaves(r.rhs, fill))
             for r in M.rules]
    return Transducer(M.input_alphabet, M.output_alphabet,
                      list(names.values()),
                      [names[q] for q in M.initials], rules)


def intersect_tests(a, b):
    """The conjunction of two node tests, staying in the most structured
    representation available (None absorbs; two subtree tests stay a
    subtree test; two automaton-backed tests stay automaton-backed)."""
    if a is None:
        return b
    if b is None:
        return a
    if a.aut is not None and b.aut is not None:
        if a.subtest and b.subtest and a.aut.alphabet == b.aut.alphabet:
            return SubTest(a.aut.intersect(b.aut))
        return AutomatonTest(marked_automaton(a).intersect(
            marked_automaton(b)))
    return OracleTest(
        lambda t, u, a=a, b=b: eval_test(a, t, u) and eval_test(b, t, u),
        "and(%r,%r)" % (a, b))


def _per_tree(fn):
    """Memoize a per-input-tree computation ``fn(t, *args)`` for the last
    tree object asked about, on ``args``.  Another tree object, even an
    equal one, drops the entries: trees are told apart by identity, never
    compared."""
    cache, last = {}, None

    def get(t, *args):
        nonlocal last
        if t is not last:
            cache.clear()
            last = t
        if args not in cache:
            cache[args] = fn(t, *args)
        return cache[args]
    return get


def productive_configs_nondet(M):
    """Per-tree map to the set of configurations from which some finite
    complete computation exists (any-rule semantics).

    The set is the least model of the Horn clauses cfg <- s_1 & ... & s_k,
    one per configuration and applicable rule with the distinct successors
    s_i.  Each clause counts its successors not yet proven, and a queue of
    proven configurations counts them down (Dowling and Gallier 1984)."""
    def compute(t):
        return frozenset(least_model(
            (cfg, _successors(r, t, cfg[1]))
            for cfg, rs in _applicable_all(M, t) for r in rs))
    return _per_tree(compute)


def deterministic_values(M):
    """Per-tree map from every productive configuration of a deterministic
    machine to the output subtree it generates."""
    def compute(t):
        tab = _Computation(
            M, t, [(q, i) for i in range(t.size) for q in M.states])
        value = _values(tab)[0]
        return {tab.cfgs[n]: value[n] for n in tab.order}
    return _per_tree(compute)


def _domain_oracle(M):
    """An oracle test for membership of the whole input in dom(M), for
    deterministic M."""
    has = _per_tree(lambda t: eval_deterministic(M, t)[0] is not None)
    return OracleTest(lambda t, u: has(t), "dom")


def _rules_by(M, key):
    """M's rules grouped by ``key(rule)``, in rule order within a group."""
    groups = {}
    for r in M.rules:
        groups.setdefault(key(r), []).append(r)
    return groups


def _assemble(input_alphabet, output_alphabet, initials, rules_for):
    """Build a transducer over the states reachable from the initial ones,
    asking ``rules_for(state)`` for each state's rules."""
    states = set()
    rules = []
    queue = list(initials)
    while queue:
        q = queue.pop()
        if q in states:
            continue
        states.add(q)
        for r in rules_for(q):
            rules.append(r)
            for c in r.calls():
                if c.state not in states:
                    queue.append(c.state)
    return Transducer(input_alphabet, output_alphabet, states, initials,
                      rules)


def _chi_augment(M, classes=None):
    """Pair every state with the class of the child number its next output
    node will take, named by its least member: ``classes[k]`` for number k,
    each number its own class by default.  Output rules pass the class of
    position k to their k-th call.  Needs no general rules."""
    classes = classes or range(M.output_alphabet.max_rank + 1)
    reps = sorted(set(classes))
    rules = []
    for r in M.rules:
        if r.kind == "general":
            raise ContractError(
                "child-index augmentation needs move and output rules only")
        if r.kind == "output":  # one body for every class of the state
            rhs = Tree(r.rhs.label,
                       [call((c.label.state, classes[k]), c.label.instr)
                        for k, c in enumerate(r.rhs.children, 1)])
        for i in reps:
            if r.kind == "move":
                c = r.rhs.label
                rhs = call((c.state, i), c.instr)
            rules.append(Rule((r.state, i), r.symbol, r.child_no, r.test,
                              rhs))
    states = [(q, i) for q in M.states for i in reps]
    return Transducer(M.input_alphabet, M.output_alphabet, states,
                      [(q0, classes[0]) for q0 in M.initials], rules)


def _child_classes(M):
    """For each child number, the least one at which M has the same rules,
    by state, test object and rhs, at every (state, symbol)."""
    at = [{} for _ in range(M.input_alphabet.max_rank + 1)]
    for r in M.rules:
        at[r.child_no].setdefault((r.state, r.symbol), []).append(
            (id(r.test), r.rhs))
    return [at.index(rules) for rules in at]


_SINK = "~product-sink~"
_PRODUCT_CEILING = 4096  # the most states a product of test automata has


def _product_automaton(auts, alphabet=None):
    """The reachable product of several automata over a shared alphabet
    (given for no automata), totalized with a sink state.  Returns
    (states, delta, sink)."""
    alphabet = alphabet or auts[0].alphabet

    def step(sym, combo):
        try:
            return tuple(a.delta[(sym, tuple(c[i] for c in combo))]
                         for i, a in enumerate(auts))
        except KeyError:
            return None

    states, delta = explore(alphabet, step, _PRODUCT_CEILING,
                            "product automaton")
    allstates = sorted(states, key=repr) + [_SINK]
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for combo in itertools.product(allstates, repeat=rank):
            delta.setdefault((sym, combo), _SINK)
    return allstates, delta, _SINK


def _stay_closure_groups(M):
    """Group the rules by (symbol, childNo, test) and convert each rhs to
    grammar form: stay-calls become nonterminals ("S", state), other calls
    become fresh rank-0 terminals.  Returns (groups, dmap, terminals)."""
    snames = {q: "s%d" % i
              for i, q in enumerate(sorted(M.states, key=repr))}
    dmap = {}

    def dname(c):
        suf = "up" if c.instr.kind == "up" else (
            "st" if c.instr.kind == "stay" else "dn%d" % c.instr.index)
        name = "D.%s.%s" % (snames[c.state], suf)
        dmap[name] = c
        return name

    def fill(c):
        if not isinstance(c, Call):
            return None
        if c.instr == STAY:
            return leaf(("S", c.state))
        return leaf(dname(c))

    groups = {}
    for r in M.rules:
        groups.setdefault((r.symbol, r.child_no, r.test), []).append(
            (r.state, substitute_leaves(r.rhs, fill)))
    base = dict(M.output_alphabet.symbols)
    for name in dmap:
        base[name] = 0
    terminals = RankedAlphabet(base)
    return groups, dmap, terminals


def _closure_grammar(pairs):
    """The nonterminals and rules of one stay-closure group: ("S", q) for
    each rule state q, and every nonterminal its right-hand sides use."""
    nts = {("S", q) for q, _ in pairs}
    nts.update(l for l in _labels(rhs for _, rhs in pairs)
               if isinstance(l, tuple))
    return nts, [(("S", q), rhs) for q, rhs in pairs]


def _productive_rules(nts, rules):
    """The rules whose nonterminals all derive some tree.  A rule that
    reads an unproductive nonterminal derives nothing, but enumeration
    would still expand its other nonterminals."""
    kids = [[x for x in _labels([rhs]) if x in nts] for _, rhs in rules]
    live = least_model(zip([lhs for lhs, _ in rules], kids))
    return [r for r, ks in zip(rules, kids) if live.issuperset(ks)]


def _occurring_dnames(rhs_list, dmap):
    return {l for l in _labels(rhs_list) if l in dmap}


def _unconvert(node, dmap):
    return substitute_leaves(
        node, lambda x: Tree(dmap[x], ()) if x in dmap else None)


# ---------------------------------------------------------------------------
# Test disjointification

def _distinct_tests(M):
    tests = []
    seen = set()
    for r in M.rules:
        if r.test is not None and id(r.test) not in seen:
            seen.add(id(r.test))
            tests.append(r.test)
    return tests


def _automaton_tests(M, message):
    """M's distinct guards, or a ``ContractError`` with ``message``
    (formatted with the guard) for the first one without an automaton."""
    tests = _distinct_tests(M)
    for t in tests:
        if t.aut is None:
            raise ContractError(message.format(t))
    return tests


def disjoint_tests(M):
    """Replace the tests of M by atoms of the boolean algebra they
    generate, so that any two rule tests are identical or disjoint.  Rules
    without a test are copied once per atom.  Semantics is unchanged;
    oracle tests are rejected."""
    tests = _automaton_tests(M, "cannot disjointify {!r}")
    if not tests:
        return M
    tindex = {id(t): i for i, t in enumerate(tests)}
    if all(t.subtest for t in tests):
        kind, auts = SubTest, [t.aut for t in tests]
    else:
        kind, auts = AutomatonTest, [marked_automaton(t) for t in tests]
    states, delta, sink = _product_automaton(auts)
    whole = BottomUpAutomaton(auts[0].alphabet, states, [], delta,
                              check_total=False)
    pattern = {p: tuple(p != sink and p[i] in a.finals
                        for i, a in enumerate(auts)) for p in states}
    patterns = sorted({pattern[p] for p in least_model(
        (p, combo) for (_, combo), p in delta.items())})
    atoms = {pat: kind(whole.with_finals(
        p for p in states if pattern[p] == pat)) for pat in patterns}
    rules = []
    for r in M.rules:
        if r.test is None:
            hits = patterns
        else:
            i = tindex[id(r.test)]
            hits = [pat for pat in patterns if pat[i]]
        for pat in hits:
            rules.append(Rule(r.state, r.symbol, r.child_no, atoms[pat],
                              r.rhs))
    return Transducer(M.input_alphabet, M.output_alphabet, M.states,
                      M.initials, rules)


# ---------------------------------------------------------------------------
# Stay removal

_STAY_SEARCH_CEILING = 512  # the most restrictions the search checks
_STAY_ENUMERATION_CEILING = 256  # the most trees of one closure grammar


def stay_free(M):
    """Remove the stay instruction.  Every left-hand side gets the family
    of trees its stay-closure derives; an infinite family is cut back to
    the union of its maximal finite restrictions of the occurring
    outward-call symbols (the fixpoint of removing members with infinite
    families).  Enumerating one closure grammar raises ResourceError
    once it finds more than ``_STAY_ENUMERATION_CEILING`` trees."""
    if all(c.instr != STAY for r in M.rules for c in r.calls()):
        return M
    Md = disjoint_tests(M)
    groups, dmap, terminals = _stay_closure_groups(Md)
    rules = []
    for (sym, j, test), pairs in groups.items():
        nts, grules = _closure_grammar(pairs)
        grules = _productive_rules(nts, grules)
        for q in sorted({q for q, _ in pairs}, key=repr):
            g = RegularTreeGrammar(nts, terminals, {("S", q)}, grules)
            members = set()
            if grammar_finite(g):
                members = enumerate_grammar(
                    g, math.inf, max_count=_STAY_ENUMERATION_CEILING)
            else:
                occ = frozenset(_occurring_dnames(
                    [rhs for _, rhs in grules], dmap))
                finite_sets = []
                stack = [occ]
                seen = {occ}
                checks = 0
                while stack:
                    keep = stack.pop()
                    if any(keep <= f for f in finite_sets):
                        continue
                    checks += 1
                    if checks > _STAY_SEARCH_CEILING:
                        raise ResourceError(
                            "stay-removal search: %d checks exceed the "
                            "ceiling of %d" % (checks, _STAY_SEARCH_CEILING))
                    sub_rules = _productive_rules(nts, [
                        (lhs, rhs) for lhs, rhs in grules
                        if _occurring_dnames([rhs], dmap) <= keep])
                    gk = RegularTreeGrammar(nts, terminals, {("S", q)},
                                            sub_rules)
                    if grammar_finite(gk):
                        finite_sets.append(keep)
                        members |= enumerate_grammar(
                            gk, math.inf, max_count=_STAY_ENUMERATION_CEILING)
                    else:
                        for d in keep:
                            smaller = keep - {d}
                            if smaller not in seen:
                                seen.add(smaller)
                                stack.append(smaller)
            for m in sorted(members, key=tree_key):
                rules.append(Rule(q, sym, j, test, _unconvert(m, dmap)))
    return Transducer(Md.input_alphabet, Md.output_alphabet, Md.states,
                      Md.initials, rules)


# ---------------------------------------------------------------------------
# Domain and range restriction

def _restrict_domain_test(M, test):
    """Restrict the domain of M to the trees whose root satisfies
    ``test``: the root rules of initial states get it conjoined."""
    rules = []
    for r in M.rules:
        if r.state in M.initials and r.child_no == 0:
            rules.append(Rule(r.state, r.symbol, 0,
                              intersect_tests(r.test, test), r.rhs))
        else:
            rules.append(r)
    return Transducer(M.input_alphabet, M.output_alphabet, M.states,
                      M.initials, rules)


def _identity_on(L):
    """The nondeterministic relabeler computing the identity exactly on
    the language of L: states are L's states, read bottom-up by guessing
    the subtree state of every node.  Only the transitions into states
    that a guess from a final state can reach become rules."""
    alphabet = L.alphabet
    if not L.finals:
        dead = Transducer(alphabet, alphabet, ["q0"], ["q0"],
                          [])
        return dead
    into = {}
    for (sym, combo), p in L.delta.items():
        into.setdefault(p, []).append(combo)
    needed = set(L.finals)
    queue = list(needed)
    while queue:
        for combo in into.get(queue.pop(), ()):
            for q in combo:
                if q not in needed:
                    needed.add(q)
                    queue.append(q)
    rules = []
    for (sym, combo), p in L.delta.items():
        if p in needed:
            rules += relabel_rules(alphabet, p, sym, sym, combo)
    return Transducer(alphabet, alphabet, L.states, L.finals, rules)


def restrict_range(M, L):
    """Restrict the range of M to the language of the automaton L over
    the output alphabet, by composing with the identity relabeler on L."""
    if L.alphabet.symbols != M.output_alphabet.symbols:
        raise ContractError("range automaton is over the wrong alphabet")
    ident = _identity_on(L)
    if not ident.rules:
        return Transducer(M.input_alphabet, M.output_alphabet, ["q0"],
                          ["q0"], [])
    return compose_with_pruning(M, ident)


# ---------------------------------------------------------------------------
# Look-around splitting and look-ahead conversion

def _annotated_alphabet(alphabet, n_classes):
    syms = {}
    for sym in alphabet:
        for c in range(n_classes):
            syms["%s~c%d" % (sym, c)] = alphabet.rank(sym)
    return RankedAlphabet(syms)


def _annotated_remainder(M, ann, admits):
    """M over the annotated alphabet: every rule, without its test, at
    ``sym~cN`` for each class N in ``admits(rule)``."""
    rules = [Rule(r.state, "%s~c%d" % (r.symbol, c), r.child_no, None, r.rhs)
             for r in M.rules for c in admits(r)]
    return Transducer(ann, M.output_alphabet, M.states, M.initials, rules)


def split_lookaround(M):
    """Split M into a deterministic single-state relabeler annotating each
    node with the class of tests holding there, and a local machine over
    the annotated alphabet.  The composition of the two equals M."""
    Md = disjoint_tests(M)
    atoms = _distinct_tests(Md)
    classes = atoms if atoms else [None]
    cindex = {id(a): i for i, a in enumerate(atoms)}
    alphabet = Md.input_alphabet
    ann = _annotated_alphabet(alphabet, len(classes))
    nrules = []
    for sym in alphabet:
        for c, test in enumerate(classes):
            nrules += relabel_rules(alphabet, "p", sym, "%s~c%d" % (sym, c),
                                    ["p"] * alphabet.rank(sym), test)
    N = Transducer(alphabet, ann, ["p"], ["p"], nrules)
    M2 = _annotated_remainder(Md, ann, lambda r: [
        0 if r.test is None else cindex[id(r.test)]])
    return N, M2


class ChildProfileTest(SubTest):
    """A look-ahead guard: a sub-test whose automaton, shared by all guards
    of one converted machine, takes a node to its label and its children's
    states in the unmarked product; (symbol, profile) is its only final."""

    __slots__ = ("symbol", "profile")

    def __init__(self, aut, symbol, profile):
        super().__init__(aut)
        self.symbol, self.profile = symbol, profile

    def __repr__(self):
        return "ChildProfileTest(%s, %r)" % (self.symbol, self.profile)


def _marked_product(tests, base):
    """The joint product of the marked automata of several tests, split
    into the states reachable without a mark (P0, the subtree states of
    unmarked trees) and with exactly one mark (P1)."""
    auts = [marked_automaton(t) for t in tests]
    marked = MarkedAlphabet(base)
    pstates, pdelta, sink = _product_automaton(auts)

    def step(name, combo):
        marks = split_marked_name(name)[1] + sum(m for _, m in combo)
        tgt = pdelta[(name, tuple(p for p, _ in combo))]
        return None if marks > 1 or tgt == sink else (tgt, marks)

    # at most two entries per product state
    reached, _ = explore(marked, step, 2 * len(pstates), "marked product")
    p0 = {p for p, marks in reached if marks == 0}
    p1 = {p for p, marks in reached if marks == 1}
    delta0 = {}
    for (name, combo), tgt in pdelta.items():
        b, bit = split_marked_name(name)
        if bit == 0:
            delta0[(b, combo)] = tgt
    proj = BottomUpAutomaton(base, pstates, [], delta0, check_total=False)
    return auts, pdelta, sink, frozenset(p0), frozenset(p1), proj


def _context_step(tests, base):
    """The look-around step (Bloem and Engelfriet): a context class holds,
    per test, the P1 states the context above maps to acceptance.  Returns
    the ``_marked_product``, the root's class, the sorted P0 profiles and
    ``step(sbar, sym, prof)``: each test's truth, and each child's class,
    at a node in class sbar whose children have prof."""
    product = auts, pdelta, _, p0, p1, _ = _marked_product(tests, base)
    root = tuple(frozenset(p for p in p1 if p[i] in a.finals)
                 for i, a in enumerate(auts))

    def step(sbar, sym, prof):
        here, mk0 = pdelta[(marked_name(sym, 1), prof)], marked_name(sym, 0)
        return tuple(here in s for s in sbar), tuple(
            tuple(frozenset(p for p in p1 if pdelta[
                (mk0, prof[:c] + (p,) + prof[c + 1:])] in s) for s in sbar)
            for c in range(len(prof)))
    return product, root, sorted(p0, key=repr), step


_LOOKAHEAD_STATE_CEILING = 4096  # the most states a conversion builds


def lookahead_of_topdown(M):
    """Convert the look-around tests of a machine without up-moves into
    look-ahead: states carry, per test, the set of marked-run product
    states the context above maps to acceptance, and rules carry
    child-profile sub-tests pinning the children's subtree states."""
    if not is_top_down(M):
        raise ContractError(
            "look-ahead conversion needs a machine without up-moves")
    tests = _distinct_tests(M)
    if not tests:
        return M
    base = M.input_alphabet
    (*_, proj), finals0, profiles, step = _context_step(tests, base)
    step = functools.lru_cache(maxsize=None)(step)  # a state's rules reread it
    tindex = {id(t): i for i, t in enumerate(tests)}
    # a node's guard state is its proj key: (label, children's proj states)
    gstates, gdelta = explore(base, lambda sym, kids: (sym, tuple(
        proj.delta[k] for k in kids)), len(proj.delta), "look-ahead guards")
    guards = BottomUpAutomaton(base, gstates, [], gdelta, check_total=False)

    @functools.lru_cache(maxsize=None)
    def mk_test(sym, prof):
        return ChildProfileTest(guards.with_finals([(sym, prof)]), sym, prof)

    seen_ceiling = [0]
    by_state = _rules_by(M, lambda r: r.state)
    calls = functools.lru_cache(maxsize=None)(call)  # shared leaves

    def rules_for(state):
        q, sbar = state
        seen_ceiling[0] += 1
        if seen_ceiling[0] > _LOOKAHEAD_STATE_CEILING:
            raise ResourceError(
                "look-ahead conversion: %d states exceed the ceiling of %d"
                % (seen_ceiling[0], _LOOKAHEAD_STATE_CEILING))
        made = []
        for r in by_state.get(q, ()):
            sym = r.symbol
            m = base.rank(sym)
            for prof in itertools.product(profiles, repeat=m):
                truths, ctx = step(sbar, sym, prof)
                if r.test is not None and not truths[tindex[id(r.test)]]:
                    continue

                def fill(cl):
                    if not isinstance(cl, Call):
                        return None
                    if cl.instr == STAY:
                        return calls((cl.state, sbar), STAY)
                    return calls((cl.state, ctx[cl.instr.index - 1]),
                                 cl.instr)

                test = None if m == 0 else mk_test(sym, prof)
                made.append(Rule(state, sym, r.child_no, test,
                                 substitute_leaves(r.rhs, fill)))
        return made

    initials = [(q0, finals0) for q0 in M.initials]
    return _assemble(base, M.output_alphabet, initials, rules_for)


def _child_quotient(alphabet, tests):
    """The sub-tests' product up to how a state acts as a child: the
    coarsest partition (Moore refinement) in which swapping a child's
    state within its block keeps the parent's class (the tests it passes)
    and block.  Returns the classes, as verdict tuples, and a map from
    (symbol, the children's blocks) to (the node's block, its class
    number).  A block is named by its only state, or by its state set."""
    auts = [t.aut for t in tests]
    # tests that share a transition table (look-ahead guards) share one
    # component of the product
    reps = list({id(a.delta): a for a in auts}.values())
    slot = {id(r.delta): j for j, r in enumerate(reps)}
    _, delta, sink = _product_automaton(reps, alphabet=alphabet)
    live = {k: p for k, p in delta.items() if p != sink and sink not in k[1]}
    verdicts = {p: tuple(p[slot[id(a.delta)]] in a.finals for a in auts)
                for p in live.values()}
    patterns = sorted(set(verdicts.values()))
    cls = {k: patterns.index(verdicts[p]) for k, p in live.items()}
    block = dict.fromkeys(verdicts, 0)
    while True:
        # a signature holds the old block, so the partition only refines
        sigs = {q: {(b,)} for q, b in block.items()}
        for (sym, combo), p in live.items():
            for k, q in enumerate(combo):
                sigs[q].add((sym, k, combo[:k] + combo[k + 1:],
                             cls[(sym, combo)], block[p]))
        groups = {}
        for q, sig in sigs.items():
            groups.setdefault(frozenset(sig), []).append(q)
        if len(groups) == len(set(block.values())):
            break
        block = {q: i for i, g in enumerate(groups.values()) for q in g}
    name = {q: q if len(g) == 1 else frozenset(g)
            for g in groups.values() for q in g}
    return patterns, {(sym, tuple(map(name.get, combo))): (
        name[p], cls[(sym, combo)]) for (sym, combo), p in live.items()}


def split_lookaround_nondet(M):
    """Split a machine whose tests are all subtree tests into a
    nondeterministic relabeler, which guesses how each node's product
    state acts as a child (``_child_quotient``), verifies that bottom-up
    and annotates the node with the tests it passes, and a local machine."""
    tests = _distinct_tests(M)
    if not tests:
        return identity_like(M.input_alphabet), M
    if not all(t.aut is not None and t.subtest for t in tests):
        raise ContractError("cannot split tests of mixed or oracle kinds")
    patterns, moves = _child_quotient(M.input_alphabet, tests)
    tindex = {id(t): i for i, t in enumerate(tests)}
    at = {}  # the classes that occur at each symbol
    for (sym, _), (_, c) in moves.items():
        at.setdefault(sym, set()).add(c)

    def admits(r):
        return [c for c in sorted(at.get(r.symbol, ())) if r.test is None
                or patterns[c][tindex[id(r.test)]]]
    alphabet = M.input_alphabet
    ann = _annotated_alphabet(alphabet, len(patterns))
    nrules = []
    for (sym, kids), (b, c) in moves.items():
        nrules += relabel_rules(alphabet, b, sym, "%s~c%d" % (sym, c), kids)
    guesses = list(dict.fromkeys(b for b, _ in moves.values()))
    N = Transducer(alphabet, ann, guesses, guesses, nrules)
    return N, _annotated_remainder(M, ann, admits)


def identity_like(alphabet):
    """The one-state total identity relabeler over an alphabet."""
    rules = []
    for sym in alphabet:
        rules += relabel_rules(alphabet, "q", sym, sym,
                               ["q"] * alphabet.rank(sym))
    return Transducer(alphabet, alphabet, ["q"], ["q"], rules)


# ---------------------------------------------------------------------------
# Localizing a second machine against a deterministic first one

def localize_second(M1, M2):
    """Rewrite the pair (M1, M2) so that M2 becomes local: M1 (which must
    be deterministic) annotates every output symbol with the class of M2's
    subtree-style tests holding at that output node, decided through the
    output value its own configuration generates."""
    tests2 = _distinct_tests(M2)
    if not tests2:
        return M1, M2
    if not all(t.aut is not None and t.subtest for t in tests2):
        raise ContractError(
            "localization needs subtree-style tests on the second machine")
    M2d = disjoint_tests(M2)
    classes = _distinct_tests(M2d)
    cindex = {id(c): i for i, c in enumerate(classes)}
    M1n = normalize_general(M1)
    values = deterministic_values(M1n)

    ann = _annotated_alphabet(M1n.output_alphabet, len(classes))
    rules1 = []
    for r in M1n.rules:
        if r.kind == "move":
            rules1.append(r)
            continue
        for c, cls in enumerate(classes):
            def fn(t, u, r=r, cls=cls):
                v = values(t).get((r.state, u))
                return v is not None and eval_test(cls, v, ())
            inv = OracleTest(fn, "outclass%d" % c)
            rhs = Tree("%s~c%d" % (r.rhs.label, c),
                       [Tree(ch.label, ()) for ch in r.rhs.children])
            rules1.append(Rule(r.state, r.symbol, r.child_no,
                               intersect_tests(r.test, inv), rhs))
    M1p = Transducer(M1n.input_alphabet, ann, M1n.states, M1n.initials,
                     rules1)
    # disjoint_tests gives every rule a test
    M2p = _annotated_remainder(M2d, ann, lambda r: [cindex[id(r.test)]])
    return M1p, M2p


# ---------------------------------------------------------------------------
# Sequential composition

def _check_alphabets(M1, M2):
    if M1.output_alphabet.symbols != M2.input_alphabet.symbols:
        raise ContractError("composition needs matching middle alphabets")


def compose_with_pruning(M1, M2):
    """Compose an arbitrary machine with a local pruning machine.  Pruning
    never copies its input, so nondeterminism in M1 is harmless; a deleted
    subtree only needs an oracle check that M1 could have produced some
    output for it."""
    _check_alphabets(M1, M2)
    if not is_local(M2):
        raise ContractError("second machine must be local here")
    if not is_pruning(M2):
        raise ContractError("second machine must be pruning here")
    M1a = _chi_augment(normalize_general(M1), _child_classes(M2))
    prod = productive_configs_nondet(M1a)

    def deletion_test(calls1, deleted):
        if not deleted:
            return None

        def fn(t, u, calls1=calls1, deleted=tuple(deleted)):
            p = prod(t)
            return all((calls1[l - 1].state,
                        navigate(t, u, calls1[l - 1].instr)) in p
                       for l in deleted)
        return OracleTest(fn, "kept-siblings-productive")

    by_state = _rules_by(M1a, lambda r: r.state)

    def rules_for(state):
        _, pa, q = state
        made = []
        for r in by_state.get(pa, ()):
            if r.kind == "move":
                c = r.rhs.label
                made.append(Rule(state, r.symbol, r.child_no, r.test,
                                 call(("pq", c.state, q), c.instr)))
                continue
            delta_sym = r.rhs.label
            calls1 = [c.label for c in r.rhs.children]
            k = len(calls1)
            for r2 in M2.rules_at(q, delta_sym, pa[1]):
                if r2.kind == "move":
                    l = r2.rhs.label.instr.index
                    rhs = call(("pq", calls1[l - 1].state,
                                r2.rhs.label.state), calls1[l - 1].instr)
                    used = {l}
                else:
                    kids = []
                    used = set()
                    for c2 in r2.rhs.children:
                        l = c2.label.instr.index
                        used.add(l)
                        kids.append(call(("pq", calls1[l - 1].state,
                                          c2.label.state),
                                         calls1[l - 1].instr))
                    rhs = Tree(r2.rhs.label, kids)
                deleted = [l for l in range(1, k + 1) if l not in used]
                made.append(Rule(state, r.symbol, r.child_no,
                                 intersect_tests(
                                     r.test, deletion_test(calls1, deleted)),
                                 rhs))
        return made

    initials = [("pq", p0, q0) for p0 in M1a.initials
                for q0 in M2.initials]
    return _assemble(M1.input_alphabet, M2.output_alphabet, initials,
                     rules_for)


def _check_product(M1, M2):
    _check_alphabets(M1, M2)
    if not is_local(M2):
        raise ContractError("second machine must be local here")
    if len(M1.initials) != 1 or len(M2.initials) != 1:
        raise ContractError("this composition needs single initial states")


def compose_det_topdown(M1, M2):
    """Compose a deterministic machine with a deterministic local machine
    that never moves up.  When the second machine is also stay-free the
    product substitutes its moves directly and preserves the pruning
    shape; the composition is guarded on membership in dom(M1)."""
    if is_pruning(M2):
        # stay-free deleting-only second machine: reuse the pruning
        # product (which keeps the pruning shape), then guard the domain
        if not is_local(M2):
            raise ContractError("second machine must be local here")
        if len(M1.initials) != 1:
            raise ContractError("this composition needs a single initial "
                                "state on the first machine")
        prodM = compose_with_pruning(M1, M2)
        dom = _domain_oracle(M1)
        return _guard_initial(prodM, dom)
    _check_product(M1, M2)
    if not is_top_down(M2):
        raise ContractError("up-moves of the second machine need the "
                            "single-use composition")
    # without up-moves the second machine never reaches a "fin" state, so
    # the single-use product has no backtracking rules
    return compose_su(M1, M2)


def _guard_initial(M, test):
    """Wrap M with a fresh initial state whose root rules carry an extra
    test; the original initials stay reachable for revisits."""
    fresh = ("init~",)
    rules = list(M.rules)
    for r in M.rules:
        if r.state in M.initials and r.child_no == 0:
            rules.append(Rule(fresh, r.symbol, 0,
                              intersect_tests(r.test, test), r.rhs))
    return Transducer(M.input_alphabet, M.output_alphabet,
                      set(M.states) | {fresh}, [fresh], rules)


def compose_su(M1, M2):
    """Compose a deterministic single-use machine with a deterministic
    local machine that may move up: an up-move of the second machine
    backtracks through the unique parent structure of the first machine's
    computation to the configuration that produced the current output
    node's parent."""
    _check_product(M1, M2)
    M1a = _chi_augment(normalize_general(M1))
    M2n = normalize_general(M2)
    rules1 = list(M1a.rules)
    ridx_of = {id(r): i for i, r in enumerate(rules1)}
    by_state = _rules_by(M1a, lambda r: r.state)

    def parents_of(t):
        tab = _Computation(M1a, t, [(next(iter(M1a.initials)), 0)])
        pm = [None] * len(tab.cfgs)
        if tab.status[tab.roots[0]]:
            for n in tab.order:
                for s in tab.succs[n]:
                    if pm[s] is not None:
                        raise ContractError("first machine is not single-use"
                                            " at %r" % (tab.cfgs[s],))
                    pm[s] = n
        return {tab.cfgs[s]: tab.cfgs[p]
                for s, p in enumerate(pm) if p is not None}
    parents = _per_tree(parents_of)
    cands = {}
    for r in rules1:
        for c in r.calls():
            cands.setdefault(c.state, set()).add((r.state, c.instr))

    def parent_test(p, pbar, shape, idx):
        def fn(t, u, p=p, pbar=pbar, shape=shape, idx=idx):
            e = parents(t).get((p, u))
            if e is None:
                return False
            if shape == "down":
                want = u[:-1]
            elif shape == "up":
                want = u + (idx,)
            else:
                want = u
            return e == (pbar, want)
        return OracleTest(fn, "computation-parent")

    alphabet = M1.input_alphabet

    def pq_rules(state):
        _, pa, q = state
        made = []
        for r in by_state.get(pa, ()):
            if r.kind == "move":
                c = r.rhs.label
                made.append(Rule(state, r.symbol, r.child_no, r.test,
                                 call(("pq", c.state, q), c.instr)))
            else:
                made.append(Rule(state, r.symbol, r.child_no, r.test,
                                 call(("rq", ridx_of[id(r)], q), STAY)))
        return made

    def rq_rules(state):
        _, ridx, q = state
        r = rules1[ridx]
        delta_sym = r.rhs.label
        calls1 = [c.label for c in r.rhs.children]
        chi = r.state[1]
        made = []

        def land(c2):
            if c2.instr == STAY:
                return call(("rq", ridx, c2.state), STAY)
            if c2.instr.kind == "down":
                c1 = calls1[c2.instr.index - 1]
                return call(("pq", c1.state, c2.state), c1.instr)
            return call(("fin", r.state, c2.state), STAY)

        for r2 in M2n.rules_at(q, delta_sym, chi):
            if r2.kind == "move":
                rhs = land(r2.rhs.label)
            else:
                rhs = Tree(r2.rhs.label,
                           [land(c2.label) for c2 in r2.rhs.children])
            made.append(Rule(state, r.symbol, r.child_no, None, rhs))
        return made

    def to_parent(state, p, q, sym, j, test):
        """The rules at (sym, j) that carry q from a configuration of p
        back to its computation parent, in ("back", parent state, q)."""
        made = []
        for pbar, alpha in sorted(cands.get(p, ()), key=repr):
            if alpha.kind == "down":
                moves = [(None, UP)] if j == alpha.index else []
            elif alpha.kind == "stay":
                moves = [(None, STAY)]
            else:
                moves = [(i, down(i)) for i in
                         range(1, alphabet.rank(sym) + 1)]
            for idx, instr in moves:
                made.append(Rule(state, sym, j, intersect_tests(
                    test, parent_test(p, pbar, alpha.kind, idx)),
                    call(("back", pbar, q), instr)))
        return made

    def fin_rules(state):
        _, p, q = state
        return [r for sym in alphabet for j in range(alphabet.max_rank + 1)
                for r in to_parent(state, p, q, sym, j, None)]

    def back_rules(state):
        _, pbar, q = state
        made = []
        for r in by_state.get(pbar, ()):
            if r.kind == "move":
                made += to_parent(state, pbar, q, r.symbol, r.child_no,
                                  r.test)
            else:
                made.append(Rule(state, r.symbol, r.child_no, r.test,
                                 call(("rq", ridx_of[id(r)], q), STAY)))
        return made

    dom = _domain_oracle(M1a)
    pq0 = ("pq", next(iter(M1a.initials)), next(iter(M2n.initials)))

    def rules_for(state):
        if state == ("init",):
            made = []
            for r in pq_rules(pq0):
                if r.child_no == 0:
                    made.append(Rule(state, r.symbol, 0,
                                     intersect_tests(r.test, dom), r.rhs))
            return made
        kind = state[0]
        if kind == "pq":
            return pq_rules(state)
        if kind == "rq":
            return rq_rules(state)
        if kind == "fin":
            return fin_rules(state)
        return back_rules(state)

    return _assemble(alphabet, M2.output_alphabet, [("init",)], rules_for)


def absorb_right(M1, M2, corpus_bound=4):
    """Absorb M2 into a single machine equivalent to running M1 then M2,
    choosing a composition route from the class flags of the two machines.
    Requires automaton-backed tests on M2."""
    f1 = classify(M1, corpus_bound=corpus_bound)
    f2 = classify(M2, corpus_bound=corpus_bound)
    _automaton_tests(M2, "absorption needs automaton-backed tests")
    if f1.deterministic and f2.deterministic and f2.top_down:
        M2a = lookahead_of_topdown(M2)
        M1p, M2p = localize_second(M1, M2a)
        return compose_det_topdown(M1p, M2p)
    if f2.pruning:
        M2a = lookahead_of_topdown(M2)
        N, M2L = split_lookaround_nondet(M2a)
        return compose_with_pruning(compose_with_pruning(M1, N), M2L)
    raise ContractError("no composition route for this pair of machines")


# ---------------------------------------------------------------------------
# Domain automaton

def _minimal(sets):
    """The inclusion-minimal members of a collection of sets: a subset
    sorts before each of its strict supersets."""
    if len(sets) < 2:
        return list(sets)
    mins = []
    for s in sorted(set(sets), key=len):
        if not any(m <= s for m in mins):
            mins.append(s)
    return mins


def _cross_union(optss):
    """All minimal unions picking one set from each collection."""
    acc = [frozenset()]
    for opts in optss:
        if not opts:
            return []
        if len(acc) == 1 and len(opts) == 1:
            acc = [acc[0] | opts[0]]
        else:
            acc = _minimal([a | o for a in acc for o in opts])
    return acc


def _claims(rules_at, maxr, sym, truths, kid_beh):
    """The behaviour summary of a subtree with root ``sym`` under guard
    truths ``truths``, given each child's summary in its context class:
    every (child number j, state q, exit-state set E) such that a
    computation from q at the root, as child j, completes inside the
    subtree and leaves it only upward in the states of E, with E
    minimal.

    ``rules_at[(sym, j)]`` lists (state, test index, calls) per rule, a
    call being (kind, child, state).  The claim sets of one j are the
    least fixpoint, kept as antichains (De Wulf, Doyen, Henzinger and
    Raskin, CAV 2006), of a worklist that re-examines a rule only when a
    claim set it reads has grown (Dowling and Gallier 1984)."""
    # exits[(c, p)]: the exit-state sets of child c entered from above in
    # state p, in the order of the child's summary
    exits = {}
    for c, kb in enumerate(kid_beh):
        for jj, qq, e2 in kb:
            if jj == c + 1:
                exits.setdefault((c, qq), []).append(tuple(e2))
    beh = set()
    for j in range(maxr + 1):
        rules = [(q, calls) for q, i, calls in rules_at.get((sym, j), ())
                 if i is None or truths[i]]
        # per rule and call: a constant option set, or the alternative
        # tuples of states whose claims it cross-unions.  A rule with a
        # down call that the child never completes cannot fire and gets
        # no plan; a rule is first examined at once if every call has an
        # alternative that reads no claim, else when a claim it reads
        # grows.
        heads = []
        plans = []
        readers = {}
        queue = []
        for q, calls in rules:
            plan = []
            ready = True
            for kind, c, p in calls:
                if kind == "up":
                    plan.append(([frozenset([p])], None))
                    continue
                if kind == "stay":
                    alts = [(p,)]
                else:
                    alts = exits.get((c, p))
                    if alts is None:
                        break
                plan.append((None, alts))
                ready = ready and () in alts
            else:
                k = len(plans)
                heads.append(q)
                plans.append(plan)
                for _, alts in plan:
                    for alt in alts or ():
                        for e in alt:
                            readers.setdefault(e, set()).add(k)
                if ready:
                    queue.append(k)
        claims = {}
        queued = set(queue)
        while queue:
            k = queue.pop()
            queued.discard(k)
            optss = []
            for const, alts in plans[k]:
                if const is not None:
                    optss.append(const)
                    continue
                opts = []
                for alt in alts:
                    if len(alt) == 1:
                        opts += claims.get(alt[0], ())
                    else:
                        opts += _cross_union([claims.get(e, ())
                                              for e in alt])
                optss.append(opts if len(alts) == 1 else _minimal(opts))
            q = heads[k]
            old = claims.get(q, [])
            new = old
            for e in _cross_union(optss):
                if not any(o <= e for o in new):
                    new = [o for o in new if not e <= o] + [e]
            if new is not old:
                claims[q] = new
                for k2 in readers.get(q, ()):
                    if k2 not in queued:
                        queued.add(k2)
                        queue.append(k2)
        for q, es in claims.items():
            beh.update((j, q, e) for e in es)
    return frozenset(beh)


_DOMAIN_STATE_CEILING = 2048  # the most states a domain automaton has
_CONTEXT_CEILING = 512  # the most context classes it reaches


def domain_automaton(M):
    """The bottom-up automaton accepting dom(M).  A state records the
    joint test-automaton state of the subtree and, for every reachable
    context class, the subtree's behavior summary: which (child number,
    state, exit-state set) claims have a complete computation inside the
    subtree.  Each distinct (symbol, guard truths, children's summaries)
    is summarized once per construction."""
    tests = _automaton_tests(
        M, "domain automaton needs automaton-backed tests")
    base = M.input_alphabet
    tindex = {id(t): i for i, t in enumerate(tests)}
    rules_at = {}
    for r in M.rules:
        calls = tuple(
            ("stay" if cl.instr == STAY else cl.instr.kind,
             cl.instr.index - 1 if cl.instr.kind == "down" else None,
             cl.state)
            for cl in r.calls())
        rules_at.setdefault((r.symbol, r.child_no), []).append(
            (r.state, None if r.test is None else tindex[id(r.test)], calls))
    # rows[(sym, children's unmarked states)]: per context class, the
    # guard truths at the node and the context class of each child
    rows = {}
    if tests:
        (_, pdelta, sink, *_), root_ctx, profiles0, step = _context_step(
            tests, base)
        # closure of the reachable context classes, each mapped to one
        # shared copy so that the rows and the summaries key on it
        contexts = {root_ctx: root_ctx}
        frontier = [root_ctx]
        while frontier:
            sbar = frontier.pop()
            for sym in base:
                for prof in itertools.product(profiles0,
                                              repeat=base.rank(sym)):
                    truths, kids = step(sbar, sym, prof)
                    for ctx in kids:
                        if ctx not in contexts:
                            contexts[ctx] = ctx
                            frontier.append(ctx)
                            if len(contexts) > _CONTEXT_CEILING:
                                raise ResourceError(
                                    "context closure: %d context classes "
                                    "exceed the ceiling of %d"
                                    % (len(contexts), _CONTEXT_CEILING))
                    rows.setdefault((sym, prof), []).append(
                        (sbar, truths, tuple(contexts[c] for c in kids)))
    else:
        root_ctx = ()
        for sym in base:
            m = base.rank(sym)
            rows[(sym, ((),) * m)] = [((), (), ((),) * m)]
    memo = {}

    def transition(sym, kids):
        kid0 = tuple(k[0] for k in kids)
        if tests:
            a0 = pdelta[(marked_name(sym, 0), kid0)]
            if a0 == sink or sink in kid0:
                raise ContractError("partial test automaton")
        else:
            a0 = ()
        fmaps = [dict(k[1]) for k in kids]
        entries = []
        for sbar, truths, kid_ctx in rows[(sym, kid0)]:
            key = (sym, truths,
                   tuple(f[ctx] for f, ctx in zip(fmaps, kid_ctx)))
            if key not in memo:
                memo[key] = _claims(rules_at, base.max_rank, *key)
            entries.append((sbar, memo[key]))
        return (a0, frozenset(entries))

    dstates, delta = explore(base, transition, _DOMAIN_STATE_CEILING,
                             "domain automaton")
    finals = []
    for s in dstates:
        fmap = dict(s[1])
        beh = fmap[root_ctx]
        if any((0, q0, frozenset()) in beh for q0 in M.initials):
            finals.append(s)
    return BottomUpAutomaton(base, dstates, finals, delta,
                             check_total=False)


def inverse_image(M, L):
    """The automaton for the inverse image of the language of L under M:
    the inputs with at least one output in L."""
    return domain_automaton(restrict_range(M, L))


# ---------------------------------------------------------------------------
# Image of a pruning machine

_IMAGE_CEILING = 4096  # the most states, or nonterminals, of each stage


def pruning_image(M, L=None):
    """The automaton for the set of outputs of a pruning machine on
    inputs from L (all inputs when L is None)."""
    if not is_pruning(M):
        raise ContractError("image automaton needs a pruning machine")
    tests = _automaton_tests(
        M, "image automaton needs automaton-backed tests")
    Ms = M if all(t.subtest for t in tests) else lookahead_of_topdown(M)
    tests = _distinct_tests(Ms)
    tindex = {id(t): i for i, t in enumerate(tests)}
    base = Ms.input_alphabet
    # a node's test state is its block, and a transition gives its class
    patterns, moves = _child_quotient(base, tests)
    if L is None:
        L = automaton_all(base)
    if L.alphabet.symbols != base.symbols:
        raise ContractError("input automaton is over the wrong alphabet")

    def step(sym, combo):
        move = moves.get((sym, tuple(c[0] for c in combo)))
        if move is not None:
            return move[0], L.delta[(sym, tuple(c[1] for c in combo))]

    pairs, delta = explore(base, step, _IMAGE_CEILING, "image closure")
    prodlist = {}
    for key, pair in delta.items():
        prodlist.setdefault(pair, []).append(key)

    # one nonterminal per (state, test block, L state, child number); the
    # pruning shape makes each output rule one production and each move
    # rule one chain edge
    nts, prods, chains, queue = set(), [], [], []
    for (tup, la) in pairs:
        if la in L.finals:
            queue.extend(("I", q0, tup, la, 0) for q0 in Ms.initials)
    initials = set(queue)
    while queue:
        nt = queue.pop()
        if nt in nts:
            continue
        nts.add(nt)
        if len(nts) > _IMAGE_CEILING:
            raise ResourceError(
                "image grammar: %d nonterminals exceed the ceiling of %d"
                % (len(nts), _IMAGE_CEILING))
        _, q, b, la, j = nt
        for (sym, combo) in prodlist.get((b, la), ()):
            passed = patterns[moves[(sym, tuple(c[0] for c in combo))][1]]
            for r in Ms.rules_at(q, sym, j):
                if r.test is not None and not passed[tindex[id(r.test)]]:
                    continue
                subs = tuple(("I", c.state, *combo[c.instr.index - 1],
                              c.instr.index) for c in r.calls())
                queue.extend(subs)
                if r.kind == "move":
                    chains.append((nt, subs[0]))
                else:
                    prods.append((nt, r.rhs.label, subs))
    return rules_to_automaton(Ms.output_alphabet, prods, chains, initials,
                              _IMAGE_CEILING)


# ---------------------------------------------------------------------------
# Uniformization

_UNIFORMIZE_SUBSET_CEILING = 6  # the most outward calls, 2**6 subsets


def uniformize(M):
    """A machine computing a function contained in M's relation, with the
    same domain: per left-hand side the least output shape, guarded by an
    oracle pinning the exact productivity pattern of the outward calls."""
    if not is_top_down(M):
        raise ContractError(
            "uniformization needs a machine without up-moves")
    Md = disjoint_tests(M)
    if len(Md.initials) > 1:
        Md = _guard_initial(Md, None)
    prod = productive_configs_nondet(Md)
    groups, dmap, terminals = _stay_closure_groups(Md)
    rules = []
    for (sym, j, test), pairs in groups.items():
        nts, grules = _closure_grammar(pairs)
        # ("S", q)'s least tree uses only the rules it reaches, and with
        # the calls in D only: a flattened rule reading another outward
        # call derives nothing, nor does the rule it was flattened from
        flat, chains = _flatten_rules(
            RegularTreeGrammar(nts, terminals, (), grules))
        below = {}  # head -> the nonterminals and symbols its rules read
        for lhs, label, kids in flat + [(lhs, nt, ()) for lhs, nt in chains]:
            below.setdefault(lhs, set()).update(kids + (label,))
        for q in sorted({q for q, _ in pairs}, key=repr):
            reach = {("S", q)}
            frontier = [("S", q)]
            while frontier:
                nt = frontier.pop()
                for nxt in below.get(nt, ()):
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            occ = sorted(x for x in reach if x in dmap)
            if len(occ) > _UNIFORMIZE_SUBSET_CEILING:
                raise ResourceError(
                    "uniformization: %d outward calls exceed the ceiling "
                    "of %d" % (len(occ), _UNIFORMIZE_SUBSET_CEILING))
            for bits in itertools.product((0, 1), repeat=len(occ)):
                D = frozenset(n for n, b in zip(occ, bits) if b)
                wit = min_witnesses(
                    (r for r in flat if r[1] not in dmap or r[1] in D),
                    chains).get(("S", q))
                if wit is None:
                    continue

                def fn(t, u, occ=tuple(occ), D=D):
                    p = prod(t)
                    for name in occ:
                        cl = dmap[name]
                        v = try_navigate(t, u, cl.instr)
                        hit = v is not None and (cl.state, v) in p
                        if hit != (name in D):
                            return False
                    return True

                td = OracleTest(fn, "productivity-pattern")
                rules.append(Rule(q, sym, j, intersect_tests(test, td),
                                  _unconvert(wit, dmap)))
    return Transducer(Md.input_alphabet, Md.output_alphabet, Md.states,
                      Md.initials, rules)


# ---------------------------------------------------------------------------
# Pipelines and decompositions

@dataclass(frozen=True)
class Pipeline:
    """A sequential composition of transducers; adjacent stages must agree
    on their middle alphabet.  ``linear_bound_constant`` records, when
    known, a constant c such that every translation pair has an
    intermediate witness of size at most c times the output size."""

    stages: tuple
    linear_bound_constant: object = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        for a, b in zip(self.stages, self.stages[1:]):
            if a.output_alphabet.symbols != b.input_alphabet.symbols:
                raise ContractError("adjacent stages disagree on alphabets")

    @classmethod
    def of(cls, P):
        """P itself when it is a pipeline, else the one-stage pipeline of
        the transducer P, with no known constant."""
        return P if isinstance(P, cls) else cls((P,))


@dataclass
class Decomposition:
    """A pruner pipeline followed by a remainder machine, equivalent (in
    the stated direction) to the decomposed machine."""

    pruner: Pipeline
    remainder: object
    constant: object = None
    witness_map: object = None


def pipeline_outputs(stages, t, max_size, intermediate_size=None):
    """Bounded-enumeration semantics of a pipeline: fold the per-stage
    output enumeration, capping intermediates at ``intermediate_size``
    (defaults to ``max_size``)."""
    if isinstance(stages, Pipeline):
        stages = stages.stages
    cur = {t}
    for i, M in enumerate(stages):
        bound = max_size if i == len(stages) - 1 else (
            intermediate_size if intermediate_size is not None else max_size)
        nxt = set()
        for s in cur:
            nxt |= enumerate_outputs(M, s, bound)
        cur = nxt
    return cur


# ---------------------------------------------------------------------------
# Productivity decomposition

_BEHAVIOUR_CEILING = 4096  # the most behaviours a productivity phase explores


def _bits(mask):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _move_tables(Mn):
    """The move rules of Mn per (symbol, child number), one row per state
    of ``sorted(Mn.states)``: (k, s) for a move into state number s, k
    being 0 for a stay, i for down_i and -1 for up."""
    number = {q: n for n, q in enumerate(sorted(Mn.states))}
    tables = collections.defaultdict(lambda: [[] for _ in number])
    for r in Mn.rules:
        if r.kind == "move":
            instr, s = r.rhs.label.instr, number[r.rhs.label.state]
            k = instr.index if instr.kind == "down" else -(instr == UP)
            tables[(r.symbol, r.child_no)][number[r.state]].append((k, s))
    return tables


def _exit_masks(rows, regions, n):
    """Per entry state of a node with the move ``rows``, the mask of the
    states its moves leave it in: bit s for a move -1 in state s; a move
    k >= 1 enters region k, whose ``regions[k-1][s]`` has the states it
    comes back in (bits below n) and leaves through (bits n and up).  A
    run reaching an entry state done before takes that state's exits."""
    low = (1 << n) - 1
    rel = []
    for p in range(n):
        seen, todo, exits = 1 << p, [p], 0
        while todo:
            for k, s in rows[todo.pop()]:
                if k < 0:
                    exits |= 1 << s
                    continue
                m = 1 << s if k == 0 else regions[k - 1][s]
                exits |= m & ~low
                back = m & low & ~seen
                seen |= back
                for r in _bits(back):
                    if r < p:
                        exits |= rel[r]
                    else:
                        todo.append(r)
        rel.append(exits)
    return tuple(rel)


def _through(rows, k, rels, order, tag=None):
    """Per behaviour rel in ``rels``, the excursions from a node's ``rows``
    into its region k (-1: up) when it behaves as rel: pairs (q, s), or
    with a ``tag`` (q, (s, "s")) back and (q, (s, tag)) through."""
    n = len(order)
    pairs = [(order[q], p) for q, row in enumerate(rows) for kk, p in row
             if kk == k]
    return {rel: frozenset((q, order[s] if tag is None else (
        order[s % n], "s" if s < n else tag)) for q, p in pairs
        for s in _bits(rel[p])) for rel in rels}


def _subtree_behaviours(Mn, tables):
    """``explore``'s (states, delta) of the subtrees' crossing behaviours
    (Shepherdson): per child number c = 1..max rank, the ``_exit_masks``
    of the move-only runs entering the root at c and leaving upward."""
    n, positions = len(Mn.states), range(1, Mn.input_alphabet.max_rank + 1)
    return explore(Mn.input_alphabet, lambda sym, kids: tuple(_exit_masks(
        tables[(sym, c)], [kid[i] for i, kid in enumerate(kids)], n)
        for c in positions), _BEHAVIOUR_CEILING, "excursion behaviours")


def _closure(found, step):
    """Grow ``found`` (value -> witness) breadth first by ``step(value)``'s
    (value, symbol) pairs: a new value's witness is its source's + symbol."""
    todo = collections.deque(found)
    while todo:
        x = todo.popleft()
        for y, sym in step(x):
            if y not in found:
                found[y] = found[x] + (sym,)
                todo.append(y)
                if len(found) > _BEHAVIOUR_CEILING:
                    raise ResourceError(
                        "chain behaviours: %d states exceed the ceiling of "
                        "%d" % (len(found), _BEHAVIOUR_CEILING))
    return found


def _chain_behaviours(Mn, tables, fits, sits):
    """The behaviours of chains of rank-1 nodes, each a child 1 as ``fits``
    allows, with least witnesses, and the steps that grow them: (down, up,
    rise, fall).  ``down`` has (top, masks), masks[c-1] for the chain
    entered at its top at child number c, left back up (low bits) or out
    of its bottom; witnesses list the bottom first.  ``up`` has (bottom,
    masks) for the chain entered from below, left back down (low bits) or
    out of its top at a child number c where ``sits(top, c)``; witnesses
    list the top first.  The chain rel None is the empty one."""
    alphabet, n = Mn.input_alphabet, len(Mn.states)
    syms1 = [a for a in alphabet if alphabet.rank(a) == 1]
    positions = range(1, alphabet.max_rank + 1)
    end = tuple(1 << (n + s) for s in range(n))

    @functools.lru_cache(maxsize=None)
    def rise(a, rel):  # a over the chain rel, at each child number
        return tuple(_exit_masks(tables[(a, c)], [rel or end], n)
                     for c in positions)

    @functools.lru_cache(maxsize=None)
    def fall(a, c, rel):  # a under the chain rel: up enters it
        return _exit_masks([[(-k, s) for k, s in row]
                            for row in tables[(a, c)]], [rel or end], n)

    down = _closure({(a, rise(a, None)): (a,) for a in syms1},
                    lambda x: (((a, rise(a, x[1][0])), a)
                               for a in syms1 if fits(a, 1, x[0])))
    up = _closure({(a, fall(a, c, None)): (a,) for a in syms1
                   for c in positions if sits(a, c)},
                  lambda x: (((b, fall(b, 1, x[1])), b)
                             for b in syms1 if fits(x[0], 1, b)))
    return down, up, rise, fall


def _rebuild(t, kept, make):
    """Rebuild t bottom-up without recursion: ``kept(u, node)``, asked
    about a node before its children, gives the child numbers of the node
    at u whose subtrees stay, and ``make(u, node, picks, kids)`` builds
    the image of that node from the images of those children."""
    order = []
    stack = [((), t)]
    while stack:
        u, node = stack.pop()
        picks = kept(u, node)
        order.append((u, node, picks))
        stack.extend((u + (i,), node.children[i - 1]) for i in picks)
    built = {}
    for u, node, picks in reversed(order):
        built[u] = make(u, node, picks,
                        [built.pop(u + (i,)) for i in picks])
    return built[()]


def _is_deterministic_local(M):
    return len(M.initials) == 1 and all(
        len(rs) <= 1 for rs in M._index.values())


def _normalize_for_pruning(M):
    if not is_local(M):
        raise ContractError("productivity decomposition needs a local "
                            "machine")
    return rename_states(normalize_outputs_stay(normalize_general(M)))


def _remainder_rules(gamma_syms, places, kept_of, gamma_leaf):
    """The rules of a phase's remainder.  At gamma symbol ``name`` of
    (sym, j, group, gamma) and each child number jp where the pruner can
    place it (0 when j is 0, else ``places(j, group)``) come the bodies
    ``kept_of(sym, j, group)`` keeps of the normalized machine, made once
    per (sym, j, group), then a rule q -> ``gamma_leaf(g)`` per (q, g)."""
    kept_of = functools.lru_cache(maxsize=None)(kept_of)
    rules = []
    for name, (sym, j, group, gamma) in gamma_syms.items():
        body = kept_of(sym, j, group) + [
            (q, gamma_leaf(g)) for q, g in sorted(gamma)]
        for jp in (0,) if j == 0 else places(j, group):
            rules += [Rule(q, name, jp, None, rhs) for q, rhs in body]
    return rules


def _leaves_phase(M):
    Mn = _normalize_for_pruning(M)
    calls = functools.lru_cache(maxsize=None)(call)  # shared leaves
    det = _is_deterministic_local(Mn)
    alphabet = Mn.input_alphabet

    def gname(sym, j, picks, gamma):
        ps = "".join(str(i) for i in picks) or "0"
        gs = "-".join("%s.%s" % p
                      for p in sorted(gamma)) or "0"
        return "%s~n%d~k%s~g%s" % (sym, j, ps, gs)

    by_sym = _rules_by(Mn, lambda r: (r.symbol, r.child_no))
    tables, order = _move_tables(Mn), sorted(Mn.states)
    behaviours, delta = _subtree_behaviours(Mn, tables)

    through = functools.lru_cache(maxsize=None)(  # into child i
        lambda sym, j, i: set(_through(tables[(sym, j)], i, {
            b[i - 1] for b in behaviours}, order).values()))
    into = functools.lru_cache(maxsize=None)(  # the guards' own: they
        lambda sym, j, i, rel: _through(  # keep no cache of the build
            tables[(sym, j)], i, [rel], order)[rel])

    @_per_tree
    def excursions(t):  # per node of t: the excursions into each child
        table = {}

        def make(u, node, picks, kids):  # kids: the children's behaviours
            sym, j = node.label, child_number(u)
            table[u] = [into(sym, j, i, b[i - 1])
                        for i, b in enumerate(kids, 1)]
            return delta[(sym, tuple(kids))]
        _rebuild(t, lambda u, node: range(1, len(node.children) + 1), make)
        return table

    def ghost(t, u, picks):  # the excursions into the unpicked children
        return frozenset().union(*(
            g for i, g in enumerate(excursions(t)[u], 1) if i not in picks))

    gamma_syms = {}
    nrules = []
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(alphabet.max_rank + 1):
            for n in range(rank + 1):
                for picks in itertools.combinations(range(1, rank + 1), n):
                    kids = [calls("p", down(i)) for i in picks]
                    gammas = {frozenset().union(*each) for each in
                              itertools.product(*[
                                  through(sym, j, i)
                                  for i in range(1, rank + 1)
                                  if i not in picks])}
                    for gamma in sorted(gammas, key=sorted):
                        name = gname(sym, j, picks, gamma)
                        gamma_syms[name] = (sym, j, picks, gamma)

                        def fn(t, u, picks=picks, gamma=gamma):
                            return ghost(t, u, picks) == gamma
                        nrules.append(Rule(
                            "p", sym, j,
                            OracleTest(fn, "exact-excursions"),
                            out(name, *kids)))
    gamma_alphabet = RankedAlphabet(
        {name: len(info[2]) for name, info in gamma_syms.items()})
    N = Transducer(alphabet, gamma_alphabet, ["p"], ["p"], nrules)

    def kept_of(sym, j, picks):  # a down move to child i leaves unless
        body = []                # i is picked, and then it is renumbered
        for r in by_sym.get((sym, j), ()):
            rhs, c = r.rhs, r.rhs.label
            if r.kind == "move" and c.instr.kind == "down":
                if c.instr.index not in picks:
                    continue
                rhs = calls(c.state, down(picks.index(c.instr.index) + 1))
            body.append((r.state, rhs))
        return body
    mrules = _remainder_rules(gamma_syms, lambda j, picks: range(1, j + 1),
                              kept_of, lambda qbar: calls(qbar, STAY))
    Mp = Transducer(gamma_alphabet, Mn.output_alphabet, Mn.states,
                    Mn.initials, mrules)

    witness = None
    if det:
        def witness(t):
            try:
                productive = trace_productive(Mn, t)
            except ContractError:
                return None
            # the productive nodes and their ancestors; each walk up
            # stops at the first node an earlier walk reached
            hot = set()
            for u in productive:
                while u not in hot:
                    hot.add(u)
                    u = u[:-1]

            def kept(u, node):
                return tuple(i for i in range(1, len(node.children) + 1)
                             if u + (i,) in hot)

            def make(u, node, picks, kids):
                g = ghost(t, u, picks)
                return Tree(gname(node.label, child_number(u), picks, g),
                            kids)
            return _rebuild(t, kept, make)

    return Decomposition(Pipeline((N,)), Mp, witness_map=witness)


def _monadic_phase(M, fits=None):
    """``fits(parent, k, sym)``, if given, says whether the inputs can have
    sym as the k-th child of parent (the root: child 0 of None)."""
    Mn = _normalize_for_pruning(M)
    calls = functools.lru_cache(maxsize=None)(call)  # shared leaves
    det = _is_deterministic_local(Mn)
    alphabet = Mn.input_alphabet
    maxr = alphabet.max_rank
    hat = {s: "%s~h" % s for s in alphabet if alphabet.rank(s) == 1}
    hat_alphabet = RankedAlphabet(
        dict(alphabet.symbols, **{h: 1 for h in hat.values()}))
    n1rules = []
    for sym in alphabet:
        n1rules += relabel_rules(alphabet, "h", sym, sym,
                                 ["h"] * alphabet.rank(sym))
        if sym in hat:  # the root is never hatted
            n1rules += relabel_rules(alphabet, "h", sym, hat[sym], ["h"])[1:]
    N1 = Transducer(alphabet, hat_alphabet, ["h"], ["h"], n1rules)

    fits = fits or (lambda parent, k, sym: True)

    @functools.lru_cache(maxsize=None)
    def sits(sym, j):  # whether sym can be the root or a child j
        return fits(None, 0, sym) if j == 0 else any(
            fits(x, j, sym) for x in alphabet if alphabet.rank(x) >= j)

    def g2name(sym, j, uset, gamma):
        us = "".join(sorted(uset)) or "0"
        gs = "-".join("%s.%s.%s" % (q, p[0], p[1])
                      for q, p in sorted(gamma)) or "0"
        return "%s~n%d~U%s~g%s" % (sym, j, us, gs)

    by_sym = _rules_by(Mn, lambda r: (r.symbol, r.child_no))
    tables, order = _move_tables(Mn), sorted(Mn.states)
    down_chains, up_chains, rise, fall = _chain_behaviours(Mn, tables, fits,
                                                           sits)

    def region(tag):  # the neighbour's region: -1 above, i at child i
        return -1 if tag == "u" else int(tag[1:])

    @functools.lru_cache(maxsize=None)
    def through(sym, j, tag):  # the excursions into a hatted neighbour,
        k = region(tag)        # per behaviour it can have
        rels = {rel for b, rel in up_chains if fits(b, 1, sym)} if k < 0 \
            else {rel[k - 1] for a, rel in down_chains if fits(sym, k, a)}
        return set(_through(tables[(sym, j)], k, rels, order, tag).values())
    into = functools.lru_cache(maxsize=None)(  # the guards' own
        lambda sym, j, tag, rel: _through(tables[(sym, j)], region(tag),
                                          [rel], order, tag)[rel])
    base = {h: a for a, h in hat.items()}

    @_per_tree
    def around(that):  # per unhatted node: (hatted neighbours, excursions)
        ups, table = {}, {}

        def kept(u, node):  # top-down: the hatted chain above each node
            if node.label in base:
                ups[u + (1,)] = fall(base[node.label], child_number(u),
                                     ups.pop(u, None))
            return range(1, len(node.children) + 1)

        def make(u, node, picks, kids):  # bottom-up: the chains below
            if node.label in base:
                return rise(base[node.label], kids[0] and kids[0][0])
            near = {"d%d" % i: d[i - 1] for i, d in enumerate(kids, 1) if d}
            if u in ups:
                near["u"] = ups.pop(u)
            sym, j = node.label, child_number(u)
            table[u] = frozenset(near), frozenset().union(*(
                into(sym, j, tag, rel) for tag, rel in near.items()))
        _rebuild(that, kept, make)
        return table

    gamma_syms = {}
    n2rules = [Rule("p", h, j, None, calls("p", down(1)))
               for h in hat.values() for j in range(1, maxr + 1)]
    for sym in alphabet:
        rank = alphabet.rank(sym)
        kids = [calls("p", down(i)) for i in range(1, rank + 1)]
        for j in range(maxr + 1):
            tags = ["u"] * (j == 1) + [  # a hat has rank 1
                "d%d" % i for i in range(1, rank + 1)]
            for size in range(len(tags) + 1):
                for utags in itertools.combinations(tags, size):
                    uset = frozenset(utags)
                    if "u" not in uset and not sits(sym, j):
                        continue
                    gammas = {frozenset().union(*each) for each in
                              itertools.product(*[through(sym, j, tag)
                                                  for tag in utags])}
                    for gamma in sorted(gammas, key=sorted):
                        name = g2name(sym, j, uset, gamma)
                        gamma_syms[name] = (sym, j, uset, gamma)

                        def fn(t, u, uset=uset, gamma=gamma):
                            return around(t)[u] == (uset, gamma)
                        n2rules.append(Rule(
                            "p", sym, j,
                            OracleTest(fn, "exact-chain-excursions"),
                            out(name, *kids)))
    gamma_alphabet = RankedAlphabet(
        {name: alphabet.rank(info[0])
         for name, info in gamma_syms.items()})
    N2 = Transducer(hat_alphabet, gamma_alphabet, ["p"], ["p"], n2rules)

    def tag(instr):  # the neighbour a move enters, None for a stay
        return None if instr == STAY else "u" if instr == UP else (
            "d%d" % instr.index)

    def kept_of(sym, j, uset):  # a move into a hatted neighbour leaves
        return [(r.state, r.rhs) for r in by_sym.get((sym, j), ())
                if r.kind != "move" or tag(r.rhs.label.instr) not in uset]
    mrules = _remainder_rules(
        gamma_syms,
        lambda j, uset: range(1, maxr + 1) if "u" in uset else (j,),
        kept_of, lambda end: calls(end[0], {"s": STAY, "u": UP}.get(
            end[1]) or down(int(end[1][1:]))))
    Mp = Transducer(gamma_alphabet, Mn.output_alphabet, Mn.states,
                    Mn.initials, mrules)

    witness = None
    if det:
        def witness(t):
            try:
                productive = trace_productive(Mn, t)
            except ContractError:
                return None

            def mark(u, node, picks, kids):
                if len(kids) == 1 and u != () \
                        and u not in productive \
                        and node.label in hat:
                    return Tree(hat[node.label], kids)
                return Tree(node.label, kids)

            that = _rebuild(
                t, lambda u, node: range(1, len(node.children) + 1), mark)
            return eval_deterministic(N2, that)[0]

    return Decomposition(Pipeline((N1, N2)), Mp, witness_map=witness)


def _leaves_fits(N):
    """``fits`` for the outputs of the leaves pruner N: the child k of a
    gamma symbol is one that N makes at its k-th pick (the root at 0)."""
    slot = {r.rhs.label: r.child_no for r in N.rules}
    picks = {r.rhs.label: [0] + [c.label.instr.index for c in r.rhs.children]
             for r in N.rules}
    return lambda parent, k, sym: slot[sym] == picks.get(parent, (0,))[k]


def productivity_decompose(M, phase):
    """Split a local machine into a pruning pipeline and a local
    remainder.  Phase "leaves" deletes subtrees no computation draws
    output from; phase "monadic" contracts chains of output-free monadic
    nodes.  Composing pruner and remainder refines M; restricted to
    outputs of fully productive runs it is exact.  The remainder reads a
    gamma symbol only at the child numbers where the pruner places it:
    the root at 0, a kept child j at 1..j (leaves), a node at its own j,
    or at any below a hatted parent, in the chain top's place (monadic)."""
    if phase == "leaves":
        return _leaves_phase(M)
    if phase == "monadic":
        return _monadic_phase(M)
    raise ContractError("unknown decomposition phase %r" % (phase,))


# ---------------------------------------------------------------------------
# Linear-bounded factorization

def linear_bounded_factorization(M):
    """Factor M into a pipeline of pruning stages and a remainder such
    that for every translation pair some intermediate tree has size at
    most twice the output size (every leaf and monadic node of the pruned
    input is productive)."""
    stages = []
    Mc = M
    wit_front = None
    if _distinct_tests(M):
        N, Mc = split_lookaround(M)
        stages.append(N)
        wit_front = N
    d1 = _leaves_phase(Mc)
    d2 = _monadic_phase(d1.remainder, _leaves_fits(d1.pruner.stages[0]))
    stages.extend(d1.pruner.stages)
    stages.extend(d2.pruner.stages)
    remainder = d2.remainder
    witness = None
    if d1.witness_map is not None and d2.witness_map is not None:
        def witness(t, front=wit_front, w1=d1.witness_map,
                    w2=d2.witness_map):
            if front is not None:
                t = eval_deterministic(front, t)[0]
                if t is None:
                    return None
            t1 = w1(t)
            if t1 is None:
                return None
            return w2(t1)

        rem = remainder

        def productive_input(t, u, rem=rem):
            # every leaf and every non-root monadic node must draw output
            # (the root stays even when it contributes nothing)
            try:
                productive = trace_productive(rem, t)
            except ContractError:
                return False
            for v, node in preorder(t):
                if not node.children or (len(node.children) == 1
                                         and v != ()):
                    if v not in productive:
                        return False
            return True
        remainder = _restrict_domain_test(
            remainder, OracleTest(productive_input, "fully-productive"))
    return Decomposition(Pipeline(tuple(stages)), remainder, constant=2,
                         witness_map=witness)


def linear_bounded_pipeline(P, corpus_bound=4):
    """Rewrite a pipeline so that every stage is linear-bounded: each
    junction is factored through the productivity decomposition, and
    automaton-backed pruning stages are absorbed into the stage to their
    left when a composition route exists.  The resulting constant is 2
    per junction (1 for pipelines of relabelers, which are untouched)."""
    stages = list(P.stages)
    if len(stages) <= 1:
        return Pipeline(tuple(stages), 1)
    if all(is_relabeling(s) for s in stages):
        return Pipeline(tuple(stages), 1)
    out_stages = [stages[0]]
    constant = 1
    for M2 in stages[1:]:
        d = linear_bounded_factorization(M2)
        lead = out_stages.pop()
        pruners = list(d.pruner.stages)
        while pruners:
            try:
                lead = absorb_right(lead, pruners[0], corpus_bound)
            except (ContractError, ResourceError):
                break
            pruners.pop(0)
        out_stages.append(lead)
        out_stages.extend(pruners)
        out_stages.append(d.remainder)
        constant *= 2
    return Pipeline(tuple(out_stages), constant)
