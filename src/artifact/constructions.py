"""Closure constructions on tree-walking transducers.

The operations here rewrite machines while preserving their semantics (or
a stated projection of it): test disjointification, stay removal, domain
and range restriction, look-around splitting, look-ahead conversion,
sequential composition in several regimes, uniformization, domain and
image automata, the two productivity phases (leaf pruning and monadic
chain contraction), and the linear-bounded pipeline factorization built
from them.
"""

import itertools
from dataclasses import dataclass, field

from .core import (
    MarkedAlphabet, RankedAlphabet, Tree, child_number, down, leaf,
    marked_name, navigate, preorder, split_marked_name, subtree_at,
    try_navigate, STAY, UP,
)
from .regular import (
    AutomatonTest, BottomUpAutomaton, NodeTest, OracleTest,
    RegularTreeGrammar, ResourceError, SubTest, automaton_all,
    enumerate_grammar, eval_test, grammar_finite, grammar_to_automaton,
    to_automaton_test, _realizable,
)
from .transducer import (
    Call, ContractError, Rule, Transducer, call, classify,
    enumerate_outputs, eval_deterministic, normalize_general,
    normalize_outputs_stay, out, trace_productive, _applicable_all,
    _automaton_like, _choice_map, _productive_from, _successors, _values,
)


# ---------------------------------------------------------------------------
# Shared helpers

def rename_states(M, prefix="q"):
    """An isomorphic copy of M whose states are short strings, numbered in
    a repr-sorted order."""
    names = {}
    for s in sorted(M.states, key=repr):
        names[s] = "%s%d" % (prefix, len(names))

    def conv(node):
        if isinstance(node.label, Call):
            return Tree(Call(names[node.label.state], node.label.instr), ())
        return Tree(node.label, [conv(c) for c in node.children])

    rules = [Rule(names[r.state], r.symbol, r.child_no, r.test, conv(r.rhs))
             for r in M.rules]
    return Transducer(M.input_alphabet, M.output_alphabet,
                      list(names.values()),
                      [names[q] for q in M.initials], rules)


def _test_base_alphabet(test):
    if isinstance(test, AutomatonTest):
        return test.aut.alphabet.base
    return test.aut.alphabet


def intersect_tests(a, b):
    """The conjunction of two node tests, staying in the most structured
    representation available (None absorbs; two subtree tests stay a
    subtree test; two automaton-backed tests stay automaton-backed)."""
    if a is None:
        return b
    if b is None:
        return a
    if isinstance(a, SubTest) and isinstance(b, SubTest) \
            and a.aut.alphabet == b.aut.alphabet:
        return SubTest(a.aut.intersect(b.aut))
    if isinstance(a, (SubTest, AutomatonTest)) \
            and isinstance(b, (SubTest, AutomatonTest)):
        base = _test_base_alphabet(a)
        return AutomatonTest(to_automaton_test(a, base).aut.intersect(
            to_automaton_test(b, base).aut))
    sub = getattr(a, "subtest", False) and getattr(b, "subtest", False)
    return OracleTest(
        lambda t, u, a=a, b=b: eval_test(a, t, u) and eval_test(b, t, u),
        "and(%r,%r)" % (a, b), subtest=sub)


def _per_tree(fn):
    """Memoize a per-input-tree computation."""
    cache = {}

    def get(t):
        if t not in cache:
            cache[t] = fn(t)
        return cache[t]
    return get


def productive_configs_nondet(M):
    """Per-tree map to the set of configurations from which some finite
    complete computation exists (any-rule semantics).

    The set is the least model of the Horn clauses cfg <- s_1 & ... & s_k,
    one per configuration and applicable rule with the distinct successors
    s_i.  Each clause counts its successors not yet proven, and a queue of
    proven configurations counts them down (Dowling and Gallier 1984)."""
    def compute(t):
        heads = []  # per clause: its configuration
        unproven = []  # per clause: successors not yet proven
        waiting = {}  # configuration -> clauses with it as a successor
        queue = []
        for cfg, rs in _applicable_all(M, t):
            for r in rs:
                ss = set(_successors(r, t, cfg[1]))
                for s in ss:
                    waiting.setdefault(s, []).append(len(heads))
                heads.append(cfg)
                unproven.append(len(ss))
                if not ss:
                    queue.append(cfg)
        prod = set()
        while queue:
            cfg = queue.pop()
            if cfg in prod:
                continue
            prod.add(cfg)
            for k in waiting.get(cfg, ()):
                unproven[k] -= 1
                if not unproven[k]:
                    queue.append(heads[k])
        return frozenset(prod)
    return _per_tree(compute)


def deterministic_values(M):
    """Per-tree map from every productive configuration of a deterministic
    machine to the output subtree it generates."""
    def compute(t):
        rmap = _choice_map(M, t)
        _, order, succs = _productive_from(rmap, rmap, t)
        return _values(rmap, order, succs)[0]
    return _per_tree(compute)


def _domain_oracle(M):
    """An oracle test for membership of the whole input in dom(M), for
    deterministic M."""
    has = _per_tree(lambda t: eval_deterministic(M, t)[0] is not None)
    return OracleTest(lambda t, u: has(t), "dom")


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


def _chi_augment(M):
    """Pair every state with the child number its computation's next
    output node will take; output rules pass position k to their k-th
    call.  Needs a machine without general rules."""
    width = M.output_alphabet.max_rank
    rules = []
    for r in M.rules:
        if r.kind == "general":
            raise ContractError(
                "child-index augmentation needs move and output rules only")
        for i in range(width + 1):
            if r.kind == "move":
                c = r.rhs.label
                rhs = call((c.state, i), c.instr)
            else:
                rhs = Tree(r.rhs.label,
                           [call((c.label.state, k), c.label.instr)
                            for k, c in enumerate(r.rhs.children, 1)])
            rules.append(Rule((r.state, i), r.symbol, r.child_no, r.test,
                              rhs))
    states = [(q, i) for q in M.states for i in range(width + 1)]
    return Transducer(M.input_alphabet, M.output_alphabet, states,
                      [(q0, 0) for q0 in M.initials], rules)


_SINK = "~product-sink~"


def _product_automaton(auts, ceiling=4096):
    """The reachable product of several automata over a shared alphabet,
    totalized with a sink state.  Returns (states, delta, sink)."""
    alphabet = auts[0].alphabet
    states = set()
    delta = {}
    changed = True
    while changed:
        changed = False
        known = sorted(states, key=repr)
        for sym in alphabet:
            rank = alphabet.rank(sym)
            for combo in itertools.product(known, repeat=rank):
                if (sym, combo) in delta:
                    continue
                try:
                    tgt = tuple(a.delta[(sym, tuple(c[i] for c in combo))]
                                for i, a in enumerate(auts))
                except KeyError:
                    tgt = _SINK
                delta[(sym, combo)] = tgt
                if tgt != _SINK and tgt not in states:
                    states.add(tgt)
                    changed = True
                    if len(states) > ceiling:
                        raise ResourceError("product automaton too large")
    allstates = sorted(states, key=repr) + [_SINK]
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for combo in itertools.product(allstates, repeat=rank):
            delta.setdefault((sym, combo), _SINK)
    return allstates, delta, _SINK


def _pattern_of(state, auts):
    if state == _SINK:
        return tuple(False for _ in auts)
    return tuple(state[i] in a.finals for i, a in enumerate(auts))


def _grammar_min_witness(g):
    """Map each nonterminal to the least tree it derives (ordered by size,
    then serialization), when any."""
    wit = {}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            t = _instantiate_min(rhs, g, wit)
            if t is not None and (lhs not in wit or t < wit[lhs]):
                wit[lhs] = t
                changed = True
    return wit


def _instantiate_min(rhs, g, wit):
    if g.is_nonterminal(rhs.label):
        return wit.get(rhs.label)
    kids = [_instantiate_min(c, g, wit) for c in rhs.children]
    if any(k is None for k in kids):
        return None
    return Tree(rhs.label, kids)


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

    def conv(node):
        if isinstance(node.label, Call):
            c = node.label
            if c.instr == STAY:
                return leaf(("S", c.state))
            return leaf(dname(c))
        return Tree(node.label, [conv(c) for c in node.children])

    groups = {}
    for r in M.rules:
        groups.setdefault((r.symbol, r.child_no, r.test), []).append(
            (r.state, conv(r.rhs)))
    base = dict(M.output_alphabet.symbols)
    for name in dmap:
        base[name] = 0
    terminals = RankedAlphabet(base)
    return groups, dmap, terminals


def _occurring_dnames(rhs_list, dmap):
    occ = set()
    for rhs in rhs_list:
        stack = [rhs]
        while stack:
            n = stack.pop()
            if n.label in dmap:
                occ.add(n.label)
            stack.extend(n.children)
    return occ


def _unconvert(node, dmap):
    if node.label in dmap:
        return Tree(dmap[node.label], ())
    return Tree(node.label, [_unconvert(c, dmap) for c in node.children])


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


def disjoint_tests(M, ceiling=4096):
    """Replace the tests of M by atoms of the boolean algebra they
    generate, so that any two rule tests are identical or disjoint.  Rules
    without a test are copied once per atom.  Semantics is unchanged;
    oracle tests are rejected."""
    tests = _distinct_tests(M)
    if not tests:
        return M
    for t in tests:
        if not isinstance(t, (SubTest, AutomatonTest)):
            raise ContractError("cannot disjointify %r" % (t,))
    tindex = {id(t): i for i, t in enumerate(tests)}
    if all(isinstance(t, SubTest) for t in tests):
        auts = [t.aut for t in tests]
        states, delta, sink = _product_automaton(auts, ceiling)
        real = _realizable(BottomUpAutomaton(
            auts[0].alphabet, states, [], delta, check_total=False))
        patterns = sorted({_pattern_of(p, auts) for p in real})
        atoms = {}
        for pat in patterns:
            finals = [p for p in states if _pattern_of(p, auts) == pat]
            atoms[pat] = SubTest(BottomUpAutomaton(
                auts[0].alphabet, states, finals, delta, check_total=False))
    else:
        base = M.input_alphabet
        auts = [to_automaton_test(t, base).aut for t in tests]
        states, delta, sink = _product_automaton(auts, ceiling)
        real = _realizable(BottomUpAutomaton(
            auts[0].alphabet, states, [], delta, check_total=False))
        patterns = sorted({_pattern_of(p, auts) for p in real})
        atoms = {}
        for pat in patterns:
            finals = [p for p in states if _pattern_of(p, auts) == pat]
            atoms[pat] = AutomatonTest(BottomUpAutomaton(
                auts[0].alphabet, states, finals, delta, check_total=False))
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

def stay_free(M, finitary_asserted=True, search_ceiling=512,
              enumeration_ceiling=10 ** 9):
    """Remove the stay instruction.  Every left-hand side gets the family
    of trees its stay-closure derives; an infinite family is cut back to
    the union of its maximal finite restrictions of the occurring
    outward-call symbols (the fixpoint of removing members with infinite
    families)."""
    if not finitary_asserted:
        raise ContractError("stay removal needs the finitary assertion")
    if all(c.instr != STAY for r in M.rules for c in r.calls()):
        return M
    Md = disjoint_tests(M) if _distinct_tests(M) else M
    groups, dmap, terminals = _stay_closure_groups(Md)
    rules = []
    for (sym, j, test), pairs in groups.items():
        nts = {("S", q) for q, _ in pairs}
        stack = [rhs for _, rhs in pairs]
        while stack:
            node = stack.pop()
            if isinstance(node.label, tuple):
                nts.add(node.label)
            stack.extend(node.children)
        grules = [(("S", q), rhs) for q, rhs in pairs]
        for q in sorted({q for q, _ in pairs}, key=repr):
            g = RegularTreeGrammar(nts, terminals, {("S", q)}, grules)
            members = set()
            if grammar_finite(g):
                members = enumerate_grammar(g, enumeration_ceiling)
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
                    if checks > search_ceiling:
                        raise ResourceError("stay-removal search too large")
                    sub_rules = [(lhs, rhs) for lhs, rhs in grules
                                 if _occurring_dnames([rhs], dmap) <= keep]
                    gk = RegularTreeGrammar(nts, terminals, {("S", q)},
                                            sub_rules)
                    if grammar_finite(gk):
                        finite_sets.append(keep)
                        members |= enumerate_grammar(gk, enumeration_ceiling)
                    else:
                        for d in keep:
                            smaller = keep - {d}
                            if smaller not in seen:
                                seen.add(smaller)
                                stack.append(smaller)
            for m in sorted(members):
                rules.append(Rule(q, sym, j, test, _unconvert(m, dmap)))
    return Transducer(Md.input_alphabet, Md.output_alphabet, Md.states,
                      Md.initials, rules)


# ---------------------------------------------------------------------------
# Domain and range restriction

def _restrict_domain_test(M, test):
    rules = []
    for r in M.rules:
        if r.state in M.initials and r.child_no == 0:
            rules.append(Rule(r.state, r.symbol, 0,
                              intersect_tests(r.test, test), r.rhs))
        else:
            rules.append(r)
    return Transducer(M.input_alphabet, M.output_alphabet, M.states,
                      M.initials, rules)


def restrict_domain(M, L):
    """Restrict the domain of M to the language of the automaton L over
    the input alphabet: the root rules of initial states get the subtree
    test for L conjoined."""
    if L.alphabet.symbols != M.input_alphabet.symbols:
        raise ContractError("domain automaton is over the wrong alphabet")
    return _restrict_domain_test(M, SubTest(L))


def _identity_on(L):
    """The nondeterministic relabeler computing the identity exactly on
    the language of L: states are L's states, read bottom-up by guessing
    the subtree state of every node."""
    alphabet = L.alphabet
    if not L.finals:
        dead = Transducer(alphabet, alphabet, ["q0"], ["q0"],
                          [])
        return dead
    rules = []
    for (sym, combo), p in L.delta.items():
        rank = alphabet.rank(sym)
        for j in range(alphabet.max_rank + 1):
            rules.append(Rule(p, sym, j, None,
                              out(sym, *[call(combo[i - 1], down(i))
                                         for i in range(1, rank + 1)])))
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
        rank = alphabet.rank(sym)
        for j in range(alphabet.max_rank + 1):
            for c, test in enumerate(classes):
                nrules.append(Rule("p", sym, j, test,
                                   out("%s~c%d" % (sym, c),
                                       *[call("p", down(i))
                                         for i in range(1, rank + 1)])))
    N = Transducer(alphabet, ann, ["p"], ["p"], nrules)
    mrules = []
    for r in Md.rules:
        c = 0 if r.test is None else cindex[id(r.test)]
        mrules.append(Rule(r.state, "%s~c%d" % (r.symbol, c), r.child_no,
                           None, r.rhs))
    M2 = Transducer(ann, Md.output_alphabet, Md.states, Md.initials, mrules)
    return N, M2


class ChildProfileTest(NodeTest):
    """Holds at (t, u) iff u's label is ``symbol`` and, for every tracked
    automaton, the states of u's child subtrees match the stored profile.
    A subtree-only test: it never looks above u."""

    subtest = True

    def __init__(self, symbol, profiles, automata):
        self.symbol = symbol
        self.profiles = tuple(tuple(p) for p in profiles)
        self.automata = tuple(automata)

    def eval(self, t, u):
        node = subtree_at(t, u)
        if node.label != self.symbol:
            return False
        for aut, prof in zip(self.automata, self.profiles):
            for c, p in zip(node.children, prof):
                if aut.run(c) != p:
                    return False
        return True

    def __repr__(self):
        return "ChildProfileTest(%s, %r)" % (self.symbol, self.profiles)


def _marked_product(tests, base):
    """The joint product of the marked automata of several tests, split
    into the states reachable without a mark (P0, the subtree states of
    unmarked trees) and with exactly one mark (P1)."""
    auts = [to_automaton_test(t, base).aut for t in tests]
    marked = MarkedAlphabet(base)
    pstates, pdelta, sink = _product_automaton(auts)
    p0 = set()
    p1 = set()
    changed = True
    while changed:
        changed = False
        for sym in base:
            rank = base.rank(sym)
            mk0 = marked_name(sym, 0)
            mk1 = marked_name(sym, 1)
            for combo in itertools.product(sorted(p0, key=repr),
                                           repeat=rank):
                for tgt, pool in ((pdelta[(mk0, combo)], p0),
                                  (pdelta[(mk1, combo)], p1)):
                    if tgt != sink and tgt not in pool:
                        pool.add(tgt)
                        changed = True
            for i in range(rank):
                for combo in itertools.product(
                        *[sorted(p1 if k == i else p0, key=repr)
                          for k in range(rank)]):
                    tgt = pdelta[(mk0, combo)]
                    if tgt != sink and tgt not in p1:
                        p1.add(tgt)
                        changed = True
    delta0 = {}
    for (name, combo), tgt in pdelta.items():
        b, bit = split_marked_name(name)
        if bit == 0:
            delta0[(b, combo)] = tgt
    proj = BottomUpAutomaton(base, pstates, [], delta0, check_total=False)
    return auts, pdelta, sink, frozenset(p0), frozenset(p1), proj


def lookahead_of_topdown(M, state_ceiling=4096):
    """Convert the look-around tests of a machine without up-moves into
    look-ahead: states carry, per test, the set of marked-run product
    states the context above maps to acceptance, and rules carry
    child-profile tests pinning the children's subtree states."""
    for r in M.rules:
        for c in r.calls():
            if c.instr.kind == "up":
                raise ContractError(
                    "look-ahead conversion needs a machine without up-moves")
    tests = _distinct_tests(M)
    if not tests:
        return M
    base = M.input_alphabet
    auts, pdelta, sink, p0, p1, proj = _marked_product(tests, base)
    tindex = {id(t): i for i, t in enumerate(tests)}
    finals0 = tuple(frozenset(p for p in p1 if p[i] in a.finals)
                    for i, a in enumerate(auts))
    profiles = sorted(p0, key=repr)
    test_cache = {}

    def mk_test(sym, prof):
        key = (sym, prof)
        if key not in test_cache:
            test_cache[key] = ChildProfileTest(sym, (prof,), (proj,))
        return test_cache[key]

    seen_ceiling = [0]

    def rules_for(state):
        q, sbar = state
        seen_ceiling[0] += 1
        if seen_ceiling[0] > state_ceiling:
            raise ResourceError("look-ahead state space too large")
        made = []
        for r in M.rules:
            if r.state != q:
                continue
            sym = r.symbol
            m = base.rank(sym)
            mk1 = marked_name(sym, 1)
            mk0 = marked_name(sym, 0)
            for prof in itertools.product(profiles, repeat=m):
                if r.test is not None:
                    i = tindex[id(r.test)]
                    if pdelta[(mk1, prof)] not in sbar[i]:
                        continue
                ctx = []
                for c in range(m):
                    ctx.append(tuple(
                        frozenset(p for p in p1
                                  if pdelta[(mk0, prof[:c] + (p,)
                                             + prof[c + 1:])] in s)
                        for s in sbar))

                def conv(node):
                    if isinstance(node.label, Call):
                        cl = node.label
                        if cl.instr == STAY:
                            return Tree(Call((cl.state, sbar), STAY), ())
                        return Tree(Call((cl.state,
                                          ctx[cl.instr.index - 1]),
                                         cl.instr), ())
                    return Tree(node.label,
                                [conv(ch) for ch in node.children])

                test = None if m == 0 else mk_test(sym, prof)
                made.append(Rule(state, sym, r.child_no, test,
                                 conv(r.rhs)))
        return made

    initials = [(q0, finals0) for q0 in M.initials]
    return _assemble(base, M.output_alphabet, initials, rules_for)


def split_lookaround_nondet(M):
    """Split a machine whose tests are all subtree tests, or all
    child-profile tests over one shared automaton family, into a
    nondeterministic annotating relabeler (guessing subtree states and
    verifying them bottom-up) and a local machine."""
    tests = _distinct_tests(M)
    if not tests:
        return identity_like(M.input_alphabet), M
    if all(isinstance(t, SubTest) for t in tests):
        auts = [t.aut for t in tests]
        states, delta, sink = _product_automaton(auts)
        tindex = {id(t): i for i, t in enumerate(tests)}
        patterns = sorted({_pattern_of(p, auts) for p in states})
        pindex = {pat: c for c, pat in enumerate(patterns)}
        alphabet = M.input_alphabet
        ann = _annotated_alphabet(alphabet, len(patterns))
        nrules = []
        for (sym, combo), p in delta.items():
            if p == sink or sink in combo:
                continue
            rank = alphabet.rank(sym)
            c = pindex[_pattern_of(p, auts)]
            for j in range(alphabet.max_rank + 1):
                nrules.append(Rule(p, sym, j, None,
                                   out("%s~c%d" % (sym, c),
                                       *[call(combo[i - 1], down(i))
                                         for i in range(1, rank + 1)])))
        N = Transducer(alphabet, ann, [s for s in states if s != sink],
                       [s for s in states if s != sink], nrules)
        mrules = []
        for r in M.rules:
            if r.test is None:
                hits = range(len(patterns))
            else:
                i = tindex[id(r.test)]
                hits = [c for c, pat in enumerate(patterns) if pat[i]]
            for c in hits:
                mrules.append(Rule(r.state, "%s~c%d" % (r.symbol, c),
                                   r.child_no, None, r.rhs))
        M2 = Transducer(ann, M.output_alphabet, M.states, M.initials,
                        mrules)
        return N, M2
    if all(isinstance(t, ChildProfileTest) for t in tests):
        fam = tests[0].automata
        if any(t.automata != fam for t in tests):
            raise ContractError("child-profile tests over mixed automata")
        auts = list(fam)
        states, delta, sink = _product_automaton(auts)
        alphabet = M.input_alphabet
        # class of a node: its symbol plus its children's state tuples
        combos = sorted({(sym, combo) for (sym, combo), p in delta.items()
                         if p != sink and sink not in combo}, key=repr)
        cindex = {sc: c for c, sc in enumerate(combos)}
        ann = _annotated_alphabet(alphabet, len(combos))
        nrules = []
        for (sym, combo), p in delta.items():
            if p == sink or sink in combo:
                continue
            rank = alphabet.rank(sym)
            c = cindex[(sym, combo)]
            for j in range(alphabet.max_rank + 1):
                nrules.append(Rule(p, sym, j, None,
                                   out("%s~c%d" % (sym, c),
                                       *[call(combo[i - 1], down(i))
                                         for i in range(1, rank + 1)])))
        N = Transducer(alphabet, ann, [s for s in states if s != sink],
                       [s for s in states if s != sink], nrules)

        def test_holds(test, sym, combo):
            if test is None:
                return True
            if test.symbol != sym:
                return False
            for i in range(len(auts)):
                for k, childstate in enumerate(combo):
                    if childstate[i] != test.profiles[i][k]:
                        return False
            return True

        mrules = []
        for r in M.rules:
            for c, (sym, combo) in enumerate(combos):
                if sym != r.symbol:
                    continue
                if test_holds(r.test, sym, combo):
                    mrules.append(Rule(r.state, "%s~c%d" % (sym, c),
                                       r.child_no, None, r.rhs))
        M2 = Transducer(ann, M.output_alphabet, M.states, M.initials,
                        mrules)
        return N, M2
    raise ContractError("cannot split tests of mixed or oracle kinds")


def identity_like(alphabet):
    """The one-state total identity relabeler over an alphabet."""
    rules = []
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(alphabet.max_rank + 1):
            rules.append(Rule("q", sym, j, None,
                              out(sym, *[call("q", down(i))
                                         for i in range(1, rank + 1)])))
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
    if all(isinstance(t, SubTest) for t in tests2):
        M2d = disjoint_tests(M2)
        atoms = _distinct_tests(M2d)
        classes = list(atoms)
        bottom = None
    elif all(isinstance(t, ChildProfileTest) for t in tests2):
        M2d = M2
        classes = list(tests2)
        bottom = "bottom"
        classes.append(bottom)
    else:
        raise ContractError(
            "localization needs subtree-style tests on the second machine")
    cindex = {id(c): i for i, c in enumerate(classes)}
    M1n = normalize_general(M1)
    values = deterministic_values(M1n)

    def class_holds(c, v):
        if c == "bottom":
            return not any(eval_test(x, v, ()) for x in classes
                           if x != "bottom")
        return eval_test(c, v, ())

    ann = _annotated_alphabet(M1n.output_alphabet, len(classes))
    rules1 = []
    for r in M1n.rules:
        if r.kind == "move":
            rules1.append(r)
            continue
        for c, cls in enumerate(classes):
            def fn(t, u, r=r, cls=cls):
                v = values(t).get((r.state, u))
                return v is not None and class_holds(cls, v)
            inv = OracleTest(fn, "outclass%d" % c)
            rhs = Tree("%s~c%d" % (r.rhs.label, c),
                       [Tree(ch.label, ()) for ch in r.rhs.children])
            rules1.append(Rule(r.state, r.symbol, r.child_no,
                               intersect_tests(r.test, inv), rhs))
    M1p = Transducer(M1n.input_alphabet, ann, M1n.states, M1n.initials,
                     rules1)
    rules2 = []
    for r in M2d.rules:
        if r.test is None:
            hits = range(len(classes))
        else:
            hits = [cindex[id(r.test)]]
        for c in hits:
            rules2.append(Rule(r.state, "%s~c%d" % (r.symbol, c),
                               r.child_no, None, r.rhs))
    M2p = Transducer(ann, M2d.output_alphabet, M2d.states, M2d.initials,
                     rules2)
    return M1p, M2p


# ---------------------------------------------------------------------------
# Sequential composition

def _check_alphabets(M1, M2):
    if M1.output_alphabet.symbols != M2.input_alphabet.symbols:
        raise ContractError("composition needs matching middle alphabets")


def _require_local(M2):
    if any(r.test is not None for r in M2.rules):
        raise ContractError("second machine must be local here")


def _pruning_shape(M2):
    for r in M2.rules:
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


def compose_with_pruning(M1, M2):
    """Compose an arbitrary machine with a local pruning machine.  Pruning
    never copies its input, so nondeterminism in M1 is harmless; a deleted
    subtree only needs an oracle check that M1 could have produced some
    output for it."""
    _check_alphabets(M1, M2)
    _require_local(M2)
    if not _pruning_shape(M2):
        raise ContractError("second machine must be pruning here")
    M1a = _chi_augment(normalize_general(M1))
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

    def rules_for(state):
        _, pa, q = state
        made = []
        for r in M1a.rules:
            if r.state != pa:
                continue
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


def _compose_general(M1, M2, with_backtracking):
    """Shared product for composing a deterministic M1 with a local,
    deterministic M2; ``with_backtracking`` additionally supports up-moves
    of M2 through the unique-use parent structure of M1's computation."""
    _check_alphabets(M1, M2)
    _require_local(M2)
    if len(M1.initials) != 1 or len(M2.initials) != 1:
        raise ContractError("this composition needs single initial states")
    M1a = _chi_augment(normalize_general(M1))
    M2n = normalize_general(M2)
    rules1 = list(M1a.rules)
    ridx_of = {id(r): i for i, r in enumerate(rules1)}
    if not with_backtracking:
        for r in M2n.rules:
            for c in r.calls():
                if c.instr.kind == "up":
                    raise ContractError(
                        "up-moves of the second machine need the "
                        "single-use composition")

    if with_backtracking:
        def parents_of(t):
            rmap = _choice_map(M1a, t)
            init = (next(iter(M1a.initials)), ())
            prodc, order, succs = _productive_from([init], rmap, t)
            pm = {}
            if init in prodc:
                for cfg in order:
                    for s in succs[cfg]:
                        if s in pm:
                            raise ContractError(
                                "first machine is not single-use at %r"
                                % (s,))
                        pm[s] = cfg
            return pm
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
        for r in rules1:
            if r.state != pa:
                continue
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

    def fin_rules(state):
        _, p, q = state
        made = []
        for sym in alphabet:
            rank = alphabet.rank(sym)
            for (pbar, alpha) in sorted(cands.get(p, ()), key=repr):
                if alpha.kind == "down":
                    made.append(Rule(state, sym, alpha.index,
                                     parent_test(p, pbar, "down", None),
                                     call(("back", pbar, q), UP)))
                elif alpha.kind == "stay":
                    for j in range(alphabet.max_rank + 1):
                        made.append(Rule(state, sym, j,
                                         parent_test(p, pbar, "stay", None),
                                         call(("back", pbar, q), STAY)))
                else:
                    for i in range(1, rank + 1):
                        for j in range(alphabet.max_rank + 1):
                            made.append(Rule(
                                state, sym, j,
                                parent_test(p, pbar, "up", i),
                                call(("back", pbar, q), down(i))))
        return made

    def back_rules(state):
        _, pbar, q = state
        made = []
        for r in rules1:
            if r.state != pbar:
                continue
            if r.kind != "move":
                made.append(Rule(state, r.symbol, r.child_no, r.test,
                                 call(("rq", ridx_of[id(r)], q), STAY)))
                continue
            rank = alphabet.rank(r.symbol)
            for (pbb, alpha) in sorted(cands.get(pbar, ()), key=repr):
                if alpha.kind == "down":
                    if r.child_no == alpha.index:
                        made.append(Rule(
                            state, r.symbol, r.child_no,
                            intersect_tests(r.test, parent_test(
                                pbar, pbb, "down", None)),
                            call(("back", pbb, q), UP)))
                elif alpha.kind == "stay":
                    made.append(Rule(
                        state, r.symbol, r.child_no,
                        intersect_tests(r.test, parent_test(
                            pbar, pbb, "stay", None)),
                        call(("back", pbb, q), STAY)))
                else:
                    for i in range(1, rank + 1):
                        made.append(Rule(
                            state, r.symbol, r.child_no,
                            intersect_tests(r.test, parent_test(
                                pbar, pbb, "up", i)),
                            call(("back", pbb, q), down(i))))
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


def compose_det_topdown(M1, M2):
    """Compose a deterministic machine with a deterministic local machine
    that never moves up.  When the second machine is also stay-free the
    product substitutes its moves directly and preserves the pruning
    shape; the composition is guarded on membership in dom(M1)."""
    if _pruning_shape(M2):
        # stay-free deleting-only second machine: reuse the pruning
        # product (which keeps the pruning shape), then guard the domain
        _require_local(M2)
        if len(M1.initials) != 1:
            raise ContractError("this composition needs a single initial "
                                "state on the first machine")
        prodM = compose_with_pruning(M1, M2)
        dom = _domain_oracle(_chi_augment(normalize_general(M1)))
        return _guard_initial(prodM, dom)
    return _compose_general(M1, M2, with_backtracking=False)


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
    return _compose_general(M1, M2, with_backtracking=True)


def absorb_right(M1, M2, corpus_bound=4):
    """Absorb M2 into a single machine equivalent to running M1 then M2,
    choosing a composition route from the class flags of the two machines.
    Requires automaton-backed tests on M2."""
    f1 = classify(M1, corpus_bound=corpus_bound)
    f2 = classify(M2, corpus_bound=corpus_bound)
    route_ok = all(r.test is None
                   or isinstance(r.test, (SubTest, AutomatonTest,
                                          ChildProfileTest))
                   for r in M2.rules)
    if not route_ok:
        raise ContractError("absorption needs automaton-backed tests")
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

def _antichain(sets):
    mins = []
    for s in sorted(sets, key=lambda x: (len(x), sorted(map(repr, x)))):
        if not any(m <= s for m in mins):
            mins.append(s)
    return frozenset(mins)


def _cross_union(optss):
    """All minimal unions picking one set from each collection."""
    acc = [frozenset()]
    for opts in optss:
        if not opts:
            return frozenset()
        acc = list(_antichain([a | o for a in acc for o in opts]))
    return _antichain(acc)


def domain_automaton(M, state_ceiling=2048, context_ceiling=512):
    """The bottom-up automaton accepting dom(M).  A state records the
    joint test-automaton state of the subtree and, for every reachable
    context class, the subtree's behavior summary: which (child number,
    state, exit-state set) claims have a complete computation inside the
    subtree."""
    tests = _distinct_tests(M)
    for t in tests:
        if not isinstance(t, (SubTest, AutomatonTest)):
            raise ContractError(
                "domain automaton needs automaton-backed tests")
    base = M.input_alphabet
    maxr = base.max_rank
    states_q = sorted(M.states, key=repr)
    if tests:
        auts, pdelta, sink, p0, p1, _proj = _marked_product(tests, base)
        tindex = {id(t): i for i, t in enumerate(tests)}
        finals1 = tuple(frozenset(p for p in p1 if p[i] in a.finals)
                        for i, a in enumerate(auts))
        profiles0 = sorted(p0, key=repr)
        # closure of the reachable context classes
        contexts = {finals1}
        frontier = [finals1]
        while frontier:
            sbar = frontier.pop()
            for sym in base:
                m = base.rank(sym)
                mk0 = marked_name(sym, 0)
                for prof in itertools.product(profiles0, repeat=m):
                    for c in range(m):
                        ctx = tuple(
                            frozenset(p for p in p1
                                      if pdelta[(mk0, prof[:c] + (p,)
                                                 + prof[c + 1:])] in s)
                            for s in sbar)
                        if ctx not in contexts:
                            contexts.add(ctx)
                            frontier.append(ctx)
                            if len(contexts) > context_ceiling:
                                raise ResourceError(
                                    "context closure too large")
    else:
        pdelta = None
        contexts = {()}
    root_ctx = tuple(finals1) if tests else ()

    def transition(sym, kids):
        m = base.rank(sym)
        kid0 = tuple(k[0] for k in kids)
        fmaps = [dict(k[1]) for k in kids]
        if tests:
            a0 = pdelta[(marked_name(sym, 0), kid0)]
            if a0 == sink or sink in kid0:
                raise ContractError("partial test automaton")
            a1 = {}
        else:
            a0 = ()
        entries = []
        for sbar in contexts:
            if tests:
                p_here = pdelta[(marked_name(sym, 1), kid0)]
                truths = tuple(p_here in s for s in sbar)
                mk0 = marked_name(sym, 0)
                kid_ctx = [
                    tuple(frozenset(p for p in p1
                                    if pdelta[(mk0, kid0[:c] + (p,)
                                               + kid0[c + 1:])] in s)
                          for s in sbar)
                    for c in range(m)]
            else:
                truths = ()
                kid_ctx = [() for _ in range(m)]
            kid_beh = [fmaps[c][kid_ctx[c]] for c in range(m)]
            beh = set()
            for j in range(maxr + 1):
                claims = {q: set() for q in states_q}
                applicable = {}
                for q in states_q:
                    rs = []
                    for r in M.rules_at(q, sym, j):
                        if r.test is None or truths[tindex[id(r.test)]]:
                            rs.append(r)
                    applicable[q] = rs
                changed = True
                while changed:
                    changed = False
                    for q in states_q:
                        for r in applicable[q]:
                            optss = []
                            for cl in r.calls():
                                if cl.instr == STAY:
                                    optss.append(frozenset(
                                        claims[cl.state]))
                                elif cl.instr.kind == "up":
                                    optss.append(
                                        frozenset([frozenset([cl.state])]))
                                else:
                                    c = cl.instr.index - 1
                                    opts = set()
                                    for (jj, qq, e2) in kid_beh[c]:
                                        if jj != c + 1 or qq != cl.state:
                                            continue
                                        opts |= _cross_union(
                                            [frozenset(claims[e])
                                             for e in sorted(e2, key=repr)])
                                    optss.append(frozenset(opts))
                            for enew in _cross_union(optss):
                                if not any(old <= enew
                                           for old in claims[q]):
                                    claims[q] = set(_antichain(
                                        set(claims[q]) | {enew}))
                                    changed = True
                for q in states_q:
                    for e in claims[q]:
                        beh.add((j, q, e))
            entries.append((sbar, frozenset(beh)))
        return (a0, frozenset(entries))

    dstates = set()
    delta = {}
    changed = True
    while changed:
        changed = False
        known = sorted(dstates, key=repr)
        for sym in base:
            rank = base.rank(sym)
            for combo in itertools.product(known, repeat=rank):
                if (sym, combo) in delta:
                    continue
                tgt = transition(sym, combo)
                delta[(sym, combo)] = tgt
                if tgt not in dstates:
                    dstates.add(tgt)
                    changed = True
                    if len(dstates) > state_ceiling:
                        raise ResourceError("domain automaton too large")
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

def pruning_image(M, L=None, ceiling=4096):
    """The automaton for the set of outputs of a pruning machine on
    inputs from L (all inputs when L is None)."""
    if not _pruning_shape(M):
        raise ContractError("image automaton needs a pruning machine")
    for r in M.rules:
        if r.test is not None and not isinstance(
                r.test, (SubTest, AutomatonTest, ChildProfileTest)):
            raise ContractError("image automaton needs automaton-backed "
                                "tests")
    Ms = lookahead_of_topdown(M) if any(
            not isinstance(t, ChildProfileTest)
            for t in _distinct_tests(M)) else M
    tests = _distinct_tests(Ms)
    if tests:
        fams = {t.automata for t in tests}
        if len(fams) != 1:
            raise ContractError("child-profile tests over mixed automata")
        auts = list(tests[0].automata)
    else:
        auts = []
    base = Ms.input_alphabet
    if L is None:
        L = automaton_all(base)
    if L.alphabet.symbols != base.symbols:
        raise ContractError("input automaton is over the wrong alphabet")
    pairs = set()
    prodlist = {}
    seen_keys = set()
    changed = True
    while changed:
        changed = False
        known = sorted(pairs, key=repr)
        for sym in base:
            rank = base.rank(sym)
            for combo in itertools.product(known, repeat=rank):
                if (sym, combo) in seen_keys:
                    continue
                seen_keys.add((sym, combo))
                tup = tuple(a.delta[(sym, tuple(c[0][i] for c in combo))]
                            for i, a in enumerate(auts))
                la = L.delta[(sym, tuple(c[1] for c in combo))]
                pair = (tup, la)
                prodlist.setdefault(pair, []).append((sym, combo))
                if pair not in pairs:
                    pairs.add(pair)
                    changed = True
                    if len(pairs) > ceiling:
                        raise ResourceError("image closure too large")

    def test_holds(test, sym, combo):
        if test is None:
            return True
        if test.symbol != sym:
            return False
        for i in range(len(auts)):
            for k in range(len(combo)):
                if combo[k][0][i] != test.profiles[i][k]:
                    return False
        return True

    nts = set()
    grules = []
    initials = set()
    queue = []
    for (tup, la) in pairs:
        if la in L.finals:
            for q0 in Ms.initials:
                nt = ("I", q0, tup, la, 0)
                initials.add(nt)
                queue.append(nt)
    while queue:
        nt = queue.pop()
        if nt in nts:
            continue
        nts.add(nt)
        if len(nts) > ceiling:
            raise ResourceError("image grammar too large")
        _, q, tup, la, j = nt
        for (sym, combo) in prodlist.get((tup, la), ()):
            for r in Ms.rules_at(q, sym, j):
                if not test_holds(r.test, sym, combo):
                    continue

                def conv(node):
                    if isinstance(node.label, Call):
                        cl = node.label
                        c = cl.instr.index
                        sub = ("I", cl.state, combo[c - 1][0],
                               combo[c - 1][1], c)
                        if sub not in nts:
                            queue.append(sub)
                        return leaf(sub)
                    return Tree(node.label,
                                [conv(ch) for ch in node.children])

                grules.append((nt, conv(r.rhs)))
    # queued nonterminals may still be pending
    pending = {lhs for lhs, _ in grules} | initials
    for _, rhs in grules:
        stack = [rhs]
        while stack:
            n = stack.pop()
            if isinstance(n.label, tuple) and n.label and \
                    n.label[0] == "I":
                pending.add(n.label)
            stack.extend(n.children)
    g = RegularTreeGrammar(pending | nts, Ms.output_alphabet, initials,
                           grules)
    return grammar_to_automaton(g, ceiling)


# ---------------------------------------------------------------------------
# Uniformization

def uniformize(M, subset_ceiling=6):
    """A machine computing a function contained in M's relation, with the
    same domain: per left-hand side the least output shape, guarded by an
    oracle pinning the exact productivity pattern of the outward calls."""
    for r in M.rules:
        for c in r.calls():
            if c.instr.kind == "up":
                raise ContractError(
                    "uniformization needs a machine without up-moves")
    Md = disjoint_tests(M) if _distinct_tests(M) else M
    if len(Md.initials) > 1:
        fresh = ("uni0",)
        rules0 = list(Md.rules)
        for r in Md.rules:
            if r.state in Md.initials and r.child_no == 0:
                rules0.append(Rule(fresh, r.symbol, 0, r.test, r.rhs))
        Md = Transducer(Md.input_alphabet, Md.output_alphabet,
                        set(Md.states) | {fresh}, [fresh], rules0)
    prod = productive_configs_nondet(Md)
    groups, dmap, terminals = _stay_closure_groups(Md)
    rules = []
    for (sym, j, test), pairs in groups.items():
        nts = {("S", q) for q, _ in pairs}
        stack = [rhs for _, rhs in pairs]
        while stack:
            node = stack.pop()
            if isinstance(node.label, tuple):
                nts.add(node.label)
            stack.extend(node.children)
        grules = [(("S", q), rhs) for q, rhs in pairs]
        rhs_nts = {}
        for lhs, rhs in grules:
            found = set()
            stack = [rhs]
            while stack:
                n = stack.pop()
                if n.label in nts:
                    found.add(n.label)
                stack.extend(n.children)
            rhs_nts.setdefault(lhs, set()).update(found)
        for q in sorted({q for q, _ in pairs}, key=repr):
            reach = {("S", q)}
            frontier = [("S", q)]
            while frontier:
                nt = frontier.pop()
                for nxt in rhs_nts.get(nt, ()):
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            sub = [(lhs, rhs) for lhs, rhs in grules if lhs in reach]
            occ = sorted(_occurring_dnames([rhs for _, rhs in sub], dmap))
            if len(occ) > subset_ceiling:
                raise ResourceError("too many outward calls to uniformize")
            for bits in itertools.product((0, 1), repeat=len(occ)):
                D = frozenset(n for n, b in zip(occ, bits) if b)
                gk = RegularTreeGrammar(
                    nts, terminals, {("S", q)},
                    [(lhs, rhs) for lhs, rhs in sub
                     if _occurring_dnames([rhs], dmap) <= D])
                wit = _grammar_min_witness(gk).get(("S", q))
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


@dataclass
class Decomposition:
    """A pruner pipeline followed by a remainder machine, equivalent (in
    the stated direction) to the decomposed machine."""

    pruner: Pipeline
    remainder: object
    phase: str = ""
    constant: object = None
    witness_map: object = None
    meta: dict = field(default_factory=dict)


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

def _abstract_exits(Mn):
    """Over-approximate, for every child number i and state q, the states
    in which a move-only computation entering a subtree at child number i
    in state q can leave it upward again."""
    states = sorted(Mn.states, key=repr)
    idxs = range(1, Mn.input_alphabet.max_rank + 1)
    ex = {(i, q): set() for i in idxs for q in states}
    changed = True
    while changed:
        changed = False
        for r in Mn.rules:
            if r.kind != "move" or r.child_no == 0:
                continue
            i = r.child_no
            c = r.rhs.label
            if c.instr.kind == "up":
                add = {c.state}
            elif c.instr == STAY:
                add = ex[(i, c.state)]
            else:
                add = set()
                for q3 in ex[(c.instr.index, c.state)]:
                    add |= ex[(i, q3)]
            cur = ex[(i, r.state)]
            if not add <= cur:
                cur |= add
                changed = True
    return ex


def _rank1_symbols(alphabet):
    return [s for s in alphabet if alphabet.rank(s) == 1]


def _chain_endpoints(Mn):
    """Over-approximate the endpoints of move-only excursions through
    chains of monadic nodes.  Returns (down_end, up_end): down_end[(i, q)]
    are ("stay"|"down", state) endpoints after entering a chain hanging
    below child i in state q; up_end[q] are ("stay"|"up", state) endpoints
    after entering the chain above in state q."""
    syms1 = _rank1_symbols(Mn.input_alphabet)
    maxr = Mn.input_alphabet.max_rank
    states = sorted(Mn.states, key=repr)
    # descent: positions ("top", i) with child number i, or "deep" with
    # child number 1; endpoints arrive back at the entry node ("stay") or
    # at the first unmarked descendant ("down").
    positions = [("top", i) for i in range(1, maxr + 1)] + ["deep"]
    dend = {(q, pos): set() for q in states for pos in positions}
    changed = True
    while changed:
        changed = False
        for q in states:
            for pos in positions:
                j = pos[1] if pos != "deep" else 1
                acc = set()
                for s1 in syms1:
                    for r in Mn.rules_at(q, s1, j):
                        if r.kind != "move":
                            continue
                        c = r.rhs.label
                        if c.instr.kind == "up":
                            if pos != "deep":
                                acc.add(("stay", c.state))
                            else:
                                for p2 in positions:
                                    acc |= dend[(c.state, p2)]
                        elif c.instr == STAY:
                            acc |= dend[(c.state, pos)]
                        else:
                            acc.add(("down", c.state))
                            acc |= dend[(c.state, "deep")]
                if not acc <= dend[(q, pos)]:
                    dend[(q, pos)] |= acc
                    changed = True
    down_end = {(i, q): frozenset(dend[(q, ("top", i))])
                for i in range(1, maxr + 1) for q in states}
    # ascent: positions "chtop" (child number unknown, 1..maxr) or
    # "chin" (child number 1); endpoints arrive back at the entry node
    # ("stay") or at the nearest unmarked ancestor ("up").
    uend = {(q, pos): set() for q in states for pos in ("chtop", "chin")}
    changed = True
    while changed:
        changed = False
        for q in states:
            for pos in ("chtop", "chin"):
                jrange = range(1, maxr + 1) if pos == "chtop" else (1,)
                acc = set()
                for s1 in syms1:
                    for j in jrange:
                        for r in Mn.rules_at(q, s1, j):
                            if r.kind != "move":
                                continue
                            c = r.rhs.label
                            if c.instr.kind == "up":
                                if pos == "chtop":
                                    acc.add(("up", c.state))
                                else:
                                    acc |= uend[(c.state, "chtop")]
                                    acc |= uend[(c.state, "chin")]
                            elif c.instr == STAY:
                                acc |= uend[(c.state, pos)]
                            else:
                                acc.add(("stay", c.state))
                                acc |= uend[(c.state, "chin")]
                if not acc <= uend[(q, pos)]:
                    uend[(q, pos)] |= acc
                    changed = True
    up_end = {q: frozenset(uend[(q, "chtop")] | uend[(q, "chin")])
              for q in states}
    return down_end, up_end


def _gamma_candidates(cand_by_source, deterministic, pair_ceiling):
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
    if len(pairs) > pair_ceiling:
        raise ResourceError("too many candidate excursion pairs")
    result = []
    for n in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, n):
            result.append(frozenset(combo))
    return result


def _is_deterministic_local(M):
    return len(M.initials) == 1 and all(
        len(rs) <= 1 for rs in M._index.values())


def _normalize_for_pruning(M):
    _require_local_tests(M)
    return rename_states(normalize_outputs_stay(normalize_general(M)))


def _require_local_tests(M):
    if any(r.test is not None for r in M.rules):
        raise ContractError("productivity decomposition needs a local "
                            "machine")


def _leaves_phase(M, pair_ceiling):
    Mn = _normalize_for_pruning(M)
    det = _is_deterministic_local(Mn)
    alphabet = Mn.input_alphabet
    ex = _abstract_exits(Mn)

    def ghost_rel(t, u, picks):
        node = subtree_at(t, u)
        j = child_number(u)
        rel = set()
        for q in sorted(Mn.states, key=repr):
            for r in Mn.rules_at(q, node.label, j):
                if r.kind != "move":
                    continue
                c = r.rhs.label
                if c.instr.kind != "down" or c.instr.index in picks:
                    continue
                root = u + (c.instr.index,)
                seen = set()
                stack = [(c.state, root)]
                while stack:
                    s, v = stack.pop()
                    if (s, v) in seen:
                        continue
                    seen.add((s, v))
                    vn = subtree_at(t, v)
                    for r2 in Mn.rules_at(s, vn.label, child_number(v)):
                        if r2.kind != "move":
                            continue
                        w = navigate(t, v, r2.rhs.label.instr)
                        if w == u:
                            rel.add((q, r2.rhs.label.state))
                        elif len(w) >= len(root):
                            stack.append((r2.rhs.label.state, w))
        return frozenset(rel)

    ghost_cache = {}

    def ghost(t, u, picks):
        key = (t, u, picks)
        if key not in ghost_cache:
            ghost_cache[key] = ghost_rel(t, u, picks)
        return ghost_cache[key]

    def gname(sym, j, picks, gamma):
        ps = "".join(str(i) for i in picks) or "0"
        gs = "-".join("%s.%s" % p
                      for p in sorted(gamma)) or "0"
        return "%s~n%d~k%s~g%s" % (sym, j, ps, gs)

    gamma_syms = {}
    nrules = []
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(alphabet.max_rank + 1):
            for n in range(rank + 1):
                for picks in itertools.combinations(range(1, rank + 1), n):
                    cand = {}
                    for r in Mn.rules:
                        if r.symbol != sym or r.child_no != j \
                                or r.kind != "move":
                            continue
                        c = r.rhs.label
                        if c.instr.kind != "down" \
                                or c.instr.index in picks:
                            continue
                        for qbar in ex[(c.instr.index, c.state)]:
                            cand.setdefault(r.state, set()).add(qbar)
                    for gamma in _gamma_candidates(cand, det,
                                                   pair_ceiling):
                        name = gname(sym, j, picks, gamma)
                        gamma_syms[name] = (sym, j, picks, gamma)

                        def fn(t, u, picks=picks, gamma=gamma):
                            return ghost(t, u, picks) == gamma
                        nrules.append(Rule(
                            "p", sym, j,
                            OracleTest(fn, "exact-excursions"),
                            out(name, *[call("p", down(i))
                                        for i in picks])))
    gamma_alphabet = RankedAlphabet(
        {name: len(info[2]) for name, info in gamma_syms.items()})
    N = Transducer(alphabet, gamma_alphabet, ["p"], ["p"], nrules)
    mrules = []
    for name, (sym, j, picks, gamma) in gamma_syms.items():
        jprimes = (0,) if j == 0 else tuple(
            range(1, gamma_alphabet.max_rank + 1))
        for jp in jprimes:
            for r in Mn.rules:
                if r.symbol != sym or r.child_no != j:
                    continue
                if r.kind == "move":
                    c = r.rhs.label
                    if c.instr.kind != "down":
                        mrules.append(Rule(r.state, name, jp, None,
                                           r.rhs))
                    elif c.instr.index in picks:
                        k = picks.index(c.instr.index) + 1
                        mrules.append(Rule(r.state, name, jp, None,
                                           call(c.state, down(k))))
                else:
                    mrules.append(Rule(r.state, name, jp, None, r.rhs))
            for (q, qbar) in sorted(gamma):
                mrules.append(Rule(q, name, jp, None, call(qbar, STAY)))
    Mp = Transducer(gamma_alphabet, Mn.output_alphabet, Mn.states,
                    Mn.initials, mrules)

    witness = None
    if det:
        def witness(t):
            try:
                tr = trace_productive(Mn, t)
            except ContractError:
                return None
            hot = set()
            for u in tr.productive_nodes:
                for k in range(len(u) + 1):
                    hot.add(u[:k])

            def build(u):
                node = subtree_at(t, u)
                picks = tuple(i for i in range(1, len(node.children) + 1)
                              if u + (i,) in hot)
                g = ghost(t, u, picks)
                return Tree(gname(node.label, child_number(u), picks, g),
                            [build(u + (i,)) for i in picks])
            return build(())

    return Decomposition(Pipeline((N,)), Mp, phase="leaves",
                         witness_map=witness,
                         meta={"symbols": dict(gamma_syms)})


def _monadic_phase(M, pair_ceiling):
    Mn = _normalize_for_pruning(M)
    det = _is_deterministic_local(Mn)
    alphabet = Mn.input_alphabet
    maxr = alphabet.max_rank
    syms1 = _rank1_symbols(alphabet)
    hat = {s: "%s~h" % s for s in syms1}
    hat_alphabet = RankedAlphabet(
        dict(alphabet.symbols, **{h: 1 for h in hat.values()}))
    n1rules = []
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(maxr + 1):
            n1rules.append(Rule("h", sym, j, None,
                               out(sym, *[call("h", down(i))
                                          for i in range(1, rank + 1)])))
            if rank == 1 and j >= 1:
                n1rules.append(Rule("h", sym, j, None,
                                   out(hat[sym], call("h", down(1)))))
    N1 = Transducer(alphabet, hat_alphabet, ["h"], ["h"], n1rules)

    down_end, up_end = _chain_endpoints(Mn)
    hatted = set(hat.values())

    def is_hat(label):
        return label in hatted

    def base_label(label):
        return label[:-2] if label in hatted else label

    def ghost_rel(that, u):
        rel = set()
        j = child_number(u)
        node = subtree_at(that, u)
        sym = base_label(node.label)
        for q in sorted(Mn.states, key=repr):
            for r in Mn.rules_at(q, sym, j):
                if r.kind != "move":
                    continue
                c = r.rhs.label
                v = try_navigate(that, u, c.instr)
                if v is None or not is_hat(subtree_at(that, v).label):
                    continue
                seen = set()
                stack = [(c.state, v)]
                while stack:
                    s, w = stack.pop()
                    if (s, w) in seen:
                        continue
                    seen.add((s, w))
                    wn = subtree_at(that, w)
                    for r2 in Mn.rules_at(s, base_label(wn.label),
                                          child_number(w)):
                        if r2.kind != "move":
                            continue
                        x = try_navigate(that, w, r2.rhs.label.instr)
                        if x is None:
                            continue
                        if is_hat(subtree_at(that, x).label):
                            stack.append((r2.rhs.label.state, x))
                            continue
                        s2 = r2.rhs.label.state
                        if x == u:
                            rel.add((q, (s2, "s")))
                        elif len(x) < len(u):
                            rel.add((q, (s2, "u")))
                        else:
                            rel.add((q, (s2, "d%d" % x[len(u)])))
        return frozenset(rel)

    ghost_cache = {}

    def ghost(that, u):
        key = (that, u)
        if key not in ghost_cache:
            ghost_cache[key] = ghost_rel(that, u)
        return ghost_cache[key]

    def adjacency(that, u):
        tags = set()
        if u and is_hat(subtree_at(that, u[:-1]).label):
            tags.add("u")
        node = subtree_at(that, u)
        for i in range(1, len(node.children) + 1):
            if is_hat(node.children[i - 1].label):
                tags.add("d%d" % i)
        return frozenset(tags)

    def g2name(sym, j, uset, gamma):
        us = "".join(sorted(uset)) or "0"
        gs = "-".join("%s.%s.%s" % (q, p[0], p[1])
                      for q, p in sorted(gamma)) or "0"
        return "%s~n%d~U%s~g%s" % (sym, j, us, gs)

    gamma_syms = {}
    n2rules = []
    for h in hat.values():
        for j in range(1, maxr + 1):
            n2rules.append(Rule("p", h, j, None, call("p", down(1))))
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for j in range(maxr + 1):
            tags = []
            if syms1:
                if j >= 1:
                    tags.append("u")
                tags.extend("d%d" % i for i in range(1, rank + 1))
            for n in range(len(tags) + 1):
                for utags in itertools.combinations(tags, n):
                    uset = frozenset(utags)
                    cand = {}
                    for r in Mn.rules:
                        if r.symbol != sym or r.child_no != j \
                                or r.kind != "move":
                            continue
                        c = r.rhs.label
                        if c.instr.kind == "up" and "u" in uset:
                            ends = up_end[c.state]
                            for kind, qbar in ends:
                                beta = "s" if kind == "stay" else "u"
                                cand.setdefault(r.state, set()).add(
                                    (qbar, beta))
                        elif c.instr.kind == "down" \
                                and ("d%d" % c.instr.index) in uset:
                            ends = down_end[(c.instr.index, c.state)]
                            for kind, qbar in ends:
                                beta = "s" if kind == "stay" \
                                    else "d%d" % c.instr.index
                                cand.setdefault(r.state, set()).add(
                                    (qbar, beta))
                    for gamma in _gamma_candidates(cand, det,
                                                   pair_ceiling):
                        name = g2name(sym, j, uset, gamma)
                        gamma_syms[name] = (sym, j, uset, gamma)

                        def fn(t, u, uset=uset, gamma=gamma):
                            return adjacency(t, u) == uset and \
                                ghost(t, u) == gamma
                        n2rules.append(Rule(
                            "p", sym, j,
                            OracleTest(fn, "exact-chain-excursions"),
                            out(name, *[call("p", down(i))
                                        for i in range(1, rank + 1)])))
    gamma_alphabet = RankedAlphabet(
        {name: alphabet.rank(info[0])
         for name, info in gamma_syms.items()})
    N2 = Transducer(hat_alphabet, gamma_alphabet, ["p"], ["p"], n2rules)

    def beta_instr(beta):
        if beta == "s":
            return STAY
        if beta == "u":
            return UP
        return down(int(beta[1:]))

    mrules = []
    for name, (sym, j, uset, gamma) in gamma_syms.items():
        jprimes = (0,) if j == 0 else tuple(range(1, maxr + 1))
        for jp in jprimes:
            for r in Mn.rules:
                if r.symbol != sym or r.child_no != j:
                    continue
                if r.kind == "move":
                    c = r.rhs.label
                    tag = "u" if c.instr.kind == "up" else (
                        None if c.instr == STAY
                        else "d%d" % c.instr.index)
                    if tag is not None and tag in uset:
                        continue
                mrules.append(Rule(r.state, name, jp, None, r.rhs))
            for (q, (qbar, beta)) in sorted(gamma):
                mrules.append(Rule(q, name, jp, None,
                                   call(qbar, beta_instr(beta))))
    Mp = Transducer(gamma_alphabet, Mn.output_alphabet, Mn.states,
                    Mn.initials, mrules)

    witness = None
    if det:
        def witness(t):
            try:
                tr = trace_productive(Mn, t)
            except ContractError:
                return None

            def mark(u):
                node = subtree_at(t, u)
                kids = [mark(u + (i,))
                        for i in range(1, len(node.children) + 1)]
                if len(node.children) == 1 and u != () \
                        and u not in tr.productive_nodes \
                        and node.label in hat:
                    return Tree(hat[node.label], kids)
                return Tree(node.label, kids)

            that = mark(())
            return eval_deterministic(N2, that)[0]

    return Decomposition(Pipeline((N1, N2)), Mp, phase="monadic",
                         witness_map=witness,
                         meta={"symbols": dict(gamma_syms)})


def productivity_decompose(M, phase, pair_ceiling=12):
    """Split a local machine into a pruning pipeline and a local
    remainder.  Phase "leaves" deletes subtrees no computation draws
    output from; phase "monadic" contracts chains of output-free monadic
    nodes.  Composing pruner and remainder refines M; restricted to
    outputs of fully productive runs it is exact."""
    if phase == "leaves":
        return _leaves_phase(M, pair_ceiling)
    if phase == "monadic":
        return _monadic_phase(M, pair_ceiling)
    raise ContractError("unknown decomposition phase %r" % (phase,))


# ---------------------------------------------------------------------------
# Linear-bounded factorization

def linear_bounded_factorization(M, corpus_bound=4):
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
    d1 = _leaves_phase(Mc, pair_ceiling=12)
    d2 = _monadic_phase(d1.remainder, pair_ceiling=12)
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
                tr = trace_productive(rem, t)
            except ContractError:
                return False
            for v, node in preorder(t):
                if not node.children or (len(node.children) == 1
                                         and v != ()):
                    if v not in tr.productive_nodes:
                        return False
            return True
        remainder = _restrict_domain_test(
            remainder, OracleTest(productive_input, "fully-productive"))
    return Decomposition(Pipeline(tuple(stages)), remainder, phase="full",
                         constant=2, witness_map=witness)


def linear_bounded_pipeline(P, corpus_bound=4):
    """Rewrite a pipeline so that every stage is linear-bounded: each
    junction is factored through the productivity decomposition, and
    automaton-backed pruning stages are absorbed into the stage to their
    left when a composition route exists.  The resulting constant is 2
    per junction (1 for pipelines of relabelers, which are untouched)."""
    stages = list(P.stages)
    if len(stages) <= 1:
        return Pipeline(tuple(stages), 1)
    if all(classify(s, corpus_bound=corpus_bound).relabeling
           for s in stages):
        return Pipeline(tuple(stages), 1)
    out_stages = [stages[0]]
    constant = 1
    for M2 in stages[1:]:
        d = linear_bounded_factorization(M2, corpus_bound)
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
