"""Shared corpora, machine collectors, and oracles for the construction
test suites."""

import random

from artifact.core import Tree, all_trees, leaf, STAY
from artifact.fixtures import OUT3, SIGMA_E, random_transducer
from artifact.regular import RegularTreeGrammar
from artifact.transducer import (
    check_single_use, enumerate_outputs, eval_deterministic,
)

SIG_TREES_5 = all_trees(SIGMA_E, 5)
OUT_TREES_5 = all_trees(OUT3, 5)


def collect_machines(n, kind, deterministic=True, alphabet=SIGMA_E,
                     output=OUT3, pred=None, seed_limit=3000, max_tests=2):
    """The first n seeded machines of the requested class satisfying
    pred, scanning seeds from zero."""
    found = []
    for seed in range(seed_limit):
        M = random_transducer(seed, kind=kind, deterministic=deterministic,
                              alphabet=alphabet, output=output,
                              max_tests=max_tests)
        if pred is None or pred(M):
            found.append(M)
            if len(found) == n:
                return found
    raise AssertionError("only %d/%d machines found" % (len(found), n))


def automaton_to_grammar(aut):
    """The grammar of an automaton: one nonterminal per state, a rule per
    transition, and the final states as initials."""
    nts = {p: ("N", p) for p in aut.states}
    rules = [(nts[p], Tree(sym, [leaf(nts[q]) for q in combo]))
             for (sym, combo), p in aut.delta.items()]
    return RegularTreeGrammar(nts.values(), aut.alphabet,
                              [nts[p] for p in aut.finals], rules)


def pumping_beside_unproductive(n=100):
    """Grammars over SIGMA_E in which a pumping nonterminal sits beside
    one that derives nothing, as in S -> f(X, U), X -> g(X) | a: six
    written out, whose languages are finite but for the fifth, then n
    random ones whose right-hand sides may read U, which has no rule."""
    def sigma(a, b):
        return Tree("sigma", [a, b])

    S, U, X, Y, e = (leaf(x) for x in ("S", "U", "X", "Y", "e"))
    pump = [("X", sigma(X, e)), ("X", e)]
    written = [
        [("S", sigma(X, U))] + pump,
        [("S", e), ("S", sigma(X, U))] + pump,
        [("S", e), ("S", sigma(sigma(X, e), U)), ("X", sigma(e, X)),
         ("X", e)],
        [("S", e), ("S", sigma(Y, U)), ("Y", X), ("X", sigma(X, X)),
         ("X", e)],
        [("S", e), ("S", sigma(X, U)), ("S", sigma(X, e))] + pump,
        [("S", X), ("S", e), ("X", S)],
    ]
    out = [RegularTreeGrammar(["S", "U", "X", "Y"], SIGMA_E, ["S"], rules)
           for rules in written]
    rng = random.Random("beside")
    for _ in range(n):
        nts = ["S", "A", "B"][:rng.randint(1, 3)]
        rules = [(nt, random_rhs(rng, nts + ["U"], 2)) for nt in nts
                 for _ in range(rng.randint(1, 3))]
        out.append(RegularTreeGrammar(nts + ["U"], SIGMA_E, ["S"], rules))
    return out


def random_rhs(rng, nts, depth):
    """A right-hand side over SIGMA_E of depth at most ``depth`` whose
    leaves may be the nonterminals ``nts``."""
    label = rng.choice(["e", "sigma", "sigma"] + nts if depth else
                       ["e"] + nts)
    if label == "sigma":
        return Tree("sigma", [random_rhs(rng, nts, depth - 1)
                              for _ in range(2)])
    return leaf(label)


def has_tests(M):
    return any(r.test is not None for r in M.rules)


def stay_acyclic(M):
    """No cycle in the state graph of stay calls, hence every stay-closure
    family is finite."""
    groups = {}
    for r in M.rules:
        edges = groups.setdefault((r.symbol, r.child_no), {})
        for c in r.calls():
            if c.instr == STAY:
                edges.setdefault(r.state, set()).add(c.state)
    for edges in groups.values():
        seen, done = set(), set()

        def dfs(q):
            if q in done:
                return True
            if q in seen:
                return False
            seen.add(q)
            ok = all(dfs(q2) for q2 in edges.get(q, ()))
            done.add(q)
            return ok

        if not all(dfs(q) for q in list(edges)):
            return False
    return True


def single_use_on(corpus):
    def pred(M):
        ok, _ = check_single_use(M, corpus)
        return ok
    return pred


def sequential_outputs(M1, M2, t, max_size, intermediate_size=None):
    """Composition semantics by explicit enumeration.  With no
    intermediate bound M1 must be deterministic and its single value is
    used; otherwise M1's outputs are enumerated up to the bound."""
    if intermediate_size is None:
        s, _ = eval_deterministic(M1, t)
        mids = [] if s is None else [s]
    else:
        mids = enumerate_outputs(M1, t, intermediate_size)
    res = set()
    for s in mids:
        res |= enumerate_outputs(M2, s, max_size)
    return res


# ---------------------------------------------------------------------------
# Boolean-formula oracle for the satisfiability fixtures

def formula_variables(n):
    """The variable trees v^l(e) for l in 1..n."""
    from artifact.core import Tree, leaf
    res = []
    t = leaf("e")
    for _ in range(n):
        t = Tree("v", [t])
        res.append(t)
    return res


def formulas(m, n):
    """All formulas over or/and/not with nesting depth at most m and
    variables v(e) .. v^n(e)."""
    from artifact.core import Tree
    cur = set(formula_variables(n))
    for _ in range(m):
        new = set(cur)
        for a in cur:
            new.add(Tree("not", [a]))
            for b in cur:
                new.add(Tree("or", [a, b]))
                new.add(Tree("and", [a, b]))
        cur = new
    return cur


def eval_formula(phi, w):
    """Truth value of the formula when v^l(e) has the l-th bit of w."""
    if phi.label == "or":
        return eval_formula(phi.children[0], w) | \
            eval_formula(phi.children[1], w)
    if phi.label == "and":
        return eval_formula(phi.children[0], w) & \
            eval_formula(phi.children[1], w)
    if phi.label == "not":
        return 1 - eval_formula(phi.children[0], w)
    depth = 0
    node = phi
    while node.label == "v":
        depth += 1
        node = node.children[0]
    return int(w[depth - 1])


def satisfiable(phi, n):
    import itertools
    return any(eval_formula(phi, "".join(bits))
               for bits in itertools.product("01", repeat=n))
