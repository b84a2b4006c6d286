"""``regular.enumerate_grammar`` against the enumeration it replaced, which
built every candidate with ``substitute_leaves`` and a closure per
(rule, child tuple).  It is kept below as a reference.  The two must
agree on the trees found, and on whether and how ``max_count`` stops
them."""

import itertools
import random

from artifact.core import Tree, leaf, substitute_leaves
from artifact.fixtures import (
    OUT3, comb_tree, full_binary, identity_relabeler, leaf_chooser,
    left_projection, loop_transducer, m_exp, query_transducer,
    random_transducer,
)
from artifact.regular import (
    RegularTreeGrammar, ResourceError, enumerate_grammar,
    grammar_chain_closure, _rhs_nonterminals, _size_vectors,
)
from artifact.transducer import config_grammar

KINDS = ("local", "sub", "lookaround", "topdown", "pruning", "relabeling")
FIXTURES = (m_exp, identity_relabeler, left_projection, query_transducer,
            leaf_chooser, loop_transducer)


# ---------------------------------------------------------------------------
# References

def _enumerate_grammar_by_substitution(g, max_size, max_chain_len=None,
                                       max_count=None):
    """``enumerate_grammar`` as it was: the same rounds, buckets and order
    of trees found, each candidate a ``substitute_leaves`` copy of the rhs
    with a closure handing out the picks."""
    reach = grammar_chain_closure(g, max_chain_len)
    prods = {}
    for lhs, rhs in g.rules:
        if not g.is_nonterminal(rhs.label):
            prods.setdefault(lhs, []).append(rhs)
    takers = {}
    needed = list(g.initials)
    lang = {nt: set() for nt in needed}
    for nt in needed:
        for mid in reach[nt]:
            takers.setdefault(mid, []).append(nt)
            for rhs in prods.get(mid, ()):
                for k in _rhs_nonterminals(rhs, g):
                    if k not in lang:
                        lang[k] = set()
                        needed.append(k)
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
                rules.append((nts, rhs, kids, rhs.size - len(kids)))
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
        for nts, rhs, kids, base in rules:
            for i, kid in enumerate(kids):
                pools = ([old[k] for k in kids[:i]] + [delta[kid]]
                         + [full[k] for k in kids[i + 1:]])
                if not all(pools):
                    continue
                for sizes in _size_vectors(pools, max_size - base):
                    for picks in itertools.product(
                            *[p[s] for p, s in zip(pools, sizes)]):
                        nxt = iter(picks).__next__
                        found(substitute_leaves(
                            rhs, lambda x: nxt() if x in g.nonterminals
                            else None), nts)
        old = full
    out = set()
    for nt in g.initials:
        out |= lang[nt]
    return out


# ---------------------------------------------------------------------------
# Agreement

def _outcome(fn, *args, **kw):
    try:
        return "ok", fn(*args, **kw)
    except ResourceError as e:
        return "ResourceError", str(e)


def _agree(g, max_size, max_chain_len=None, counts=True):
    """Equal result sets, and with ``counts`` the same outcome, result or
    ResourceError message, at small ceilings and at those around the
    result's size.  Returns the number of trees found."""
    want = _enumerate_grammar_by_substitution(g, max_size, max_chain_len)
    got = enumerate_grammar(g, max_size, max_chain_len)
    assert got == want, (g.rules, max_size, max_chain_len)
    if counts:
        ceilings = {0, 1, 2, 3, 5, 8, 13, 21, len(want) - 1, len(want),
                    len(want) + 1}
        for c in sorted(x for x in ceilings if x >= 0):
            assert _outcome(enumerate_grammar, g, max_size, max_chain_len,
                            max_count=c) == \
                _outcome(_enumerate_grammar_by_substitution, g, max_size,
                         max_chain_len, max_count=c), \
                (g.rules, max_size, max_chain_len, c)
    return len(want)


def _random_rhs(rng, nts, depth):
    label = rng.choice(["e", "tau", "sigma", "sigma"] + nts if depth
                       else ["e"] + nts)
    if label in ("sigma", "tau"):
        return Tree(label, [_random_rhs(rng, nts, depth - 1)
                            for _ in range(OUT3.rank(label))])
    return leaf(label)


def _random_grammar(rng):
    """Chain rules, rhs of depth up to 3 mixing terminal and nonterminal
    leaves, and nonterminals that are unproductive or unreachable."""
    nts = ["S", "A", "B", "C"][:rng.randint(1, 4)]
    rules = [(nt, _random_rhs(rng, nts, rng.randint(0, 3))) for nt in nts
             for _ in range(rng.randint(0, 3))]
    return RegularTreeGrammar(nts, OUT3, ["S"], rules)


def test_random_grammars_agree():
    rng = random.Random("enumeration")
    found = 0
    for _ in range(50):
        g = _random_grammar(rng)
        for chain in (None, 0, 1, 2):
            for size in (1, 6, 11):
                found += _agree(g, size, chain, counts=size == 11)
    assert found > 500


def test_config_grammars_agree():
    """The configuration grammars of the fixtures and of 10 seeded
    nondeterministic machines per kind, on two inputs of 5 and 7 nodes.  Their rules
    are depth-1 and general output rules, with terminal output leaves
    next to the configurations."""
    machines = [f() for f in FIXTURES]
    machines += [random_transducer(seed, kind=kind, deterministic=False)
                 for kind in KINDS for seed in range(10)]
    found = 0
    for M in machines:
        for t in (comb_tree(3), full_binary(2)):
            g = config_grammar(M, t)
            for chain in (len(M.states) * t.size, 0, 1, 2):
                found += _agree(g, 14, chain, counts=chain == 1)
    assert found > 800


def test_mixed_leaves_agree():
    """A rhs with terminal leaves among its nonterminal ones, and a
    subtree without nonterminals inside a rhs that has them."""
    e = leaf("e")
    rules = [("S", Tree("sigma", [e, leaf("A")])),
             ("S", Tree("sigma", [Tree("sigma", [leaf("A"), e]),
                                  Tree("tau", [Tree("sigma", [e, e])])])),
             ("S", Tree("tau", [Tree("sigma", [leaf("B"), leaf("A")])])),
             ("A", e),
             ("A", Tree("sigma", [leaf("A"), leaf("A")])),
             ("B", Tree("tau", [leaf("A")])),
             ("B", leaf("S"))]
    g = RegularTreeGrammar(["S", "A", "B"], OUT3, ["S"], rules)
    for chain in (None, 0, 1, 2):
        for size in range(1, 10):
            _agree(g, size, chain)
    assert Tree("sigma", [Tree("sigma", [e, e]),
                          Tree("tau", [Tree("sigma", [e, e])])]) \
        in enumerate_grammar(g, 8)


def test_deep_rhs_agrees():
    """A 1500-node tau chain over a nonterminal of finitely many trees, at
    the default recursion limit."""
    chain = leaf("A")
    for _ in range(1499):
        chain = Tree("tau", [chain])
    e = leaf("e")
    rules = [("B", leaf("S")), ("S", chain), ("A", e),
             ("A", Tree("sigma", [e, leaf("C")])), ("C", e),
             ("C", Tree("tau", [e]))]
    g = RegularTreeGrammar(["S", "A", "B", "C"], OUT3, ["B"], rules)
    for size in (1499, 1500, 1502, 1503):
        for max_chain_len in (None, 0, 1):
            _agree(g, size, max_chain_len)
    assert len(enumerate_grammar(g, 1503)) == 3
    assert enumerate_grammar(g, 1503, 0) == set()
