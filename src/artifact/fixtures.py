"""Reference transducers and seeded random machine generators.

The hand-built machines here are the shared test corpus: the exponential
duplicator, the pre-order query printer, the identity relabeler, a left
projection, a nondeterministic leaf chooser, and a stay-looping machine.
The random generators produce seeded machines of a requested class for
the construction equivalence suites.
"""

import itertools
import random

from .constructions import identity_like
from .core import (
    MarkedAlphabet, RankedAlphabet, Tree, down, leaf, STAY, UP,
)
from .regular import AutomatonTest, BottomUpAutomaton, SubTest
from .transducer import Rule, Transducer, call, marked_position_automaton, out

SIGMA_E = RankedAlphabet({"sigma": 2, "e": 0})
OUT3 = RankedAlphabet({"sigma": 2, "tau": 1, "e": 0})


def comb_tree(n):
    """The right comb with n leaves over {sigma, e}."""
    t = leaf("e")
    for _ in range(n - 1):
        t = Tree("sigma", [leaf("e"), t])
    return t


def full_binary(height):
    """The full binary tree of the given height over {sigma, e}."""
    t = leaf("e")
    for _ in range(height):
        t = Tree("sigma", [t, t])
    return t


def m_exp():
    """The exponential duplicator: a total deterministic local machine
    mapping any tree with n leaves to the full binary tree of height n.
    It traverses the input depth-first left-to-right and doubles at every
    leaf."""
    rules = []
    for j in (0, 1, 2):
        rules.append(Rule("d", "sigma", j, None, call("d", down(1))))
        rules.append(Rule("u1", "sigma", j, None, call("d", down(2))))
    for j in (1, 2):
        rules.append(Rule("d", "e", j, None,
                          out("sigma", call("u%d" % j, UP),
                              call("u%d" % j, UP))))
        rules.append(Rule("u2", "sigma", j, None, call("u%d" % j, UP)))
    rules.append(Rule("d", "e", 0, None,
                      out("sigma", call("q", STAY), call("q", STAY))))
    rules.append(Rule("q", "e", 0, None, leaf("e")))
    rules.append(Rule("u2", "sigma", 0, None, leaf("e")))
    return Transducer(SIGMA_E, SIGMA_E, ["d", "u1", "u2", "q"], ["d"], rules)


def internal_sigma_test():
    """The regular test holding at (t, u) iff u is a non-root sigma node."""
    aut = marked_position_automaton(SIGMA_E, "sigma", 1).union(
        marked_position_automaton(SIGMA_E, "sigma", 2))
    return AutomatonTest(aut)


def query_transducer(test=None):
    """The query printer: depth-first traversal outputting, for every node
    satisfying the test, that node's address as a left comb of child
    numbers.  Not single-use: the address printer revisits the root once
    per hit.  The default test holds at non-root sigma nodes."""
    if test is None:
        test = internal_sigma_test()
    comp = AutomatonTest(test.aut.complement())
    output = RankedAlphabet({"sigma": 2, "e": 0, "1": 0, "2": 0})
    rules = []
    for j in (0, 1, 2):
        rules.append(Rule("d", "sigma", j, comp, call("d", down(1))))
        rules.append(Rule("d", "sigma", j, test,
                          out("sigma", call("p", STAY), call("d", down(1)))))
        rules.append(Rule("u1", "sigma", j, None, call("d", down(2))))
    for j in (1, 2):
        rules.append(Rule("d", "e", j, None, call("u%d" % j, UP)))
        rules.append(Rule("u2", "sigma", j, None, call("u%d" % j, UP)))
        for tau in ("sigma", "e"):
            rules.append(Rule("p", tau, j, None,
                              out("sigma", call("p", UP), call("pp", STAY))))
            rules.append(Rule("pp", tau, j, None, leaf(str(j))))
    rules.append(Rule("d", "e", 0, None, leaf("e")))
    rules.append(Rule("u2", "sigma", 0, None, leaf("e")))
    for tau in ("sigma", "e"):
        rules.append(Rule("p", tau, 0, None, leaf("e")))
    return Transducer(SIGMA_E, output, ["d", "u1", "u2", "p", "pp"], ["d"],
                      rules)


def identity_relabeler(alphabet=SIGMA_E):
    """One state, every node relabeled by itself: the canonical total
    deterministic relabeling machine."""
    return identity_like(alphabet)


def left_projection():
    """Outputs a copy of the first subtree of the root; leaves map to e.
    The second subtree of the root is never visited."""
    rules = [Rule("q0", "sigma", 0, None, call("c", down(1))),
             Rule("q0", "e", 0, None, leaf("e"))]
    for j in range(3):
        rules.append(Rule("c", "sigma", j, None,
                          out("sigma", call("c", down(1)),
                              call("c", down(2)))))
        rules.append(Rule("c", "e", j, None, leaf("e")))
    return Transducer(SIGMA_E, SIGMA_E, ["q0", "c"], ["q0"], rules)


def leaf_chooser():
    """Nondeterministic: maps the single-leaf input e to either a or b."""
    output = RankedAlphabet({"a": 0, "b": 0})
    rules = [Rule("q", "e", 0, None, leaf("a")),
             Rule("q", "e", 0, None, leaf("b"))]
    return Transducer(SIGMA_E, output, ["q"], ["q"], rules)


def loop_transducer():
    """Stays forever on the input leaf: its output language is empty."""
    return Transducer(SIGMA_E, SIGMA_E, ["q"], ["q"],
                      [Rule("q", "e", 0, None, call("q", STAY))])


# ---------------------------------------------------------------------------
# Seeded random machines

def random_automaton(rng, alphabet, n_states=2):
    """A random total deterministic bottom-up automaton."""
    states = ["a%d" % i for i in range(n_states)]
    delta = {}
    for sym in alphabet:
        rank = alphabet.rank(sym)
        for combo in itertools.product(states, repeat=rank):
            delta[(sym, combo)] = rng.choice(states)
    finals = [p for p in states if rng.random() < 0.5]
    if not finals:
        finals = [rng.choice(states)]
    return BottomUpAutomaton(alphabet, states, finals, delta,
                             check_total=False)


def random_subtest(rng, alphabet=SIGMA_E):
    return SubTest(random_automaton(rng, alphabet))


def random_marked_test(rng, alphabet=SIGMA_E):
    return AutomatonTest(random_automaton(rng, MarkedAlphabet(alphabet)))


def _allowed_instructions(kind, j, rank):
    instrs = []
    if kind != "pruning":
        instrs.append(STAY)
    if j >= 1 and kind in ("local", "sub", "lookaround"):
        instrs.append(UP)
    instrs.extend(down(i) for i in range(1, rank + 1))
    return instrs


def _random_rhs(rng, kind, states, output, rank, j):
    if kind == "relabeling":
        choices = [d for d in output.symbols if output.rank(d) == rank]
        return out(rng.choice(choices),
                   *[call(rng.choice(states), down(i))
                     for i in range(1, rank + 1)])
    instrs = _allowed_instructions(kind, j, rank)
    if instrs and rng.random() < 0.5:
        return call(rng.choice(states), rng.choice(instrs))
    if kind == "pruning":
        picks = sorted(rng.sample(range(1, rank + 1),
                                  rng.randint(0, rank)))
        choices = [d for d in output.symbols
                   if output.rank(d) == len(picks)]
        if not choices:
            picks = []
            choices = [d for d in output.symbols if output.rank(d) == 0]
        return out(rng.choice(choices),
                   *[call(rng.choice(states), down(i)) for i in picks])
    delta = rng.choice(sorted(output.symbols))
    return out(delta, *[call(rng.choice(states), rng.choice(instrs))
                        for _ in range(output.rank(delta))])


def random_transducer(seed, kind="local", deterministic=True, n_states=2,
                      alphabet=SIGMA_E, output=OUT3, max_tests=2):
    """A seeded random machine of the requested class.

    ``kind`` is one of local, sub, lookaround, topdown, pruning,
    relabeling.  Deterministic machines get at most one rule per
    (state, symbol, child number), or a test/complement pair when the kind
    carries tests.  At most ``max_tests`` distinct test automata are drawn
    per machine (each possibly also used complemented), keeping test
    products small.
    """
    if kind not in ("local", "sub", "lookaround", "topdown", "pruning",
                    "relabeling"):
        raise ValueError("unknown machine kind %r" % (kind,))
    rng = random.Random("%s:%s:%s:%s" % (seed, kind, deterministic, n_states))
    states = ["q%d" % i for i in range(n_states)]
    pool = []

    def draw(maker, wrap):
        if len(pool) < max_tests and (not pool or rng.random() < 0.5):
            t = maker(rng)
            pool.append((t, wrap(t.aut.complement())))
        return rng.choice(pool)

    rules = []
    for q in states:
        for sym in alphabet:
            rank = alphabet.rank(sym)
            for j in range(alphabet.max_rank + 1):
                n_rules = 1 if rng.random() < 0.8 else 0
                if not deterministic and rng.random() < 0.4:
                    n_rules += 1
                if n_rules == 0:
                    continue
                tests = [None] * n_rules
                if max_tests == 0:
                    pass
                elif kind == "sub" and rng.random() < 0.6:
                    t, comp = draw(lambda r: random_subtest(r, alphabet),
                                   SubTest)
                    if deterministic and n_rules == 1 and rng.random() < 0.5:
                        tests = [t, comp]
                    else:
                        tests = [t] + [None] * (n_rules - 1)
                        if deterministic:
                            tests = [t]
                elif kind in ("lookaround", "topdown", "pruning",
                              "relabeling") and rng.random() < 0.4:
                    t, comp = draw(
                        lambda r: random_marked_test(r, alphabet),
                        AutomatonTest)
                    if deterministic and n_rules == 1 and rng.random() < 0.5:
                        tests = [t, comp]
                    else:
                        tests = [t] + [None] * (n_rules - 1)
                        if deterministic:
                            tests = [t]
                for test in tests:
                    rules.append(Rule(q, sym, j, test,
                                      _random_rhs(rng, kind, states, output,
                                                  rank, j)))
    outp = alphabet if kind == "relabeling" else output
    return Transducer(alphabet, outp, states, [states[0]], rules)
