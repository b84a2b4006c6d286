"""The benchmark's four workloads, each a fixed, seeded list of operations.

``build(name, seed)`` returns the operation list of one round.  An
operation calls into the program through module attributes looked up at
call time (so the traced run's wrappers see every call), and carries a
check that compares its result with the reference walker or an oracle.
"""

import contextlib
import io
import random

from artifact import cli, constructions as C, fixtures as FX
from artifact import membership as MB, regular as R, transducer as T
from artifact.core import Tree, leaf

import oracles as O
import walker as W

SIGMA_E, OUT3 = FX.SIGMA_E, FX.OUT3


class Op:
    """One operation: ``run()`` calls the program, ``check(result)``
    returns None or a reason, ``kind`` names the input class."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _rng(workload, seed, part):
    return random.Random("%s:%d:%s" % (workload, seed, part))


def _draws(rng, n):
    return [rng.randrange(1, 10 ** 6) for _ in range(n)]


# ---------------------------------------------------------------------------
# Inputs

def path_tree(rng, depth):
    """A thin sigma/e tree of the given depth: every internal node has one
    leaf child and one internal child, on a side drawn per level (the
    right comb is the all-right case).  The root's internal child is its
    first, so that a left projection copies the whole spine."""
    t = leaf("e")
    for level in range(depth):
        right = level < depth - 1 and rng.random() < 0.75
        t = Tree("sigma", [leaf("e"), t] if right else [t, leaf("e")])
    return t


def random_binary(rng, size):
    """A random sigma/e tree with ``size`` nodes (odd), split uniformly at
    each node."""
    if size == 1:
        return leaf("e")
    left = rng.randrange(1, size - 1, 2)
    return Tree("sigma", [random_binary(rng, left),
                          random_binary(rng, size - 1 - left)])


def typical_tree(rng, size, M, draws=9):
    """Of ``draws`` random trees of the size, the one whose output under M
    (by the reference walker) has the median size: the output size, and
    with it the evaluation cost, then varies little between seeds."""
    trees = [random_binary(rng, size) for _ in range(draws)]
    trees.sort(key=lambda t: W.output(M, t).size)
    return trees[draws // 2]


def random_formula(rng, size, n, m):
    """A random formula with exactly ``size`` nodes, operator nesting at
    most m and variables v^1..v^n, or None when the draw misses."""
    if m == 0 or (size <= n + 1 and rng.random() < 0.5):
        if 2 <= size <= n + 1:
            return O.variables(n)[size - 2]
        if m == 0:
            return None
    op = rng.choice(("not", "or", "and"))
    if op == "not":
        sub = random_formula(rng, size - 1, n, m - 1)
        return None if sub is None else W.node("not", sub)
    if size < 5:
        return None
    left = rng.randrange(2, size - 2)
    a = random_formula(rng, left, n, m - 1)
    b = random_formula(rng, size - 1 - left, n, m - 1)
    return None if a is None or b is None else W.node(op, a, b)


def to_program_tree(t):
    """A program ``Tree`` copy of a walker ``Node``."""
    return Tree(t.label, [to_program_tree(c) for c in t.children])


# ---------------------------------------------------------------------------
# walk-deep

FIXTURE_MACHINES = {
    "identity": FX.identity_relabeler,
    "leftproj": FX.left_projection,
    "mexp": FX.m_exp,
}


def _cli_run(ref, M, t):
    text = W.serialize(t)
    argv = ["run", "--transducer", ref, "--input", text]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return Op("run:" + ref.split(":")[0],
              run, lambda res: O.check_cli_run(M, t, *res))


def _streaming(name, M, t):
    return Op("stream:" + name, lambda: T.eval_streaming(M, t),
              lambda res: O.check_output(M, t, res[0]))


def walk_deep(seed):
    """Two cost plateaus: 14 operations of 20-60 ms and 6 of 115-125 ms
    (on the reference machine), so that the median and the 90th
    percentile each fall inside one plateau.  The upper plateau's trees
    have fixed shapes: with seeded shapes its costs spread over 115-140
    ms, and the 90th percentile moved with the seed.  Depths stay at
    most 220: the program's recursive tree code fails from about 250 on
    (see README.md)."""
    rng = _rng("walk-deep", seed, "inputs")
    fixed = _rng("walk-deep", 0, "upper plateau")
    machines = {n: f() for n, f in FIXTURE_MACHINES.items()}
    refs = ["random:local:%d" % s for s in _draws(rng, 4)]
    for ref in refs:
        machines[ref] = FX.random_transducer(int(ref.split(":")[2]),
                                             kind="local")

    def run(name, depth, shapes=rng):
        return _cli_run(name, machines[name], path_tree(shapes, depth))

    def stream(name, depth, shapes=rng):
        return _streaming(name.split(":")[0], machines[name],
                          path_tree(shapes, depth))

    ops = [run("identity", 130), run("identity", 130),
           run("leftproj", 125), run("leftproj", 125),
           run("mexp", 15), run("mexp", 15),
           stream("identity", 100), stream("leftproj", 105)]
    ops += [run(ref, 220) for ref in refs]
    ops += [stream(ref, 220) for ref in refs[:2]]
    ops += [run("identity", 200, fixed), run("identity", 200, fixed),
            run("leftproj", 200, fixed), stream("identity", 142, fixed),
            stream("leftproj", 160, fixed), stream("leftproj", 160, fixed)]
    return ops


# ---------------------------------------------------------------------------
# lookaround

def _evaluate(kind, M, t):
    return Op(kind, lambda: T.eval_deterministic(M, t),
              lambda res: O.check_output(M, t, res[0]))


GUARDED_RULES = 8
# The first 12 machine seeds (from 0 on) whose random:lookaround machine
# has exactly GUARDED_RULES guarded rules; tests/test_bench_oracles.py
# checks the list.
LOOKAROUND_BANK = (9, 45, 125, 146, 186, 237, 256, 349, 427, 438, 446, 483)


def _guarded(M):
    """Rules with a test below the root: each costs one marked-tree
    automaton run per matching node."""
    return sum(r.test is not None and r.child_no > 0 for r in M.rules)


def lookaround(seed):
    """12 random look-around machines near 60 ms hold the median; 4 large
    query inputs near 80 ms hold the 90th percentile; 2 small query
    inputs near 35 ms.  The machines are a fixed bank and the trees are
    drawn from the seed."""
    rng = _rng("lookaround", seed, "inputs")
    query = FX.query_transducer()
    # test evaluation dominates, so every random machine carries the same
    # number of guarded rules; drawing them per seed took 500 draws of
    # set-up on average, and its cost varied with the seed
    ops = [_evaluate("random", M, random_binary(rng, 81))
           for M in (FX.random_transducer(s, kind="lookaround")
                     for s in LOOKAROUND_BANK)]
    for size in (71, 71, 111, 111, 111, 111):
        ops.append(_evaluate("query", query,
                             typical_tree(rng, size, query)))
    return ops


# ---------------------------------------------------------------------------
# construct

def _batch(kind, fn, items, check):
    """One operation applying ``fn`` to every argument tuple in ``items``;
    the check runs ``check(args, result)`` on each."""
    def run():
        return [fn(*args) for args in items]

    def check_all(results):
        for args, res in zip(items, results):
            bad = check(args, res)
            if bad:
                return "%s: %s" % (kind, bad)
        return None

    return Op(kind, run, check_all)


def _late(module, name):
    """Call ``module.name`` looked up at call time."""
    return lambda *args: getattr(module, name)(*args)


def _random_machines(rng, n, **kw):
    return [FX.random_transducer(s, **kw) for s in _draws(rng, n)]


def _bank(n, **kw):
    """The first n machines of a class, from machine seeds 0, 1, ...: the
    seed-independent part of the construct list."""
    return [FX.random_transducer(s, **kw) for s in range(n)]


def construct(seed):
    """Constructions whose cost is heavy-tailed in the machine drawn
    (domain and inverse-image automata, factorization) run on a fixed bank
    that keeps its slow draws in every run; the others run on machines
    drawn from the seed.  Nine operations cost 20-50 ms and the four
    bank batches 70-500 ms."""
    rng = _rng("construct", seed, "machines")
    sig7 = O.small_trees(SIGMA_E, 7)
    out5 = O.small_trees(OUT3, 5)
    fixtures = [FX.m_exp(), FX.identity_relabeler(), FX.left_projection(),
                FX.query_transducer()]
    ops = []

    ops.append(_batch("domain", _late(C, "domain_automaton"),
                      [(M,) for M in _bank(12, kind="lookaround",
                                           max_tests=1) + fixtures],
                      lambda a, A: O.check_domain(a[0], A, sig7)))
    ops.append(_batch("domain-sub", _late(C, "domain_automaton"),
                      [(M,) for M in _bank(12, kind="sub")],
                      lambda a, A: O.check_domain(a[0], A, sig7)))

    def inverse_then_decide(M, L):
        A = C.inverse_image(M, L)
        return A, R.decide(A)

    pairs = [(M, FX.random_automaton(random.Random(i), SIGMA_E))
             for i, M in enumerate(_bank(10, kind="relabeling",
                                         max_tests=1))]
    ops.append(_batch("inverse-image", inverse_then_decide, pairs,
                      lambda a, r: O.check_inverse_image(a[0], a[1], r[0],
                                                         r[1], sig7)))
    ops.append(_batch("factorize", _late(C, "linear_bounded_factorization"),
                      [(M,) for M in _bank(4, kind="local", alphabet=OUT3,
                                           output=OUT3) + fixtures[:3]],
                      lambda a, d: O.check_factorization(
                          a[0], d, out5 if a[0].input_alphabet == OUT3
                          else sig7)))
    ops.append(_batch("factorize-query",
                      _late(C, "linear_bounded_factorization"),
                      [(fixtures[3],)],
                      lambda a, d: O.check_factorization(a[0], d, sig7)))

    def image_then_decide(M):
        A = C.pruning_image(M)
        return A, R.decide(A)

    pruners = _random_machines(rng, 60, kind="pruning", max_tests=0)
    ops.append(_batch("pruning-image", image_then_decide,
                      [(M,) for M in pruners],
                      lambda a, r: O.check_pruning_image(a[0], r[0], r[1],
                                                         sig7)))
    firsts = _random_machines(rng, 40, kind="local", output=OUT3)
    seconds = _random_machines(rng, 40, kind="pruning", alphabet=OUT3,
                               output=SIGMA_E, max_tests=0)
    ops.append(_batch("compose-pruning", _late(C, "compose_with_pruning"),
                      list(zip(firsts, seconds)),
                      lambda a, M: O.check_compose(a[0], a[1], M, sig7)))
    seconds = _random_machines(rng, 40, kind="topdown", alphabet=OUT3,
                               output=SIGMA_E, max_tests=0)
    ops.append(_batch("compose-topdown", _late(C, "compose_det_topdown"),
                      list(zip(firsts, seconds)),
                      lambda a, M: O.check_compose(a[0], a[1], M, sig7)))
    relabelers = _random_machines(rng, 40, kind="relabeling", max_tests=0)
    seconds = _random_machines(rng, 40, kind="local", max_tests=0)
    ops.append(_batch("compose-su", _late(C, "compose_su"),
                      list(zip(relabelers, seconds)),
                      lambda a, M: O.check_compose(a[0], a[1], M, sig7)))

    la = _random_machines(rng, 40, kind="lookaround")
    ops.append(_batch("split", _late(C, "split_lookaround"),
                      [(M,) for M in la + fixtures],
                      lambda a, r: O.check_same_translation(
                          r[0], r[1], a[0], sig7)))
    ops.append(_batch("classify", _late(T, "classify"),
                      [(M,) for M in la + fixtures],
                      lambda a, f: O.check_classify(a[0], f, sig7)))
    tds = _random_machines(rng, 40, kind="topdown", max_tests=1)
    ops.append(_batch("lookahead", _late(C, "lookahead_of_topdown"),
                      [(M,) for M in tds],
                      lambda a, L: O.check_same_translation(
                          L, None, a[0], sig7)))
    nds = _random_machines(rng, 30, kind="topdown", deterministic=False,
                           max_tests=1)
    ops.append(_batch("uniformize", _late(C, "uniformize"),
                      [(M,) for M in nds],
                      lambda a, U: O.check_uniformize(a[0], U, sig7)))
    return ops


# ---------------------------------------------------------------------------
# member

def _member_pair(kind, P, t, s, want):
    def check(verdict):
        if verdict != want:
            return "member_pair answered %r, the oracle %r" % (verdict, want)
        return None
    return Op(kind, lambda: MB.member_pair(P, t, s), check)


def member(seed):
    """Two cost plateaus: 8 pair-membership queries, 3 output enumerations
    and a few cheap output-language queries below 55 ms, and 4
    output-language "no" answers of size 13 near 100 ms.  A "yes" stops at
    its first witness while a "no" exhausts the search."""
    rng = _rng("member", seed, "inputs")
    _, sat = MB.build_sat_fixtures()
    P = C.Pipeline(sat.stages, 16)
    ops = []
    # word a b^n c d^m e; the stage-1 intermediate has 2^(n+1)(m+3) - 1
    # nodes, so formulas of size >= that / 16 keep the constant valid
    n, m, size = 2, 2, 6
    t = MB.word_tree("a" + "b" * n + "c" + "d" * m + "e")
    for want in (True, False) * 4:
        while True:
            phi = random_formula(rng, size, n, m)
            if phi is not None and O.satisfiable(phi, n) == want:
                break
        ops.append(_member_pair("sat" if want else "unsat", P, t,
                                to_program_tree(phi), want))

    mexp = C.Pipeline((FX.m_exp(),), 1)
    everything = R.automaton_all(SIGMA_E)

    def output_language(kind, s):
        want = O.is_full_binary(s)

        def check(verdict):
            if verdict != want:
                return "member_output_language answered %r" % (verdict,)
            return None
        return Op(kind, lambda: MB.member_output_language(mexp, everything,
                                                          s), check)

    for size in (11, 11, 13, 13, 13, 13):
        while True:
            s = random_binary(rng, size)
            if not O.is_full_binary(s):
                break
        ops.append(output_language("image-no", s))
    ops.append(output_language("image-yes", FX.full_binary(2)))
    ops.append(output_language("image-yes", FX.full_binary(3)))

    # fixed valuations: the outputs' total size depends on which letters
    # are 1, and result_size should not move with the seed
    leeuw = MB.leeuw_transducer()
    for w in ("011", "0011", "0101"):
        n = len(w)
        want = O.true_formulas(2, n, w)
        bound = 4 * n + 7  # the largest formula of nesting depth 2
        t = MB.word_tree("dd" + "c" + w + "a")

        def check(outs, want=want):
            got = {W.to_tuple(s) for s in outs}
            if got != want:
                return "enumerate_outputs gave %d formulas, the oracle %d" % (
                    len(got), len(want))
            return None
        ops.append(Op("leeuw", lambda t=t, b=bound: T.enumerate_outputs(
            leeuw, t, b), check))
    return ops


WORKLOADS = {
    "walk-deep": walk_deep,
    "lookaround": lookaround,
    "construct": construct,
    "member": member,
}


def build(name, seed):
    return WORKLOADS[name](seed)
