"""Benchmark runner: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload walk-deep --seed 1 --seconds 15 --trace 0

The run sets up the workload several times (the median is ``setup_s``),
makes one untimed warm-up pass over the operation list, then repeats
whole rounds of the list until ``--seconds`` have passed.  Garbage is
collected before every operation, outside the timed region.  Times are
CPU times of the one thread scaled to reference seconds by a calibration
loop timed around each operation (see README.md).  Every timed
result must equal the warm-up result of the same operation, and every
warm-up result is checked against the reference walker or an oracle
after the timed rounds, so the checks cost neither busy time nor
``setup_s``.  The last line of standard output is one JSON object.

With ``--trace 1`` half the time runs untraced and half traced; the
per-layer metrics are per traced round, and the spans of the first
traced round go to ``bench/out/``.  See README.md.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SLOPE_LEAVES = (30, 60, 120, 240)
# Busy time is the CPU time of this, the only, thread.  The operations
# do no I/O and start no threads, so it is their wall time without the
# time the shared host gave to other processes.
busy_clock = time.thread_time
# CPU time of calibrate() on the reference machine (see README.md).  Every
# time the benchmark reports is scaled by this over the CPU time
# calibrate() takes next to it: reference seconds.
CALIBRATION_S = 0.00185

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB",
                    "result_size": "count"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("walk-deep", "lookaround", "construct", "member"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time of this process and exit")
    return p.parse_args(argv)


def pin_hash_seed():
    """Set-iteration order of strings steers the program's fixpoint loops,
    so every run uses the same string hashing."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


# ---------------------------------------------------------------------------
# Results: fingerprints and sizes

def fingerprint(x):
    """A value equal for equal results of one operation within a run."""
    from artifact.constructions import Decomposition
    from artifact.core import Tree
    from artifact.regular import BottomUpAutomaton
    from artifact.transducer import Transducer
    if isinstance(x, Tree):
        return ("tree", hash(x), x.size)
    if isinstance(x, Transducer):
        return ("machine", len(x.states), len(x.rules),
                hash(tuple(sorted(map(repr, x.rules)))))
    if isinstance(x, BottomUpAutomaton):
        return ("automaton", len(x.states), len(x.finals), len(x.delta))
    if isinstance(x, Decomposition):
        return ("factors", fingerprint(x.pruner.stages),
                fingerprint(x.remainder), x.constant)
    if isinstance(x, (tuple, list)):
        return tuple(fingerprint(i) for i in x)
    if isinstance(x, (set, frozenset)):
        return ("set", frozenset(fingerprint(i) for i in x))
    return x


def result_size(x):
    """Output tree nodes (explicit size), states + rules per transducer,
    states per automaton, 1 per verdict or undefined output; counters
    such as steps are not results."""
    from artifact.constructions import Decomposition
    from artifact.core import Tree
    from artifact.regular import BottomUpAutomaton
    from artifact.transducer import ClassFlags, Transducer
    if x is None or isinstance(x, (bool, ClassFlags)):
        return 1
    if isinstance(x, int):
        return 0
    if isinstance(x, str):
        return 1 if x.startswith("UNDEFINED") else \
            1 + x.count("(") + x.count(",")
    if isinstance(x, Tree):
        return x.size
    if isinstance(x, Transducer):
        return len(x.states) + len(x.rules)
    if isinstance(x, BottomUpAutomaton):
        return len(x.states)
    if isinstance(x, Decomposition):
        return sum(map(result_size, x.pruner.stages)) + \
            result_size(x.remainder)
    return sum(map(result_size, x))


def constructed(x):
    """(states, rules) summed over the transducers inside a result."""
    from artifact.constructions import Decomposition
    from artifact.transducer import Transducer
    if isinstance(x, Transducer):
        return len(x.states), len(x.rules)
    if isinstance(x, Decomposition):
        parts = list(x.pruner.stages) + [x.remainder]
    elif isinstance(x, (tuple, list)):
        parts = x
    else:
        return 0, 0
    sums = [constructed(p) for p in parts]
    return sum(s for s, _ in sums), sum(r for _, r in sums)


# ---------------------------------------------------------------------------
# Machine speed

def calibrate():
    """A fixed piece of pure-Python work that runs no program code.  The
    shared host runs this thread faster or slower by up to a third for
    seconds at a time; this work slows down with the operations, so its
    CPU time measures the speed of the moment."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def calibration_seconds():
    t0 = busy_clock()
    calibrate()
    return busy_clock() - t0


def speed_factor(samples):
    """Reference seconds per CPU second, from calibration samples taken
    around the work measured."""
    return CALIBRATION_S / statistics.median(samples)


# ---------------------------------------------------------------------------
# Phases

def setup(workload, seed):
    """Import the program and build the operation list; returns the list
    and the reference seconds that took."""
    before = [calibration_seconds() for _ in range(5)]
    t0 = busy_clock()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    ops = workloads.build(workload, seed)
    seconds = busy_clock() - t0
    after = [calibration_seconds() for _ in range(5)]
    return ops, seconds * speed_factor(before + after)


def setup_seconds(workload, seed):
    """The median set-up time of fresh interpreters, each importing the
    program and building the operation list once."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            workload, "--seed", str(seed), "--seconds", "0",
            "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(argv, check=True, capture_output=True,
                             text=True, timeout=120).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


FAILED = object()


class Rounds:
    """Timed rounds of the operation list, each result compared with the
    warm-up result of the same operation.  Calibration samples come
    before and after every operation, outside its timed region, and
    their mean turns its CPU time into reference seconds."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.round_rates = []

    @property
    def rounds(self):
        return len(self.round_rates)

    def round(self):
        latencies = []
        before = calibration_seconds()
        for op, ref in zip(self.ops, self.reference):
            gc.collect()
            self.attempted += 1
            t0 = busy_clock()
            try:
                result = op.run()
            except Exception:
                result = FAILED
            dt = busy_clock() - t0
            after = calibration_seconds()
            factor = speed_factor((before, after))
            before = after
            if result is FAILED:
                self.failed += 1
                continue
            latencies.append(dt * factor)
            if fingerprint(result) != ref:
                self.mismatched += 1
        busy = sum(latencies)
        self.latencies += latencies
        self.round_rates.append(len(latencies) / busy if busy else 0.0)
        return busy

    def until(self, seconds):
        busy = 0.0
        start = time.perf_counter()
        while True:
            busy += self.round()
            if time.perf_counter() - start >= seconds:
                return busy


def warm_up(ops):
    results = []
    for op in ops:
        gc.collect()
        try:
            results.append(op.run())
        except Exception as e:
            results.append(e)
    return results


def check_all(ops, results):
    problems = []
    for i, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, Exception):
            problems.append("op %d (%s) raised %s: %s"
                            % (i, op.kind, type(res).__name__, res))
            continue
        try:
            bad = op.check(res)
        except Exception as e:  # a malformed result can break an oracle
            bad = "the check raised %s: %s" % (type(e).__name__, e)
        if bad:
            problems.append("op %d (%s): %s" % (i, op.kind, bad))
    return problems


def eval_slope():
    """Log-log slope of eval_deterministic wall time against |t| + |s|
    for the identity relabeler on right combs (best of three each)."""
    from artifact import fixtures, transducer
    M = fixtures.identity_relabeler()
    xs, ys = [], []
    for n in SLOPE_LEAVES:
        t = fixtures.comb_tree(n)
        best = math.inf
        for _ in range(3):
            gc.collect()
            t0 = time.perf_counter()
            s, _ = transducer.eval_deterministic(M, t)
            best = min(best, time.perf_counter() - t0)
        xs.append(math.log(t.size + s.size))
        ys.append(math.log(best))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def per_layer(tracer, rounds, overhead, slope, constructed_sums):
    from tracing import VERDICTS

    def per_round(x):
        return x / rounds

    ms = {n: per_round(v) * 1000.0 for n, v in tracer.inclusive.items()}
    calls = {n: per_round(v) for n, v in tracer.calls.items()}
    counters = {n: per_round(v) for n, v in tracer.counters.items()}
    verdicts = sum(calls.get(v, 0.0) for v in VERDICTS)
    m = {"cli.main.self_ms": (per_round(tracer.self_time["cli.main"]) * 1000.0,
                              "ms")}
    for name in ("core.parse_tree", "core.serialize_tree", "core.addresses",
                 "core.mark_node", "core.all_trees", "regular.eval_test",
                 "regular.enumerate_grammar", "regular.decide",
                 "regular.grammar_to_automaton", "regular.product",
                 "transducer.eval_deterministic", "transducer.eval_streaming",
                 "transducer.classify", "transducer.enumerate_outputs",
                 "transducer.config_grammar",
                 "constructions.domain_automaton",
                 "constructions.inverse_image", "constructions.compose",
                 "constructions.split", "constructions.lookahead",
                 "constructions.uniformize", "constructions.factorize",
                 "membership.member_pair",
                 "membership.member_output_language"):
        m[name + ".ms"] = (ms.get(name, 0.0), "ms")
    for name in ("core.addresses", "core.subtree_at", "core.navigate",
                 "core.mark_node", "core.tree_lt", "regular.eval_test",
                 "transducer.classify", "transducer.enumerate_outputs"):
        m[name + ".calls"] = (calls.get(name, 0.0), "count")
    m["regular.automaton_run.nodes"] = (
        counters.get("regular.automaton_run.nodes", 0.0), "count")
    m["transducer.eval_deterministic.steps"] = (
        counters.get("transducer.eval_deterministic.steps", 0.0), "count")
    m["transducer.eval_slope"] = (slope, "slope")
    m["transducer.eval_streaming.max_stack"] = (tracer.max_stack, "count")
    m["constructions.result_states"] = (constructed_sums[0], "count")
    m["constructions.result_rules"] = (constructed_sums[1], "count")
    m["membership.candidates_per_verdict"] = (
        counters.get("membership.candidates", 0.0) / verdicts
        if verdicts else 0.0, "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None):
    args = parse_args(argv)
    pin_hash_seed()
    try:
        ops, setup_s = setup(args.workload, args.seed)
    except ImportError as e:
        print("cannot import the program: %s" % e, file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_s)
        return 0
    if not args.trace:
        setup_s = setup_seconds(args.workload, args.seed)

    reference_results = warm_up(ops)
    reference = [fingerprint(r) for r in reference_results]
    # what exists now outlives the run; keep it out of the collections
    # made between operations
    gc.collect()
    gc.freeze()
    timed = Rounds(ops, reference)
    tracer = None
    if args.trace:
        from tracing import Tracer
        timed.until(args.seconds / 2)
        untraced_rounds = timed.rounds
        tracer = Tracer()
        tracer.install()
        try:
            busy = timed.round()
            tracer.keep_spans = False
            if busy < args.seconds / 2:
                timed.until(args.seconds / 2 - busy)
        finally:
            tracer.uninstall()
        traced_rounds = timed.rounds - untraced_rounds
        rates = timed.round_rates
        overhead = (statistics.median(rates[:untraced_rounds])
                    / statistics.median(rates[untraced_rounds:]))
        slope = eval_slope()
    else:
        timed.until(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_all(ops, reference_results)
    if timed.mismatched:
        problems.append("%d timed results differ from the warm-up results"
                        % timed.mismatched)
    for p in problems:
        print("CHECK FAILED: %s" % p, file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    if tracer is not None:
        tracer.write_spans(stem + ".spans.json")
        sums = [0, 0]
        for res in reference_results:
            s, r = constructed(res)
            sums[0] += s
            sums[1] += r
        metrics = per_layer(tracer, traced_rounds, overhead, slope, sums)
    else:
        lat = timed.latencies
        metrics = {
            "setup_s": setup_s,
            # the median round resists a burst of load from elsewhere
            "ops_per_s": statistics.median(timed.round_rates),
            "op_p50_ms": statistics.median(lat) * 1000.0,
            "op_p90_ms": statistics.quantiles(
                lat, n=10, method="inclusive")[8] * 1000.0,
            "peak_rss_mb": peak_rss_mb,
            "result_size": sum(result_size(r) for r in reference_results),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        with open(stem + ".latencies.json", "w", encoding="utf-8") as fh:
            json.dump({"kinds": [op.kind for op in ops],
                       "rounds": timed.rounds,
                       "latencies_s": lat}, fh)
    print(json.dumps({
        "correct": not problems,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
