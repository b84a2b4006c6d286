"""Command-line surface tying the text formats and operations together.

File extensions: ``.alpha`` alphabets, ``.aut`` bottom-up automata,
``.ttt`` transducers (with ``# test NAME KIND FILE`` sidecar references),
``.pipe`` pipelines, ``.tree`` trees, ``.forest`` forests.  Transducer
and forest arguments also accept built-in fixture names (see
``fixtures --list``) and ``random:KIND:SEED[:n]`` for seeded random
machines; tree and forest arguments may be given literally.

Exit codes: 0 success, 1 semantic failure (not a member, not equivalent,
undefined output, precondition violated), 2 usage or format error,
3 resource ceiling exceeded.

Report lines for output sets are ``CASE <input> -> {<outputs>}`` with
outputs sorted, so byte-identical runs produce byte-identical reports.
"""

import argparse
import functools
import os
import sys

from .core import (
    AlphabetError, MarkedAlphabet, ParseError, RankedAlphabet, TreeError,
    all_trees, parse_tree, serialize_tree, split_marked_name,
)
from .regular import (
    AutomatonTest, BottomUpAutomaton, ResourceError, SubTest,
    automaton_all,
)
from .transducer import (
    ContractError, Transducer, check_single_use, classify,
    enumerate_outputs, eval_deterministic,
)
from .constructions import (
    Pipeline, absorb_right, compose_det_topdown, compose_su,
    compose_with_pruning, domain_automaton, inverse_image,
    linear_bounded_factorization, linear_bounded_pipeline,
    lookahead_of_topdown, split_lookaround, split_lookaround_nondet,
    uniformize, _automaton_tests,
)
from .membership import (
    build_sat_fixtures, leeuw_transducer, member_pair,
)
from .forest import (
    Forest, at_exponential, decode, decode_homomorphism, encode,
    encoding_alphabets, flatten, flatten_simulator, flatten_yield,
    forest_pipeline,
)
from . import fixtures as fx


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _np_stages():
    return build_sat_fixtures()[1].stages


FIXTURES = {
    "mexp": fx.m_exp,
    "query": fx.query_transducer,
    "identity": fx.identity_relabeler,
    "leftproj": fx.left_projection,
    "leafchooser": fx.leaf_chooser,
    "loop": fx.loop_transducer,
    "leeuw": leeuw_transducer,
    "npfirst": lambda: _np_stages()[0],
    "npsecond": lambda: _np_stages()[1],
    "atexp": at_exponential,
    "flatsim": lambda: flatten_simulator(("a", "b")),
    "dechom": lambda: decode_homomorphism(("a", "b")),
    "flatyield": lambda: flatten_yield(("a", "b")),
}

ALPHABETS = {
    "sigmae": lambda: fx.SIGMA_E,
    "out3": lambda: fx.OUT3,
}


class Workspace:
    """Registry resolving names to alphabets, automata, transducers, and
    pipelines; file contents are cached per path."""

    def __init__(self):
        self._cache = {}

    def alphabet(self, ref):
        if ref in ALPHABETS:
            return ALPHABETS[ref]()
        return self._load(ref, ".alpha",
                          lambda text, path: RankedAlphabet.parse(text))

    def automaton(self, ref):
        if ref.startswith("all:"):
            return automaton_all(self.alphabet(ref[len("all:"):]))
        return self._load(ref, ".aut",
                          lambda text, path: BottomUpAutomaton.parse(text))

    def transducer(self, ref):
        if ref in FIXTURES:
            return FIXTURES[ref]()
        if ref.startswith("random:"):
            return self._random(ref)
        op, sep, rest = ref.partition(":")
        if sep and op in ("compose", "absorb", "lookahead", "uniformize",
                          "split1", "split2"):
            return self._construct(op, rest.split(","))
        return self._load(ref, ".ttt", self._parse_transducer)

    def _construct(self, op, argrefs):
        machines = [self.transducer(r) for r in argrefs]
        if op in ("compose", "absorb") and len(machines) == 2:
            if op == "absorb":
                return absorb_right(*machines)
            return _compose_auto(*machines)
        if op in ("lookahead", "uniformize", "split1", "split2") \
                and len(machines) == 1:
            if op == "lookahead":
                return lookahead_of_topdown(machines[0])
            if op == "uniformize":
                return uniformize(machines[0])
            pair = split_lookaround(machines[0])
            return pair[0 if op == "split1" else 1]
        raise CliError(2, "construction %s takes %d machine(s)"
                       % (op, 2 if op in ("compose", "absorb") else 1))

    def pipeline(self, ref):
        if ref.endswith(".pipe"):
            return self._load(ref, ".pipe", self._parse_pipeline)
        return Pipeline((self.transducer(ref),))

    def tree(self, ref, alphabet):
        if ref.endswith(".tree") or os.path.exists(ref):
            ref = _read(ref).strip()
        return parse_tree(ref, alphabet)

    def forest(self, ref):
        if ref.endswith(".forest") or os.path.exists(ref):
            ref = _read(ref).strip()
        return Forest.parse(ref)

    def _load(self, ref, ext, parser):
        if not ref.endswith(ext) and not os.path.exists(ref):
            raise CliError(2, "unknown reference %r (expected a fixture "
                              "name or a %s file)" % (ref, ext))
        key = (ext, os.path.abspath(ref))
        if key not in self._cache:
            self._cache[key] = parser(_read(ref), ref)
        return self._cache[key]

    def _random(self, ref):
        parts = ref.split(":")
        if len(parts) not in (3, 4):
            raise CliError(2, "random reference needs random:KIND:SEED[:n]")
        try:
            seed = int(parts[2])
        except ValueError:
            raise CliError(2, "bad seed %r" % (parts[2],))
        det = len(parts) == 3 or parts[3] != "n"
        return fx.random_transducer(seed, kind=parts[1], deterministic=det)

    def _parse_transducer(self, text, path):
        tests = {}
        base = os.path.dirname(os.path.abspath(path))
        for line in text.splitlines():
            line = line.strip()
            if not line.startswith("# test "):
                continue
            fields = line[len("# test "):].split()
            if len(fields) != 3 or fields[1] not in ("sub", "node"):
                raise CliError(2, "bad test line %r (need NAME sub|node "
                                  "FILE)" % (line,))
            aut = BottomUpAutomaton.parse(_read(
                os.path.join(base, fields[2])))
            if fields[1] == "node":
                aut = _remark(aut)
            tests[fields[0]] = (SubTest(aut) if fields[1] == "sub"
                                else AutomatonTest(aut))
        return Transducer.parse(text, tests)

    def _parse_pipeline(self, text, path):
        base = os.path.dirname(os.path.abspath(path))
        constant = None
        stages = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("constant:"):
                constant = int(line[len("constant:"):])
            elif line.startswith("stage:"):
                ref = line[len("stage:"):].strip()
                if ref not in FIXTURES and not ref.startswith("random:"):
                    ref = os.path.join(base, ref)
                stages.append(self.transducer(ref))
            else:
                raise CliError(2, "pipeline line %d: expected constant: "
                                  "or stage:" % lineno)
        if not stages:
            raise CliError(2, "pipeline has no stages")
        return Pipeline(tuple(stages), constant)


def _remark(aut):
    """Rebuild the marked alphabet of a node-test automaton loaded from
    text, where the mark bit is folded into the symbol names."""
    base = {}
    for name in aut.alphabet:
        stem, _ = split_marked_name(name)
        base[stem] = aut.alphabet.rank(name)
    marked = MarkedAlphabet(RankedAlphabet(base))
    return BottomUpAutomaton(marked, aut.states, aut.finals, aut.delta,
                             check_total=False)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(2, "cannot read %s: %s" % (path, e))


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(2, "cannot write %s: %s" % (path, e))


def save_transducer(M, path):
    """Write a transducer and sidecar .aut files for its automaton-backed
    tests; machines carrying oracle tests are not serializable."""
    try:
        tests = _automaton_tests(
            M, "machine carries tests without an automaton text form")
    except ContractError as e:
        raise CliError(3, str(e)) from None
    names = {}
    lines = []
    for t in tests:
        name = names[t] = "t%d" % len(names)
        kind = "sub" if t.subtest else "node"
        aut_path = "%s.%s.aut" % (os.path.splitext(path)[0], name)
        _write(aut_path, t.aut.format())
        lines.append("# test %s %s %s" % (name, kind,
                                          os.path.basename(aut_path)))
    body = M.format(names)
    _write(path, "".join(l + "\n" for l in lines) + body)


def _outputs_line(label, outs, fmt):
    return "CASE %s -> {%s}" % (label, ", ".join(sorted(fmt(s)
                                                        for s in outs)))


def _outputs(M, t, bound, flag, max_chain):
    """M's outputs on t: its one output when ``bound`` is None and M is
    deterministic, else those up to size ``bound``; the error names the
    ``flag`` that sets the bound."""
    if bound is None:
        if not classify(M).deterministic:
            raise CliError(2, "%s is required for nondeterministic machines"
                           % flag)
        s, _ = eval_deterministic(M, t)
        return set() if s is None else {s}
    return enumerate_outputs(M, t, bound, max_chain)


# ---------------------------------------------------------------------------
# Subcommand handlers

def cmd_run(ws, args):
    M = ws.transducer(args.transducer)
    t = ws.tree(args.input, M.input_alphabet)
    outs = _outputs(M, t, args.max_size, "--max-size", args.max_chain)
    if args.max_size is None:
        if not outs:
            print("UNDEFINED")
            return 1
        print(serialize_tree(outs.pop()))
        return 0
    print(_outputs_line(serialize_tree(t), outs, serialize_tree))
    return 0


def _compose_auto(M1, M2):
    err = None
    for fn in (compose_det_topdown, compose_su, compose_with_pruning):
        try:
            return fn(M1, M2)
        except ContractError as e:
            err = e
    raise err


def _emit_machine(M, args):
    """Write the constructed machine if --out was given; otherwise print a
    report of its outputs on all inputs up to --max-size.  Oracle-guarded
    machines only support the report."""
    if args.out:
        save_transducer(M, args.out)
        print("WROTE %s (%d states, %d rules)" % (args.out, len(M.states),
                                                  len(M.rules)))
        return 0
    for t in all_trees(M.input_alphabet, args.max_size or 4):
        outs = enumerate_outputs(M, t, args.max_size or 4, args.max_chain)
        print(_outputs_line(serialize_tree(t), outs, serialize_tree))
    return 0


def cmd_compose(ws, args):
    M1 = ws.transducer(args.first)
    M2 = ws.transducer(args.second)
    routes = {"topdown": compose_det_topdown, "pruning":
              compose_with_pruning, "su": compose_su}
    if args.mode != "auto":
        M = routes[args.mode](M1, M2)
    else:
        M = _compose_auto(M1, M2)
    return _emit_machine(M, args)


def cmd_absorb(ws, args):
    M = absorb_right(ws.transducer(args.first), ws.transducer(args.second))
    return _emit_machine(M, args)


def cmd_split(ws, args):
    M = ws.transducer(args.transducer)
    op = split_lookaround_nondet if args.nondet else split_lookaround
    N, M2 = op(M)
    save_transducer(N, args.out_first)
    save_transducer(M2, args.out_second)
    print("WROTE %s (%d rules) %s (%d rules)"
          % (args.out_first, len(N.rules), args.out_second, len(M2.rules)))
    return 0


def cmd_lookahead(ws, args):
    M = lookahead_of_topdown(ws.transducer(args.transducer))
    return _emit_machine(M, args)


def cmd_uniformize(ws, args):
    M = ws.transducer(args.transducer)
    U = uniformize(M)
    if args.out:
        return _emit_machine(U, args)
    # the uniformizer's guards have no text form in general, so without
    # --out report its value on every input up to the size bound
    for t in all_trees(M.input_alphabet, args.max_size):
        s, _ = eval_deterministic(U, t)
        if s is not None:
            print(_outputs_line(serialize_tree(t), {s}, serialize_tree))
    return 0


def _pipeline_report(P):
    print("CONSTANT %s" % (P.linear_bound_constant,))
    print("STAGES %d" % len(P.stages))
    for i, M in enumerate(P.stages):
        print("STAGE %d states=%d rules=%d symbols=%d" % (
            i, len(M.states), len(M.rules), len(M.input_alphabet)))


def cmd_factorize(ws, args):
    d = linear_bounded_factorization(ws.transducer(args.transducer))
    stages = d.pruner.stages + (d.remainder,)
    _pipeline_report(Pipeline(stages, d.constant))
    return 0


def cmd_optimize(ws, args):
    P = linear_bounded_pipeline(ws.pipeline(args.pipeline),
                                corpus_bound=args.ceiling)
    _pipeline_report(P)
    return 0


def cmd_domain(ws, args):
    M = ws.transducer(args.transducer)
    A = domain_automaton(M)
    if args.out:
        _write(args.out, A.format())
        print("WROTE %s (%d states)" % (args.out, len(A.states)))
        return 0
    if args.input is None:
        raise CliError(2, "domain needs --input or --out")
    t = ws.tree(args.input, M.input_alphabet)
    if A.accepts(t):
        print("ACCEPT")
        return 0
    print("REJECT")
    return 1


def cmd_inverse_image(ws, args):
    M = ws.transducer(args.transducer)
    A = inverse_image(M, ws.automaton(args.language))
    _write(args.out, A.format())
    print("WROTE %s (%d states)" % (args.out, len(A.states)))
    return 0


def cmd_member(ws, args):
    P = ws.pipeline(args.pipeline)
    t = ws.tree(args.input, P.stages[0].input_alphabet)
    s = ws.tree(args.output, P.stages[-1].output_alphabet)
    if member_pair(P, t, s):
        print("MEMBER")
        return 0
    print("NOT A MEMBER")
    return 1


def cmd_classify(ws, args):
    flags = classify(ws.transducer(args.transducer))
    for field in ("deterministic", "local", "sub_testing", "top_down",
                  "pruning", "relabeling"):
        print("%s: %s" % (field,
                          "yes" if getattr(flags, field) else "no"))
    return 0


def cmd_check_single_use(ws, args):
    M = ws.transducer(args.transducer)
    corpus = all_trees(M.input_alphabet, args.max_size)
    ok, witness = check_single_use(M, corpus)
    if ok:
        print("SINGLE-USE (%d trees)" % len(corpus))
        return 0
    print("NOT SINGLE-USE: %s" % (witness,))
    return 1


def cmd_forest(ws, args):
    if args.action == "encode":
        print(serialize_tree(encode(ws.forest(args.input))))
        return 0
    if args.action in ("decode", "flatten"):
        if not args.symbols:
            raise CliError(2, "%s needs --symbols" % args.action)
        syms = args.symbols.split(",")
        sigma_e, delta_at = encoding_alphabets(syms)
        alpha = sigma_e if args.action == "decode" else delta_at
        t = ws.tree(args.input, alpha)
        op = decode if args.action == "decode" else flatten
        print(str(op(t)))
        return 0
    ref = args.pipeline if args.pipeline else args.transducer
    if ref is None:
        raise CliError(2, "forest run needs --transducer or --pipeline")
    P = ws.pipeline(ref)
    f = ws.forest(args.input)
    outs = forest_pipeline(P, args.mode, f, max_size=args.max_size)
    print(_outputs_line(str(f), outs, str))
    return 0


def cmd_fixtures(ws, args):
    if args.name is None:
        for name in sorted(FIXTURES):
            print(name)
        return 0
    save_transducer(ws.transducer(args.name), args.out)
    print("WROTE %s" % args.out)
    return 0


def cmd_verify(ws, args):
    left = ws.transducer(args.left)
    right = ws.transducer(args.right)
    if left.input_alphabet.symbols != right.input_alphabet.symbols:
        raise CliError(2, "machines have different input alphabets")
    cases = 0
    for t in all_trees(left.input_alphabet, args.max_size):
        a = _outputs(left, t, args.max_output, "--max-output", args.max_chain)
        b = _outputs(right, t, args.max_output, "--max-output", args.max_chain)
        if a != b:
            print("DIFFER CASE %s -> left %s right %s"
                  % (serialize_tree(t),
                     "{%s}" % ", ".join(sorted(map(serialize_tree, a))),
                     "{%s}" % ", ".join(sorted(map(serialize_tree, b)))))
            return 1
        cases += 1
    print("EQUIVALENT (%d cases)" % cases)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once: ``main`` parses every argument
    vector with the same one."""
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Tree-walking tree transducer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        return p

    def size_flags(p, required=False):
        p.add_argument("--max-size", type=int, required=required,
                       help="output size bound for enumeration")
        p.add_argument("--max-chain", type=int, default=None,
                       help="bound on chains of non-producing steps")

    p = add("run", cmd_run, help="evaluate a transducer on a tree")
    p.add_argument("--transducer", required=True)
    p.add_argument("--input", required=True)
    size_flags(p)

    p = add("enumerate", cmd_run,
            help="enumerate outputs up to a size bound")
    p.add_argument("--transducer", required=True)
    p.add_argument("--input", required=True)
    size_flags(p, required=True)

    p = add("compose", cmd_compose, help="compose two transducers")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--mode", default="auto",
                   choices=("auto", "topdown", "pruning", "su"))
    p.add_argument("--out")
    size_flags(p)

    p = add("absorb", cmd_absorb,
            help="absorb the second machine into the first")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--out")
    size_flags(p)

    p = add("split", cmd_split,
            help="split look-around tests into a relabeling stage")
    p.add_argument("--transducer", required=True)
    p.add_argument("--nondet", action="store_true",
                   help="use the nondeterministic annotator")
    p.add_argument("--out-first", required=True)
    p.add_argument("--out-second", required=True)

    p = add("lookahead", cmd_lookahead,
            help="turn look-around into look-ahead")
    p.add_argument("--transducer", required=True)
    p.add_argument("--out", required=True)

    p = add("uniformize", cmd_uniformize,
            help="extract a same-domain function from a relation")
    p.add_argument("--transducer", required=True)
    p.add_argument("--out")
    p.add_argument("--max-size", type=int, default=4,
                   help="input size bound for the report without --out")

    p = add("factorize", cmd_factorize,
            help="factor through linear-bounded pruning stages")
    p.add_argument("--transducer", required=True)

    p = add("optimize", cmd_optimize,
            help="make every pipeline junction linear-bounded")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--ceiling", type=int, default=4)

    p = add("domain", cmd_domain,
            help="domain automaton queries and export")
    p.add_argument("--transducer", required=True)
    p.add_argument("--input")
    p.add_argument("--out")

    p = add("inverse-image", cmd_inverse_image,
            help="inverse image of a regular language")
    p.add_argument("--transducer", required=True)
    p.add_argument("--language", required=True)
    p.add_argument("--out", required=True)

    p = add("member", cmd_member,
            help="pair membership for a pipeline")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("classify", cmd_classify, help="print class flags")
    p.add_argument("--transducer", required=True)

    p = add("check-single-use", cmd_check_single_use,
            help="check the single-use restriction on a corpus")
    p.add_argument("--transducer", required=True)
    p.add_argument("--max-size", type=int, default=5)

    p = add("forest", cmd_forest, help="forest encoding and pipelines")
    p.add_argument("action",
                   choices=("encode", "decode", "flatten", "run"))
    p.add_argument("--input", required=True)
    p.add_argument("--symbols", help="comma-separated unranked symbols")
    p.add_argument("--transducer")
    p.add_argument("--pipeline")
    p.add_argument("--mode", default="dec", choices=("dec", "flat"))
    size_flags(p)

    p = add("fixtures", cmd_fixtures,
            help="list built-in machines or write one to a file")
    p.add_argument("--name")
    p.add_argument("--out")

    p = add("verify", cmd_verify,
            help="compare two machines on all trees up to a size")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--max-size", type=int, required=True,
                   help="input size bound for the corpus")
    p.add_argument("--max-output", type=int, default=None,
                   help="output size bound for nondeterministic machines")
    p.add_argument("--max-chain", type=int, default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    ws = Workspace()
    try:
        return args.func(ws, args)
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    except ResourceError as e:
        print("resource limit: %s" % e, file=sys.stderr)
        return 3
    except RecursionError:
        print("resource limit: input nesting exceeds the recursion limit "
              "(sys.getrecursionlimit() = %d)" % sys.getrecursionlimit(),
              file=sys.stderr)
        return 3
    except ContractError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (ParseError, AlphabetError, TreeError, ValueError) as e:
        print("format error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
