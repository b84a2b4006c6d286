"""Per-layer tracing from the benchmark's side of the program's API.

``Tracer.install()`` wraps the public functions of each ``artifact``
module in every module namespace that binds them (``transducer`` imports
``subtree_at`` and ``navigate`` by name, so patching ``core`` alone would
miss those calls), plus a few methods on ``Tree`` and
``BottomUpAutomaton``.  Timed wrappers record spans (name, start, end,
parent); very frequently called functions are only counted.
``uninstall()`` restores the originals.

A span's self time is its duration minus the time its child spans cover.
A name's inclusive time counts only its outermost active call, so
recursion and re-entry are not counted twice.
"""

import json
import sys
import time
from collections import Counter, defaultdict

from artifact import cli, constructions, core, membership, regular
from artifact import transducer

# (module, attribute, metric name, mode) with mode "time" (spans and
# inclusive time), "count" (calls only) or "both"
FUNCTIONS = [
    (cli, "main", "cli.main", "time"),
    (core, "parse_tree", "core.parse_tree", "time"),
    (core, "serialize_tree", "core.serialize_tree", "time"),
    (core, "addresses", "core.addresses", "both"),
    (core, "subtree_at", "core.subtree_at", "count"),
    (core, "navigate", "core.navigate", "count"),
    (core, "mark_node", "core.mark_node", "both"),
    (core, "all_trees", "core.all_trees", "time"),
    (regular, "eval_test", "regular.eval_test", "both"),
    (regular, "enumerate_grammar", "regular.enumerate_grammar", "time"),
    (regular, "decide", "regular.decide", "time"),
    (regular, "grammar_to_automaton", "regular.grammar_to_automaton", "time"),
    (transducer, "eval_deterministic", "transducer.eval_deterministic",
     "time"),
    (transducer, "eval_streaming", "transducer.eval_streaming", "time"),
    (transducer, "classify", "transducer.classify", "both"),
    (transducer, "enumerate_outputs", "transducer.enumerate_outputs", "both"),
    (transducer, "config_grammar", "transducer.config_grammar", "time"),
    (constructions, "domain_automaton", "constructions.domain_automaton",
     "time"),
    (constructions, "inverse_image", "constructions.inverse_image", "time"),
    (constructions, "compose_with_pruning", "constructions.compose", "time"),
    (constructions, "compose_det_topdown", "constructions.compose", "time"),
    (constructions, "compose_su", "constructions.compose", "time"),
    (constructions, "split_lookaround", "constructions.split", "time"),
    (constructions, "split_lookaround_nondet", "constructions.split", "time"),
    (constructions, "lookahead_of_topdown", "constructions.lookahead",
     "time"),
    (constructions, "uniformize", "constructions.uniformize", "time"),
    (constructions, "linear_bounded_factorization",
     "constructions.factorize", "time"),
    (membership, "member_pair", "membership.member_pair", "both"),
    (membership, "member_output_language",
     "membership.member_output_language", "both"),
]

METHODS = [
    (core.Tree, "__lt__", "core.tree_lt", "count"),
    (regular.BottomUpAutomaton, "run", "regular.automaton_run", "count"),
    (regular.BottomUpAutomaton, "intersect", "regular.product", "time"),
    (regular.BottomUpAutomaton, "union", "regular.product", "time"),
    (regular.BottomUpAutomaton, "complement", "regular.product", "time"),
]

VERDICTS = ("membership.member_pair", "membership.member_output_language")
CANDIDATES = ("transducer.eval_deterministic", "transducer.enumerate_outputs")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self.max_stack = 0
        self.active = Counter()
        self.stack = []
        self.spans = []
        self.keep_spans = True
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _timed(self, name, fn, counted):
        tracer = self

        def wrapper(*args, **kwargs):
            if counted:
                tracer.calls[name] += 1
            if name in CANDIDATES and any(tracer.active[v] for v in VERDICTS):
                tracer.counters["membership.candidates"] += 1
            span = None
            if tracer.keep_spans:
                span = len(tracer.spans)
                parent = tracer.stack[-1][2] if tracer.stack else None
                tracer.spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, 0.0, span]
            tracer.stack.append(frame)
            tracer.active[name] += 1
            start = frame[0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.active[name] -= 1
                tracer.stack.pop()
                dur = end - start
                tracer.self_time[name] += dur - frame[1]
                if not tracer.active[name]:
                    tracer.inclusive[name] += dur
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                if span is not None:
                    tracer.spans[span][1:3] = [start, end]
            tracer._after(name, args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        tracer = self
        nodes = name == "regular.automaton_run"

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if nodes:
                tracer.counters[name + ".nodes"] += args[1].size
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, name, args, result):
        if name == "transducer.eval_deterministic":
            self.counters[name + ".steps"] += result[1]
        elif name == "transducer.eval_streaming":
            self.max_stack = max(self.max_stack, result[1])

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn, mode):
        if mode == "count":
            return self._counted(name, fn)
        return self._timed(name, fn, counted=(mode == "both"))

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "artifact" or n.startswith("artifact.")]
        for module, attr, name, mode in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, mode)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)
        for cls, attr, name, mode in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, mode))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
