"""Per-layer tracing for the benchmark's traced run.

`Tracer.install()` wraps public entry points of the relhoare modules in
place (module attributes and class attributes, never the source) and
`uninstall()` puts the originals back. Coarse entry points record one
span each: name, start, end and the span that was open when it was
called. Hot leaves (`machine.successors`, `machine.decode_word`,
top-level `specfile.eval_constraint`, `equiv.EquivRel.related`) are
aggregated instead: a count and a total time, globally and per
innermost open span. Everything stays in memory until the run ends.

A span's self time is its duration minus the time covered by its child
spans and by the leaf calls made directly inside it.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

from relhoare import cli, ct, equiv, finsys, kernel, machine, specfile

_KERNEL_ENTRY_POINTS = (
    "check_ensures", "check_ensures_n", "check_ensures2", "check_hybrid",
    "check_eventually_n_at_pc", "first_stop_evidence", "prove_ensures",
    "prove_ensures_n", "prove_ensures2", "recheck", "eventually_holds",
    "eventually_n_holds",
)

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("machine.successors_calls", "count"),
    ("machine.distinct_states", "count"),
    ("machine.redundancy", "ratio"),
    ("machine.successors_s", "s"),
    ("machine.steps_per_s", "1/s"),
    ("machine.decode_calls", "count"),
    ("machine.decode_s", "s"),
    ("kernel.check_s", "s"),
    ("kernel.self_s", "s"),
    ("kernel.successors_per_pair", "ratio"),
    ("kernel.successors_per_start", "ratio"),
    ("kernel.validate_s", "s"),
    ("kernel.resolve_s", "s"),
    ("specfile.parse_s", "s"),
    ("specfile.build_s", "s"),
    ("specfile.instances", "count"),
    ("specfile.eval_calls", "count"),
    ("specfile.eval_s", "s"),
    ("ct.pairs", "count"),
    ("ct.pair_build_s", "s"),
    ("equiv.candidates", "count"),
    ("equiv.pairs", "count"),
    ("equiv.join_ratio", "ratio"),
    ("equiv.pair_build_s", "s"),
    ("finsys.trials_per_s", "1/s"),
    ("finsys.kernel_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)

_SUCC, _DECODE, _EVAL, _RELATED = (
    "machine.successors", "machine.decode_word", "specfile.eval_constraint",
    "equiv.EquivRel.related")


class Span:
    __slots__ = ("name", "start", "end", "parent", "leaf_calls", "leaf_s",
                 "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.leaf_calls: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and leaf counts of one traced round."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []      # indices of the open spans
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.states: set = set()   # distinct states handed to successors
        self._in_leaf = False
        self._in_eval = False
        self._saved: list = []

    # -- installing

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        succ = self._leaf(_SUCC, machine.successors, record_state=True)
        traced_oracle = dataclasses.replace(machine.oracle(),
                                            successors=succ)
        self._patch(machine, "successors", succ)
        self._patch(machine, "oracle", lambda: traced_oracle)
        self._patch(machine, "decode_word",
                    self._leaf(_DECODE, machine.decode_word))
        self._patch(specfile, "eval_constraint",
                    self._eval_leaf(specfile.eval_constraint))
        self._patch(equiv.EquivRel, "related",
                    self._leaf(_RELATED, equiv.EquivRel.related))

        self._wrap(cli, "main", "cli.main")
        self._wrap(specfile, "parse_spec", "specfile.parse_spec")
        self._wrap(specfile, "build_problem", "specfile.build_problem",
                   _note_instances)
        self._wrap(ct, "check_ct_relational", "ct.check_ct_relational",
                   _note_ct_pairs)
        self._wrap(ct, "check_ct_unary", "ct.check_ct_unary")
        self._wrap(equiv, "check_equiv", "equiv.check_equiv",
                   _note_equiv_pairs)
        self._wrap(finsys, "run_soundness_suite",
                   "finsys.run_soundness_suite", _note_trials)
        for name in _KERNEL_ENTRY_POINTS:
            self._wrap(kernel, name, f"kernel.{name}",
                       _note_examined if name == "check_ensures2" else None)
        self._wrap(kernel.StepFn, "resolve", "kernel.StepFn.resolve")
        self._wrap(kernel.PairEnumeration, "validate",
                   "kernel.PairEnumeration.validate")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- wrappers

    def _wrap(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                note(span, args, result)
            return result

        self._patch(owner, attr, traced)

    def _leaf(self, name: str, fn, record_state: bool = False):
        spans, stack = self.spans, self.stack
        calls, seconds, states = self.calls, self.seconds, self.states
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if record_state:
                states.add(args[0])
            outer = tracer._in_leaf
            tracer._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._in_leaf = outer
                calls[name] += 1
                seconds[name] += dt
                if not outer and stack:
                    span = spans[stack[-1]]
                    span.leaf_calls[name] += 1
                    span.leaf_s[name] += dt

        return traced

    def _eval_leaf(self, fn):
        """eval_constraint recurses through its module global; only the
        outermost call of each evaluation is a leaf call."""
        leaf = self._leaf(_EVAL, fn)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_eval:
                return fn(*args, **kwargs)
            tracer._in_eval = True
            try:
                return leaf(*args, **kwargs)
            finally:
                tracer._in_eval = False

        return traced

    # -- reading the round

    def self_times(self) -> list:
        """Self time of every span, by index."""
        covered = [sum(s.leaf_s.values()) for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def _outermost(self, pred) -> list:
        """Indices of spans matching pred with no matching ancestor."""
        out, inside = [], [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            above = s.parent >= 0 and inside[s.parent]
            inside[i] = above or pred(s)
            if pred(s) and not above:
                out.append(i)
        return out

    def _total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def _info(self, name: str, key: str) -> int:
        return sum(s.info.get(key, 0) for s in self.spans if s.name == name)

    def _children_of(self, name: str, child: str) -> float:
        parents = {i for i, s in enumerate(self.spans) if s.name == name}
        return sum(s.duration for s in self.spans
                   if s.parent in parents and s.name == child)

    def counts(self) -> dict:
        """The per-layer metrics that count work; they repeat exactly."""
        succ = self.calls[_SUCC]
        pair_succ, _ = self._leaf_under(
            self._outermost(lambda s: s.name == "kernel.check_ensures2"),
            _SUCC)
        examined = self._info("kernel.check_ensures2", "pairs")
        starts = self._info("kernel.check_ensures2", "starts")
        candidates = sum(s.leaf_calls[_RELATED] for s in self.spans
                         if s.name == "equiv.check_equiv")
        equiv_pairs = self._info("equiv.check_equiv", "pairs")
        return {
            "machine.successors_calls": succ,
            "machine.distinct_states": len(self.states),
            "machine.redundancy": _ratio(succ, len(self.states)),
            "machine.decode_calls": self.calls[_DECODE],
            "kernel.successors_per_pair": _ratio(pair_succ, examined),
            "kernel.successors_per_start": _ratio(pair_succ, starts),
            "specfile.instances": self._info("specfile.build_problem",
                                             "instances"),
            "specfile.eval_calls": self.calls[_EVAL],
            "ct.pairs": self._info("ct.check_ct_relational", "pairs"),
            "equiv.candidates": candidates,
            "equiv.pairs": equiv_pairs,
            "equiv.join_ratio": _ratio(equiv_pairs, candidates),
        }

    def times(self) -> dict:
        """The per-layer metrics that time work."""
        selfs = self.self_times()
        is_kernel = lambda s: s.name.startswith("kernel.")
        kernel_tops = self._outermost(is_kernel)
        kernel_s = sum(self.spans[i].duration for i in kernel_tops)
        _, k_succ_s = self._leaf_under(kernel_tops, _SUCC)
        _, k_eval_s = self._leaf_under(kernel_tops, _EVAL)
        suite = [i for i, s in enumerate(self.spans)
                 if s.name == "finsys.run_soundness_suite"]
        suite_kernel = [i for i in kernel_tops
                        if self._has_ancestor(i, set(suite))]
        succ_s = self.seconds[_SUCC]
        suite_s = sum(self.spans[i].duration for i in suite)
        trials = self._info("finsys.run_soundness_suite", "trials")
        return {
            "machine.successors_s": succ_s,
            "machine.steps_per_s": _ratio(self.calls[_SUCC], succ_s),
            "machine.decode_s": self.seconds[_DECODE],
            "kernel.check_s": kernel_s,
            "kernel.self_s": kernel_s - k_succ_s - k_eval_s,
            "kernel.validate_s": self._total(
                "kernel.PairEnumeration.validate"),
            "kernel.resolve_s": self._total("kernel.StepFn.resolve"),
            "specfile.parse_s": self._total("specfile.parse_spec"),
            "specfile.build_s": self._total("specfile.build_problem"),
            "specfile.eval_s": self.seconds[_EVAL],
            "ct.pair_build_s": self._total("ct.check_ct_relational")
            - self._children_of("ct.check_ct_relational",
                                "kernel.check_ensures2"),
            "equiv.pair_build_s": self._total("equiv.check_equiv")
            - self._children_of("equiv.check_equiv",
                                "kernel.prove_ensures2"),
            "finsys.trials_per_s": _ratio(trials, suite_s),
            "finsys.kernel_s": sum(self.spans[i].duration
                                   for i in suite_kernel),
            "cli.self_s": sum(t for s, t in zip(self.spans, selfs)
                              if s.name == "cli.main"),
        }

    def _leaf_under(self, tops: list, leaf: str) -> tuple:
        calls = [s.leaf_calls[leaf] for s in self.spans]
        secs = [s.leaf_s[leaf] for s in self.spans]
        for i in range(len(self.spans) - 1, -1, -1):
            p = self.spans[i].parent
            if p >= 0:
                calls[p] += calls[i]
                secs[p] += secs[i]
        return sum(calls[i] for i in tops), sum(secs[i] for i in tops)

    def _has_ancestor(self, i: int, among: set) -> bool:
        p = self.spans[i].parent
        while p >= 0:
            if p in among:
                return True
            p = self.spans[p].parent
        return False

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds."""
        out: dict = {}
        for s, t in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += t
        for name, n in self.calls.items():
            out[name] = {"calls": n, "total_s": self.seconds[name]}
        return out

    def span_records(self) -> list:
        return [[s.name, s.start, s.end, s.parent, t]
                for s, t in zip(self.spans, self.self_times())]


def _ratio(a, b) -> float:
    """a / b, or 0.0 when the layer did no work (b is 0)."""
    return a / b if b else 0.0


# -- what entry points return, noted on their spans

def _note_instances(span, args, problem) -> None:
    span.info["instances"] = problem.count()


def _note_ct_pairs(span, args, verdict) -> None:
    span.info["pairs"] = verdict.stats.get("instances", 0)


def _note_equiv_pairs(span, args, result) -> None:
    if isinstance(result, kernel.Verdict):
        span.info["pairs"] = result.stats.get("instances", 0)
    else:
        span.info["pairs"] = len(result.judgment.parts.pairs.pairs)


def _note_trials(span, args, report) -> None:
    span.info["trials"] = report.trials


def _note_examined(span, args, verdict) -> None:
    """Pairs check_ensures2 walked before its verdict: all of them, or up
    to and including the refuting pair."""
    pairs = args[1].pairs
    ce = verdict.counterexample
    if verdict.is_refuted and ce is not None:
        pairs = pairs[:pairs.index(ce.initial) + 1]
    span.info["pairs"] = len(pairs)
    span.info["starts"] = len({s for pair in pairs for s in pair})
