"""Benchmark harness: `relhoare check` and `selftest` on four workloads.

Run from the repository root:

    python3 bench/run.py --workload ct_dense --seed 0 --seconds 25 --trace 0

Every check goes through `relhoare.cli.main` in this one process and
thread. One round runs the workload's checks once; rounds repeat while
another one fits in `--seconds`. A short fixed reference loop is timed
around and between the checks, and `wall_ref` divides the rounds' time
by the reference time, which cancels most of the machine's speed drift.
Every round's output is checked against the expected exit code, verdict
and counts (and golden output where one exists); each refutation's
replay script is run once, outside the timed part, and must reach the
printed witness.

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_ref, setup_s and peak_rss_mb. With `--trace 1` untraced and traced
rounds alternate, the last line reports the per-layer metrics of the
traced rounds, and the spans of the first traced round are written to
bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from workloads import GOLDEN, HERE, ROOT

SRC = ROOT / "src"
SETUP_SAMPLES = 5
REFERENCE_LOOPS = 20000  # about 20 ms on a 2.1 GHz x86_64 core
REFERENCE_EDGE = 4

# One cold start: interpreter, `import relhoare.cli`, input generation.
_SETUP_CHILD = """\
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import relhoare.cli
import workloads
workloads.generate({workload!r}, {seed}, Path({work!r}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relhoare").is_dir():
        print(f"error: no relhoare sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, work: Path) -> int:
    setup = _measure_setup(args.workload, args.seed, work)
    inputs_dir = work / "inputs"
    inputs_dir.mkdir()
    inputs = workloads.generate(args.workload, args.seed, inputs_dir)
    checks = workloads.checks(args.workload, args.seed, inputs)

    def norm(text: str) -> str:
        return text.replace(str(inputs_dir), "<work>") \
            .replace(str(ROOT), "<root>")

    import tracing  # imports relhoare, so after the sys.path set-up

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(_round(checks))
        if args.trace:
            tracers.append(tracing.Tracer())
            traced.append(_round(checks, tracers[-1]))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break

    failures = {}  # (round, check) -> problems
    for n, r in enumerate(plain + traced):
        for check, (code, stdout) in zip(checks, r.outputs):
            got = _problems(check, code, stdout, norm)
            if got:
                failures[(n, check.name)] = got
    for check, (code, stdout) in zip(checks, plain[0].outputs):
        if check.exit_code == 1 and code == 1:
            got = _replay_problems(stdout)
            if got:
                failures.setdefault((0, check.name), []).extend(got)
    for a, b in zip(plain, traced):
        if [code for code, _ in a.outputs] != [code for code, _ in b.outputs]:
            failures[("traced", "verdicts")] = ["differ from untraced"]

    meta = _metadata()
    meta.update(workload=args.workload, seed=args.seed,
                rounds=len(plain), traced_rounds=len(traced),
                byte_offset=workloads.byte_offset(args.seed))
    if args.trace:
        metrics = _layer_metrics(plain, traced, tracers, failures,
                                 tracing.METRICS)
        _write_trace(args, meta, metrics, tracers[0])
    else:
        metrics = {
            "wall_ref": (_wall_ref(plain), "ref"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MiB"),
        }
    attempted = len(checks) * (len(plain) + len(traced))
    failed = len(failures)
    for (n, name), problems in failures.items():
        for problem in problems:
            print(f"FAIL round {n} {name}: {problem}")
    print(f"run: {json.dumps(meta, sort_keys=True)}")
    for label, rounds in (("rounds", plain), ("traced rounds", traced)):
        if rounds:
            print(f"{label}: wall_s "
                  + ", ".join(f"{r.wall_s:.4f}" for r in rounds)
                  + "; reference "
                  + ", ".join(f"{r.ref_s * 1e3:.2f}" for r in rounds)
                  + " ms")
    print(f"wall_s: {statistics.median(r.wall_s for r in plain):.6g} s "
          f"(median, not normalised)")
    print(f"setup samples: {', '.join(f'{s:.4f}' for s in setup)} s")
    print(f"fail_ratio: {failed / attempted:.4f} share "
          f"({failed} of {attempted} checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _measure_setup(workload: str, seed: int, work: Path) -> list:
    """Wall time of SETUP_SAMPLES cold starts, each in a fresh process."""
    samples = []
    for k in range(SETUP_SAMPLES):
        target = work / f"setup{k}"
        target.mkdir()
        code = _SETUP_CHILD.format(src=str(SRC), bench=str(HERE),
                                   workload=workload, seed=seed,
                                   work=str(target))
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - t0)
    return samples


class Round(NamedTuple):
    wall_s: float    # sum of the checks' wall times
    ref_s: float     # median reference time taken during the round
    outputs: list    # (exit code, stdout) per check


def _round(checks, tracer=None) -> Round:
    """Run every check once. The reference loop is timed between checks
    and REFERENCE_EDGE times before the first and after the last, so
    every round has at least 2 * REFERENCE_EDGE samples of the machine's
    speed, taken while the round ran."""
    from relhoare import cli

    outputs, wall = [], 0.0
    refs = [_reference() for _ in range(REFERENCE_EDGE)]
    if tracer is not None:
        tracer.install()
    try:
        for n, check in enumerate(checks):
            if n:
                refs.append(_reference())
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(list(check.argv))
            except Exception as e:  # a crash is a failed check, not a stop
                code = f"raised {type(e).__name__}: {e}"
            wall += time.perf_counter() - t0
            outputs.append((code, out.getvalue()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    refs += [_reference() for _ in range(REFERENCE_EDGE)]
    return Round(wall, statistics.median(refs), outputs)


def _wall_ref(rounds) -> float:
    """Mean round time in units of the reference loop: the rounds' summed
    wall time ÷ their summed median reference times. Pooling over rounds
    is steadier here than a median of per-round ratios, because each
    round samples the machine's speed at only a few moments."""
    return sum(r.wall_s for r in rounds) / sum(r.ref_s for r in rounds)


def _reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with relhoare but does what the checker's inner loops do: small
    tuples hashed into a dict with integer arithmetic, then 16-entry
    register tuples copied with one entry changed, hashed and kept in a
    dict. Both dicts stay under 4,096 entries, so the loop adds little
    to the process's peak memory.

    On a shared 2-core VM the speed drifted by up to 2x over seconds to
    minutes, so the rounds' time is divided by the reference time taken
    while they ran."""
    t0 = time.perf_counter()
    seen, acc = {}, 0
    for i in range(REFERENCE_LOOPS):
        key = (i & 255, acc & 0xF)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc * 33 + hash(key)) & 0xFFFFFFFF
    regs, states = tuple(range(16)), {}
    for i in range(REFERENCE_LOOPS // 2):
        r = list(regs)
        r[i & 15] = (r[(i + 1) & 15] * 33 + i) & 0xFFFFFFFF
        regs = tuple(r)
        states[hash(regs) & 0xFFF] = regs
    return time.perf_counter() - t0


def _problems(check: workloads.Check, code, stdout: str, norm) -> list:
    out = []
    if code != check.exit_code:
        out.append(f"exit {code}, expected {check.exit_code}")
    lines = stdout.splitlines()
    if not lines or lines[0] != check.lines[0]:
        out.append(f"first line {lines[:1]}, expected {check.lines[0]!r}")
    out += [f"missing line {line!r}" for line in check.lines[1:]
            if line not in lines]
    if check.golden and norm(stdout) != (GOLDEN / check.golden).read_text():
        out.append(f"output differs from golden/{check.golden}")
    return out


def _replay_problems(stdout: str) -> list:
    """Run the printed replay script with this interpreter and the source
    tree on its path; the last state it prints on each side must be the
    printed witness."""
    lines = stdout.splitlines()
    try:
        head = lines.index("replay script:") + 1
        end = lines.index("RELHOARE_REPLAY", head + 1)
    except ValueError:
        return ["no replay script"]
    script = "\n".join(lines[head + 1:end]) + "\n"
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-"], input=script, text=True,
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    if proc.returncode != 0:
        return [f"script exited {proc.returncode}: {proc.stderr[-300:]}"]
    reached = {}
    for line in proc.stdout.splitlines():
        side, _, state = line.partition(" ")
        reached[side] = state.strip()
    witness = {side: line.split(":", 1)[1].strip()
               for line in lines for side in ("left", "right")
               if line.startswith(f"witness {side}:")}
    if not witness:
        return ["no two-sided witness printed"]
    return [f"{side} replay ends at {reached.get(side)}, witness {state}"
            for side, state in witness.items()
            if reached.get(side) != state]


def _layer_metrics(plain, traced, tracers, failures, units) -> dict:
    """Counts of the first traced round (every traced round must repeat
    them), median times over traced rounds, and the tracing overhead."""
    counts = [t.counts() for t in tracers]
    if any(c != counts[0] for c in counts):
        failures[("traced", "counts")] = ["differ between traced rounds"]
    times = [t.times() for t in tracers]
    values = dict(counts[0])
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    values["trace.overhead"] = (statistics.median(r.wall_s for r in traced)
                                / statistics.median(r.wall_s for r in plain)
                                - 1)
    return {name: (values[name], unit) for name, unit in units}


def _write_trace(args, meta, metrics, tracer) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "run": meta,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "layers": tracer.summary(),
        "spans": {"columns": ["name", "start", "end", "parent", "self_s"],
                  "rows": tracer.span_records()},
    }))
    print(f"trace: {path.relative_to(ROOT)}")


def _metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 timeout=30)
            if got.returncode == 0:
                commit = got.stdout.strip()
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "threads": threading.active_count()}


if __name__ == "__main__":
    sys.exit(main())
