#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in paired runs.

    python3 scripts/paired_bench.py PARENT_ROOT CHANGE_ROOT \\
        --workload sparse_pairs --pairs 10 --seconds 25 [--seed 0]

Each pair runs `bench/run.py --trace 0` of both checkouts once, in
alternating order: the parent first in odd pairs and the change first
in even ones, so that a drift in the machine's speed falls on both
sides alike. A run's last stdout line is the harness's JSON result.
Give both checkouts the same bytecode state, say two fresh `git
archive` exports: compiling `src/relhoare` at start-up moves `setup_s`
and `peak_rss_mb`, so a checkout with valid `.pyc` files reads faster
and smaller.

For every end-to-end metric the summary gives each side's median and
quartiles, the median and quartiles of the paired change / parent
ratios, how many pairs the change wins, and whether the change's median
beats the parent's by more than the parent's interquartile range. Runs
that are not correct, or give no result, are listed last and make the
exit status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run of the checkout at root: its JSON
    result, or an incorrect one that says why there is none."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=root, capture_output=True, text=True)
    return parse_result(proc.returncode, proc.stdout, proc.stderr)


def parse_result(code: int, stdout: str, stderr: str = "") -> dict:
    """A run's result from its exit code and output: the JSON of its last
    stdout line, marked incorrect when the run exited nonzero, or an
    incorrect result that quotes the run's last line of output."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, TypeError, KeyError):
        tail = (stderr or stdout).strip().splitlines()[-1:]
        return {"correct": False, "metrics": {},
                "error": f"exit {code}, no result: {' '.join(tail)}"}
    if code != 0:
        result.update(correct=False, error=f"exit {code}")
    return result


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive of the ends."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, better: dict) -> list:
    """The report lines for pairs of (parent result, change result);
    better maps a metric's name to "lower" or "higher"."""
    out = []
    names = [name for name in better
             if all(name in r["metrics"] for pair in pairs for r in pair)]
    for name in names:
        lower = better[name] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        ratios = [c / p if p else float("nan")
                  for p, c in zip(parent, change)]
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        r1, rm, r3 = quartiles(ratios)
        gain = (pm - cm) if lower else (cm - pm)
        unit = pairs[0][0]["metrics"][name]["unit"]
        out.append(
            f"{name} ({unit}, {better[name]} is better): "
            f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}], "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}], "
            f"change/parent {rm:.4f} [{r1:.4f}, {r3:.4f}], "
            f"wins {wins}/{len(pairs)}, "
            f"gain beyond the parent's IQR: "
            f"{'yes' if gain > p3 - p1 else 'no'}")
    for n, pair in enumerate(pairs, 1):
        for side, result in zip(("parent", "change"), pair):
            if not result.get("correct"):
                why = result.get("error") or (
                    f"{result.get('failed')} of {result.get('attempted')} "
                    "checks failed")
                out.append(f"incorrect: pair {n} {side}: {why}")
    return out


def end_to_end(root: Path) -> dict:
    """Each end-to-end metric of root's BENCHMARK.json and its better
    direction."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    parser.add_argument("change", type=Path, metavar="CHANGE_ROOT")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs: wants at least 1, got {args.pairs}")
    roots = (args.parent.resolve(), args.change.resolve())
    pairs = []
    for n in range(1, args.pairs + 1):
        order = (0, 1) if n % 2 else (1, 0)
        got = {}
        for side in order:
            got[side] = run_once(roots[side], args.workload, args.seed,
                                 args.seconds)
        pairs.append((got[0], got[1]))
        print(f"pair {n}: " + ", ".join(
            f"{('parent', 'change')[side]} "
            f"{got[side]['metrics'].get('wall_ref', {}).get('value')}"
            for side in order), flush=True)
    lines = summarize(pairs, end_to_end(roots[1]))
    print("\n".join(lines))
    return 1 if any(line.startswith("incorrect:") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
