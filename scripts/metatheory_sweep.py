#!/usr/bin/env python3
"""Hammer the proof rules against small finite systems.

Two passes. First an exhaustive one: every directed graph on three
states, every target set, exact-step reachability stays inside plain
reachability. Then a seeded random pass, `finsys.run_soundness_suite`,
over larger systems. Most of its checks restate a rule on bitmasks:
they build masks where the premises hold and check the conclusion by
mask algebra, and none of them applies a kernel rule. On every 10th
trial two more compare the kernel's exact-count and budgeted searches
with the fixpoints computed from the masks.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relhoare import finsys  # noqa: E402


def exhaustive_pass() -> None:
    t0 = time.perf_counter()
    systems = 0
    checked = 0
    sizes = Counter()
    for g in finsys.all_systems(3):
        systems += 1
        for mask in range(8):
            q = frozenset(b for b in range(3) if mask >> b & 1)
            ev = finsys.exact_eventually_set(g, q)
            for n in range(4):
                evn = finsys.exact_eventually_n_set(g, n, q)
                if not evn <= ev:
                    raise SystemExit(
                        f"containment broken: edges={sorted(g.edges)} "
                        f"q={sorted(q)} n={n}")
                sizes[len(evn)] += 1
                checked += 1
    dt = time.perf_counter() - t0
    print(f"exhaustive: {systems} systems, {checked} containment checks, "
          f"0 violations ({dt:.2f}s)")
    spread = ", ".join(f"{k}:{sizes[k]}" for k in sorted(sizes))
    print(f"  exact-step set sizes {spread}")


def random_pass(seed: int, trials: int) -> bool:
    report = finsys.run_soundness_suite(seed=seed, trials=trials)
    print(report.format())
    return report.passed


def trial_count(text: str) -> int:
    """An argparse type: at least one trial, or a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"wants an integer of at least 1, got {text!r}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=trial_count, default=10000)
    args = parser.parse_args()
    exhaustive_pass()
    return 0 if random_pass(args.seed, args.trials) else 1


if __name__ == "__main__":
    sys.exit(main())
