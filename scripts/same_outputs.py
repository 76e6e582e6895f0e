#!/usr/bin/env python3
"""Check that two checkouts print the same outputs, byte for byte.

    python3 scripts/same_outputs.py PARENT_ROOT CHANGE_ROOT

A change that should only make the program faster must leave every
output alone. This runs the same cases in both checkouts and compares
their stdout, stderr and exit codes:

- `relhoare check` on each corpus spec (corpus/*.spec);
- `relhoare check` on every check of the benchmark's workloads at seeds
  0 and 7, with the inputs each checkout's own `bench/workloads.py`
  generates (the module is loaded from the checkout and only called);
- `relhoare check` on the scale points: `compare_correct.spec`,
  `compare_constant_ct.spec` and `compare_equiv.spec` with both buffers
  in 1..12, 62,208 instances each, the second at `--enum-cap 100000`
  and the third refused for its candidate pairs, and the first with a
  [post] line that refutes it at instance #43067;
- `relhoare check` on `compare_constant_ct_unary.spec` at `--enum-cap
  65`, and at `--enum-cap 100` with f0 over the budget, with a witness
  repeat past the cap, and with both: the refusals of a ct_unary check;
- `relhoare selftest` at seeds 0, 3, 7 and 42 and 1, 7, 999, 2,001 and
  10,000 trials, and the same suite runs with the `comp` rule broken
  on purpose (`run_soundness_suite(..., _break="comp")`), which only
  Python can ask for.

Before the comparison, each output drops its `elapsed:` lines, and the
checkout's root and its generated inputs' directory read `<root>` and
`<work>`. Every difference is listed, and the exit status is 1; it is 0
when every case matches. Each checkout runs its own `src/`,
without writing bytecode into it.
"""

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_SEEDS = (0, 7)
SELFTEST_SEEDS = (0, 3, 7, 42)
SELFTEST_TRIALS = (1, 7, 999, 2001, 10000)
# both buffers in 1..12: the corpus specs widened to 62,208 instances
WIDE = tuple((f"{cells} in 0..1\n", f"{cells} in 1..12\n")
             for cells in ("mem[10 .. 12)", "mem[20 .. 22)"))
LATE = ("[post]\n", "[post]\nnot (n = 2 and mem1(11) = 12 and "
        "mem1(21) = 12)\n")
OVER_BUDGET = ("f0 = 10 * n + 7", "f0 = 10 * n + 7 + 100 * n")
PAST_CAP = ("    branch i + 1 < n\nend\n", "    branch i + 1 < n\nend\n"
            "repeat j < 60 * n:\n    branch j < 0\nend\n")
CT_UNARY, CAP_100 = "compare_constant_ct_unary.spec", ("--enum-cap", "100")
# (case name, corpus spec, its (old, new) edits, check arguments)
EDITED = (
    ("scale compare_correct.spec", "compare_correct.spec", WIDE, ()),
    ("scale compare_constant_ct.spec", "compare_constant_ct.spec", WIDE,
     ("--enum-cap", "100000")),
    ("scale compare_equiv.spec", "compare_equiv.spec", WIDE, ()),
    ("scale compare_correct.spec refuted late", "compare_correct.spec",
     WIDE + (LATE,), ()),
    ("ct_unary at cap 65", CT_UNARY, (), ("--enum-cap", "65")),
    ("ct_unary count over budget", CT_UNARY, (OVER_BUDGET,), CAP_100),
    ("ct_unary witness past cap", CT_UNARY, (PAST_CAP,), CAP_100),
    ("ct_unary both refusals", CT_UNARY, (OVER_BUDGET, PAST_CAP), CAP_100),
)

BROKEN_SUITE = """\
import sys
from relhoare import finsys
report = finsys.run_soundness_suite(int(sys.argv[1]), int(sys.argv[2]),
                                    _break="comp")
print(report.format())
"""


def cases(root: Path, work: Path) -> list:
    """(name, argv after the interpreter) of every case, in order. The
    benchmark's inputs are generated under work."""
    out = [(f"check corpus/{spec.name}",
            ["-m", "relhoare", "check", str(spec)])
           for spec in sorted((root / "corpus").glob("*.spec"))]
    workloads = _load_workloads(root)
    for seed in BENCH_SEEDS:
        for workload in workloads.WORKLOADS:
            if workload == "selftest":
                continue  # its suite runs below, at more seeds
            inputs = work / f"{workload}-seed{seed}"
            inputs.mkdir(parents=True)
            generated = workloads.generate(workload, seed, inputs)
            for check in workloads.checks(workload, seed, generated):
                out.append((f"bench {workload} seed {seed} {check.name}",
                            ["-m", "relhoare", *check.argv]))
    for k, (name, spec, edits, extra) in enumerate(EDITED):
        path = _edited(root, work / "edited" / str(k), spec, edits)
        out.append((name, ["-m", "relhoare", "check", *extra, str(path)]))
    for seed in SELFTEST_SEEDS:
        for trials in SELFTEST_TRIALS:
            out.append((f"selftest seed {seed} trials {trials}",
                        ["-m", "relhoare", "selftest", "--seed", str(seed),
                         "--trials", str(trials)]))
            out.append((f"broken comp seed {seed} trials {trials}",
                        ["-c", BROKEN_SUITE, str(seed), str(trials)]))
    return out


def _edited(root: Path, where: Path, name: str, edits) -> Path:
    """The checkout's corpus spec with each (old, new) edit made once,
    written to the directory where next to copies of the corpus
    programs."""
    where.mkdir(parents=True)
    for masm in (root / "corpus").glob("*.masm"):
        shutil.copy(masm, where)
    text = (root / "corpus" / name).read_text()
    for old, new in edits:
        if old not in text:
            raise ValueError(f"{name} has no {old!r} to edit")
        text = text.replace(old, new, 1)
    (where / name).write_text(text)
    return where / name


def _load_workloads(root: Path):
    """The checkout's bench/workloads.py, as a module of its own. It is
    in sys.modules only while it runs, as its dataclasses need."""
    path = root / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def normalise(text: str, root: Path, work: Path) -> str:
    """text without its `elapsed:` lines, with the work directory and
    then the root written as `<work>` and `<root>`."""
    lines = [line for line in text.splitlines(keepends=True)
             if not line.lstrip().startswith("elapsed:")]
    return "".join(lines).replace(str(work), "<work>") \
        .replace(str(root), "<root>")


def run_case(root: Path, work: Path, argv: list) -> tuple:
    """(exit code, stdout, stderr) of one case in the checkout at root,
    normalised."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    return (proc.returncode, normalise(proc.stdout, root, work),
            normalise(proc.stderr, root, work))


def differences(parent: dict, change: dict) -> list:
    """One line per case whose name, exit code, stdout or stderr differs
    between the two maps of case name to (code, stdout, stderr)."""
    out = []
    for name in list(parent) + [n for n in change if n not in parent]:
        if name not in change or name not in parent:
            side = "change" if name not in change else "parent"
            out.append(f"{name}: missing in the {side}")
            continue
        for part, a, b in zip(("exit code", "stdout", "stderr"),
                              parent[name], change[name]):
            if a != b:
                out.append(f"{name}: {part} differs" + (
                    f" ({a} against {b})" if part == "exit code"
                    else f" from line {_first_differing_line(a, b)}"))
    return out


def _first_differing_line(a: str, b: str) -> int:
    """The 1-based number of the first line where a and b differ."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(a_lines, b_lines), 1):
        if x != y:
            return n
    return min(len(a_lines), len(b_lines)) + 1


def outputs(root: Path) -> dict:
    """Every case's normalised (code, stdout, stderr) in the checkout."""
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        return {name: run_case(root, work, argv)
                for name, argv in cases(root, work)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    parser.add_argument("change", type=Path, metavar="CHANGE_ROOT")
    args = parser.parse_args()
    sys.dont_write_bytecode = True  # nor for bench/workloads.py
    roots = (args.parent.resolve(), args.change.resolve())
    for root in roots:
        if not (root / "src" / "relhoare").is_dir():
            parser.error(f"no relhoare sources under {root}")
    parent, change = outputs(roots[0]), outputs(roots[1])
    lines = differences(parent, change)
    lines.append(f"{len(parent)} case(s) compared: "
                 + (f"{len(lines)} difference(s)" if lines else "all match"))
    print("\n".join(lines))
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
