"""The narrated scripts in scripts/ run to completion, and the helper
scripts summarize what they are given.

Each runs as its own process from a scratch directory, the way a reader
would run it; the scripts put this checkout's src/ on sys.path
themselves.
"""

import importlib.util
import json
import subprocess
import sys

import pytest

from conftest import ROOT

SCRIPTS = ROOT / "scripts"


def run_script(tmp_path, name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=300)


def test_leak_demo_refutes_the_leak_and_proves_the_rewrite(tmp_path):
    proc = run_script(tmp_path, "leak_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "verdict: refuted" in proc.stdout
    assert "pairwise: proven   witness: proven" in proc.stdout


def test_metatheory_sweep_finds_no_violation(tmp_path):
    proc = run_script(tmp_path, "metatheory_sweep.py", "--trials", "200")
    assert proc.returncode == 0, proc.stderr
    assert "exhaustive: 512 systems" in proc.stdout
    assert "violations: none" in proc.stdout


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_metatheory_sweep_refuses_fewer_than_one_trial(tmp_path, trials):
    proc = run_script(tmp_path, "metatheory_sweep.py", "--trials", trials)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: ")
    assert (f"--trials: wants an integer of at least 1, got {trials!r}"
            in proc.stderr)


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_line(correct: bool, wall_ref: float, peak: float) -> str:
    """The last stdout line of a `bench/run.py --trace 0` run."""
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": 0 if correct else 2,
        "metrics": {"wall_ref": {"value": wall_ref, "unit": "ref"},
                    "peak_rss_mb": {"value": peak, "unit": "MiB"}}})


def test_paired_bench_summarizes_canned_runs():
    paired = load_script("paired_bench.py")
    runs = [((16.0, 24.6), (14.0, 24.7)), ((17.0, 24.7), (15.0, 24.6)),
            ((18.0, 24.5), (16.5, 24.6)), ((16.5, 24.6), (17.0, 24.6))]
    # setup_s is missing from every run, so it has no line
    pairs = [tuple(paired.parse_result(0, "run: {}\n" + bench_line(True, *r))
                   for r in pair) for pair in runs]
    pairs[3] = (pairs[3][0], paired.parse_result(
        0, bench_line(False, 17.0, 24.6)))
    lines = paired.summarize(pairs, {"wall_ref": "lower",
                                     "setup_s": "lower",
                                     "peak_rss_mb": "lower"})
    assert lines == [
        "wall_ref (ref, lower is better): parent 16.75 [16.38, 17.25], "
        "change 15.75 [14.75, 16.62], change/parent 0.8995 "
        "[0.8805, 0.9451], wins 3/4, gain beyond the parent's IQR: yes",
        "peak_rss_mb (MiB, lower is better): parent 24.6 [24.58, 24.63], "
        "change 24.6 [24.6, 24.63], change/parent 1.0020 [0.9990, 1.0041], "
        "wins 1/4, gain beyond the parent's IQR: no",
        "incorrect: pair 4 change: 2 of 10 checks failed",
    ]


def test_paired_bench_reports_a_run_without_a_result():
    paired = load_script("paired_bench.py")
    got = paired.parse_result(2, "", "error: no relhoare sources under x\n")
    assert got == {"correct": False, "metrics": {}, "error":
                   "exit 2, no result: error: no relhoare sources under x"}
    crashed = paired.parse_result(1, bench_line(True, 16.0, 24.6))
    assert crashed["correct"] is False and crashed["error"] == "exit 1"


def test_same_outputs_normalises_elapsed_lines_and_paths(tmp_path):
    same = load_script("same_outputs.py")
    root, work = tmp_path / "tree", tmp_path / "tree" / "work"
    text = (f"VERDICT: Proven\ntrials: 7\nelapsed: 0.03s\n"
            f"check: unary on {work}/copy.spec, 405 instance(s)\n"
            f"  file {root}/corpus/compare.masm\n")
    assert same.normalise(text, root, work) == (
        "VERDICT: Proven\ntrials: 7\n"
        "check: unary on <work>/copy.spec, 405 instance(s)\n"
        "  file <root>/corpus/compare.masm\n")
    # only a line that starts with elapsed: is a timing
    assert same.normalise("rule elapsed: 2\n", root, work) \
        == "rule elapsed: 2\n"


def test_same_outputs_lists_every_difference():
    same = load_script("same_outputs.py")
    parent = {"check a": (0, "VERDICT: Proven\nx\n", ""),
              "check b": (1, "VERDICT: Refuted\n", ""),
              "selftest 1": (0, "trials: 1\nrules: r\nviolations: none\n",
                             "warn\n"),
              "gone": (0, "", "")}
    change = {"check a": (0, "VERDICT: Proven\nx\n", ""),
              "check b": (2, "VERDICT: Unknown\n", ""),
              "selftest 1": (0, "trials: 1\nrules: s\nviolations: none\n",
                             ""),
              "new": (0, "", "")}
    assert same.differences(parent, change) == [
        "check b: exit code differs (1 against 2)",
        "check b: stdout differs from line 1",
        "selftest 1: stdout differs from line 2",
        "selftest 1: stderr differs from line 1",
        "gone: missing in the change",
        "new: missing in the parent",
    ]
    assert same.differences(parent, dict(parent)) == []
    # an output that stops early differs after its last line
    assert same.differences({"c": (0, "a\nb\n", "")},
                            {"c": (0, "a\n", "")}) \
        == ["c: stdout differs from line 2"]


def test_same_outputs_runs_the_cases_of_one_checkout(tmp_path):
    same = load_script("same_outputs.py")
    names = [name for name, _ in same.cases(ROOT, tmp_path)]
    assert len([n for n in names if n.startswith("check corpus/")]) == 8
    assert "bench sparse_pairs seed 7 equiv_scaled" in names
    assert "bench unary seed 0 copy_loop" in names
    assert [n for n in names if n.startswith("scale ")] == [
        "scale compare_correct.spec", "scale compare_constant_ct.spec",
        "scale compare_equiv.spec", "scale compare_correct.spec refuted late"]
    assert "mem[20 .. 22) in 1..12\n" in (
        tmp_path / "edited" / "1" / "compare_constant_ct.spec").read_text()
    assert len([n for n in names if n.startswith("ct_unary ")]) == 4
    both = (tmp_path / "edited" / "7" /
            "compare_constant_ct_unary.spec").read_text()
    assert "f0 = 10 * n + 7 + 100 * n\n" in both
    assert "repeat j < 60 * n:\n    branch j < 0\nend\n" in both
    assert len([n for n in names if n.startswith("selftest ")]) == 20
    assert len([n for n in names if n.startswith("broken comp ")]) == 20
    code, out, err = same.run_case(
        ROOT, tmp_path, dict(same.cases(ROOT, tmp_path / "again"))[
            "broken comp seed 3 trials 7"])
    assert (code, err) == (0, "")
    assert out.startswith("trials: 7\nrules:  containment, ")
    assert "elapsed" not in out
