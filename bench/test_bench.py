"""Tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relhoare import specfile  # noqa: E402


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7, 239])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_specs_parse_and_build_to_the_expected_counts(
        tmp_path, workload, seed):
    inputs = workloads.generate(workload, seed, tmp_path)
    for check in workloads.checks(workload, seed, inputs):
        if check.argv[0] != "check":
            continue
        path = Path(check.argv[1])
        problem = specfile.build_problem(
            specfile.parse_spec(path.read_text()), path.parent)
        assert check.lines[1] == (f"check: {problem.spec.kind} on "
                                  f"{path.name}, {problem.count()} "
                                  f"instance(s)")


def test_seed_shifts_byte_domains_without_resizing_them():
    text = "[params]\nn in 0..2\nmem[10 .. 12) in 0..1\n"
    got = workloads.widen(text, {"mem[10 .. 12)": (5, 7), "n": (0, 2)})
    assert got == "[params]\nn in 0..2\nmem[10 .. 12) in 5..7\n"
    assert {workloads.byte_offset(s) for s in range(480)} == set(
        range(1, 241))


def _checks(workload, seed, tmp_path):
    work = tmp_path / f"{workload}-{seed}"
    work.mkdir()
    return workloads.checks(workload, seed,
                            workloads.generate(workload, seed, work))


def test_expected_outcomes_do_not_depend_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = _checks(workload, 0, tmp_path)
        b = _checks(workload, 5, tmp_path)
        assert [(c.exit_code, c.lines) for c in a] == \
            [(c.exit_code, c.lines) for c in b]


def _corpus_checks(tmp_path):
    """The unscaled corpus checks of every workload, plus a short
    selftest: quick enough to run twice."""
    out = []
    for workload in ("ct_dense", "sparse_pairs", "unary"):
        out += [c for c in _checks(workload, 0, tmp_path)
                if str(workloads.CORPUS) in c.argv[1]]
    out.append(workloads.Check("selftest", ("selftest", "--trials", "50"),
                               0, ("VERDICT: Proven",)))
    return out


def test_per_layer_counts_repeat_across_traced_rounds(tmp_path):
    checks = _corpus_checks(tmp_path)
    first, second = tracing.Tracer(), tracing.Tracer()
    out1 = run._round(checks, first).outputs
    out2 = run._round(checks, second).outputs
    assert first.counts() == second.counts()
    assert [code for code, _ in out1] == [c.exit_code for c in checks]
    assert [code for code, _ in out1] == [code for code, _ in out2]
    assert first.counts()["ct.pairs"] == 768 + 16
    assert first.counts()["equiv.candidates"] == 48 * 48


def test_tracing_is_removed_after_a_traced_round():
    from relhoare import cli, machine
    before = (cli.main, machine.successors, machine.oracle())
    run._round([], tracing.Tracer())
    assert (cli.main, machine.successors, machine.oracle()) == before


def test_selftest_makes_no_machine_steps():
    tracer = tracing.Tracer()
    run._round([workloads.Check("selftest", ("selftest", "--trials", "20"),
                                0, ("VERDICT: Proven",))], tracer)
    counts = tracer.counts()
    assert counts["machine.successors_calls"] == 0
    assert tracer.times()["finsys.trials_per_s"] > 0


def run_norm(text):
    return text.replace(str(workloads.ROOT), "<root>")


def test_oracle_flags_wrong_exit_verdict_counts_and_golden(tmp_path):
    check = _checks("sparse_pairs", 0, tmp_path)[-1]
    [(code, stdout)] = run._round([check]).outputs
    assert run._problems(check, code, stdout, run_norm) == []
    assert run._problems(check, 0, stdout, run_norm)
    assert run._problems(check, code, stdout.replace("Refuted", "Proven"),
                         run_norm)
    assert run._problems(check, code, stdout.replace("16 public", "15 public"),
                         run_norm)
    assert run._problems(check, code, stdout + "\n", run_norm)


def test_replay_script_must_reach_the_printed_witness(tmp_path):
    check = _checks("sparse_pairs", 0, tmp_path)[-1]
    [(_, stdout)] = run._round([check]).outputs
    assert run._replay_problems(stdout) == []
    lines = stdout.splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith("witness left"))
    lines[at] = lines[at].replace("events=5", "events=6")
    assert run._replay_problems("\n".join(lines))
