"""Command-line driver: exit codes, verdict lines, replay scripts."""

import dataclasses
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhoare import asm, cli, machine, specfile
from relhoare.cli import main

from conftest import CORPUS, ROOT, count_constructions, wide_spec

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes and verdict lines

def test_usage_errors_exit_64(capsys):
    assert run_main(capsys)[0] == 64
    assert run_main(capsys, "frobnicate")[0] == 64
    assert run_main(capsys, "run", str(CORPUS / "compare.masm"),
                    "--steps", "not_a_number")[0] == 64


def test_missing_file_exits_3(capsys):
    code, _, err = run_main(capsys, "check", "no_such.spec")
    assert code == 3
    assert err.strip()


def test_proven_spec_exits_0(capsys):
    code, out, _ = run_main(capsys, "check",
                            str(CORPUS / "mulnd_square.spec"))
    assert code == 0
    assert out.splitlines()[0] == "VERDICT: Proven"


def test_refuted_spec_exits_1_with_projected_traces(capsys):
    code, out, _ = run_main(capsys, "check",
                            str(CORPUS / "compare_ct.spec"))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "VERDICT: Refuted"
    assert any(l.strip().startswith("left:  [branch") for l in lines)
    assert "replay script:" in out


def test_a_counterexample_names_its_instances_without_building_states(
        monkeypatch, tmp_path, capsys):
    """compare_ct.spec with both one-byte buffers in 1..16 keeps 256
    start states and is refuted at its second pair: the build makes each
    state once, and naming the pair's instances in the replay script
    makes none, since the kept view maps each state to its instances."""
    shutil.copy(CORPUS / "compare.masm", tmp_path)
    spec = tmp_path / "compare_ct.spec"
    text = (CORPUS / "compare_ct.spec").read_text()
    for cell in ("mem[10 .. 11)", "mem[20 .. 21)"):
        text = text.replace(f"{cell} in 0..1", f"{cell} in 1..16")
    spec.write_text(text)
    calls = count_constructions(monkeypatch)
    code, out, _ = run_main(capsys, "check", str(spec))
    assert code == 1
    assert "ct_relational on compare_ct.spec, 256 instance(s)" in out
    assert "a = prob.instances[0].state0\nb = prob.instances[1].state0" \
        in out
    assert calls[0] == 256


def test_a_streamed_refutation_names_its_instance_without_a_scan(
        monkeypatch, tmp_path, capsys):
    """A streamed unary check refuted at instance #43067 of 62,208: the
    walk stops at the refuting state, so the view's current instance
    names it, and the 43,068 states built up to it are all that are."""
    spec = wide_spec(tmp_path, "compare_correct.spec")
    spec.write_text(spec.read_text().replace(
        "[post]\n",
        "[post]\nnot (n = 2 and mem1(11) = 12 and mem1(21) = 12)\n"))
    calls = count_constructions(monkeypatch)
    code, out, _ = run_main(capsys, "check", str(spec))
    assert code == 1
    assert "s = prob.instances[43067].state0\n" in out
    assert calls[0] == 43068


def test_budget_exhaustion_exits_2(tmp_path, capsys):
    (tmp_path / "p.masm").write_text(
        (CORPUS / "count_to_three.masm").read_text())
    (tmp_path / "slow.spec").write_text(
        "[check]\nkind = unary\nbudget = 1\n\n"
        "[program0]\nfile = p.masm\nbase = 0x1000\n\n"
        "[pre]\nx0 = 1\n\n"
        "[post]\npc = base0 + 4\nx0 = 3\n\n"
        "[frame]\nmaychange = pc, x0, flag_n, flag_z, events\n")
    code, out, _ = run_main(capsys, "check", str(tmp_path / "slow.spec"))
    assert code == 2
    assert out.splitlines()[0] == "VERDICT: Unknown"


def test_replay_of_a_refutation_reaches_the_same_witness(tmp_path):
    _assert_replay_reaches_the_witness(tmp_path, CORPUS / "compare_ct.spec")


def test_a_replay_script_builds_at_the_checks_enumeration_cap(tmp_path):
    # 2 * 256 * 256 = 131,072 instances, over the default cap of 65,536
    shutil.copy(CORPUS / "compare.masm", tmp_path)
    text = (CORPUS / "compare_ct.spec").read_text()
    for old, new in (("n in 1..1", "n in 1..2"),
                     ("mem[10 .. 11) in 0..1", "mem[10 .. 11) in 0..255"),
                     ("mem[20 .. 21) in 0..1", "mem[20 .. 21) in 0..255")):
        assert old in text
        text = text.replace(old, new, 1)
    spec = tmp_path / "compare_ct_wide.spec"
    spec.write_text(text)
    out = _assert_replay_reaches_the_witness(tmp_path, spec, "--enum-cap",
                                             "200000")
    assert "check: ct_relational on compare_ct_wide.spec, 131072 " \
        "instance(s)" in out
    assert f"prob = specfile.build_problem(spec, Path({str(tmp_path)!r}), " \
        "cap=200000)" in out


def test_a_replay_script_at_the_default_cap_names_none(capsys):
    code, out, _ = run_main(capsys, "check", str(CORPUS / "compare_ct.spec"),
                            "--enum-cap", str(specfile.DEFAULT_ENUM_CAP))
    assert code == 1
    assert f"Path({str(CORPUS)!r}))\n" in out and "cap=" not in out


def _assert_replay_reaches_the_witness(tmp_path, spec, *args) -> list:
    """Check a spec that a pair refutes, run the replay script it prints,
    and require the script's last states to be the printed witnesses:
    the check's stdout lines."""
    env_script = tmp_path / "check.out"
    # the script imports `relhoare`: put this checkout's src/ first
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "relhoare", "check", str(spec), *args],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 1, proc.stderr
    out = proc.stdout.splitlines()
    witness_left = next(l.split("witness left:", 1)[1].strip()
                        for l in out if "witness left:" in l)
    witness_right = next(l.split("witness right:", 1)[1].strip()
                         for l in out if "witness right:" in l)
    start = out.index("replay script:") + 1
    stop = out.index("RELHOARE_REPLAY", start) + 1
    script = "\n".join(out[start:stop]) + "\n"
    env_script.write_text(script)
    replay = subprocess.run(["bash", str(env_script)],
                            capture_output=True, text=True, cwd=tmp_path,
                            env=env)
    assert replay.returncode == 0, replay.stderr
    finals = replay.stdout.splitlines()
    last_left = [l for l in finals if l.startswith("left ")][-1]
    last_right = [l for l in finals if l.startswith("right")][-1]
    assert witness_left in last_left
    assert witness_right in last_right
    return out


# ---------------------------------------------------------------------------
# golden check outputs, one per spec kind and verdict

_PAIR_SPEC = """
[check]
kind = relational
budget = 8

[program0]
file = add.masm
base = 0x1000

[program1]
file = {right}
base = 0x2000

[params]
a in 0..2
b in 0..1

[pre]
x0 = a
x1 = b

[post0]
terminated(base0 + 4) and x2 = a + b

[post1]
terminated(base1 + 4) and x2 = a + b

[frame]
maychange = pc, x2, events

[steps]
f0 = 1
"""


def _shared(kind, post, steps="", x1="1", more=""):
    """One add of x0 = 5 and x1 under n in 0..9: n is in no [pre] line,
    so the ten instances of each x1 build one start state per side, and
    its run ends with x2 = 5 + x1."""
    return (f"[check]\nkind = {kind}\nbudget = 8\n\n"
            "[program0]\nfile = add.masm\nbase = 0x1000\n\n"
            "[params]\nn in 0..9\n\n"
            f"[pre]\nx0 = 5\nx1 = {x1}\n\n"
            f"[post]\n{post}\n\n[steps]\n{steps}\n\n{more}")


# specs written next to _PROGRAMS; corpus specs are checked in place
_TMP_SPECS = {
    "relational_proven.spec": _PAIR_SPEC.format(right="swapped.masm"),
    "relational_refuted.spec": _PAIR_SPEC.format(right="sub.masm"),
    # the right start state leaves out b, which its postcondition names
    "relational_own_params.spec": (
        "[check]\nkind = relational\nbudget = 8\n\n"
        "[program0]\nfile = add.masm\nbase = 0x1000\n\n"
        "[program1]\nfile = inc.masm\nbase = 0x2000\n\n"
        "[params]\na in 0..2\nb in 0..1\n\n"
        "[pre0]\nx0 = a\nx1 = b\n\n"
        "[pre1]\nx0 = a\n\n"
        "[post]\nx2 = a + b\n\n"
        "[frame]\nmaychange = pc, x2, events\n\n"
        "[steps]\nf0 = 1\nf1 = 1\n"),
    "unary_n_refuted.spec": (
        "[check]\nkind = unary_n\nbudget = 32\n\n"
        "[program0]\nfile = count.masm\nbase = 0x1000\n\n"
        "[params]\na in 0..2\n\n"
        "[pre]\nx0 = a\n\n"
        "[post]\nterminated(base0 + 12) and x0 = 3\n\n"
        "[frame]\nmaychange = pc, x0, flag_n, flag_z, events\n\n"
        "[steps]\nf0 = 3\n"),
    "unary_budget_exhausted.spec": (
        "[check]\nkind = unary\nbudget = 1\n\n"
        "[program0]\nfile = count.masm\nbase = 0x1000\n\n"
        "[pre]\nx0 = 1\n\n"
        "[post]\npc = base0 + 4\nx0 = 3\n\n"
        "[frame]\nmaychange = pc, x0, flag_n, flag_z, events\n"),
    "shared_start_unary_n.spec": _shared("unary_n", "x2 <= n", "f0 = 1"),
    "shared_start_unary.spec": _shared(
        "unary", "terminated(base0 + 4) and x2 <= n"),
    "shared_start_relational.spec": _shared(
        "relational", "x2 <= n", "f0 = 1\nf1 = 1",
        more="[program1]\nfile = add.masm\nbase = 0x2000\n"),
    "shared_start_ct_relational.spec": _shared(
        "ct_relational", "x2 <= n", "f0 = 1", x1="s",
        more="[params]\ns in 1..2\n\n[private]\nx1\n"),
    "shared_start_equiv.spec": _shared(
        "equiv", "x2 <= n + 3", "f0 = 1\nf1 = 1",
        more="[program1]\nfile = swapped.masm\nbase = 0x2000\n\n"
             "[equiv_in]\nkeep = x0, x1\n\n[equiv_out]\nkeep = x2\n"),
    # the instances of one start state disagree on its step count
    "shared_start_steps.spec": _shared(
        "unary_n", "x2 = 6", "f0 = min(n, 1)"),
}

_PROGRAMS = {
    "add.masm": "    add   x2, x0, x1\n    halt\n",
    "swapped.masm": "    add   x2, x1, x0\n    halt\n",
    "sub.masm": "    sub   x2, x0, x1\n    halt\n",
    "inc.masm": "    addi  x2, x0, #1\n    halt\n",
    "count.masm": (CORPUS / "count_to_three.masm").read_text(),
}


def _spec_path(name, tmp_path):
    if name not in _TMP_SPECS:
        return CORPUS / name
    for program, text in _PROGRAMS.items():
        (tmp_path / program).write_text(text)
    path = tmp_path / name
    path.write_text(_TMP_SPECS[name])
    return path


def _golden_run(capsys, name, tmp_path):
    """Exit code and stdout of `check` on a spec, with the paths that
    vary between checkouts and runs replaced by <root> and <tmp>."""
    code, out, _ = run_main(capsys, "check", str(_spec_path(name, tmp_path)))
    out = out.replace(str(tmp_path), "<tmp>").replace(str(ROOT), "<root>")
    return f"exit: {code}\n{out}"


@pytest.mark.parametrize("name", sorted(
    [p.name for p in CORPUS.glob("*.spec")] + list(_TMP_SPECS)))
def test_check_output_matches_golden(capsys, tmp_path, name):
    expected = (GOLDEN / name).with_suffix(".txt").read_text()
    assert _golden_run(capsys, name, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.spec")))
def test_a_vacuous_proof_warns_on_stderr(capsys, tmp_path, name):
    # a [pre] line that no instance meets: Proven over nothing, which
    # stdout and the exit code report as before, and stderr names
    for masm in CORPUS.glob("*.masm"):
        shutil.copy(masm, tmp_path)
    text = (CORPUS / name).read_text()
    assert text.count("[pre]\n") == 1
    spec = tmp_path / name
    spec.write_text(text.replace("[pre]\n", "[pre]\nx0 < 0\n"))
    code, out, err = run_main(capsys, "check", str(spec))
    assert (code, out.splitlines()[:2]) == (0, [
        "VERDICT: Proven",
        f"check: {specfile.parse_spec(text).kind} on {name}, 0 instance(s)"])
    assert err == ("warning: no instance or pair meets the precondition, "
                   "so the verdict holds vacuously\n")
    assert run_main(capsys, "check", str(CORPUS / name))[2] == ""


def test_instances_of_one_start_state_agree_on_its_step_count(capsys,
                                                             tmp_path):
    path = _spec_path("shared_start_steps.spec", tmp_path)
    code, _, err = run_main(capsys, "check", str(path))
    assert code == 3
    assert "instances #0 and #1 build one start state" in err
    assert "f0 gives them 0 and 1 steps" in err


def test_layers_of_shared_start_states_compile_once(capsys, tmp_path,
                                                    monkeypatch):
    # the ten instances of each start state make ten layers, which share
    # the constructor, the post and its pc guard of the first
    for program, text in _PROGRAMS.items():
        (tmp_path / program).write_text(text)
    path = tmp_path / "layers.spec"
    path.write_text(_shared("unary",
                            "terminated(base0 + 4) and x2 + 100 >= n"))
    defined = []
    define = machine._define

    def record(name, lines, filename):
        defined.append(filename)
        return define(name, lines, filename)

    monkeypatch.setattr(machine, "_define", record)
    code, out, _ = run_main(capsys, "check", str(path))
    assert (code, out.splitlines()[0]) == (0, "VERDICT: Proven")
    assert defined.count("<spec>") == 3


@st.composite
def post_only_specs(draw):
    """A unary, unary_n, relational, ct_unary or promote spec over
    add.masm whose parameter n appears only in its postconditions, its
    witness or its promote stop address and step count, so start states
    repeat."""
    kind = draw(st.sampled_from(("unary", "unary_n", "relational",
                                 "ct_unary", "promote")))
    post = lambda: (f"x2 {draw(st.sampled_from(('<=', '>=', '=', '!=')))} "
                    f"n + {draw(st.integers(0, 3))}")
    text = f"[check]\nkind = {kind}\nbudget = 8\n"
    if kind == "promote":
        text += (f"x0 = base0\nxw = base0 + "
                 f"{draw(st.sampled_from(('4', '4 * min(n, 1)', '4 * n')))}"
                 f"\nn = {draw(st.sampled_from(('1', 'n', 'n - 1', '2')))}\n")
    text += ("\n[program0]\nfile = add.masm\nbase = 0x1000\n\n"
             f"[params]\na in 0..1\nn in 0..{draw(st.integers(0, 3))}\n\n"
             "[pre]\nx0 = a\nx1 = 1\n\n"
             f"[post0]\n{post()}\n\n[post1]\n{post()}\n\n"
             "[steps]\nf0 = 1\nf1 = 1\n")
    if kind == "relational":
        right = draw(st.sampled_from(
            ("add.masm", "swapped.masm", "sub.masm", "inc.masm")))
        text += f"\n[program1]\nfile = {right}\nbase = 0x2000\n"
    if kind == "ct_unary":  # add.masm makes no event
        text += draw(st.sampled_from(
            ("", "\n[witness]\nrepeat i < n - 1:\nload 0, 1\nend\n")))
    return kind, text


@pytest.fixture(scope="module")
def programs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("programs")
    for program, source in _PROGRAMS.items():
        (root / program).write_text(source)
    return root


@given(case=post_only_specs())
@settings(max_examples=100, deadline=None)
def test_shared_start_states_keep_every_instances_postcondition(
        programs_dir, case):
    kind, text = case
    problem = specfile.build_problem(specfile.parse_spec(text), programs_dir)

    def check(p):
        try:
            return cli._CHECKERS[kind][0](p).outcome
        except specfile.SpecError:
            return "error"

    # the reference: each instance checked as a problem of its own, one
    # whose start states are that instance's alone
    sides = len(problem.views)
    alone = [dataclasses.replace(
        problem, views=specfile.StartStates.kept([inst], sides))
        for inst in problem.instances]
    each = {check(p) for p in alone}
    want = ("error" if "error" in each else
            "proven" if each == {"proven"} else "refuted")
    if kind == "promote" and want != "error":
        # a start state's instances must agree on its stop and step count
        stops = {}
        for inst, p in zip(problem.instances, alone):
            stops.setdefault(inst.state0, set()).add(
                p.promote_parts.stops.at(inst.state0))
        if any(len(s) > 1 for s in stops.values()):
            want = "error"
    assert check(problem) == want


def test_every_kind_has_one_row():
    assert sorted(cli._CHECKERS) == sorted(specfile.KINDS)


@pytest.mark.parametrize("spec_name", ["compare_constant_ct.spec",
                                       "compare_constant_ct_unary.spec"])
@pytest.mark.parametrize("private, public", [
    ("pc", "pc"), ("events", "events"), ("pc, events", "events")])
def test_a_private_pc_or_event_trace_exits_3(capsys, tmp_path, spec_name,
                                             private, public):
    shutil.copy(CORPUS / "compare_constant.masm", tmp_path)
    text = (CORPUS / spec_name).read_text()
    path = tmp_path / spec_name
    path.write_text(text.replace("[private]\n", f"[private]\n{private}\n"))
    assert path.read_text() != text
    code, out, err = run_main(capsys, "check", str(path))
    assert (code, out, err) == (
        3, "", f"error: {public} is public by definition and cannot be "
               "private\n")


# ---------------------------------------------------------------------------
# enumeration caps

def test_enum_cap_flag_limits_instance_counts(capsys):
    code, _, err = run_main(capsys, "check",
                            str(CORPUS / "compare_ct.spec"),
                            "--enum-cap", "2")
    assert code == 3
    assert "2" in err


def test_enum_cap_env_var_applies(capsys, monkeypatch):
    monkeypatch.setenv("RELHOARE_ENUM_CAP", "2")
    assert run_main(capsys, "check", str(CORPUS / "compare_ct.spec"))[0] == 3


def test_malformed_enum_cap_env_var_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RELHOARE_ENUM_CAP", "lots")
    code, out, err = run_main(capsys, "check",
                              str(CORPUS / "add_stopper.spec"))
    assert code == 64
    assert out == ""
    assert err.startswith("error: RELHOARE_ENUM_CAP") and "'lots'" in err


@pytest.mark.parametrize("flag, env", [("-1", None), ("0", None),
                                       (None, "-5")])
def test_an_enum_cap_below_one_is_a_usage_error(capsys, monkeypatch, flag,
                                                env):
    # no instance fits under such a cap, so it cannot be meant
    argv = ["check", str(CORPUS / "compare_ct.spec")]
    if flag is not None:
        argv += ["--enum-cap", flag]
    if env is not None:
        monkeypatch.setenv("RELHOARE_ENUM_CAP", env)
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (64, "")
    assert f"wants an integer of at least 1, got '{flag or env}'" in err


def test_an_enum_cap_takes_a_base_prefix(capsys):
    code, out, _ = run_main(capsys, "check", str(CORPUS / "compare_ct.spec"),
                            "--enum-cap", "0x10")
    assert code == 1
    assert out.startswith("VERDICT: Refuted\n")


def test_enum_cap_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("RELHOARE_ENUM_CAP", "2")
    code, out, _ = run_main(capsys, "check",
                            str(CORPUS / "compare_ct.spec"),
                            "--enum-cap", "100")
    assert code == 1  # the check itself refutes, the cap no longer trips
    assert out.splitlines()[0] == "VERDICT: Refuted"


# ---------------------------------------------------------------------------
# assembler round trips

def test_assemble_writes_binary(tmp_path, capsys):
    src = tmp_path / "t.masm"
    src.write_text("movi x1, #7\nhalt\n")
    code, out, _ = run_main(capsys, "assemble", str(src))
    assert code == 0
    blob = (tmp_path / "t.bin").read_bytes()
    assert blob == asm.assemble(src.read_text()).data
    assert "8 bytes" in out and "2 words" in out


def test_disasm_output_reassembles_byte_identical(tmp_path, capsys):
    binary = asm.assemble((CORPUS / "compare.masm").read_text()).data
    blob = tmp_path / "compare.bin"
    blob.write_bytes(binary)
    code, out, _ = run_main(capsys, "disasm", str(blob))
    assert code == 0
    assert asm.assemble(out).data == binary


def test_run_executes_and_reports_the_stop(capsys):
    code, out, _ = run_main(
        capsys, "run", str(CORPUS / "count_to_three.masm"),
        "--base", "0x1000", "--steps", "20", "--reg", "x0=1")
    assert code == 0
    assert "stuck" in out
    assert "x0" in out


# count_to_three.masm gets stuck at pc 0x100c after its 9th step
@pytest.mark.parametrize("steps, why", [("9", "stuck"), ("8", "step limit")])
def test_run_says_stuck_when_the_last_state_has_no_successor(capsys, steps,
                                                             why):
    code, out, _ = run_main(
        capsys, "run", str(CORPUS / "count_to_three.masm"),
        "--steps", steps)
    assert code == 0
    assert out.startswith(f"stopped after {steps} step(s) ({why})\n")


def test_run_trace_prints_every_step(capsys):
    code, out, _ = run_main(
        capsys, "run", str(CORPUS / "count_to_three.masm"),
        "--steps", "3", "--reg", "x0=1", "--trace")
    assert code == 0
    assert sum(1 for l in out.splitlines()
               if l.strip().startswith("step")) == 3


def test_run_notes_nondeterministic_forks(capsys):
    code, out, _ = run_main(
        capsys, "run", str(CORPUS / "mulnd_square.masm"),
        "--steps", "8", "--reg", "x1=3")
    assert code == 0
    assert "fork" in out


def test_bad_reg_flag_is_a_usage_error(capsys):
    for flag in ("y1=2", "x16=1"):
        code = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                        "--steps", "1", "--reg", flag)[0]
        assert code == 64, flag


# ---------------------------------------------------------------------------
# selftest

def test_selftest_smoke(capsys):
    code, out, _ = run_main(capsys, "selftest", "--seed", "7",
                            "--trials", "40")
    assert code == 0
    assert out.splitlines()[0] == "VERDICT: Proven"
    assert "trials" in out


def test_console_script_names_the_cli_entry_point(capsys):
    # the installed script calls this target; checked without installing
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    module, _, name = scripts["relhoare"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is main
    assert entry(["--help"]) == 0
    assert "check" in capsys.readouterr().out


def test_console_script_is_installed(tmp_path):
    # the README's editable install, made offline into a throwaway venv
    # from a copy of the project, so the checkout gets no build output
    try:
        import setuptools.command.bdist_wheel  # noqa: F401 (setuptools>=70.1)
    except ImportError:
        pytest.importorskip("wheel")
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy(ROOT / "pyproject.toml", project)
    shutil.copytree(ROOT / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--without-pip",
                    "--system-site-packages", str(venv)], check=True)
    # no PYTHONPATH: the script must find the package through the install
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    install = subprocess.run(
        [str(venv / "bin" / "python"), "-m", "pip", "install",
         "--no-build-isolation", "--no-index", "--no-deps", "-e",
         str(project)],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert install.returncode == 0, install.stdout + install.stderr
    proc = subprocess.run([str(venv / "bin" / "relhoare"), "--help"],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env)
    assert proc.returncode == 0
    assert "check" in proc.stdout


@pytest.mark.parametrize("domain", ["0..256", "-1..1"])
def test_a_cell_domain_outside_the_byte_values_exits_3(capsys, tmp_path,
                                                       domain):
    # 256 would be stored as the byte 0: a second name for one state
    shutil.copy(CORPUS / "compare_constant.masm", tmp_path)
    text = (CORPUS / "compare_constant_ct_unary.spec").read_text()
    assert "mem[10 .. 12) in 0..1" in text
    spec = tmp_path / "wide.spec"
    spec.write_text(text.replace("mem[10 .. 12) in 0..1",
                                 f"mem[10 .. 11) in {domain}"))
    code, out, err = run_main(capsys, "check", str(spec))
    line = text.splitlines().index("mem[10 .. 12) in 0..1") + 1
    assert (code, out) == (3, "")
    assert err == (f"error: line {line}: cell domain {domain} is not "
                   "within the byte values 0..255\n")


@pytest.mark.parametrize("line, bad", [("budget = 64", "budget = lots"),
                                       ("base = 0x1000", "base = 0x10zz")])
def test_a_malformed_integer_key_exits_3_naming_its_line(capsys, tmp_path,
                                                         line, bad):
    shutil.copy(CORPUS / "compare_constant.masm", tmp_path)
    text = (CORPUS / "compare_constant_ct_unary.spec").read_text()
    spec = tmp_path / "bad.spec"
    spec.write_text(text.replace(line, bad, 1))
    lineno = text.splitlines().index(line) + 1
    code, out, err = run_main(capsys, "check", str(spec))
    assert (code, out) == (3, "")
    assert err == (f"error: line {lineno}: expected an integer, got "
                   f"{bad.split(' = ')[1]!r}\n")


@pytest.mark.parametrize("name", ["compare_correct.spec",
                                  "compare_constant_ct.spec"])
def test_a_negative_budget_exits_3_naming_its_line(capsys, tmp_path, name):
    text = (CORPUS / name).read_text()
    line = next(l for l in text.splitlines() if l.startswith("budget = "))
    lineno = text.splitlines().index(line) + 1
    spec = tmp_path / name
    spec.write_text(text.replace(line, "budget = -5", 1))
    code, out, err = run_main(capsys, "check", str(spec))
    assert (code, out) == (3, "")
    assert err == f"error: line {lineno}: budget -5 is negative\n"
    # no steps at all is still a budget
    assert specfile.parse_spec(text.replace(line, "budget = 0", 1)).budget == 0


@pytest.mark.parametrize("spec, line, bad, key", [
    ("unary_n_refuted.spec", "f0 = 3", "f0 = a - 1", "f0"),
    ("shared_start_relational.spec", "f1 = 1", "f1 = n - 1", "f1"),
])
def test_a_negative_step_count_names_its_key_and_instance(capsys, tmp_path,
                                                          spec, line, bad,
                                                          key):
    path = _spec_path(spec, tmp_path)
    path.write_text(path.read_text().replace(line, bad, 1))
    code, out, err = run_main(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: {key} gives instance #0 the negative step " \
        "count -1\n"


def test_a_negative_promote_count_names_its_instance(capsys, tmp_path):
    shutil.copy(CORPUS / "add_stopper.masm", tmp_path)
    text = (CORPUS / "add_stopper.spec").read_text()
    spec = tmp_path / "add_stopper.spec"
    spec.write_text(text.replace("n = 1\n", "n = a - 2\n", 1))
    code, out, err = run_main(capsys, "check", str(spec))
    assert (code, out) == (3, "")
    assert err == "error: n gives instance #0 the negative step count -2\n"


# a count with more decimal digits than Python converts is named in hex
_HUGE = "0x" + "f" * 5000


def test_a_huge_negative_step_count_is_named_in_hex(capsys, tmp_path):
    path = _spec_path("unary_n_refuted.spec", tmp_path)
    path.write_text(path.read_text().replace("f0 = 3", f"f0 = 0 - {_HUGE}",
                                             1))
    code, out, err = run_main(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: f0 gives instance #0 the negative step count " \
        f"-{_HUGE}\n"


def test_huge_step_counts_that_differ_are_named_in_hex(capsys, tmp_path):
    path = _spec_path("shared_start_steps.spec", tmp_path)
    path.write_text(path.read_text().replace(
        "f0 = min(n, 1)", f"f0 = {_HUGE} * min(n, 1)", 1))
    code, out, err = run_main(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err == ("error: instances #0 and #1 build one start state, but "
                   f"f0 gives them 0 and {_HUGE} steps\n")


def test_a_huge_negative_promote_count_is_named_in_hex(capsys, tmp_path):
    shutil.copy(CORPUS / "add_stopper.masm", tmp_path)
    text = (CORPUS / "add_stopper.spec").read_text()
    spec = tmp_path / "add_stopper.spec"
    spec.write_text(text.replace("n = 1\n", f"n = 0 - {_HUGE}\n", 1))
    code, out, err = run_main(capsys, "check", str(spec))
    assert (code, out) == (3, "")
    assert err == f"error: n gives instance #0 the negative step count " \
        f"-{_HUGE}\n"


@pytest.mark.parametrize("spec, line, bad, err", [
    ("unary_n_refuted.spec", "f0 = 3", "f0 = 33",
     "f0 gives instance #0 33 steps, more than the budget of 32"),
    ("unary_n_refuted.spec", "f0 = 3", "f0 = 3 + 30 * a",
     "f0 gives instance #1 33 steps, more than the budget of 32"),
    ("shared_start_relational.spec", "f1 = 1", "f1 = 9",
     "f1 gives instance #0 9 steps, more than the budget of 8"),
    # a negative count, or counts that disagree, are named first
    ("unary_n_refuted.spec", "f0 = 3", "f0 = 33 - 20 * a",
     "f0 gives instance #2 the negative step count -7"),
    ("shared_start_steps.spec", "f0 = min(n, 1)", "f0 = 9 * min(n, 1)",
     "instances #0 and #1 build one start state, but f0 gives them 0 and "
     "9 steps"),
])
def test_a_step_count_above_the_budget_exits_3(capsys, tmp_path, spec,
                                               line, bad, err):
    path = _spec_path(spec, tmp_path)
    path.write_text(path.read_text().replace(line, bad, 1))
    code, out, got = run_main(capsys, "check", str(path))
    assert (code, out, got) == (3, "", f"error: {err}\n")


def test_a_promote_count_above_the_budget_exits_3_before_any_walk(
        tmp_path):
    # add_backjump.masm loops for ever, so a walk of n steps would not end
    shutil.copy(CORPUS / "add_backjump.masm", tmp_path)
    text = (CORPUS / "add_stopper.spec").read_text()
    for old, new in (("add_stopper.masm", "add_backjump.masm"),
                     ("xw = base0 + 4", "xw = base0 + 8"),
                     ("n = 1\n", "n = 0x10000000000\n")):
        text = text.replace(old, new, 1)
    spec = tmp_path / "add_backjump.spec"
    spec.write_text(text)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "relhoare", "check", str(spec)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("error: n gives instance #0 1099511627776 steps, "
                           "more than the budget of 4096\n")


@pytest.mark.parametrize("argv", [
    ("run", str(CORPUS / "compare.masm"), "--steps", "-1"),
    ("selftest", "--trials", "0"),
    ("selftest", "--trials", "-3"),
])
def test_a_count_flag_below_its_least_value_is_a_usage_error(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (64, "")
    assert f"{argv[-2]}: wants an integer of at least" in err


@pytest.mark.parametrize("base", ["-4", "0x10000000000000000"])
def test_a_run_base_outside_the_address_space_is_a_usage_error(capsys, base):
    code, out, err = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                              "--base", base)
    assert (code, out) == (64, "")
    assert (f"--base: wants an integer in 0..0xffffffffffffffff, "
            f"got {base!r}") in err


@pytest.mark.parametrize("base", ["-4", "0x10000000000001000"])
def test_a_program_base_outside_the_address_space_exits_3(capsys, tmp_path,
                                                          base):
    shutil.copy(CORPUS / "mulnd_square.masm", tmp_path)
    text = (CORPUS / "mulnd_square.spec").read_text()
    spec = tmp_path / "mulnd_square.spec"
    spec.write_text(text.replace("base = 0x1000", f"base = {base}", 1))
    lineno = text.splitlines().index("base = 0x1000") + 1
    code, out, err = run_main(capsys, "check", str(spec))
    assert (code, out) == (3, "")
    assert err == (f"error: line {lineno}: base {base} is not an address "
                   "in 0..0xffffffffffffffff\n")


@pytest.mark.parametrize("value", ["-1", "0x10000000000000005"])
def test_a_run_register_value_outside_64_bits_is_a_usage_error(capsys,
                                                                value):
    code, out, err = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                              "--steps", "0", "--reg", f"x0={value}")
    assert (code, out) == (64, "")
    assert (f"--reg: wants xN=V with N in 0..15 and V in "
            f"0..0xffffffffffffffff, got 'x0={value}'") in err


def test_a_run_register_takes_the_largest_64_bit_value(capsys):
    code, out, _ = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                            "--steps", "0", "--reg", "x0=0xffffffffffffffff")
    assert code == 0
    assert "x0=0xffffffffffffffff " in out


def test_a_run_image_past_the_top_of_memory_is_a_usage_error(capsys):
    code, out, err = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                              "--base", "0xfffffffffffffff8")
    assert (code, out) == (64, "")
    assert err == ("error: --base 0xfffffffffffffff8 puts the 52-byte image "
                   "past the top of the address space\n")
    # an image that ends at the top of memory is still one image
    code, out, _ = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                            "--base", hex((1 << 64) - 52), "--steps", "1")
    assert code == 0


@pytest.mark.parametrize("base, code", [("0xfffffffffffffff4", 3),
                                        ("0xfffffffffffffff0", 0)])
def test_a_program_image_past_the_top_of_memory_exits_3(capsys, tmp_path,
                                                        base, code):
    shutil.copy(CORPUS / "mulnd_square.masm", tmp_path)
    text = (CORPUS / "mulnd_square.spec").read_text()
    spec = tmp_path / "mulnd_square.spec"
    spec.write_text(text.replace("base = 0x1000", f"base = {base}", 1))
    got, out, err = run_main(capsys, "check", str(spec))
    assert got == code
    if code:
        assert out == ""
        assert err == (f"error: [program0] base {base} puts the 16-byte "
                       "image of mulnd_square.masm past the top of the "
                       "address space\n")
    else:
        # the 16 bytes end at 2^64: the stopper is the last word of memory
        assert out.startswith("VERDICT: Proven\n")


def test_a_public_section_exits_3_naming_private(capsys, tmp_path):
    # a [public] list used to be checked only for overlap, so this spec,
    # with no private labels, paired identical states and came back Proven
    shutil.copy(CORPUS / "compare.masm", tmp_path)
    text = (CORPUS / "compare_ct.spec").read_text()
    old = "[private]\nmem[10 .. 11), mem[20 .. 21)\n"
    assert text.endswith(old)
    spec = tmp_path / "public.spec"
    spec.write_text(text.replace(old, "[public]\npc, x0, x1, x2\n"))
    code, out, err = run_main(capsys, "check", str(spec))
    line = text.splitlines().index("[private]") + 1
    assert (code, out) == (3, "")
    assert err == (f"error: line {line}: there is no [public] section: "
                   "every label not listed under [private] is public, so "
                   "list the secret labels under [private]\n")


@pytest.mark.parametrize("hi", ["0x14e20", "0x104240"])
def test_a_wide_cell_range_exits_3_naming_the_cap(capsys, tmp_path, hi):
    # 20,000 cells: too many instances; 1,000,000: too many cells
    shutil.copy(CORPUS / "compare.masm", tmp_path)
    text = (CORPUS / "compare_correct.spec").read_text()
    spec = tmp_path / "wide.spec"
    spec.write_text(text.replace("mem[10 .. 12) in 0..1",
                                 f"mem[0x10000 .. {hi}) in 0..1"))
    code, out, err = run_main(capsys, "check", str(spec))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.endswith(
        "the cap of 65536 instances\n" if hi == "0x14e20" else
        "the cap of 65536\n")


def test_a_cell_range_past_the_top_of_memory_exits_3(capsys, tmp_path):
    # the cell at 2^64 used to be written at address 0, and this printed
    # VERDICT: Proven
    shutil.copy(CORPUS / "compare.masm", tmp_path)
    text = (CORPUS / "compare_correct.spec").read_text()
    spec = tmp_path / "wrap.spec"
    spec.write_text(text.replace(
        "mem[10 .. 12) in 0..1",
        "mem[0xffffffffffffffff .. 0x10000000000000001) in 0..1"))
    code, out, err = run_main(capsys, "check", str(spec))
    assert (code, out) == (3, "")
    assert err == ("error: memory cells mem[0xffffffffffffffff .. "
                   "0x10000000000000001) lie outside the address space "
                   "0..2^64-1\n")


def test_an_internal_error_exits_3_not_1(capsys, monkeypatch):
    def broken(problem):
        return 1 // 0

    monkeypatch.setitem(cli._CHECKERS, "unary",
                        (broken, cli._CHECKERS["unary"][1]))
    code, out, err = run_main(capsys, "check",
                              str(CORPUS / "compare_correct.spec"))
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ZeroDivisionError(")
    assert "Traceback (most recent call last)" in err
    assert "in broken" in err


def test_a_run_of_zero_steps_is_allowed(capsys):
    code, out, _ = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                            "--steps", "0")
    assert code == 0
    assert out.startswith("stopped after 0 step(s) (step limit)\n")


# ---------------------------------------------------------------------------
# register names: x0 to x15, written as the assembler writes them

def test_a_leading_zero_register_in_an_expression_is_an_undeclared_parameter(
        capsys, tmp_path):
    # x01 used to read as x1, and this spec came back Proven
    shutil.copy(CORPUS / "compare.masm", tmp_path)
    text = (CORPUS / "compare_correct.spec").read_text()
    spec = tmp_path / "x01.spec"
    spec.write_text(text.replace("[pre]\n", "[pre]\nx01 = 10\n"))
    code, out, err = run_main(capsys, "check", str(spec))
    line = text.splitlines().index("[pre]") + 2
    assert (code, out) == (3, "")
    assert err == f"error: line {line}: parameter 'x01' is not declared\n"


def test_a_leading_zero_register_in_a_label_list_is_an_unknown_label(
        capsys, tmp_path):
    # x01 used to name x1, so the frame kept x0 and the check refuted
    shutil.copy(CORPUS / "compare.masm", tmp_path)
    text = (CORPUS / "compare_correct.spec").read_text()
    old = "maychange = pc, x0, "
    assert old in text
    spec = tmp_path / "x01.spec"
    spec.write_text(text.replace(old, "maychange = pc, x01, "))
    code, out, err = run_main(capsys, "check", str(spec))
    line = next(i for i, l in enumerate(text.splitlines(), 1)
                if l.startswith(old))
    assert (code, out) == (3, "")
    assert err == f"error: line {line}: unknown label 'x01'\n"


def test_a_leading_zero_run_register_is_a_usage_error(capsys):
    # --reg x07=5 used to set x7
    code, out, err = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                              "--steps", "0", "--reg", "x07=5")
    assert (code, out) == (64, "")
    assert "--reg: wants xN=V with N in 0..15" in err and "'x07=5'" in err
