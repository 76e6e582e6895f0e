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

from relhoare import asm, cli, specfile
from relhoare.cli import main

from conftest import CORPUS, ROOT

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
    env_script = tmp_path / "check.out"
    # the script imports `relhoare`: put this checkout's src/ first
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "relhoare", "check",
         str(CORPUS / "compare_ct.spec")],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 1
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
    assert replay.returncode == 0
    finals = replay.stdout.splitlines()
    last_left = [l for l in finals if l.startswith("left ")][-1]
    last_right = [l for l in finals if l.startswith("right")][-1]
    assert witness_left in last_left
    assert witness_right in last_right


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


def test_instances_of_one_start_state_agree_on_its_step_count(capsys,
                                                             tmp_path):
    path = _spec_path("shared_start_steps.spec", tmp_path)
    code, _, err = run_main(capsys, "check", str(path))
    assert code == 3
    assert "instances #0 and #1 build one start state" in err
    assert "f0 gives them 0 and 1 steps" in err


@st.composite
def post_only_specs(draw):
    """A unary, unary_n or relational spec over add.masm whose parameter
    n appears only in its postconditions, so start states repeat."""
    kind = draw(st.sampled_from(("unary", "unary_n", "relational")))
    post = lambda: (f"x2 {draw(st.sampled_from(('<=', '>=', '=', '!=')))} "
                    f"n + {draw(st.integers(0, 3))}")
    text = (f"[check]\nkind = {kind}\nbudget = 8\n\n"
            "[program0]\nfile = add.masm\nbase = 0x1000\n\n"
            f"[params]\na in 0..1\nn in 0..{draw(st.integers(0, 3))}\n\n"
            "[pre]\nx0 = a\nx1 = 1\n\n"
            f"[post0]\n{post()}\n\n[post1]\n{post()}\n\n"
            "[steps]\nf0 = 1\nf1 = 1\n")
    if kind == "relational":
        right = draw(st.sampled_from(
            ("add.masm", "swapped.masm", "sub.masm", "inc.masm")))
        text += f"\n[program1]\nfile = {right}\nbase = 0x2000\n"
    return kind, text


@pytest.fixture(scope="module")
def programs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("programs")
    for program, source in _PROGRAMS.items():
        (root / program).write_text(source)
    return root


@given(case=post_only_specs())
@settings(max_examples=60, deadline=None)
def test_shared_start_states_keep_every_instances_postcondition(
        programs_dir, case):
    kind, text = case
    problem = specfile.build_problem(specfile.parse_spec(text), programs_dir)
    check = lambda p: cli._CHECKERS[kind](p)[0].outcome
    # the reference: each instance checked as a problem of its own
    each = {check(dataclasses.replace(problem, instances=[inst]))
            for inst in problem.instances}
    assert check(problem) == ("proven" if each == {"proven"} else "refuted")


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


def test_a_run_of_zero_steps_is_allowed(capsys):
    code, out, _ = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                            "--steps", "0")
    assert code == 0
    assert out.startswith("stopped after 0 step(s) (step limit)\n")
