"""Command-line driver: exit codes, verdict lines, replay scripts."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from relhoare import asm
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
    code = run_main(capsys, "run", str(CORPUS / "compare.masm"),
                    "--steps", "1", "--reg", "y1=2")[0]
    assert code == 64


# ---------------------------------------------------------------------------
# selftest

def test_selftest_smoke(capsys):
    code, out, _ = run_main(capsys, "selftest", "--seed", "7",
                            "--trials", "40")
    assert code == 0
    assert out.splitlines()[0] == "VERDICT: Proven"
    assert "trials" in out


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
