"""The narrated scripts in scripts/ run to completion.

Each runs as its own process from a scratch directory, the way a reader
would run it; the scripts put this checkout's src/ on sys.path
themselves.
"""

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
