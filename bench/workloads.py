"""The benchmark's workloads: generated inputs and the checks each runs.

Every check is a `relhoare` command line with a hand-written expected
outcome: exit code, verdict line, instance (and pair) counts. Refuted
checks also have a golden stdout file in `bench/golden/`, compared byte
for byte after path normalisation.

Scaled specs are the corpus specs with widened parameter domains. The
seed shifts every scaled byte domain by an offset and keeps its size,
so instance and pair counts, verdicts and exit codes do not depend on
the seed; only the byte values inside the start states do. The scaled
Refuted outputs print those values, so their golden files hold for the
default seed only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("ct_dense", "sparse_pairs", "unary", "selftest")
DEFAULT_SEED = 0
SELFTEST_TRIALS = 10000

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "corpus"
GOLDEN = HERE / "golden"


@dataclass(frozen=True)
class Check:
    """One `relhoare` invocation and what it must print and return."""

    name: str
    argv: tuple
    exit_code: int
    lines: tuple          # must each appear as a whole stdout line
    golden: Optional[str] = None  # file in GOLDEN, compared byte for byte


def byte_offset(seed: int) -> int:
    """Lowest value of every scaled byte domain. Never 0, so every seed
    stores the same number of nonzero bytes in each start state."""
    return 1 + seed % 240


# ---------------------------------------------------------------------------
# generated inputs

# A byte copy: x0 = n bytes from x1 to x2, highest index first. One cbz,
# then six instructions per byte, then the stopper: 6 * n + 1 steps.
COPY_MASM = """\
; Byte copy, generated by the benchmark: x0 = n bytes from x1 to x2.
copy:
    cbz   x0, done
loop:
    subi  x0, x0, #1
    add   x3, x1, x0
    ldrb  x4, [x3]
    add   x5, x2, x0
    strb  x4, [x5]
    cbnz  x0, loop
done:
    halt
"""

COPY_SPEC = """\
; Exact-step correctness of the generated byte copy.

[check]
kind = unary_n
budget = 64

[program0]
file = copy.masm
base = 0x1000

[params]
n in 0..4
mem[10 .. 14) in {lo}..{hi}

[pre]
x0 = n
x1 = 10
x2 = 20

[post]
terminated(base0 + 28) and prefixlen(10, 20, n) = n and mem4(20 + n) = 0

[frame]
maychange = pc, x0, x3, x4, x5, events, mem[20 .. 24)

[steps]
f0 = 6 * n + 1
"""

_DOMAIN_RE = r"(?m)^([ \t]*{}[ \t]+in[ \t]+)\d+\.\.\d+[ \t]*$"


def widen(text: str, domains: dict) -> str:
    """Replace the domain of each named parameter line (`x`, or a cell
    range such as `mem[10 .. 12)`) with (lo, hi)."""
    for name, (lo, hi) in domains.items():
        pattern = _DOMAIN_RE.format(re.escape(name))
        text, n = re.subn(pattern, rf"\g<1>{lo}..{hi}", text)
        if n != 1:
            raise ValueError(f"no single domain line for {name!r}")
    return text


def _scaled(work: Path, spec: str, domains: dict) -> Path:
    text = widen((CORPUS / spec).read_text(), domains)
    for masm in re.findall(r"(?m)^file\s*=\s*(\S+)", text):
        (work / masm).write_text((CORPUS / masm).read_text())
    out = work / spec
    out.write_text(text)
    return out


def _bytes(o: int, size: int) -> tuple:
    return (o, o + size - 1)


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's generated inputs into `work`; return their
    paths by check name."""
    o = byte_offset(seed)
    buf0, buf1 = "mem[10 .. 12)", "mem[20 .. 22)"
    if workload == "ct_dense":
        return {"ct_dense_scaled": _scaled(
            work, "compare_constant_ct.spec",
            {buf0: _bytes(o, 2), buf1: _bytes(o, 3)})}
    if workload == "sparse_pairs":
        return {
            "equiv_scaled": _scaled(work, "compare_equiv.spec",
                                    {buf0: _bytes(o, 4), buf1: _bytes(o, 4)}),
            "ct_scaled": _scaled(work, "compare_ct.spec",
                                 {"mem[10 .. 11)": _bytes(o, 16),
                                  "mem[20 .. 21)": _bytes(o, 16)}),
        }
    if workload == "unary":
        (work / "copy.masm").write_text(COPY_MASM)
        copy = work / "copy.spec"
        lo, hi = _bytes(o, 3)
        copy.write_text(COPY_SPEC.format(lo=lo, hi=hi))
        return {
            "ct_unary_scaled": _scaled(
                work, "compare_constant_ct_unary.spec",
                {buf0: _bytes(o, 5), buf1: _bytes(o, 5)}),
            "correct_scaled": _scaled(
                work, "compare_correct.spec",
                {buf0: _bytes(o, 6), buf1: _bytes(o, 6)}),
            "nostopper_scaled": _scaled(
                work, "compare_nostopper.spec",
                {buf0: _bytes(o, 6), buf1: _bytes(o, 6)}),
            "mulnd_scaled": _scaled(work, "mulnd_square.spec",
                                    {"x": (0, 4095)}),
            "promote_scaled": _scaled(work, "add_stopper.spec",
                                      {"a": (0, 63), "b": (0, 63)}),
            "copy_loop": copy,
        }
    if workload == "selftest":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks and their expected outcomes

def _check(name, path, kind, count, exit_code=0, extra=(), golden=None):
    verdict = {0: "Proven", 1: "Refuted"}[exit_code]
    lines = (f"VERDICT: {verdict}",
             f"check: {kind} on {Path(path).name}, {count} instance(s)")
    return Check(name, ("check", str(path)), exit_code, lines + tuple(extra),
                 golden)


def checks(workload: str, seed: int, inputs: dict) -> tuple:
    """The workload's checks, in the order one round runs them."""
    g = inputs.get
    at_default = seed == DEFAULT_SEED
    if workload == "ct_dense":
        return (
            _check("ct_dense_scaled", g("ct_dense_scaled"), "ct_relational",
                   108, extra=("pairs: 3888 public-equal pair(s)",)),
            _check("ct_dense_corpus", CORPUS / "compare_constant_ct.spec",
                   "ct_relational", 48,
                   extra=("pairs: 768 public-equal pair(s)",)),
        )
    if workload == "sparse_pairs":
        return (
            _check("equiv_scaled", g("equiv_scaled"), "equiv", 768,
                   extra=("pairs: 768 equiv_in-related pair(s)",)),
            _check("ct_scaled", g("ct_scaled"), "ct_relational", 256, 1,
                   extra=("pairs: 65536 public-equal pair(s)",),
                   golden="ct_scaled.txt" if at_default else None),
            _check("equiv_corpus", CORPUS / "compare_equiv.spec", "equiv", 48,
                   extra=("pairs: 48 equiv_in-related pair(s)",)),
            _check("ct_corpus", CORPUS / "compare_ct.spec", "ct_relational",
                   4, 1, extra=("pairs: 16 public-equal pair(s)",),
                   golden="ct_corpus.txt"),
        )
    if workload == "unary":
        return (
            _check("ct_unary_scaled", g("ct_unary_scaled"), "ct_unary", 1875),
            _check("correct_scaled", g("correct_scaled"), "unary", 3888),
            _check("nostopper_scaled", g("nostopper_scaled"), "unary", 3888),
            _check("mulnd_scaled", g("mulnd_scaled"), "unary", 4096),
            _check("promote_scaled", g("promote_scaled"), "promote", 4096,
                   extra=("first-stop counts: 1",)),
            _check("copy_loop", g("copy_loop"), "unary_n", 405,
                   extra=("step counts: {1, 7, 13, 19, 25}",)),
            _check("ct_unary_corpus",
                   CORPUS / "compare_constant_ct_unary.spec", "ct_unary", 48),
            _check("correct_corpus", CORPUS / "compare_correct.spec",
                   "unary", 48),
            _check("nostopper_corpus", CORPUS / "compare_nostopper.spec",
                   "unary", 48),
            _check("mulnd_corpus", CORPUS / "mulnd_square.spec", "unary", 8),
            _check("promote_corpus", CORPUS / "add_stopper.spec", "promote",
                   16, extra=("first-stop counts: 1",)),
        )
    if workload == "selftest":
        return (Check("selftest",
                      ("selftest", "--seed", str(seed),
                       "--trials", str(SELFTEST_TRIALS)),
                      0, ("VERDICT: Proven", f"trials: {SELFTEST_TRIALS}",
                          "violations: none")),)
    raise ValueError(f"unknown workload {workload!r}")
