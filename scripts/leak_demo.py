#!/usr/bin/env python3
"""Walk the byte-compare story end to end.

Runs the early-exit compare against the rewritten constant-time version:
shows the leaking event traces, the refuted and proven constant-time
checks, the equivalence check between the two, and the transfer of the
correctness proof across it. Everything here also runs in the test
suite; this script narrates it.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relhoare import asm, ct, equiv, kernel, machine, specfile  # noqa: E402

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def load(name: str) -> specfile.Problem:
    spec = specfile.parse_spec((CORPUS / name).read_text())
    return specfile.build_problem(spec, CORPUS)


def banner(text: str) -> None:
    print()
    print(f"== {text}")


def show_run(source: str, base: int, steps: int, regs: dict,
             mem: dict) -> machine.MachineState:
    program = asm.assemble((CORPUS / source).read_text())
    s = asm.load_program(machine.zeroed_state(), program, base)
    for r, v in regs.items():
        s = s.with_reg(r, v)
    for a, v in mem.items():
        s = s.with_label(machine.mem_label(a), v)
    sys_ = machine.oracle()
    for _ in range(steps):
        nxt = sys_.successors(s)
        if not nxt:
            break
        s = nxt[0]
    print(f"  final pc={s.pc:#x} x6={s.reg(6)}")
    print("  trace "
          f"{machine.format_projected(machine.project_trace(s.events))}")
    return s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=256)
    args = parser.parse_args()

    banner("early-exit compare leaks where the buffers differ")
    print("bytes equal:")
    show_run("compare.masm", 0x1000, 64, {0: 1, 1: 10, 2: 20},
             {10: 1, 20: 1})
    print("bytes differ:")
    show_run("compare.masm", 0x1000, 64, {0: 1, 1: 10, 2: 20},
             {10: 1, 20: 0})

    banner("pairwise constant-time check refutes it")
    problem = load("compare_ct.spec")
    verdict = ct.check_ct_relational(problem)
    print(f"  verdict: {verdict.outcome}")
    ce = verdict.counterexample
    if ce is not None and ce.traces is not None:
        t0, t1 = ce.traces
        print("  left  "
              f"{machine.format_projected(machine.project_trace(t0))}")
        print("  right "
              f"{machine.format_projected(machine.project_trace(t1))}")

    banner("the rewrite passes, both as pairs and against a witness")
    t0 = time.perf_counter()
    pairwise = ct.check_ct_relational(load("compare_constant_ct.spec"))
    single = ct.check_ct_unary(load("compare_constant_ct_unary.spec"))
    print(f"  pairwise: {pairwise.outcome}   "
          f"witness: {single.outcome}   "
          f"({time.perf_counter() - t0:.2f}s)")

    banner("the rewrite computes the same answer")
    e = equiv.check_equiv(load("compare_equiv.spec"))
    if not isinstance(e, equiv.EquivJudgment):
        print(f"  equivalence failed: {e.outcome}")
        return 1
    pairs = len(e.judgment.parts.pairs.pairs)
    print(f"  equivalent on x6 across {pairs} start pairs")

    banner("correctness carries across the equivalence")
    enum, post, frame = load("compare_correct.spec").unary_parts()
    j = kernel.prove_ensures(machine.oracle(), enum, post, frame,
                             args.budget)
    transferred = equiv.transfer_correctness(j, e)
    again = kernel.recheck(transferred)
    print(f"  transferred {transferred.form} over "
          f"{len(transferred.parts.enum.states)} rewrite starts, "
          f"re-check: {again.outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
