"""Command-line front end.

Subcommands: assemble (source to raw word image), disasm (image back to
source), run (assemble, load and execute, printing the final state and
event trace), check (parse a spec file and dispatch on its kind), and
selftest (the random-system soundness suite).

Check reports start with the stable line `VERDICT: Proven|Refuted|
Unknown`; a refutation prints the counterexample and a standalone
replay script that re-executes it. Exit status is 0 for Proven or
plain success, 1 for Refuted, 2 for Unknown, 3 for input or checking
errors, 64 for usage errors. The instance enumeration cap defaults to
2^16 and can be overridden by --enum-cap or the RELHOARE_ENUM_CAP
environment variable; an oversized domain is an error, never a sample.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from . import asm, ct, equiv, finsys, kernel, machine, specfile


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help and 2 for usage problems
        return 0 if e.code in (0, None) else 64
    try:
        return args.func(args)
    except (specfile.SpecError, asm.AsmError, asm.LengthNotAligned,
            asm.MisalignedBase, kernel.KernelError, ct.PartitionOverlap,
            ct.TemplateExpansionFailure, equiv.AnchorMismatch,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relhoare",
        description="exact relational Hoare logic checks for a small "
                    "machine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="assemble a .masm source file")
    p.add_argument("source", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None,
                   help="output image (default: source with .bin suffix)")
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("disasm", help="disassemble a raw word image")
    p.add_argument("image", type=Path)
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("run", help="assemble, load and execute a program")
    p.add_argument("source", type=Path)
    p.add_argument("--base", type=_at_least(0, base=0, most=machine.MASK64),
                   default=0x1000)
    p.add_argument("--steps", type=_at_least(0), default=4096,
                   help="step limit (default 4096)")
    p.add_argument("--reg", action="append", default=[], metavar="xN=V",
                   type=_parse_reg_flag,
                   help="initial register value, repeatable")
    p.add_argument("--trace", action="store_true",
                   help="print every executed step")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check", help="run the check described by a .spec "
                                     "file")
    p.add_argument("spec", type=Path)
    p.add_argument("--enum-cap", type=_at_least(1, base=0), default=None,
                   help="max enumerated instances (default 65536, env "
                        "RELHOARE_ENUM_CAP)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("selftest", help="random-system soundness suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=_at_least(1), default=10000)
    p.set_defaults(func=_cmd_selftest)
    return parser


def _at_least(low: int, base: int = 10, most: Optional[int] = None):
    """An argparse type: an integer no smaller than low (and no larger
    than most, if given), so that a count or address it cannot mean is a
    usage error. Base 0 also takes 0x, 0o and 0b prefixes."""
    def parse(text: str) -> int:
        try:
            value = int(text, base)
        except ValueError:
            value = None
        if value is None or value < low or (most is not None and value > most):
            want = (f"of at least {low}" if most is None
                    else f"in {low}..{most:#x}")
            raise argparse.ArgumentTypeError(
                f"wants an integer {want}, got {text!r}")
        return value
    return parse


# ---------------------------------------------------------------------------
# plain commands

def _cmd_assemble(args) -> int:
    program = asm.assemble(args.source.read_text())
    out = args.output or args.source.with_suffix(".bin")
    out.write_bytes(program.data)
    print(f"wrote {len(program.data)} bytes ({len(program.data) // 4} "
          f"words) to {out}")
    for name, offset in sorted(program.symbols.items(), key=lambda kv: kv[1]):
        print(f"  {name}: +{offset:#x}")
    return 0


def _cmd_disasm(args) -> int:
    print(asm.disassemble(args.image.read_bytes()), end="")
    return 0


def _parse_reg_flag(text: str) -> tuple:
    name, _, value = text.partition("=")
    m = specfile._REG_RE.match(name.strip())
    if not m or not value or int(m.group(1)) >= 16:
        raise argparse.ArgumentTypeError(
            f"--reg wants xN=value with N in 0..15, got {text!r}")
    return int(m.group(1)), int(value, 0) & machine.MASK64


def _cmd_run(args) -> int:
    program = asm.assemble(args.source.read_text())
    state = asm.load_program(machine.zeroed_state(), program, args.base)
    for idx, value in args.reg:
        state = state.with_reg(idx, value)
    sys_ = machine.oracle()
    forks = 0
    n = 0
    while n < args.steps:
        succ = sys_.successors(state)
        if not succ:
            break
        if len(succ) > 1:
            forks += 1
        state = succ[0]
        n += 1
        if args.trace:
            print(f"  step {n}: {state}")
    print(f"stopped after {n} step(s)"
          + (" (step limit)" if n >= args.steps else " (stuck)"))
    if forks:
        print(f"note: took the first branch at {forks} nondeterministic "
              f"fork(s)")
    print(f"final: {state}")
    if state.events:
        print("events:")
        for e in state.events:
            print(f"  {e}")
        print("projected: "
              f"{machine.format_projected(machine.project_trace(state.events))}")
    else:
        print("events: (none)")
    return 0


def _cmd_selftest(args) -> int:
    report = finsys.run_soundness_suite(seed=args.seed, trials=args.trials)
    print("VERDICT: " + ("Proven" if report.passed else "Refuted"))
    print(report.format())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# check dispatch

def _cmd_check(args) -> int:
    cap = args.enum_cap
    if cap is None:
        env = os.environ.get("RELHOARE_ENUM_CAP")
        try:
            cap = _at_least(1, base=0)(env) if env \
                else specfile.DEFAULT_ENUM_CAP
        except argparse.ArgumentTypeError as e:
            # a usage error, like a malformed --enum-cap
            print(f"error: RELHOARE_ENUM_CAP {e}", file=sys.stderr)
            return 64
    spec = specfile.parse_spec(args.spec.read_text())
    problem = specfile.build_problem(spec, args.spec.parent, cap=cap)
    handler = _CHECKERS[spec.kind]
    verdict, extra = handler(problem)
    outcome = verdict.outcome.capitalize()
    print(f"VERDICT: {outcome}")
    print(f"check: {spec.kind} on {args.spec.name}, "
          f"{problem.count()} instance(s)")
    for line in extra:
        print(line)
    if verdict.is_refuted:
        _print_counterexample(problem, args.spec, verdict.counterexample)
    return {"proven": 0, "refuted": 1, "unknown": 2}[verdict.outcome]


def _check_unary(problem):
    # instances of one start state may meet their posts at different steps
    for layer in problem.layers():
        enum, post, frame = layer.unary_parts()
        v = kernel.check_ensures(machine.oracle(), enum, post, frame,
                                 budget=problem.spec.budget)
        if not v.is_proven:
            break
    return v, [f"form: reaches the postcondition within "
               f"{problem.spec.budget} steps"]


def _check_unary_n(problem):
    enum, post, frame = problem.unary_parts()
    v = kernel.check_ensures_n(machine.oracle(), enum,
                               problem.steps("f0", 0), post, frame)
    extra = []
    if v.is_proven:
        steps = v.stats.get("steps", ())
        extra.append(f"step counts: {_summarize_counts(steps)}")
    return v, extra


def _check_relational(problem):
    pre2 = kernel.PairProperty(lambda a, b: True, "instance-paired inputs")
    enum, post2, frame2, steps0, steps1 = problem.pair_parts(
        pre2, "instance pairs",
        post_description="both sides' postconditions",
        describe=lambda da, db: f"({da}) and ({db})")
    v = kernel.check_ensures2(machine.oracle(), enum, steps0, steps1, post2,
                              frame2)
    return v, []


def _check_ct_relational(problem):
    v = ct.check_ct_relational(problem)
    extra = [f"pairs: {v.stats.get('instances', 0)} public-equal pair(s)"]
    return v, extra


def _check_ct_unary(problem):
    v = ct.check_ct_unary(problem)
    return v, []


def _check_equiv(problem):
    result = equiv.check_equiv(problem)
    if isinstance(result, kernel.Verdict):
        return result, []
    j = result.judgment
    anchors = ", ".join("-" if a is None else f"{a:#x}"
                        for a in result.anchors)
    extra = [
        f"pairs: {len(j.parts.pairs.pairs)} equiv_in-related pair(s)",
        f"anchors (entry0, exit0, entry1, exit1): {anchors}",
        f"steps left: {_summarize_counts(j.parts.steps0)}; "
        f"right: {_summarize_counts(j.parts.steps1)}",
    ]
    return kernel.proven(instances=len(j.parts.pairs.pairs)), extra


def _check_promote(problem):
    x0_of, xw_of, n_of = (specfile.compile_expr(problem.spec.promote[key])
                          for key in ("x0", "xw", "n"))
    counts = []
    for inst in problem.instances:
        x0 = x0_of(inst.env, None) & machine.MASK64
        xw = xw_of(inst.env, None) & machine.MASK64
        n = n_of(inst.env, None)
        if n < 0:
            raise specfile.SpecError(
                f"n gives instance #{inst.index} the negative step count {n}")
        enum = kernel.Enumeration((inst.state0,))
        v = kernel.check_eventually_n_at_pc(machine.oracle(), enum, x0,
                                            xw, n)
        if not v.is_proven:
            return v, [f"failing instance: #{inst.index}"]
        counts.append(n)
    return (kernel.proven(instances=len(problem.instances)),
            [f"first-stop counts: {_summarize_counts(tuple(counts))}"])


_CHECKERS = {
    "unary": _check_unary,
    "unary_n": _check_unary_n,
    "relational": _check_relational,
    "ct_relational": _check_ct_relational,
    "ct_unary": _check_ct_unary,
    "equiv": _check_equiv,
    "promote": _check_promote,
}


def _summarize_counts(steps: tuple) -> str:
    if not steps:
        return "(none)"
    values = sorted(set(steps))
    if len(values) == 1:
        return str(values[0])
    if len(values) <= 6:
        return "{" + ", ".join(map(str, values)) + "}"
    return f"{values[0]}..{values[-1]} ({len(values)} distinct)"


# ---------------------------------------------------------------------------
# counterexample reporting

def _find_instance(problem, state, attr: str):
    for inst in problem.instances:
        if getattr(inst, attr) == state:
            return inst.index
    return None


def _print_counterexample(problem, spec_path: Path, ce) -> None:
    if ce is None:
        return
    print(f"reason: {ce.reason}")
    if ce.detail:
        print(f"detail: {ce.detail}")
    if ce.sides == 1:
        print(f"initial: {ce.initial}")
        print(f"choices: {list(ce.choices)}")
        print(f"witness: {ce.witness}")
    else:
        a, b = ce.initial
        print(f"initial left:  {a}")
        print(f"initial right: {b}")
        print(f"choices: left {list(ce.choices[0])}, "
              f"right {list(ce.choices[1])}")
        wa, wb = ce.witness
        print(f"witness left:  {wa}")
        print(f"witness right: {wb}")
        if ce.traces is not None:
            t0, t1 = ce.traces
            print("projected traces:")
            print(f"  left:  "
                  f"{machine.format_projected(machine.project_trace(t0))}")
            print(f"  right: "
                  f"{machine.format_projected(machine.project_trace(t1))}")
    script = _replay_script(problem, spec_path, ce)
    if script:
        print("replay script:")
        print(script)


def _replay_script(problem, spec_path: Path, ce):
    lines = [
        "python3 - <<'RELHOARE_REPLAY'",
        "from pathlib import Path",
        "from relhoare import kernel, machine, specfile",
        f"spec = specfile.parse_spec(Path({str(spec_path)!r}).read_text())",
        f"prob = specfile.build_problem(spec, Path({str(spec_path.parent)!r}))",
    ]
    if ce.sides == 1:
        k = _find_instance(problem, ce.initial, "state0")
        if k is None:
            return None
        lines += [
            f"s = prob.instances[{k}].state0",
            f"final = s",
            f"for final in kernel.replay(machine.oracle(), s, "
            f"{tuple(ce.choices)!r}):",
            "    print(final)",
        ]
    else:
        a, b = ce.initial
        right = f"state{problem.right}"
        i = _find_instance(problem, a, "state0")
        j = _find_instance(problem, b, right)
        if i is None or j is None:
            return None
        lines += [
            f"a = prob.instances[{i}].state0",
            f"b = prob.instances[{j}].{right}",
            f"final0, final1 = a, b",
            f"for final0 in kernel.replay(machine.oracle(), a, "
            f"{tuple(ce.choices[0])!r}):",
            "    print('left ', final0)",
            f"for final1 in kernel.replay(machine.oracle(), b, "
            f"{tuple(ce.choices[1])!r}):",
            "    print('right', final1)",
        ]
    lines.append("RELHOARE_REPLAY")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
