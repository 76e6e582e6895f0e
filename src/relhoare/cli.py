"""Command-line front end.

Subcommands: assemble (source to raw word image), disasm (image back to
source), run (assemble, load and execute, printing the final state and
event trace), check (parse a spec file, build its problem and run its
kind's row of _CHECKERS: a check of the problem and the report lines of
its verdict), and selftest (the random-system soundness suite).

Check reports start with the stable line `VERDICT: Proven|Refuted|
Unknown`; a refutation prints the counterexample and a standalone
replay script that re-executes it. A check whose precondition no
instance or pair meets warns on stderr that its verdict is vacuous.
Exit status is 0 for Proven or plain success, 1 for Refuted, 2 for
Unknown, 3 for input, checking and internal errors, 64 for usage
errors. The instance enumeration cap defaults to 2^16 and can be
overridden by --enum-cap or the RELHOARE_ENUM_CAP environment variable;
an oversized domain is an error, never a sample.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from . import asm, ct, equiv, kernel, machine, specfile


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
            asm.MisalignedBase, kernel.KernelError, equiv.AnchorMismatch,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        # a bug, not a verdict: exit 1 would read as Refuted
        import traceback  # only here, to keep it out of start-up
        print(f"internal error: {e!r}", file=sys.stderr)
        traceback.print_exc()
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
    m = machine._REG_RE.fullmatch(name.strip())
    try:
        v = int(value, 0)
    except ValueError:
        v = None
    if not m or v is None or not 0 <= v <= machine.MASK64:
        raise argparse.ArgumentTypeError(
            f"wants xN=V with N in 0..15 and V in "
            f"0..{machine.MASK64:#x}, got {text!r}")
    return int(m.group(1)), v


def _cmd_run(args) -> int:
    program = asm.assemble(args.source.read_text())
    if args.base + program.byte_len > 1 << 64:
        print(f"error: --base {args.base:#x} puts the {program.byte_len}-byte "
              f"image past the top of the address space", file=sys.stderr)
        return 64
    state = asm.load_program(machine.zeroed_state(), program, args.base)
    for idx, value in args.reg:
        state = state.with_reg(idx, value)
    sys_ = machine.oracle()
    forks = 0
    n = 0
    # a run that ends without successors is stuck, even at the step limit
    while (succ := sys_.successors(state)) and n < args.steps:
        if len(succ) > 1:
            forks += 1
        state = succ[0]
        n += 1
        if args.trace:
            print(f"  step {n}: {state}")
    print(f"stopped after {n} step(s)"
          + (" (step limit)" if succ else " (stuck)"))
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
    from . import finsys  # only here: no other command uses it
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
    check, report = _CHECKERS[spec.kind]
    verdict = check(problem)
    if "EmptyPrecondition" in verdict.stats.get("warnings", ()):
        print("warning: no instance or pair meets the precondition, so the "
              "verdict holds vacuously", file=sys.stderr)
    outcome = verdict.outcome.capitalize()
    print(f"VERDICT: {outcome}")
    print(f"check: {spec.kind} on {args.spec.name}, "
          f"{problem.count()} instance(s)")
    for line in report(problem, verdict):
        print(line)
    if verdict.is_refuted:
        _print_counterexample(problem, args.spec, verdict.counterexample)
    return {"proven": 0, "refuted": 1, "unknown": 2}[verdict.outcome]


def _unary(problem):
    # instances of one start state may meet their posts at different steps
    for layer in problem.layers():
        enum, post, frame = layer.unary_parts()
        v = kernel.check_ensures(machine.oracle(), enum, post, frame,
                                 budget=problem.spec.budget)
        if not v.is_proven:
            break
    return v


def _exact(problem):
    return kernel.check_ensures_n(machine.oracle(), *problem.exact_parts())


def _relational(problem):
    pre2 = kernel.PairProperty(lambda a, b: True, "instance-paired inputs")
    enum, post2, frame2, steps0, steps1 = problem.pair_parts(
        pre2, "instance pairs",
        post_description="both sides' postconditions",
        describe=lambda da, db: f"({da}) and ({db})")
    return kernel.check_ensures2(machine.oracle(), enum, steps0, steps1,
                                 post2, frame2)


def _equiv(problem):
    result = equiv.check_equiv(problem)
    if isinstance(result, kernel.Verdict):
        return result
    parts = result.judgment.parts
    count = len(parts.pairs.pairs)
    return kernel.proven(instances=count, anchors=result.anchors,
                         steps=(parts.steps0, parts.steps1),
                         warnings=() if count else ("EmptyPrecondition",))


def _equiv_lines(problem, v):
    if not v.is_proven:
        return []
    anchors = ", ".join("-" if a is None else f"{a:#x}"
                        for a in v.stats["anchors"])
    left, right = map(_summarize_counts, v.stats["steps"])
    return [f"pairs: {v.stats['instances']} equiv_in-related pair(s)",
            f"anchors (entry0, exit0, entry1, exit1): {anchors}",
            f"steps left: {left}; right: {right}"]


def _promote_lines(problem, v):
    if not v.is_proven:
        k = problem.views[0].first(v.counterexample.initial)
        return [f"failing instance: #{k}"]
    return [f"first-stop counts: {_summarize_counts(v.stats['steps'])}"]


# kind: (check of a problem, report lines of its verdict). ct_relational
# and equiv call their checks through the module, where the benchmark's
# tracer wraps them
_CHECKERS = {
    "unary": (_unary, lambda p, v: [
        f"form: reaches the postcondition within {p.spec.budget} steps"]),
    "unary_n": (_exact, lambda p, v: [
        f"step counts: {_summarize_counts(v.stats['steps'])}"]
        if v.is_proven else []),
    "relational": (_relational, lambda p, v: []),
    "ct_relational": (lambda p: ct.check_ct_relational(p), lambda p, v: [
        f"pairs: {v.stats.get('instances', 0)} public-equal pair(s)"]),
    "ct_unary": (_exact, lambda p, v: []),
    "equiv": (_equiv, _equiv_lines),
    "promote": (lambda p: kernel.check_eventually_n_at_pc(
        machine.oracle(), p.promote_parts), _promote_lines),
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
    # the check's enumeration cap, unless the default
    cap = "" if problem.cap == specfile.DEFAULT_ENUM_CAP \
        else f", cap={problem.cap}"
    lines = [
        "python3 - <<'RELHOARE_REPLAY'",
        "from pathlib import Path",
        "from relhoare import kernel, machine, specfile",
        f"spec = specfile.parse_spec(Path({str(spec_path)!r}).read_text())",
        f"prob = specfile.build_problem(spec, "
        f"Path({str(spec_path.parent)!r}){cap})",
    ]
    if ce.sides == 1:
        k = problem.views[0].first(ce.initial)
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
        i = problem.views[0].first(a)
        j = problem.views[problem.right].first(b)
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
