"""Command-line front end for the verification layer.

Subcommands::

    python -m repro.verify fuzz --seeds 25
        Generate and check 25 random cases (invariants on, same-seed
        determinism, reference differential: every memory access and
        the end state checked against the naive reference model).  On
        failure, shrink to a minimal case and print a one-command
        repro; exit 1.

    python -m repro.verify fuzz --seeds 5 --inject evict_line
        Same, but inject a deterministic fault into each case and
        *expect* the invariant checker to catch it; the first detection
        is shrunk and printed as a repro command, exit 2.  (Used by CI
        to prove the repro workflow end to end.)

    python -m repro.verify run --case '<json>' [--inject KIND]
        Replay one exact case (the command the fuzzer prints).

    python -m repro.verify selftest
        Mutation self-test: inject every fault kind and assert the
        checker trips its matching invariant — no blind spots.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError, SimulationError
from repro.verify.faults import EXPECTED_RULE, FAULT_KINDS
from repro.verify.fuzz import (FuzzCase, check_case, generate_case,
                               repro_command, run_mutation, shrink)


def _describe(case: FuzzCase) -> str:
    workload = (f"scenario:{case.scenario}" if case.scenario
                else f"{case.n_objects}obj/{case.object_bytes}B")
    return (f"{case.n_chips}x{case.cores_per_chip} {case.scheduler} "
            f"{workload} horizon={case.horizon}")


def cmd_fuzz(args: argparse.Namespace) -> int:
    checked = 0
    for seed in range(args.seed_start, args.seed_start + args.seeds):
        case = generate_case(seed)
        if args.inject:
            # Injection needs a migration-generating scheduler so
            # drop/delay faults always find a target.
            case = case.replace(scheduler="coretime")
        failure = check_case(case, inject=args.inject)
        if failure is None:
            checked += 1
            if args.verbose:
                print(f"seed {seed}: ok ({_describe(case)})")
            continue
        if failure.kind == "not_applicable":
            if args.verbose:
                print(f"seed {seed}: skipped ({failure.detail})")
            continue
        if args.inject and failure.kind == "invariant":
            print(f"seed {seed}: injected fault {args.inject!r} detected "
                  f"by invariant {failure.rule!r}")
            minimal = shrink(case, lambda c: _still_detects(c, args.inject,
                                                            failure.rule))
            print(f"minimal case: {_describe(minimal)}")
            print(f"minimal repro: {repro_command(minimal, args.inject)}")
            return 2
        print(f"seed {seed}: FAILED ({_describe(case)})")
        print(f"  {failure}")
        minimal = shrink(case, lambda c: _still_fails(c, failure.kind))
        print(f"minimal case: {_describe(minimal)}")
        print(f"minimal repro: {repro_command(minimal)}")
        return 1
    print(f"fuzz: {checked}/{args.seeds} seeds clean "
          f"(start={args.seed_start})")
    return 0


def _still_fails(case: FuzzCase, kind: str) -> bool:
    failure = check_case(case)
    return failure is not None and failure.kind == kind


def _still_detects(case: FuzzCase, inject: str, rule: str) -> bool:
    failure = check_case(case, inject=inject)
    return (failure is not None and failure.kind == "invariant"
            and failure.rule == rule)


def cmd_run(args: argparse.Namespace) -> int:
    case = FuzzCase.from_json(args.case)
    print(f"case: {_describe(case)}")
    failure = check_case(case, inject=args.inject)
    if failure is None:
        print("result: clean")
        return 0
    if failure.kind == "not_applicable":
        print(f"result: {failure.detail}")
        return 0
    print(f"result: {failure}")
    return 1


def cmd_selftest(args: argparse.Namespace) -> int:
    """Every fault kind must trip its matching invariant."""
    missed = []
    for kind in FAULT_KINDS:
        expected = EXPECTED_RULE[kind]
        try:
            violation = run_mutation(kind)
        except SimulationError as exc:
            print(f"  {kind:<16} MISSED   {exc}")
            missed.append(kind)
            continue
        status = "ok" if violation.rule == expected else "WRONG RULE"
        print(f"  {kind:<16} {status:<8} rule={violation.rule} "
              f"(expected {expected}) t={violation.ts}")
        if violation.rule != expected:
            missed.append(kind)
    if missed:
        print(f"selftest: {len(missed)} blind spot(s): {missed}")
        return 1
    print(f"selftest: all {len(FAULT_KINDS)} fault kinds detected")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="invariant checking, fault injection and fuzzing")
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="fuzz random cases")
    fuzz.add_argument("--seeds", type=int, default=25,
                      help="number of seeds to check (default 25)")
    fuzz.add_argument("--seed-start", type=int, default=0,
                      help="first seed (default 0)")
    fuzz.add_argument("--inject", choices=FAULT_KINDS, default=None,
                      help="inject a fault and expect detection")
    fuzz.add_argument("-v", "--verbose", action="store_true")
    fuzz.set_defaults(func=cmd_fuzz)

    run = sub.add_parser("run", help="replay one exact case")
    run.add_argument("--case", required=True,
                     help="FuzzCase JSON (printed by a fuzz failure)")
    run.add_argument("--inject", choices=FAULT_KINDS, default=None)
    run.set_defaults(func=cmd_run)

    selftest = sub.add_parser(
        "selftest", help="mutation self-test of the invariant checker")
    selftest.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
