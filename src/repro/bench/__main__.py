"""Command-line entry point: ``python -m repro.bench <experiment>``.

Regenerates any figure or ablation from DESIGN.md §4 and writes the text
report to ``benchmarks/results/``.  ``all`` runs everything; ``--full``
uses the long profile for the two paper figures.

Observability: ``--events-out run.events.jsonl`` records every event of
the experiment's simulators for ``repro-analyze`` (``.jsonl.gz`` gzips),
``--profile-out NAME`` writes its attribution report (one section per
simulator run) next to the figure reports and ``--trace-out
run.trace.json`` its Chrome trace (https://ui.perfetto.dev); without
``--events-out`` those two read a scratch recording, deleted afterwards.
``--metrics-out metrics.json`` dumps the metrics-registry snapshot, and
``--seed N`` overrides the workload RNG seed where the experiment
supports it.  ``--workers N`` runs every throughput experiment's points
over ``N`` processes, with identical reports; the outputs above record
in-process and need ``--workers 0``.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import tempfile
import time

from repro.bench.figures import EXPERIMENTS
from repro.bench.report import save_report
from repro.obs import Observability, write_chrome_trace


def _describe(runner) -> str:
    """First line of the experiment's docstring."""
    doc = inspect.getdoc(runner)
    return doc.splitlines()[0] if doc else ""


def _list_experiments() -> str:
    from repro.workloads import scenarios
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments:"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:<{width}}  {_describe(EXPERIMENTS[name])}")
    lines.append(f"  {'all':<{width}}  every experiment above, in order")
    lines.append(f"  {'scenario':<{width}}  one named workload scenario "
                 "(--scenario NAME|all)")
    lines.append("")
    lines.append("registered scenarios (--scenario):")
    name_width = max(len(item.name) for item in scenarios.entries())
    for item in scenarios.entries():
        lines.append(f"  {item.name:<{name_width}}  [{item.stress}] "
                     f"{item.summary}")
    return "\n".join(lines)


def _derived_path(path: str, name: str, many: bool) -> str:
    """Output path for one experiment; ``fig2`` of ``out.json`` becomes
    ``out.fig2.json`` when several experiments share one --*-out flag.

    A trailing ``.gz`` stays outermost (``run.jsonl.gz`` becomes
    ``run.fig2.jsonl.gz``), so the derived path still gzips.
    """
    if not many:
        return path
    root, ext = os.path.splitext(path)
    gz = ""
    if ext == ".gz":
        gz = ext
        root, ext = os.path.splitext(root)
    return f"{root}.{name}{ext}{gz}"


#: The ``--*-out`` flags whose files are built from the events.
_RECORDED = ("trace_out", "events_out", "profile_out")


def _asks(args, flags=_RECORDED + ("metrics_out",)) -> bool:
    """Whether any of the ``--*-out`` ``flags`` was given."""
    return any(getattr(args, flag) is not None for flag in flags)


def _run(args, run, obs, name: str, many: bool, tag: str) -> None:
    """Run one experiment (``run()`` returns its result), save its
    report and write its ``--*-out`` files; ``tag`` prefixes the
    progress lines.

    When an output is built from the events, a
    :class:`~repro.obs.stream.Recorder` is attached to ``obs`` before
    any simulator is built.  The recording is the ``--events-out`` file,
    or a scratch file deleted afterwards; the trace is read back from it.
    """
    recorder = None
    if obs is not None and _asks(args, _RECORDED):
        from repro.obs.stream import Recorder
        if args.events_out is not None:
            recording = _derived_path(args.events_out, name, many)
        else:
            handle, recording = tempfile.mkstemp(suffix=".events.jsonl.gz")
            os.close(handle)
        recorder = Recorder(recording)
        recorder.attach(obs)
    try:
        started = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - started
        path = save_report(result.name, result.report)
        if not args.quiet:
            print(result.report)
            print()
        print(f"[{tag}] {elapsed:.1f}s -> {path}")
        if recorder is not None:
            recorder.close()
            _write_recorded(args, recorder, name, many, tag)
    finally:
        if recorder is not None:
            recorder.close()
            if args.events_out is None:
                os.remove(recorder.events_path)
    if args.metrics_out is not None and obs is not None:
        out = _derived_path(args.metrics_out, name, many)
        with open(out, "w", encoding="utf-8") as stream:
            json.dump(obs.metrics_snapshot(), stream, indent=2,
                      sort_keys=True)
            stream.write("\n")
        print(f"[{tag}] metrics -> {out}")


def _write_recorded(args, recorder, name: str, many: bool,
                    tag: str) -> None:
    """The ``--*-out`` files of a closed recording."""
    if args.trace_out is not None:
        from repro.obs.profile import iter_jsonl
        out = _derived_path(args.trace_out, name, many)
        write_chrome_trace(out, iter_jsonl(recorder.events_path))
        print(f"[{tag}] trace -> {out}")
    if args.events_out is not None:
        print(f"[{tag}] events -> {recorder.events_path}")
    if args.profile_out is not None:
        profile_name = (f"{args.profile_out}.{name}" if many
                        else args.profile_out)
        out = save_report(profile_name, recorder.profile.render())
        print(f"[{tag}] profile -> {out}")


def _run_scenarios(args) -> int:
    """The 'scenario' experiment: one or every registered scenario."""
    from repro.bench.figures import run_scenario
    from repro.errors import ReproError
    from repro.workloads import scenarios
    if not args.scenario:
        print("scenario experiment needs --scenario NAME (or 'all'); "
              f"registered: {', '.join(scenarios.names())}",
              file=sys.stderr)
        return 1
    names = (list(scenarios.names()) if args.scenario == "all"
             else args.scenario.split(","))
    many = len(names) > 1
    for name in names:
        obs = Observability(events=False) if _asks(args) else None
        run = functools.partial(run_scenario, name, seed=args.seed, obs=obs,
                                workers=args.workers, verify=args.verify)
        try:
            scenarios.resolve(name)      # before a recording is opened
            _run(args, run, obs, name, many, tag=f"scenario-{name}")
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures and the ablations.")
    parser.add_argument("experiment", nargs="?",
                        choices=sorted(EXPERIMENTS) + ["all", "scenario"],
                        help="which experiment to run "
                             "(see --list for descriptions); "
                             "'scenario' runs a named workload scenario")
    parser.add_argument("--scenario", metavar="NAME", default=None,
                        help="scenario name for the 'scenario' "
                             "experiment ('all' runs every registered "
                             "scenario; see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list experiments with one-line descriptions "
                             "and exit")
    parser.add_argument("--full", action="store_true",
                        help="long profile (more points, longer windows) "
                             "for fig4a/fig4b")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed override (experiments "
                             "that take one)")
    parser.add_argument("--workers", type=int, default=0,
                        help="run each throughput experiment's points "
                             "over N worker processes (every experiment "
                             "but fig2 and packing; reports are "
                             "identical at any N; default 0 = serial, "
                             "which the --*-out flags need)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome/Perfetto trace of every "
                             "simulator run to PATH")
    parser.add_argument("--events-out", metavar="PATH", default=None,
                        help="write the raw event stream (JSONL, for "
                             "repro-analyze) to PATH; a .jsonl.gz "
                             "suffix gzips it")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics-registry snapshot (JSON) "
                             "to PATH")
    parser.add_argument("--profile-out", metavar="NAME", default=None,
                        help="write the offline attribution report "
                             "(repro-analyze report) under "
                             "benchmarks/results/NAME.txt")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the report file paths")
    parser.add_argument("--verify", action="store_true",
                        help="attach the repro.verify invariant checker "
                             "to every simulator the experiment builds "
                             "(slower; raises InvariantViolation on any "
                             "internal inconsistency)")
    args = parser.parse_args(argv)

    if args.list:
        print(_list_experiments())
        return 0
    if args.experiment is None:
        parser.error("experiment is required (or use --list)")
    if args.workers and _asks(args):
        parser.error("--trace-out/--events-out/--metrics-out/--profile-out "
                     "record in-process and need --workers 0")
    if args.verify:
        # Every Simulator built from here on gets an invariant checker:
        # fig2 builds its own; the throughput experiments also pass
        # verify to the sweep runner, which checks at the same interval
        # inside worker processes.
        from repro.sim.engine import set_default_checker
        from repro.sweep.runner import CHECK_INTERVAL
        from repro.verify import InvariantChecker
        set_default_checker(
            lambda: InvariantChecker(interval=CHECK_INTERVAL))
        print("verify: invariant checker attached to every simulator")
    if args.experiment == "scenario":
        return _run_scenarios(args)

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    many = len(names) > 1
    for name in names:
        runner = EXPERIMENTS[name]
        supported = inspect.signature(runner).parameters
        kwargs = {}
        if name in ("fig4a", "fig4b"):
            kwargs["profile"] = "full" if args.full else "quick"
        if args.seed is not None:
            if "seed" in supported:
                kwargs["seed"] = args.seed
            else:
                print(f"[{name}] note: --seed not supported, ignored")
        if "workers" in supported:
            kwargs.update(workers=args.workers, verify=args.verify)
        obs = None
        if _asks(args) and "obs" in supported:
            obs = kwargs["obs"] = Observability(events=False)
        elif _asks(args):
            print(f"[{name}] note: --trace-out/--events-out/"
                  "--metrics-out/--profile-out not supported, ignored")
        _run(args, functools.partial(runner, **kwargs), obs, name, many,
             tag=name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
