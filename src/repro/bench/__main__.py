"""Command-line entry point: ``python -m repro.bench <experiment>``.

Regenerates any figure or ablation from DESIGN.md §4 and writes the text
report to ``benchmarks/results/``.  ``all`` runs everything; ``--full``
uses the long profile for the two paper figures.

Observability: ``--trace-out run.trace.json`` captures every simulator in
the experiment into one Chrome trace (load it at https://ui.perfetto.dev),
``--events-out run.events.jsonl`` dumps the raw event stream for
``repro-analyze`` (a ``.jsonl.gz`` path gzips it on the way out; the
analyzer reads either transparently, in constant memory),
``--metrics-out metrics.json`` dumps the metrics-registry snapshot,
``--profile-out NAME`` writes the offline attribution report (one section
per simulator run) next to the figure reports, and ``--seed N`` overrides
the workload RNG seed where the experiment supports it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time

from repro.bench.figures import EXPERIMENTS
from repro.bench.report import save_report
from repro.obs import Observability


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


def _observability(args):
    """A fresh pipeline for the requested ``--*-out`` files, or None.

    Events are recorded only when an output needs them; metrics alone
    need just the registry.
    """
    want_events = (args.trace_out is not None
                   or args.events_out is not None
                   or args.profile_out is not None)
    if want_events or args.metrics_out is not None:
        return Observability(events=want_events)
    return None


def _write_outputs(args, obs, name: str, many: bool, tag: str) -> None:
    """Write one experiment's ``--*-out`` files; ``tag`` prefixes the
    progress lines.

    The event log keeps only its first ``max_events`` events; when it
    dropped any, each output built from the events says so on stderr.
    """
    def written(what: str, out: str) -> None:
        print(f"[{tag}] {what} -> {out}")
        if obs.log.dropped:
            print(f"[{tag}] warning: {what} {out} holds only the first "
                  f"{len(obs.log):,} events; {obs.log.dropped:,} more "
                  "were dropped at the event log's cap", file=sys.stderr)

    if args.trace_out is not None:
        out = _derived_path(args.trace_out, name, many)
        obs.write_chrome_trace(out)
        written("trace", out)
    if args.events_out is not None:
        out = _derived_path(args.events_out, name, many)
        obs.write_jsonl(out)
        written("events", out)
    if args.profile_out is not None:
        profile_name = (f"{args.profile_out}.{name}" if many
                        else args.profile_out)
        out = save_report(profile_name, obs.profile_report())
        written("profile", out)
    if args.metrics_out is not None:
        out = _derived_path(args.metrics_out, name, many)
        with open(out, "w", encoding="utf-8") as stream:
            json.dump(obs.metrics_snapshot(), stream, indent=2,
                      sort_keys=True)
            stream.write("\n")
        print(f"[{tag}] metrics -> {out}")


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
        obs = _observability(args)
        started = time.perf_counter()
        try:
            result = run_scenario(name, seed=args.seed, obs=obs)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        path = save_report(result.name, result.report)
        if not args.quiet:
            print(result.report)
            print()
        print(f"[{result.name}] {elapsed:.1f}s -> {path}")
        if obs is not None:
            _write_outputs(args, obs, name, many, tag=result.name)
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
                        help="shard sweep points over N worker processes "
                             "(experiments that support it: fig4a/fig4b; "
                             "default 0 = serial)")
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
    if args.verify:
        # Every Simulator built from here on gets an invariant checker
        # (experiments construct their own sims, so a construction-time
        # default is the only seam that reaches all of them).
        from repro.sim.engine import set_default_checker
        from repro.verify import InvariantChecker
        set_default_checker(lambda: InvariantChecker(interval=1024))
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
        obs = _observability(args)
        if args.workers:
            if "workers" in supported and obs is None:
                kwargs["workers"] = args.workers
            else:
                print(f"[{name}] note: --workers not supported here "
                      "(needs a parallelisable sweep and no obs "
                      "capture), ignored")
        if obs is not None and "obs" in supported:
            kwargs["obs"] = obs
        elif obs is not None:
            print(f"[{name}] note: --trace-out/--events-out/"
                  "--metrics-out/--profile-out not supported, ignored")
            obs = None
        started = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - started
        path = save_report(result.name, result.report)
        if not args.quiet:
            print(result.report)
            print()
        print(f"[{name}] {elapsed:.1f}s -> {path}")
        if obs is not None:
            _write_outputs(args, obs, name, many, tag=name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
