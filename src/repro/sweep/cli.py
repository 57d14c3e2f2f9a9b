"""``repro-sweep`` — run, resume and report experiment sweeps.

Quick tour::

    repro-sweep run fig4a --workers 8 --seeds 3
        Expand the fig4a preset into its grid and shard it over 8
        worker processes; results land under
        benchmarks/results/sweeps/fig4a/.

    repro-sweep run smoke --stop-after 3 --out /tmp/sw
    repro-sweep resume /tmp/sw --workers 4
        A killed (or deliberately stopped) run resumes from its journal
        and content-addressed cells; finished cells are never recomputed
        as long as the repro sources are unchanged.

    repro-sweep serve smoke --port 7463 --out /tmp/sw
    repro-sweep work --connect host:7463
        Distributed execution: ``serve`` coordinates the grid over TCP,
        leasing cells to any number of ``work`` processes (same source
        tree, any machine); a worker that crashes or goes silent
        forfeits its leases and the cells are requeued.  ``status
        --connect host:7463`` asks the live coordinator; ``tail
        --connect host:7463`` streams the obs event feed as JSONL.

    repro-sweep status /tmp/sw --watch 2
        Cells: done / failed / stale (computed under different code) /
        pending, plus the last journal entry; ``--watch`` polls until
        the sweep completes.

    repro-sweep report /tmp/sw -o report.txt --events-out sweep.jsonl
        Per-cell statistics (mean, 95% CI, p50/p95 over seeds), A/B
        scheduler tables, failure list; the JSONL export is a
        schema-v5 obs event stream repro-analyze can ingest.

    repro-sweep diff /tmp/base /tmp/cand
        Cell-by-cell mean deltas between two sweeps (two commits, two
        machines, two configs), flagging CI-separated changes.

Exit codes: 0 success, 1 usage/failed cells, 2 a store whose spec.json
this version refuses (such as a field it no longer has), 3 stopped early
(``--stop-after`` hit before the grid finished).
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from pathlib import Path
from typing import Optional

from repro.errors import ReproError
from repro.sweep.aggregate import (export_events_jsonl, fold_records,
                                   diff_cells, render_rank_report,
                                   render_report)
from repro.sweep.presets import PRESETS
from repro.sweep.runner import RunnerOptions, run_sweep
from repro.sweep.spec import SweepSpec, code_fingerprint
from repro.sweep.store import (ResultStore, StoredSpecError,
                               default_sweep_root)


def _store_for(args_out: Optional[str], name: str) -> ResultStore:
    root = Path(args_out) if args_out else default_sweep_root() / name
    return ResultStore(root)


def _runner_options(args) -> RunnerOptions:
    workers = args.workers
    if workers is None:
        workers = os.cpu_count() or 1
    options = RunnerOptions(
        workers=workers, timeout_s=args.timeout, retries=args.retries,
        verify=args.verify, stop_after=args.stop_after,
        lease_ttl_s=args.ttl,
        profile_dir=getattr(args, "profile_dir", None))
    options.validate()
    return options


def _progress(quiet: bool):
    if quiet:
        return lambda message: None
    return lambda message: print(f"  {message}")


def _records_in_grid_order(store: ResultStore, spec: SweepSpec) -> list:
    return [store.get(case.key()) for case in spec.expand()]


def _merge_shard_profiles(profile_dir: str) -> None:
    """Fold every ``*.profile.json`` shard into ``fleet.profile.json``."""
    import glob

    from repro.obs.stream import load_profile, merge_profiles
    fleet_path = os.path.join(profile_dir, "fleet.profile.json")
    shard_paths = sorted(
        path for path in glob.glob(
            os.path.join(profile_dir, "*.profile.json"))
        if os.path.abspath(path) != os.path.abspath(fleet_path))
    if not shard_paths:
        print(f"profiles: no shard profiles under {profile_dir} "
              "(all cells cached?)")
        return
    merged = merge_profiles([load_profile(path) for path in shard_paths])
    with open(fleet_path, "w", encoding="utf-8") as handle:
        handle.write(merged.to_json() + "\n")
    print(f"profiles: {len(shard_paths)} shard(s) merged -> {fleet_path} "
          f"({merged.total_events:,} events)")


def _finish(store: ResultStore, spec: SweepSpec, outcome,
            args) -> int:
    print(f"sweep {spec.name}: {outcome.computed} computed, "
          f"{outcome.cached} cached, {outcome.failed} failed, "
          f"{outcome.remaining} remaining "
          f"({outcome.elapsed_s:.1f}s wall)")
    if getattr(args, "events_out", None):
        records = _records_in_grid_order(store, spec)
        export_events_jsonl(args.events_out, records)
        print(f"events -> {args.events_out}")
    if getattr(args, "profile_dir", None):
        _merge_shard_profiles(args.profile_dir)
    if outcome.stopped:
        print("stopped early (--stop-after); run `repro-sweep resume "
              f"{store.root}` to finish")
        return 3
    if outcome.failed:
        return 1
    if not getattr(args, "quiet", False) and outcome.remaining == 0:
        records = _records_in_grid_order(store, spec)
        print()
        print(render_report(spec.name, records, spec.schedulers))
    return 0


def _spec_and_store(args):
    """Expand the preset and open (or create) its result store.

    Returns ``(spec, store)`` or an int exit code on a usage error.
    """
    name = args.preset if args.preset is not None else args.preset_opt
    if name is None:
        print(f"no preset given; choose from {sorted(PRESETS)}",
              file=sys.stderr)
        return 1
    if args.preset is not None and args.preset_opt is not None \
            and args.preset != args.preset_opt:
        print(f"conflicting presets: {args.preset!r} vs --preset "
              f"{args.preset_opt!r}", file=sys.stderr)
        return 1
    try:
        preset = PRESETS[name]
    except KeyError:
        print(f"unknown preset {name!r}; "
              f"choose from {sorted(PRESETS)}", file=sys.stderr)
        return 1
    kwargs = {}
    if args.seeds is not None:
        kwargs["n_seeds"] = args.seeds
    if args.seed is not None:
        kwargs["root_seed"] = args.seed
    spec = preset(**kwargs)
    store = _store_for(args.out, spec.name)
    if store.exists():
        stored = store.load_spec()
        if stored.as_dict() != spec.as_dict():
            print(f"{store.root} holds a different sweep "
                  f"({stored.name}); pass a fresh --out directory "
                  "or resume it instead", file=sys.stderr)
            return 1
    else:
        store.create(spec)
    return spec, store


def cmd_run(args: argparse.Namespace) -> int:
    prepared = _spec_and_store(args)
    if isinstance(prepared, int):
        return prepared
    spec, store = prepared
    with store:
        outcome = run_sweep(spec, store, _runner_options(args),
                            progress=_progress(args.quiet))
        return _finish(store, spec, outcome, args)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.sweep.dist.transport import TcpTransport
    prepared = _spec_and_store(args)
    if isinstance(prepared, int):
        return prepared
    spec, store = prepared
    # The bus powers the live `tail` feed; flight/metrics are per-case
    # concerns that live inside the workers, not here.
    obs = Observability(metrics=False, flight=0)
    transport = TcpTransport(
        args.host, args.port,
        on_bound=lambda t: print(f"serving {spec.name} on "
                                 f"{t.host}:{t.port}", flush=True))
    with store:
        outcome = run_sweep(spec, store, _runner_options(args), obs=obs,
                            progress=_progress(args.quiet),
                            transport=transport)
        return _finish(store, spec, outcome, args)


def cmd_work(args: argparse.Namespace) -> int:
    from repro.sweep.dist.transport import connect
    from repro.sweep.dist.worker import work_loop
    name = args.name or f"{socket.gethostname()}-{os.getpid()}"
    recorder = None
    if args.profile_dir is not None:
        from repro.obs.stream import ShardRecorder
        recorder = ShardRecorder(args.profile_dir, name)
    channel = connect(args.connect)
    try:
        computed = work_loop(
            channel, name, fingerprint=code_fingerprint(),
            say=_progress(args.quiet), max_cases=args.max_cases,
            fail_after=args.fail_after, recorder=recorder)
    finally:
        if recorder is not None:
            shard = recorder.close()
            if shard is not None:
                print(f"shard profile -> {shard}")
    print(f"worker {name}: {computed} case(s) computed")
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    from repro.sweep.dist.transport import connect
    channel = connect(args.connect)
    channel.send({"type": "watch"})
    try:
        while True:
            frame = channel.recv()
            if frame is None or frame.get("type") == "drain":
                return 0
            if frame.get("type") == "meta":
                # Same header events_to_jsonl writes, so a captured tail
                # is a valid repro-analyze input.
                line = {"kind": "meta",
                        "schema_version": frame.get("schema_version"),
                        "source": "repro.obs"}
            elif frame.get("type") == "event":
                line = frame["event"]
            else:
                continue
            print(json.dumps(line, separators=(",", ":"),
                             sort_keys=True), flush=True)
    finally:
        channel.close()


def cmd_resume(args: argparse.Namespace) -> int:
    store = ResultStore(args.dir)
    spec = store.load_spec()
    with store:
        outcome = run_sweep(spec, store, _runner_options(args),
                            progress=_progress(args.quiet))
        return _finish(store, spec, outcome, args)


def _status_connect(args: argparse.Namespace) -> int:
    """Ask a live ``repro-sweep serve`` coordinator for its counters."""
    from repro.sweep.dist.transport import connect
    while True:
        try:
            channel = connect(args.connect, timeout_s=5.0)
        except ReproError:
            if args.watch is not None:
                # Polling a coordinator that has finished and exited.
                print(f"coordinator at {args.connect} is gone")
                return 0
            raise
        channel.send({"type": "status"})
        reply = channel.recv()
        channel.close()
        if reply is None or reply.get("type") != "status":
            print(f"no status reply from {args.connect}",
                  file=sys.stderr)
            return 1
        done, total = reply["done"], reply["total"]
        print(f"sweep at {args.connect}: {done}/{total} done "
              f"({reply['computed']} computed, {reply['cached']} cached, "
              f"{reply['failed']} failed), {reply['leased']} leased, "
              f"{reply['pending']} pending")
        for name, info in sorted(reply.get("workers", {}).items()):
            print(f"  worker {name}: {info['leases']} lease(s), "
                  f"seen {info['seen_s_ago']:.1f}s ago")
        if done >= total:
            return 0 if reply["failed"] == 0 else 3
        if args.watch is None:
            return 3
        time.sleep(args.watch)


def cmd_status(args: argparse.Namespace) -> int:
    if args.connect:
        return _status_connect(args)
    if not args.dir:
        print("status needs a sweep store directory or --connect",
              file=sys.stderr)
        return 1
    store = ResultStore(args.dir)
    spec = store.load_spec()
    while True:
        counts = store.status(fingerprint=code_fingerprint())
        print(f"sweep {spec.name} at {store.root}")
        print(f"  cells: {counts['ok']} ok, {counts['failed']} failed, "
              f"{counts['stale']} stale, {counts['pending']} pending "
              f"(of {counts['total']})")
        entries = store.journal_entries()
        if entries:
            last = entries[-1]
            detail = ", ".join(f"{k}={v}" for k, v in sorted(last.items())
                               if k != "event")
            print(f"  journal: {len(entries)} entries, "
                  f"last = {last['event']} ({detail})")
        if counts["pending"] == 0 or args.watch is None:
            return (0 if counts["pending"] == 0
                    and counts["failed"] == 0 else 3)
        time.sleep(args.watch)


def cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.dir)
    spec = store.load_spec()
    records = _records_in_grid_order(store, spec)
    if args.rank:
        text = render_rank_report(spec.name, records, args.pivot)
    else:
        text = render_report(spec.name, records, spec.schedulers)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report -> {args.out}")
    else:
        print(text)
    if args.events_out:
        export_events_jsonl(args.events_out, records)
        print(f"events -> {args.events_out}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    base_store = ResultStore(args.baseline)
    cand_store = ResultStore(args.candidate)
    base_cells = fold_records(
        _records_in_grid_order(base_store, base_store.load_spec()))
    cand_cells = fold_records(
        _records_in_grid_order(cand_store, cand_store.load_spec()))
    print(diff_cells(base_cells, cand_cells))
    return 0


def _add_exec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: host cores; "
                             "0 = serial, in-process)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-case wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts after a crash/timeout "
                             "(default 1)")
    parser.add_argument("--verify", action="store_true",
                        help="attach the repro.verify invariant checker "
                             "inside every worker")
    parser.add_argument("--stop-after", type=int, default=None,
                        help="stop dispatching after N computed cases "
                             "(simulates a killed run; resume finishes)")
    parser.add_argument("--ttl", type=float, default=15.0,
                        help="lease TTL in seconds: a worker silent this "
                             "long forfeits its cells (default 15)")
    parser.add_argument("--events-out", metavar="PATH", default=None,
                        help="write the sweep as a schema-v5 obs event "
                             "stream (JSONL)")
    parser.add_argument("--profile-dir", metavar="DIR", default=None,
                        help="record per-worker shard event streams "
                             "(.events.jsonl.gz) and streaming profiles "
                             "here; shards auto-merge into "
                             "fleet.profile.json (see repro-analyze "
                             "merge)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress and the final "
                             "report")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Parallel, resumable experiment sweeps with "
                    "content-addressed result caching.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a preset sweep (see `run --help` for presets)")
    run.add_argument("preset", nargs="?", choices=sorted(PRESETS),
                     default=None, help="which grid to run")
    run.add_argument("--preset", dest="preset_opt", metavar="NAME",
                     choices=sorted(PRESETS), default=None,
                     help="which grid to run (same as the positional)")
    run.add_argument("--out", metavar="DIR", default=None,
                     help="result-store directory (default: "
                          "benchmarks/results/sweeps/<preset>)")
    run.add_argument("--seeds", type=int, default=None,
                     help="seeds per cell (overrides the preset)")
    run.add_argument("--seed", type=int, default=None,
                     help="root seed; per-cell seeds derive from it via "
                          "repro.sim.rng.derive_seed")
    _add_exec_options(run)
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser(
        "resume", help="continue a killed or stopped sweep from its "
                       "store directory")
    resume.add_argument("dir", help="sweep store directory")
    _add_exec_options(resume)
    resume.set_defaults(func=cmd_resume)

    serve = sub.add_parser(
        "serve", help="coordinate a sweep over TCP, leasing cells to "
                      "`repro-sweep work` processes")
    serve.add_argument("preset", nargs="?", choices=sorted(PRESETS),
                       default=None, help="which grid to serve")
    serve.add_argument("--preset", dest="preset_opt", metavar="NAME",
                       choices=sorted(PRESETS), default=None,
                       help="which grid to serve (same as the positional)")
    serve.add_argument("--out", metavar="DIR", default=None,
                       help="result-store directory (default: "
                            "benchmarks/results/sweeps/<preset>)")
    serve.add_argument("--seeds", type=int, default=None,
                       help="seeds per cell (overrides the preset)")
    serve.add_argument("--seed", type=int, default=None,
                       help="root seed; per-cell seeds derive from it")
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default 127.0.0.1; use "
                            "0.0.0.0 for a multi-machine fleet)")
    serve.add_argument("--port", type=int, default=7463,
                       help="listen port (default 7463; 0 picks a free "
                            "port, printed at startup)")
    _add_exec_options(serve)
    serve.set_defaults(func=cmd_serve)

    work = sub.add_parser(
        "work", help="join a served sweep as a worker")
    work.add_argument("--connect", required=True, metavar="HOST:PORT",
                      help="coordinator address")
    work.add_argument("--name", default=None,
                      help="worker name (default: <hostname>-<pid>)")
    work.add_argument("--max-cases", type=int, default=None,
                      help="disconnect cleanly after N cases (fleet "
                           "churn test hook)")
    work.add_argument("--fail-after", type=int, default=None,
                      help="hard-exit while holding a lease after N "
                           "cases (crash test hook)")
    work.add_argument("--profile-dir", metavar="DIR", default=None,
                      help="record this worker's shard event stream and "
                           "streaming profile here (merge shards with "
                           "repro-analyze merge)")
    work.add_argument("--quiet", action="store_true",
                      help="suppress per-case progress")
    work.set_defaults(func=cmd_work)

    tail = sub.add_parser(
        "tail", help="stream a serving coordinator's obs event feed "
                     "as JSONL")
    tail.add_argument("--connect", required=True, metavar="HOST:PORT",
                      help="coordinator address")
    tail.set_defaults(func=cmd_tail)

    status = sub.add_parser(
        "status", help="cell counts and journal tail for a sweep store "
                       "(or a live coordinator via --connect)")
    status.add_argument("dir", nargs="?", default=None,
                        help="sweep store directory")
    status.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="query a live `repro-sweep serve` "
                             "coordinator instead of a store directory")
    status.add_argument("--watch", type=float, metavar="SECONDS",
                        default=None,
                        help="poll every SECONDS until the sweep "
                             "completes")
    status.set_defaults(func=cmd_status)

    report = sub.add_parser(
        "report", help="statistics + A/B tables for a sweep store")
    report.add_argument("dir", help="sweep store directory")
    report.add_argument("-o", "--out", default=None,
                        help="write the report to a file")
    report.add_argument("--events-out", metavar="PATH", default=None,
                        help="also export the schema-v5 JSONL stream")
    report.add_argument("--rank", action="store_true",
                        help="render the ranked scheduler x workload "
                             "speedup matrix instead of the pairwise "
                             "tables (the tournament view)")
    report.add_argument("--pivot", default="coretime", metavar="NAME",
                        help="baseline scheduler for --rank speedups "
                             "(default: coretime)")
    report.set_defaults(func=cmd_report)

    diff = sub.add_parser(
        "diff", help="cell-by-cell mean deltas between two sweep stores")
    diff.add_argument("baseline", help="baseline sweep store directory")
    diff.add_argument("candidate", help="candidate sweep store directory")
    diff.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StoredSpecError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted — `repro-sweep resume` continues from the "
              "journal", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
