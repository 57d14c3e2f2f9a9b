"""``repro-analyze``: offline analysis CLI over recorded event streams.

Record a run first (any experiment accepts the flags)::

    python -m repro.bench fig2 --events-out fig2.events.jsonl \
        --metrics-out fig2.metrics.json

then explain it::

    repro-analyze report fig2.events.jsonl        # attribution & co
    repro-analyze folded fig2.events.jsonl -o fig2.folded
    repro-analyze timeline fig2.events.jsonl
    repro-analyze diff base.events.jsonl cand.events.jsonl

``report`` prints per-object attribution, per-core time breakdowns, the
migration matrix, the lock-contention table and cache-occupancy
timelines, one section per run, in one constant-memory pass over
recordings of any size.  ``diff`` reports per-metric deltas with
confidence intervals so scheduler A/Bs and regression checks are one
command; it reads each recording through the same pass, and
``timeline`` reads one twice, so neither holds a run in memory.

Fleet-scale analysis (:mod:`repro.obs.stream`)::

    repro-analyze profile shard0.events.jsonl.gz -o shard0.profile.json
    repro-analyze merge shards/*.profile.json -o fleet.profile.json
    repro-analyze tail --connect HOST:PORT       # live sweep attribution
    repro-analyze synth -o big.events.jsonl.gz --events 2500000

Also runnable as ``python -m repro.obs.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain, groupby
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProfileError, ReproError
from repro.obs.events import Event, RunMarker
from repro.obs.export import (open_text, render_timeline, timeline_extent,
                              write_jsonl)
from repro.obs.profile import (EventDecoder, diff_metrics, folded_stacks,
                               iter_jsonl, render_diff)
from repro.obs.stream import (RunProfile, StreamProfiler, diff_sections,
                              load_profile, merge_profiles, synthesize)


def _select_runs(labels: Sequence[str], run_filter: Optional[str],
                 path: str) -> List[int]:
    """The indices of the runs of ``path`` that ``run_filter`` picks (all
    when None), given the runs' labels.

    ``run_filter`` selects by label, or by index when it is an integer.
    """
    if not labels:
        raise ProfileError(f"{path}: stream contains no events")
    if run_filter is None:
        return list(range(len(labels)))
    try:
        index = int(run_filter)
    except ValueError:
        selected = [index for index, label in enumerate(labels)
                    if label == run_filter]
        if not selected:
            raise ProfileError(
                f"{path}: no run labelled {run_filter!r}; "
                f"stream has {list(labels)}")
        return selected
    if not 0 <= index < len(labels):
        raise ProfileError(
            f"{path}: run index {index} out of range (stream has "
            f"{len(labels)} runs)")
    return [index]


def _profiled_runs(path: str, run_filter: Optional[str]) -> List[RunProfile]:
    """The selected runs of ``path``, profiled in one streaming pass."""
    sections = StreamProfiler().feed_path(path).profile.sections
    return [sections[index] for index in _select_runs(
        [section.display_label for section in sections], run_filter, path)]


def _runs(events: Iterable[Event]) -> Iterator[Tuple[str, Iterator[Event]]]:
    """Each run's label and events, read lazily (before the next run);
    events before the first marker are a run labelled ``run``."""
    markers = 0

    def run_of(event: Event) -> int:
        nonlocal markers
        if type(event) is RunMarker:
            markers += 1
        return markers

    for _, run in groupby(events, key=run_of):
        first = next(run)
        if type(first) is RunMarker:
            yield first.label, run
        else:
            yield "run", chain((first,), run)


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")


def _apply_rss_limit(max_rss_mb: Optional[int]) -> None:
    """Hard-cap the address space before any events are read.

    Turns the out-of-core claim into an enforced contract: if a
    streaming pass buffered the recording, the allocation would fail
    instead of silently succeeding on a big machine.
    """
    if max_rss_mb is None:
        return
    if max_rss_mb <= 0:
        raise ProfileError(f"--max-rss-mb must be positive, got {max_rss_mb}")
    try:
        import resource
    except ImportError:                              # non-POSIX platform
        raise ProfileError(
            "--max-rss-mb requires the POSIX resource module")
    limit = max_rss_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _cmd_report(args) -> int:
    _apply_rss_limit(args.max_rss_mb)
    parts = [section.render(top=args.top, width=args.width)
             for section in _profiled_runs(args.events, args.run)]
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        rows = [f"  {name:<44} {value}"
                for name, value in sorted(snapshot.items())
                if isinstance(value, (int, float))]
        if rows:
            parts.append("Metrics snapshot (scalars)\n" + "\n".join(rows))
    _write_or_print("\n\n".join(parts), args.out)
    return 0


def _cmd_diff(args) -> int:
    # The diff only reads the sections, so a recording diffed against
    # itself is profiled once.
    profiled = {path: _profiled_runs(path, args.run)
                for path in dict.fromkeys((args.baseline, args.candidate))}
    deltas = diff_sections(profiled[args.baseline], profiled[args.candidate])
    parts = [f"baseline:  {args.baseline}",
             f"candidate: {args.candidate}",
             "",
             render_diff(deltas)]
    if args.metrics_baseline and args.metrics_candidate:
        with open(args.metrics_baseline, "r", encoding="utf-8") as handle:
            mbase = json.load(handle)
        with open(args.metrics_candidate, "r", encoding="utf-8") as handle:
            mcand = json.load(handle)
        parts.extend(["", "Metrics snapshots:",
                      render_diff(diff_metrics(mbase, mcand))])
    _write_or_print("\n".join(parts), args.out)
    return 0


def _cmd_folded(args) -> int:
    lines: List[str] = []
    for section in _profiled_runs(args.events, args.run):
        lines.extend(folded_stacks(section.objects.result(),
                                   label=section.display_label))
    if not lines:
        print("(no attributable cycles in stream)", file=sys.stderr)
        return 1
    _write_or_print("\n".join(lines), args.out)
    return 0


def _cmd_timeline(args) -> int:
    # A run's bucket width is known only at its end: one pass finds each
    # run's extent, a second draws each chosen run as it goes by.
    labels: List[str] = []
    extents = []
    for label, run in _runs(iter_jsonl(args.events)):
        labels.append(label)
        extents.append(timeline_extent(run))
    chosen = set(_select_runs(labels, args.run, args.events))
    for index, (label, run) in enumerate(_runs(iter_jsonl(args.events))):
        if index in chosen:
            print(f"=== run: {label} ===")
            print(render_timeline(run, extents[index], width=args.width))
            print()
    return 0


def _cmd_profile(args) -> int:
    _apply_rss_limit(args.max_rss_mb)
    profiler = StreamProfiler().feed_path(args.events)
    if profiler.events_seen == 0:
        raise ProfileError(f"{args.events}: stream contains no events")
    with open_text(args.out, "w") as handle:
        handle.write(profiler.profile.to_json() + "\n")
    print(f"wrote {args.out} ({profiler.events_seen:,} events, "
          f"{len(profiler.profile.sections)} run(s))")
    return 0


def _cmd_merge(args) -> int:
    merged = merge_profiles([load_profile(path) for path in args.profiles])
    wrote = False
    if args.out is not None:
        with open_text(args.out, "w") as handle:
            handle.write(merged.to_json() + "\n")
        print(f"wrote {args.out} ({len(args.profiles)} shard(s), "
              f"{merged.total_events:,} events)")
        wrote = True
    if args.report or not wrote:
        _write_or_print(merged.render(top=args.top, width=args.width), None)
    return 0


def _cmd_tail(args) -> int:
    # Lazy: the analyzer works without the sweep layer installed wiring.
    from repro.sweep.dist.transport import connect

    profiler = StreamProfiler()
    decoder = EventDecoder(source=args.connect)
    channel = connect(args.connect)
    try:
        channel.send({"type": "watch"})
        last_render = time.monotonic()
        while True:
            frame = channel.recv()
            if frame is None or frame.get("type") == "drain":
                break
            kind = frame.get("type")
            if kind == "meta":
                decoder.decode(
                    {"kind": "meta",
                     "schema_version": frame.get("schema_version")},
                    where="watch meta")
            elif kind == "event":
                event = decoder.decode(
                    frame.get("event", {}),
                    where=f"frame {profiler.events_seen + 1}")
                if event is not None:
                    profiler.feed(event)
            else:
                continue                 # future frame kinds: skip
            if args.max_events and profiler.events_seen >= args.max_events:
                break
            now = time.monotonic()
            if (args.interval > 0 and profiler.events_seen
                    and now - last_render >= args.interval):
                print(profiler.render(top=args.top, width=args.width))
                print(flush=True)
                last_render = now
    finally:
        channel.close()
    if profiler.events_seen == 0:
        print("(watch feed closed before any events)", file=sys.stderr)
        return 1
    _write_or_print(profiler.render(top=args.top, width=args.width),
                    args.out)
    return 0


def _cmd_synth(args) -> int:
    # Checked before the output file is opened, so a bad count leaves
    # no file behind.
    for flag in ("events", "cores", "objects", "threads"):
        value = getattr(args, flag)
        if value < 1:
            raise ProfileError(f"--{flag} must be at least 1, got {value}")
    write_jsonl(args.out,
                synthesize(args.events, seed=args.seed, label=args.label,
                           n_cores=args.cores, n_objects=args.objects,
                           n_threads=args.threads))
    print(f"wrote {args.out} ({args.events:,} events)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Offline performance attribution over JSONL event "
                    "streams recorded by repro.obs.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="per-object attribution, per-core breakdown, "
                       "migration matrix, lock table, occupancy timeline")
    report.add_argument("events", help="events JSONL path")
    report.add_argument("--metrics", metavar="PATH", default=None,
                        help="metrics snapshot JSON to append (scalars)")
    report.add_argument("--top", type=int, default=10,
                        help="rows in top-N tables (default 10)")
    report.add_argument("--width", type=int, default=72,
                        help="timeline width in columns (default 72)")
    report.add_argument("--run", default=None,
                        help="restrict to one run (label or index)")
    report.add_argument("--max-rss-mb", type=int, default=None,
                        metavar="MB",
                        help="hard address-space cap applied before "
                             "reading anything (POSIX only; proves the "
                             "report is out-of-core)")
    report.add_argument("-o", "--out", default=None,
                        help="write the report to a file instead of stdout")
    report.set_defaults(func=_cmd_report)

    diff = sub.add_parser(
        "diff", help="per-metric deltas between two recordings, with "
                     "confidence intervals")
    diff.add_argument("baseline", help="baseline events JSONL")
    diff.add_argument("candidate", help="candidate events JSONL")
    diff.add_argument("--metrics-baseline", metavar="PATH", default=None,
                      help="baseline metrics snapshot JSON")
    diff.add_argument("--metrics-candidate", metavar="PATH", default=None,
                      help="candidate metrics snapshot JSON")
    diff.add_argument("--run", default=None,
                      help="compare only this run from each stream "
                           "(label or index)")
    diff.add_argument("-o", "--out", default=None,
                      help="write the diff to a file instead of stdout")
    diff.set_defaults(func=_cmd_diff)

    folded = sub.add_parser(
        "folded", help="folded-stack output (workload;object;phase "
                       "cycles) for speedscope / flamegraph.pl")
    folded.add_argument("events", help="events JSONL path")
    folded.add_argument("--run", default=None,
                        help="restrict to one run (label or index)")
    folded.add_argument("-o", "--out", default=None,
                        help="write folded stacks to a file")
    folded.set_defaults(func=_cmd_folded)

    timeline = sub.add_parser(
        "timeline", help="per-core ops/bucket ASCII timeline")
    timeline.add_argument("events", help="events JSONL path")
    timeline.add_argument("--width", type=int, default=72)
    timeline.add_argument("--run", default=None,
                          help="restrict to one run (label or index)")
    timeline.set_defaults(func=_cmd_timeline)

    profile = sub.add_parser(
        "profile", help="stream a recording into a mergeable profile "
                        "artifact (constant memory)")
    profile.add_argument("events", help="events JSONL path (.gz ok)")
    profile.add_argument("-o", "--out", required=True,
                         help="profile JSON output path (.gz ok)")
    profile.add_argument("--max-rss-mb", type=int, default=None,
                         metavar="MB",
                         help="hard address-space cap (POSIX only)")
    profile.set_defaults(func=_cmd_profile)

    merge = sub.add_parser(
        "merge", help="merge per-shard profile artifacts; equals the "
                      "profile of the concatenated recordings")
    merge.add_argument("profiles", nargs="+",
                       help="profile JSON paths (repro-analyze profile "
                            "output, or sweep --profile-dir shards)")
    merge.add_argument("-o", "--out", default=None,
                       help="write the merged profile JSON (.gz ok); "
                            "without it the merged report is printed")
    merge.add_argument("--report", action="store_true",
                       help="also print the merged report")
    merge.add_argument("--top", type=int, default=10,
                       help="rows in top-N tables (default 10)")
    merge.add_argument("--width", type=int, default=72,
                       help="timeline width in columns (default 72)")
    merge.set_defaults(func=_cmd_merge)

    tail = sub.add_parser(
        "tail", help="attach to a live sweep coordinator's watch feed "
                     "and profile it as it streams")
    tail.add_argument("--connect", required=True, metavar="HOST:PORT",
                      help="coordinator watch address "
                           "(repro-sweep run --serve)")
    tail.add_argument("--interval", type=float, default=2.0,
                      help="seconds between interim reports "
                           "(default 2.0; 0 disables)")
    tail.add_argument("--max-events", type=int, default=None,
                      help="detach after this many events")
    tail.add_argument("--top", type=int, default=10,
                      help="rows in top-N tables (default 10)")
    tail.add_argument("--width", type=int, default=72,
                      help="timeline width in columns (default 72)")
    tail.add_argument("-o", "--out", default=None,
                      help="write the final report to a file")
    tail.set_defaults(func=_cmd_tail)

    synth = sub.add_parser(
        "synth", help="generate a synthetic recording of any size "
                      "(deterministic per seed; exercises every reducer)")
    synth.add_argument("-o", "--out", required=True,
                       help="events JSONL output path (.gz recommended)")
    synth.add_argument("--events", type=int, required=True,
                       help="number of events to generate")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--label", default="synthetic",
                       help="run label (default 'synthetic')")
    synth.add_argument("--cores", type=int, default=8)
    synth.add_argument("--objects", type=int, default=64)
    synth.add_argument("--threads", type=int, default=32)
    synth.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-analyze: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"repro-analyze: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head & co; exiting quietly is the contract.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
