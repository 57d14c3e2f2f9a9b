"""On-disk result store and crash journal for one sweep.

Layout, under ``benchmarks/results/sweeps/<name>/`` by default::

    spec.json             the SweepSpec (so ``repro-sweep resume DIR``
                          needs nothing but the directory)
    cases/<key>.json      one record per computed cell, named by the
                          case's content hash (SweepCase.key())
    journal.jsonl         append-only progress log (started / finished /
                          failed / cached / interrupted), flushed per
                          line so a SIGKILL loses at most one entry

Case records hold only *deterministic* fields (the case, its
:class:`~repro.bench.harness.BenchPoint` result or failure evidence, and
the code fingerprint they were computed under) so a cell computed by a
parallel worker is byte-identical to the same cell computed serially —
the property the acceptance tests pin.  Wall-clock timings and retry
counts are observability, not results; they live in the journal.

Lookups are content-addressed on ``(case key, code fingerprint)``: a
record whose fingerprint no longer matches the current source tree is
treated as missing and recomputed in place.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ConfigError, ReproError
from repro.sweep.spec import SweepSpec

#: Version of the per-case record layout.
RECORD_VERSION = 1


class StoreError(ReproError):
    """A sweep store is missing, locked or malformed."""


class StoredSpecError(ConfigError):
    """A store's ``spec.json`` that this version refuses, such as one
    naming a field that was removed since the store was written."""


def default_sweep_root() -> Path:
    """``benchmarks/results/sweeps`` under the repo root (cwd fallback)."""
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").is_file():
            return parent / "benchmarks" / "results" / "sweeps"
    return Path.cwd() / "benchmarks" / "results" / "sweeps"


def make_record(case_key: str, case_dict: dict, fingerprint: str,
                status: str, point: Optional[dict] = None,
                error: Optional[str] = None,
                flight: Optional[List[dict]] = None) -> dict:
    """Canonical per-case record (deterministic fields only)."""
    if status not in ("ok", "failed"):
        raise StoreError(f"bad record status {status!r}")
    return {
        "record_version": RECORD_VERSION,
        "case_key": case_key,
        "fingerprint": fingerprint,
        "status": status,
        "case": case_dict,
        "point": point,
        "error": error,
        "flight": flight,
    }


class ResultStore:
    """One sweep's results directory (single-writer, many readers)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.cases_dir = self.root / "cases"
        self._journal_handle = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create(self, spec: SweepSpec) -> "ResultStore":
        self.cases_dir.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.root / "spec.json", spec.to_json() + "\n")
        return self

    def exists(self) -> bool:
        return (self.root / "spec.json").is_file()

    def load_spec(self) -> SweepSpec:
        path = self.root / "spec.json"
        if not path.is_file():
            raise StoreError(
                f"{self.root} is not a sweep store (no spec.json); "
                "run `repro-sweep run` first")
        try:
            return SweepSpec.from_json(path.read_text(encoding="utf-8"))
        except ConfigError as exc:
            raise StoredSpecError(f"{path}: {exc}") from exc

    # ------------------------------------------------------------------
    # case records
    # ------------------------------------------------------------------

    def _case_path(self, case_key: str) -> Path:
        return self.cases_dir / f"{case_key}.json"

    def get(self, case_key: str,
            fingerprint: Optional[str] = None) -> Optional[dict]:
        """The stored record for ``case_key``, or None.

        With ``fingerprint`` given, a record computed under different
        code is treated as missing (it will be recomputed and replaced).
        """
        path = self._case_path(case_key)
        if not path.is_file():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            return None          # torn write from a killed run: recompute
        if fingerprint is not None \
                and record.get("fingerprint") != fingerprint:
            return None
        return record

    def put(self, record: dict) -> Path:
        """Atomically persist one case record."""
        self.cases_dir.mkdir(parents=True, exist_ok=True)
        path = self._case_path(record["case_key"])
        text = json.dumps(record, indent=1, sort_keys=True) + "\n"
        self._write_atomic(path, text)
        return path

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    def journal(self, event: str, **fields) -> None:
        """Append one journal line and flush it to the OS immediately."""
        if self._journal_handle is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._journal_handle = open(self.journal_path, "a",
                                        encoding="utf-8")
        entry = {"event": event}
        entry.update(fields)
        self._journal_handle.write(
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
            + "\n")
        self._journal_handle.flush()

    def close(self) -> None:
        if self._journal_handle is not None:
            self._journal_handle.close()
            self._journal_handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def journal_entries(self) -> List[dict]:
        if not self.journal_path.is_file():
            return []
        entries = []
        with open(self.journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    continue     # torn tail line from a kill
        return entries

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def status(self, fingerprint: Optional[str] = None) -> Dict[str, int]:
        """Counts of computed cells vs the stored spec's full grid."""
        spec = self.load_spec()
        cases = spec.expand()
        done = failed = stale = 0
        for case in cases:
            record = self.get(case.key())
            if record is None:
                continue
            if fingerprint is not None \
                    and record.get("fingerprint") != fingerprint:
                stale += 1
            elif record["status"] == "ok":
                done += 1
            else:
                failed += 1
        return {"total": len(cases), "ok": done, "failed": failed,
                "stale": stale,
                "pending": len(cases) - done - failed - stale}
