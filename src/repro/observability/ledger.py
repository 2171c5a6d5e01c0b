"""Append-only telemetry ledger: one fsynced record per run.

Metrics and spans die with the process; the ledger is what survives.
Every batch (and every ``repro analyze --store`` run) appends one JSON
record to ``<store>/telemetry/runs.jsonl`` capturing per-stage wall/CPU
totals from the span tree, the metrics snapshot, the semantic config
fingerprint, and host info — the longitudinal series that ``repro perf``
fits the paper's piece-wise linear model to for self-regression checks.

The file format copies the write-ahead journal's crash discipline
(:mod:`repro.service.journal`): each record is appended, flushed, and
fsynced as one line, and :meth:`RunLedger.records` tolerates a torn tail
or interleaved garbage by skipping unparseable lines.  Writers never let
a ledger failure sink the run they are recording.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional

import numpy

from repro import BLAS_THREAD_VARS
from repro.observability.spans import Profile

__all__ = ["LEDGER_FORMAT", "RunLedger", "host_info", "stage_table"]

#: Ledger record scheme identifier; bump on incompatible schema changes.
LEDGER_FORMAT = "repro-telemetry/1"


def _blas_vendor() -> str:
    """``"<name> <version>"`` of the BLAS numpy was built against."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _installed_version(distribution: str) -> Optional[str]:
    """Installed version of ``distribution`` without importing it
    (``None`` when it is not installed)."""
    from importlib import metadata

    try:
        return metadata.version(distribution)
    except metadata.PackageNotFoundError:
        return None


def host_info() -> Dict[str, object]:
    """Where this run happened: node, platform, python, pid, the
    numpy/scipy versions (scipy ``None`` when it is not installed; it is
    read from the package metadata, not imported) and BLAS vendor, and
    the BLAS/OpenMP thread variables as set after ``import repro``
    (``None`` for an unset one), so a level shift can be told apart from
    a change of the linear-algebra environment (see ``repro perf
    check``)."""
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "pid": os.getpid(),
        "numpy": numpy.__version__,
        "scipy": _installed_version("scipy"),
        "blas": _blas_vendor(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def stage_table(profile: Optional[Profile]) -> Dict[str, Dict[str, object]]:
    """Per-stage aggregate from a span tree, keyed by stage name.

    Each entry carries ``calls``/``wall_s``/``self_wall_s``/``cpu_s``
    rounded to microseconds — the duration series ``repro perf`` fits.
    Returns ``{}`` for ``None`` (observability was disabled).
    """
    if profile is None:
        return {}
    table: Dict[str, Dict[str, object]] = {}
    for row in profile.stage_totals():
        table[row.name] = {
            "calls": row.count,
            "wall_s": round(row.wall_s, 6),
            "self_wall_s": round(row.self_wall_s, 6),
            "cpu_s": round(row.cpu_s, 6),
        }
    return table


class RunLedger:
    """The ``telemetry/runs.jsonl`` file inside one result store."""

    def __init__(self, store_root: str) -> None:
        self.path = os.path.join(store_root, "telemetry", "runs.jsonl")

    # ------------------------------------------------------------------
    def build_record(
        self,
        kind: str,
        wall_s: float,
        stages: Dict[str, Dict[str, object]],
        metrics: Dict[str, object],
        config_fingerprint: Optional[str] = None,
        **extra: object,
    ) -> Dict[str, object]:
        """Assemble one schema-complete ledger record (not yet written).

        ``kind`` is ``"batch"`` or ``"analyze"``; ``extra`` keys (job
        state counts, n_jobs, ...) land at the top level so downstream
        readers stay flat.
        """
        record: Dict[str, object] = {
            "format": LEDGER_FORMAT,
            "kind": kind,
            "ts": time.time(),
            "host": host_info(),
            "config_fingerprint": config_fingerprint,
            "wall_s": round(float(wall_s), 6),
            "stages": stages,
            "metrics": metrics,
        }
        for key, value in extra.items():
            if key not in record:
                record[key] = value
        return record

    def append(self, record: Dict[str, object]) -> None:
        """Append one record: single line, flushed and fsynced.

        A crash mid-append leaves at most one torn line at the tail,
        which :meth:`records` skips.
        """
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "a") as handle:
            json.dump(record, handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """Every well-formed record, oldest first.

        Torn tails, corrupt lines, and records of a foreign format are
        skipped, never raised — history survives partial damage.
        """
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, object]] = []
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (
                    isinstance(record, dict)
                    and record.get("format") == LEDGER_FORMAT
                ):
                    out.append(record)
        return out

    def __len__(self) -> int:
        return len(self.records())

    def __repr__(self) -> str:
        return f"RunLedger({self.path!r})"
