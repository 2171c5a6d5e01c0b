"""Trace deserialization — inverse of :mod:`repro.trace.writer`.

Two read policies (:class:`ReadPolicy`):

* **STRICT** (default) — unknown record tags, missing sections, ids absent
  from the dictionary, malformed fields, and non-finite/negative numbers
  all raise :class:`~repro.errors.TraceFormatError` with the offending
  line number.  A strict read that returns is a guarantee the file is
  exactly what the writer produced.
* **SALVAGE** — damaged lines are *dropped, counted, and reported* instead
  of aborting the read: production traces arrive truncated, bit-rotted and
  clock-skewed, and one bad byte must not cost the other 99.9% of the
  records.  :func:`read_trace_salvaged` returns the recovered
  :class:`~repro.trace.records.Trace` together with a
  :class:`SalvageReport` itemizing every drop by reason.  Only when
  *nothing* is recoverable (no header, or no usable ``ranks`` and no valid
  records) does salvage raise :class:`~repro.errors.SalvageError`.
"""

from __future__ import annotations

import enum
import functools
import io
import math
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Tuple, Union
from urllib.parse import unquote

from repro.errors import SalvageError, TraceFormatError
from repro.observability.context import counter as _metric_counter
from repro.observability.context import span as _span
from repro.trace.pcf import EventDictionary
from repro.trace.records import (
    InstrumentationRecord,
    SampleRecord,
    StateKind,
    StateRecord,
    Trace,
)
from repro.trace.writer import FORMAT_HEADER

__all__ = [
    "ReadPolicy",
    "SalvageReport",
    "read_trace",
    "read_trace_salvaged",
    "load_trace_text",
    "salvage_trace_text",
]


class ReadPolicy(enum.Enum):
    """How the reader treats damaged input."""

    STRICT = "strict"
    SALVAGE = "salvage"


@dataclass
class SalvageReport:
    """What a salvage-mode read dropped, and why.

    ``reasons`` counts drop events by category (``malformed-record``,
    ``unknown-tag``, ``unknown-id``, ``bad-timestamp``, ``rank-out-of-range``,
    ``duplicate-record``, ``non-finite-counter``, ``header``,
    ``dictionary``).  ``first_bad``/``last_bad`` pin the offending region
    of the file for a human with an editor.  ``non-finite-counter`` drops
    remove a single counter entry, not the whole record, so they are
    excluded from ``n_lines_dropped``.
    """

    n_record_lines: int = 0
    n_records_kept: int = 0
    n_lines_dropped: int = 0
    n_counters_dropped: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    first_bad: Optional[Tuple[int, str]] = None
    last_bad: Optional[Tuple[int, str]] = None
    inferred_ranks: bool = False

    def _note(self, lineno: int, line: str, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        clipped = line if len(line) <= 120 else line[:117] + "..."
        if self.first_bad is None:
            self.first_bad = (lineno, clipped)
        self.last_bad = (lineno, clipped)

    def drop_line(self, lineno: int, line: str, reason: str) -> None:
        """Record one whole-line drop."""
        self.n_lines_dropped += 1
        self._note(lineno, line, reason)

    def drop_counter(self, lineno: int, item: str) -> None:
        """Record one non-finite counter entry removed from a kept record."""
        self.n_counters_dropped += 1
        self._note(lineno, item, "non-finite-counter")

    @property
    def clean(self) -> bool:
        """True when nothing was dropped or inferred."""
        return (
            self.n_lines_dropped == 0
            and self.n_counters_dropped == 0
            and not self.inferred_ranks
        )

    @property
    def drop_fraction(self) -> float:
        """Fraction of record lines dropped."""
        if self.n_record_lines == 0:
            return 0.0
        return self.n_lines_dropped / self.n_record_lines

    def summary(self) -> str:
        """Human-readable multi-line rendering (CLI output)."""
        if self.clean:
            return f"salvage: clean — all {self.n_records_kept} records read"
        lines = [
            f"salvage: kept {self.n_records_kept}/{self.n_record_lines} records "
            f"({self.n_lines_dropped} lines dropped, "
            f"{self.n_counters_dropped} counter entries dropped)"
        ]
        for reason in sorted(self.reasons):
            lines.append(f"  {reason:<22} {self.reasons[reason]}")
        if self.first_bad is not None:
            lines.append(f"  first bad line {self.first_bad[0]}: {self.first_bad[1]!r}")
        if self.last_bad is not None and self.last_bad != self.first_bad:
            lines.append(f"  last bad line  {self.last_bad[0]}: {self.last_bad[1]!r}")
        if self.inferred_ranks:
            lines.append("  rank count inferred from records (header damaged)")
        return "\n".join(lines)


def read_trace(
    source: Union[str, IO[str]], policy: ReadPolicy = ReadPolicy.STRICT
) -> Trace:
    """Read a trace from a path or text stream.

    With ``policy=ReadPolicy.SALVAGE`` damaged lines are skipped silently;
    use :func:`read_trace_salvaged` when the drop report matters (it
    almost always does).
    """
    trace, _report = _read_source(source, policy)
    return trace


def read_trace_salvaged(source: Union[str, IO[str]]) -> Tuple[Trace, SalvageReport]:
    """Salvage-read a trace, returning what survived plus the drop report."""
    return _read_source(source, ReadPolicy.SALVAGE)


def load_trace_text(text: str, policy: ReadPolicy = ReadPolicy.STRICT) -> Trace:
    """Parse a trace from a string (round-trip test helper)."""
    trace, _report = _read(io.StringIO(text), policy)
    return trace


def salvage_trace_text(text: str) -> Tuple[Trace, SalvageReport]:
    """Salvage-parse a trace from a string, with the drop report."""
    return _read(io.StringIO(text), ReadPolicy.SALVAGE)


def _read_source(
    source: Union[str, IO[str]], policy: ReadPolicy
) -> Tuple[Trace, SalvageReport]:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return _read(handle, policy)
    return _read(source, policy)


def _unquote(token: str) -> str:
    return "" if token == "-" else unquote(token)


def _fail(lineno: int, message: str, reason: str) -> None:
    """Raise a :class:`TraceFormatError` tagged with a salvage reason."""
    error = TraceFormatError(f"line {lineno}: {message}")
    error.reason = reason  # type: ignore[attr-defined]
    raise error


def _parse_counters(
    token: str,
    dictionary: EventDictionary,
    lineno: int,
    policy: ReadPolicy,
    report: SalvageReport,
) -> Dict[str, float]:
    if token == "-":
        return {}
    counters: Dict[str, float] = {}
    for item in token.split(","):
        cid_text, sep, value_text = item.partition("=")
        if not sep:
            _fail(lineno, f"malformed counter item {item!r}", "malformed-record")
        try:
            cid = int(cid_text)
            value = float(value_text)
        except ValueError:
            _fail(lineno, f"malformed counter item {item!r}", "malformed-record")
        if not math.isfinite(value):
            # A failed PMU read: drop the entry in salvage (the record's
            # other counters are still good), refuse the file in strict.
            if policy is ReadPolicy.STRICT:
                _fail(
                    lineno, f"non-finite counter value {item!r}", "non-finite-counter"
                )
            report.drop_counter(lineno, item)
            continue
        try:
            name = dictionary.counter_name(cid)
        except TraceFormatError:
            _fail(lineno, f"counter id {cid} not in event dictionary", "unknown-id")
        counters[name] = value
    return counters


def _parse_frames(token: str, lineno: int) -> Tuple[Tuple[str, str, int], ...]:
    if token == "-":
        return ()
    try:
        return _frames(token)
    except ValueError as exc:
        _fail(lineno, str(exc), "malformed-record")


@functools.lru_cache(maxsize=4096)
def _frames(token: str) -> Tuple[Tuple[str, str, int], ...]:
    """Frame triples of a call-stack token, or ``ValueError``.

    Memoized: a trace repeats a handful of distinct stacks thousands of
    times, and the triples are immutable, so records can share them.
    """
    frames: List[Tuple[str, str, int]] = []
    for item in token.split("|"):
        parts = item.split("@")
        if len(parts) != 3:
            raise ValueError(f"malformed frame {item!r}")
        routine, path, line_text = parts
        try:
            line = int(line_text)
        except ValueError:
            raise ValueError(f"malformed frame line {item!r}") from None
        frames.append((_unquote(routine), _unquote(path), line))
    return tuple(frames)


def _parse_time(text: str, lineno: int, what: str = "timestamp") -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        _fail(lineno, f"{what} must be finite and >= 0, got {text!r}", "bad-timestamp")
    return value


def _parse_record(
    tag: str,
    fields: List[str],
    dictionary: EventDictionary,
    lineno: int,
    policy: ReadPolicy,
    report: SalvageReport,
):
    """Parse one record line into a typed record, or raise (tagged)."""
    if tag == "S":
        rank, t0, t1, sid, label = fields
        try:
            kind = StateKind(dictionary.state_name(int(sid)))
        except TraceFormatError:
            _fail(lineno, f"state id {sid} not in event dictionary", "unknown-id")
        return StateRecord(
            rank=int(rank),
            t_start=_parse_time(t0, lineno, "state start"),
            t_end=_parse_time(t1, lineno, "state end"),
            kind=kind,
            label=_unquote(label),
        )
    if tag == "I":
        rank, t, marker, call, counters = fields
        return InstrumentationRecord(
            rank=int(rank),
            time=_parse_time(t, lineno),
            marker=marker,
            mpi_call=_unquote(call),
            counters=_parse_counters(counters, dictionary, lineno, policy, report),
        )
    if tag == "P":
        rank, t, counters, frames = fields
        return SampleRecord(
            rank=int(rank),
            time=_parse_time(t, lineno),
            counters=_parse_counters(counters, dictionary, lineno, policy, report),
            frames=_parse_frames(frames, lineno),
        )
    _fail(lineno, f"unknown record tag {tag!r}", "unknown-tag")


def _salvage_dictionary(
    dict_lines: List[Tuple[int, str]], report: SalvageReport
) -> EventDictionary:
    """Parse the dictionary keeping every line that parses in context.

    Quadratic in the dictionary size, which is tens of lines — the price
    of reusing :meth:`EventDictionary.from_lines` as the single source of
    parsing truth.
    """
    accepted: List[str] = []
    for lineno, line in dict_lines:
        try:
            EventDictionary.from_lines(accepted + [line])
        except TraceFormatError:
            report.drop_line(lineno, line, "dictionary")
        else:
            accepted.append(line)
    return EventDictionary.from_lines(accepted)


def _read(handle: IO[str], policy: ReadPolicy) -> Tuple[Trace, SalvageReport]:
    with _span("read_trace", policy=policy.value):
        trace, report = _read_impl(handle, policy)
    _metric_counter("read.records_kept").inc(trace.n_records)
    _metric_counter("read.lines_dropped").inc(report.n_lines_dropped)
    return trace, report


def _read_impl(handle: IO[str], policy: ReadPolicy) -> Tuple[Trace, SalvageReport]:
    salvage = policy is ReadPolicy.SALVAGE
    report = SalvageReport()
    lines = handle.read().splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        message = (
            f"missing trace header; expected {FORMAT_HEADER!r}, got {lines[0]!r}"
            if lines
            else "empty trace file"
        )
        # No magic header means this is not a trace at any damage level.
        raise SalvageError(message) if salvage else TraceFormatError(message)

    app_name = ""
    n_ranks = 0
    metadata: Dict[str, str] = {}
    dict_lines: List[Tuple[int, str]] = []
    record_lines: List[Tuple[int, str]] = []
    section = "header"
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line == "[dict]":
            section = "dict"
            continue
        if line == "[records]":
            section = "records"
            continue
        if section == "header":
            parts = line.split()
            if parts[0] == "app" and len(parts) == 2:
                app_name = _unquote(parts[1])
            elif parts[0] == "ranks" and len(parts) == 2:
                try:
                    n_ranks = int(parts[1])
                except ValueError:
                    if not salvage:
                        raise TraceFormatError(
                            f"line {lineno}: malformed ranks line {raw!r}"
                        ) from None
                    report.drop_line(lineno, line, "header")
            elif parts[0] == "meta" and len(parts) == 3:
                metadata[_unquote(parts[1])] = _unquote(parts[2])
            elif salvage:
                report.drop_line(lineno, line, "header")
            else:
                raise TraceFormatError(f"line {lineno}: unknown header line {raw!r}")
        elif section == "dict":
            dict_lines.append((lineno, line))
        else:
            record_lines.append((lineno, line))

    if not salvage and n_ranks < 1:
        raise TraceFormatError("trace header missing a valid 'ranks' line")

    if salvage:
        dictionary = _salvage_dictionary(dict_lines, report)
    else:
        dictionary = EventDictionary.from_lines([line for _, line in dict_lines])

    report.n_record_lines = len(record_lines)
    records: List[Tuple[int, str, object]] = []
    seen_lines: set = set()
    for lineno, line in record_lines:
        tag, rest = line[0], line[2:] if len(line) > 2 else ""
        fields = rest.split()
        try:
            record = _parse_record(tag, fields, dictionary, lineno, policy, report)
        except TraceFormatError as exc:
            if not salvage:
                raise
            report.drop_line(lineno, line, getattr(exc, "reason", "malformed-record"))
            continue
        except (ValueError, KeyError) as exc:
            if not salvage:
                raise TraceFormatError(
                    f"line {lineno}: malformed record {line!r}: {exc}"
                ) from exc
            report.drop_line(lineno, line, "malformed-record")
            continue
        if salvage:
            # Exact duplicate lines are retried writes; a duplicated probe
            # would desynchronize burst pairing, so dedupe all tags.
            if line in seen_lines:
                report.drop_line(lineno, line, "duplicate-record")
                continue
            seen_lines.add(line)
        records.append((lineno, line, record))

    if n_ranks < 1:
        # Damaged header: infer the rank count from the surviving records.
        if not records:
            raise SalvageError(
                "trace has no usable 'ranks' header and no readable records"
            )
        n_ranks = max(record.rank for _, _, record in records) + 1
        report.inferred_ranks = True

    trace = Trace(n_ranks=n_ranks, app_name=app_name, metadata=metadata)
    for lineno, line, record in records:
        try:
            if isinstance(record, StateRecord):
                trace.add_state(record)
            elif isinstance(record, InstrumentationRecord):
                trace.add_instrumentation(record)
            else:
                trace.add_sample(record)
        except TraceFormatError:
            if not salvage:
                raise
            report.drop_line(lineno, line, "rank-out-of-range")
    report.n_records_kept = trace.n_records
    return trace, report
