"""Event dictionary — the analog of a Paraver ``.pcf`` sidecar.

The text trace stores counters and states by integer id; the dictionary maps
ids back to names.  Keeping it separate from the trace body mirrors the real
toolchain (``.prv`` + ``.pcf``) and exercises the same failure mode: a trace
whose dictionary is missing or inconsistent must fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TraceFormatError

__all__ = ["EventDictionary"]


def _first_names(ids: Dict[str, int]) -> Dict[int, str]:
    """id -> name, keeping the first name in ``ids`` order on a duplicate id."""
    names: Dict[int, str] = {}
    for name, ident in ids.items():
        names.setdefault(ident, name)
    return names


@dataclass
class EventDictionary:
    """Bidirectional id <-> name maps for counters and state kinds.

    The reverse (id -> name) maps are built on the first lookup and reset
    when :meth:`counter_id`/:meth:`state_id` allocate, so extend the
    forward maps through those methods (or :meth:`from_lines`), not by
    assigning into ``counter_ids``/``state_ids`` after a lookup.
    """

    counter_ids: Dict[str, int] = field(default_factory=dict)
    state_ids: Dict[str, int] = field(default_factory=dict)
    _next_counter_id: int = 42000000
    _next_state_id: int = 1
    _counter_names: Optional[Dict[int, str]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _state_names: Optional[Dict[int, str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def counter_id(self, name: str) -> int:
        """Id of counter ``name``, allocating on first use."""
        if name not in self.counter_ids:
            self.counter_ids[name] = self._next_counter_id
            self._next_counter_id += 1
            self._counter_names = None
        return self.counter_ids[name]

    def state_id(self, name: str) -> int:
        """Id of state kind ``name``, allocating on first use."""
        if name not in self.state_ids:
            self.state_ids[name] = self._next_state_id
            self._next_state_id += 1
            self._state_names = None
        return self.state_ids[name]

    def counter_name(self, cid: int) -> str:
        """Reverse lookup of a counter id (first name on a duplicate id)."""
        if self._counter_names is None:
            self._counter_names = _first_names(self.counter_ids)
        try:
            return self._counter_names[cid]
        except KeyError:
            raise TraceFormatError(
                f"counter id {cid} not in event dictionary"
            ) from None

    def state_name(self, sid: int) -> str:
        """Reverse lookup of a state id (first name on a duplicate id)."""
        if self._state_names is None:
            self._state_names = _first_names(self.state_ids)
        try:
            return self._state_names[sid]
        except KeyError:
            raise TraceFormatError(f"state id {sid} not in event dictionary") from None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_lines(self) -> List[str]:
        """Serialize as the sidecar text block."""
        lines = ["# repro event dictionary v1"]
        lines.append("[counters]")
        for name, cid in sorted(self.counter_ids.items(), key=lambda kv: kv[1]):
            lines.append(f"{cid} {name}")
        lines.append("[states]")
        for name, sid in sorted(self.state_ids.items(), key=lambda kv: kv[1]):
            lines.append(f"{sid} {name}")
        return lines

    @classmethod
    def from_lines(cls, lines: List[str]) -> "EventDictionary":
        """Parse the sidecar text block back into a dictionary."""
        dictionary = cls()
        section = ""
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("[counters]", "[states]"):
                section = line
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2:
                raise TraceFormatError(f"malformed dictionary line: {raw!r}")
            ident_text, name = parts
            try:
                ident = int(ident_text)
            except ValueError:
                raise TraceFormatError(f"non-integer id in dictionary line: {raw!r}") from None
            if section == "[counters]":
                dictionary.counter_ids[name] = ident
                dictionary._next_counter_id = max(dictionary._next_counter_id, ident + 1)
            elif section == "[states]":
                dictionary.state_ids[name] = ident
                dictionary._next_state_id = max(dictionary._next_state_id, ident + 1)
            else:
                raise TraceFormatError(
                    f"dictionary entry before section header: {raw!r}"
                )
        return dictionary
