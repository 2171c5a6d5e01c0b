"""OpenMetrics text rendering and the opt-in HTTP scrape endpoint.

:func:`render_openmetrics` turns a live
:class:`~repro.observability.metrics.MetricsRegistry` into the
OpenMetrics text exposition format — counters as ``*_total``, gauges
plain, histograms with cumulative ``le`` buckets — terminated by
``# EOF``, so any Prometheus-compatible scraper can ingest a batch run's
metrics.  :class:`TelemetryServer` serves that rendering from a stdlib
``http.server`` daemon thread (``repro batch --metrics-port N``; the
``http.server`` import waits until a server starts):
``/metrics`` for the scrape, ``/healthz`` for a JSON view of live job
states fed by a :class:`~repro.observability.events.JobStateTracker`.

:func:`validate_openmetrics` is the small strict parser the test suite
and the CI smoke step use to hold the rendering to the format.
"""

from __future__ import annotations

import functools
import json
import re
import threading
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.observability.metrics import MetricsRegistry

__all__ = [
    "metric_name",
    "render_openmetrics",
    "validate_openmetrics",
    "TelemetryServer",
]

#: Every exported metric family is namespaced under this prefix.
METRIC_PREFIX = "repro_"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_FAMILY_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)$"
)


def metric_name(name: str) -> str:
    """Registry instrument name -> OpenMetrics family name.

    Dots (the registry's namespacing convention) and any other character
    outside ``[a-zA-Z0-9_:]`` become underscores, and everything is
    prefixed ``repro_``: ``service.jobs.done`` -> ``repro_service_jobs_done``.
    """
    return METRIC_PREFIX + _NAME_OK.sub("_", name)


def _fmt(value: float) -> str:
    """OpenMetrics sample value: integral floats without the trailing .0."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_openmetrics(registry: MetricsRegistry) -> str:
    """Render ``registry`` in the OpenMetrics text exposition format.

    Counters export as ``<name>_total``, gauges as plain samples (only
    when actually set), histograms as cumulative ``_bucket{le="..."}``
    series plus ``_sum``/``_count``.  Output is sorted by instrument
    name and terminated by the mandatory ``# EOF``.
    """
    lines: List[str] = []
    for name in sorted(registry.counters):
        family = metric_name(name)
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family}_total {_fmt(registry.counters[name].value)}")
    for name in sorted(registry.gauges):
        gauge = registry.gauges[name]
        if not gauge.is_set:
            continue
        family = metric_name(name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_fmt(gauge.value)}")
    for name in sorted(registry.histograms):
        hist = registry.histograms[name]
        count, total, _min, _max, buckets = hist._state()
        family = metric_name(name)
        lines.append(f"# TYPE {family} histogram")
        cumulative = 0
        for bound, n in zip(hist.bounds, buckets):
            cumulative += n
            lines.append(
                f'{family}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
            )
        lines.append(f'{family}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{family}_sum {_fmt(total)}")
        lines.append(f"{family}_count {count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_SUFFIXES = ("_total", "_bucket", "_sum", "_count", "")


def validate_openmetrics(text: str) -> Dict[str, str]:
    """Strictly parse OpenMetrics text; return ``{family: type}``.

    Raises :class:`~repro.errors.ReproError` on any violation the
    renderer could plausibly commit: missing ``# EOF`` terminator,
    samples before their ``# TYPE`` declaration, malformed names or
    non-numeric values.  Used by the test suite and the CI smoke step.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ReproError("openmetrics: missing '# EOF' terminator")
    families: Dict[str, str] = {}
    for i, line in enumerate(lines[:-1], start=1):
        if not line:
            raise ReproError(f"openmetrics line {i}: blank line")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                raise ReproError(f"openmetrics line {i}: bad comment {line!r}")
            family = parts[2]
            if not _FAMILY_RE.match(family):
                raise ReproError(
                    f"openmetrics line {i}: bad family name {family!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ReproError(f"openmetrics line {i}: bad TYPE {line!r}")
                families[family] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ReproError(f"openmetrics line {i}: bad sample {line!r}")
        sample = match.group("name")
        for suffix in _SAMPLE_SUFFIXES:
            base = sample[: len(sample) - len(suffix)] if suffix else sample
            if sample.endswith(suffix) and base in families:
                break
        else:
            raise ReproError(
                f"openmetrics line {i}: sample {sample!r} has no TYPE"
            )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ReproError(
                    f"openmetrics line {i}: bad value {value!r}"
                ) from None
    return families


@functools.lru_cache(maxsize=None)
def _server_class() -> type:
    """The scrape endpoint's HTTP server class, built on first use so that
    importing this module does not import ``http.server``."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _ScrapeHandler(BaseHTTPRequestHandler):
        """Request handler behind :class:`TelemetryServer` (internal)."""

        # Set by _TelemetryHTTPServer; typed here for clarity.
        server: "_TelemetryHTTPServer"

        def do_GET(self) -> None:  # noqa: N802 — http.server API
            """Serve ``/metrics`` (OpenMetrics) and ``/healthz`` (JSON)."""
            if self.path.split("?", 1)[0] == "/metrics":
                body = render_openmetrics(self.server.registry).encode()
                content_type = (
                    "application/openmetrics-text; version=1.0.0; charset=utf-8"
                )
            elif self.path.split("?", 1)[0] == "/healthz":
                tracker = self.server.tracker
                payload = tracker.snapshot() if tracker is not None else {}
                payload["status"] = "ok"
                body = (json.dumps(payload, sort_keys=True) + "\n").encode()
                content_type = "application/json"
            else:
                self.send_error(404, "unknown path (try /metrics or /healthz)")
                return
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            """Silence per-request stderr logging."""

    class _TelemetryHTTPServer(ThreadingHTTPServer):
        """ThreadingHTTPServer carrying the registry/tracker for handlers."""

        daemon_threads = True

        def __init__(self, address, registry, tracker) -> None:
            super().__init__(address, _ScrapeHandler)
            self.registry = registry
            self.tracker = tracker

    return _TelemetryHTTPServer


class TelemetryServer:
    """Opt-in scrape endpoint: ``/metrics`` + ``/healthz`` on localhost.

    Binds lazily in :meth:`start` (port 0 picks an ephemeral port — the
    tests use that), serves from a daemon thread so a hung scraper can
    never outlive the batch, and shuts down cleanly in :meth:`close`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tracker: Optional[object] = None,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.registry = registry
        self.tracker = tracker
        self.host = host
        self.port = port
        self._server = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and start serving; returns the actual bound port."""
        if self._server is not None:
            return self.port
        try:
            self._server = _server_class()(
                (self.host, self.port), self.registry, self.tracker
            )
        except OSError as exc:
            raise ReproError(
                f"telemetry server: cannot bind {self.host}:{self.port}: {exc}"
            ) from None
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-telemetry-http",
            daemon=True,
        )
        self._thread.start()
        return self.port

    @property
    def url(self) -> str:
        """Base URL of the running endpoint."""
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        """Context-manager entry: start serving."""
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the endpoint."""
        self.close()
