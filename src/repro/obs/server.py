"""Scrape plane: stdlib HTTP exposition for a live fleet.

:class:`ObsServer` serves an :class:`~repro.obs.Observability` from a
daemon thread (``ThreadingHTTPServer``), so a running fleet can be
watched without stopping it:

* ``GET /metrics``  — Prometheus text format (the scrape endpoint);
* ``GET /healthz``  — JSON deadline/drift status, ``200`` when healthy
  and ``503`` when the deadline SLO is failing or the discard CUSUM has
  tripped (the shape load balancers and k8s probes expect);
* ``GET /quality``  — the rolling scoreboard as JSON;
* ``GET /alerts``   — every alert rule with its declarative definition,
  pending/firing/resolved state, and since-timestamps (the same state
  the healthz gate reads, so the two can never disagree).

The debug plane rides the same server (no second port to firewall):

* ``GET /debug/spans`` — per-stage latency quantiles from the local
  span clock plus per-shard stage breakdowns reassembled from the
  merged registry;
* ``GET /debug/flight`` — the last flight capsule as JSONL (the exact
  bytes written to disk), ``404`` until a trigger has fired;
* ``GET /debug/vars`` — build/backend identity, facade configuration,
  and the full registry snapshot (the expvar-style kitchen sink);
* ``GET /debug/history?series=NAME`` — the history ring's retained
  points as NDJSON (one ``{"t", "series", "labels", "value"}`` record
  per line; omit ``series`` for everything), ``404`` until a ring is
  armed.

Scrapes are read-only and consistent: every facade read takes the
facade lock, so a mid-run scrape sees a whole snapshot, never a torn
one (the funnel-identity invariants hold on every response).
``port=0`` binds an ephemeral port (tests, parallel runs); the bound
port is on :attr:`ObsServer.port`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How often ``serve_forever`` checks for a shutdown request, which bounds
#: how long ``close()`` blocks (the stdlib's default poll is 0.5 s).
POLL_INTERVAL = 0.05


class _ReusableHTTPServer(ThreadingHTTPServer):
    """``SO_REUSEADDR`` pinned on explicitly.

    A daemon restart rebinds the same host:port while the previous
    socket's connections linger in TIME_WAIT; without the flag the bind
    fails with ``EADDRINUSE`` for up to 2·MSL.  ``http.server`` happens
    to default this on today, but the restart path is a correctness
    contract for ``aarohi serve`` — not something to inherit silently
    from a stdlib default.
    """

    allow_reuse_address = True
    daemon_threads = True


class ObsServer:
    """Background HTTP server over one Observability instance.

    ``port=0`` requests an ephemeral kernel-assigned port; the chosen
    port is published on :attr:`port` (and by :meth:`start`'s return
    value via :meth:`url`), so tests and parallel runs never race over
    a fixed port.
    """

    def __init__(self, obs, *, host: str = "127.0.0.1", port: int = 0):
        self.obs = obs
        handler = _make_handler(obs)
        self._httpd = _ReusableHTTPServer((host, port), handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ObsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, args=(POLL_INTERVAL,),
                name="obs-server", daemon=True,
            )
            self._thread.start()
        return self

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def close(self) -> None:
        if self._thread is not None:
            # ``shutdown()`` handshakes with ``serve_forever`` and blocks
            # forever if the loop never ran, so only a started server is
            # shut down; a bound-but-unstarted one just closes its socket
            # (the daemon's bind-then-fail error path hits this).
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def _make_handler(obs):
    class Handler(BaseHTTPRequestHandler):
        # Exposition must never spam the serving terminal.
        def log_message(self, format, *args):  # noqa: A002
            pass

        def do_GET(self):  # noqa: N802 (http.server API)
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                obs.refresh()
                self._send(200, PROMETHEUS_CONTENT_TYPE, obs.prometheus())
            elif path == "/healthz":
                payload = obs.healthz()
                status = 200 if payload.get("status") == "ok" else 503
                self._send(200 if status == 200 else 503,
                           "application/json",
                           json.dumps(payload, indent=2) + "\n")
            elif path == "/quality":
                payload = obs.quality_report()
                self._send(200, "application/json",
                           json.dumps(payload, indent=2) + "\n")
            elif path == "/alerts":
                payload = obs.alerts_report()
                self._send(200, "application/json",
                           json.dumps(payload, indent=2) + "\n")
            elif path == "/debug/history":
                query = parse_qs(urlsplit(self.path).query)
                series = query.get("series", [None])[0]
                records = obs.history_records(series)
                if records is None:
                    self._send(404, "text/plain",
                               "history ring not armed\n")
                else:
                    body = "".join(
                        json.dumps(r, separators=(",", ":")) + "\n"
                        for r in records)
                    self._send(200, "application/x-ndjson", body)
            elif path == "/debug/spans":
                payload = obs.debug_spans()
                self._send(200, "application/json",
                           json.dumps(payload, indent=2) + "\n")
            elif path == "/debug/flight":
                flight = obs.flight
                capsule = (
                    flight.last_capsule_text if flight is not None else None)
                if capsule is None:
                    self._send(404, "text/plain",
                               "no flight capsule captured yet\n")
                else:
                    # Serve the capsule verbatim — byte-identical to the
                    # file the recorder wrote, so a curl of this path is
                    # interchangeable with the on-disk artifact.
                    self._send(200, "application/x-ndjson", capsule)
            elif path == "/debug/vars":
                payload = obs.debug_vars()
                self._send(200, "application/json",
                           json.dumps(payload, indent=2) + "\n")
            else:
                self._send(404, "text/plain",
                           "unknown path; try /metrics /healthz /quality"
                           " /alerts /debug/spans /debug/flight"
                           " /debug/vars /debug/history\n")

        def _send(self, status: int, content_type: str, body: str) -> None:
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    return Handler
