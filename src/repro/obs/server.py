"""The stdlib HTTP status endpoint: ``/metrics`` + ``/healthz`` +
``/slo`` + ``/blackbox``.

One :class:`ObsServer` wraps ``http.server.ThreadingHTTPServer`` — no
third-party dependency — and serves:

``/metrics``
    the OpenMetrics exposition of the process-wide registry (content
    type :data:`repro.obs.openmetrics.CONTENT_TYPE`);
``/healthz``
    ``200 ok`` while the process is up (a fleet's liveness probe);
``/slo``
    JSON :class:`~repro.obs.slo.SloStatus` from :func:`slo_status`, the
    attached engine's live streaming status (404 when no engine with an
    SLO policy is attached);
``/blackbox``
    JSON flight-recorder bundle of the attached engine (404 when no
    recorder is attached).

``attach(engine)`` points the endpoint at a serving engine; serving
engines with the observability plane enabled self-attach on creation
(latest wins), so ``python -m repro.report serve`` in a process that
built an Engine exposes it with zero wiring.
"""

from __future__ import annotations

import json
import threading
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import openmetrics

#: Weak reference to the most recently attached serving engine (weak so
#: a status endpoint never keeps a dead engine's machines alive).
_ATTACHED = None
_ATTACH_LOCK = threading.Lock()


def attach(engine) -> None:
    """Make ``engine`` the target of ``/slo`` and ``/blackbox``."""
    global _ATTACHED
    with _ATTACH_LOCK:
        _ATTACHED = weakref.ref(engine) if engine is not None else None


def attached():
    """The currently attached engine, or None."""
    ref = _ATTACHED
    return ref() if ref is not None else None


def slo_status():
    """The SLO status behind ``/slo`` and ``report_slo()``: the attached
    engine's live :class:`~repro.obs.slo.SloStatus`, or None when no
    engine is attached or the attached one monitors no SLOs."""
    slo = getattr(attached(), "slo", None)
    return slo.status() if slo is not None else None


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1.0"

    def do_GET(self):  # noqa: N802  (http.server API)
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = openmetrics.render()
            self._reply(200, body, openmetrics.CONTENT_TYPE)
        elif path == "/healthz":
            self._reply(200, "ok\n", "text/plain; charset=utf-8")
        elif path == "/slo":
            status = slo_status()
            if status is None:
                self._json(404, {"error": "no SLO engine attached"})
            else:
                self._json(200, status.to_dict())
        elif path == "/blackbox":
            engine = attached()
            recorder = getattr(engine, "recorder", None) if engine else None
            if recorder is None:
                self._json(404, {"error": "no flight recorder attached"})
            else:
                self._json(200, recorder.bundle())
        else:
            self._json(404, {"error": f"unknown path {path!r}"})

    def _reply(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _json(self, code: int, payload: dict) -> None:
        self._reply(code, json.dumps(payload, indent=1, default=repr),
                    "application/json; charset=utf-8")

    def log_message(self, format, *args):  # noqa: A002
        pass                               # scrapes must not spam stderr


class ObsServer:
    """The status endpoint; ``start()`` serves on a daemon thread."""

    def __init__(self, host: str = "127.0.0.1", port: int = 9464):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = None

    @property
    def address(self):
        """The bound ``(host, port)`` (port resolved when 0 was asked)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ObsServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-obs-server",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"<ObsServer {self.url}>"
