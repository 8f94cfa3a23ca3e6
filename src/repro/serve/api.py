"""Stdlib HTTP front-end: routes, handler, daemon lifecycle.

The route table below is the *only* place an endpoint is declared — the
dispatcher matches against it and :func:`repro.serve.schema.openapi_document`
renders it, so ``/openapi.json`` can never list a path the server does not
actually serve (and vice versa). Workload-level surface (which experiments,
which scenarios, which config fields) comes from the registries via
:mod:`repro.serve.schema`, not from this table.

The server is a :class:`http.server.ThreadingHTTPServer` whose connection
threads are reused: each accepted connection goes to an idle connection
thread, and a new thread starts only when none is idle. So an SSE stream,
which parks its thread for the job's lifetime, never blocks another
request, while a run of short requests is served by the same few threads
instead of starting one per connection. Job execution happens on the
:class:`~repro.serve.jobs.JobManager` worker pool, never on connection
threads.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional

from repro import __version__
from repro.obs.telemetry import get_telemetry
from repro.serve.jobs import (
    JobManager,
    QueueFullError,
    RateLimitedError,
    UnknownJobError,
)
from repro.serve.schema import (
    experiment_listing,
    openapi_document,
    scenario_listing,
)
from repro.utils.serialization import dumps

#: Route table: ``"METHOD /path"`` (``{id}`` is a path parameter) -> summary.
#: Consumed by the dispatcher *and* the OpenAPI generator — one source.
ROUTES: dict[str, dict[str, str]] = {
    "GET /healthz": {"summary": "daemon readiness + worker-pool liveness"},
    "GET /openapi.json": {"summary": "this API, as an OpenAPI 3 document"},
    "GET /experiments": {"summary": "experiment registry with config schemas"},
    "GET /scenarios": {"summary": "scenario catalog"},
    "GET /jobs": {"summary": "all job records (most recent last)"},
    "POST /jobs": {"summary": "submit a workload; returns the job record"},
    "GET /jobs/{id}": {"summary": "poll one job's status record"},
    "GET /jobs/{id}/result": {"summary": "full result payload of a done job"},
    "GET /jobs/{id}/stream": {"summary": "server-sent per-round estimate events"},
    "DELETE /jobs/{id}": {"summary": "cancel a queued job"},
}

#: Cap on accepted request bodies (a sweep spec fits comfortably).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Idle connection threads kept for reuse: a thread that finishes a
#: connection while this many are idle exits instead of waiting.
_IDLE_CONNECTION_THREADS = 8


def _handler_name(method: str, route_path: str) -> str:
    """Method name of one route's handler, e.g. ``_route_jobs_id_stream_get``.

    Path parameters lose their braces and dots become underscores, so
    ``GET /jobs/{id}/stream`` -> ``_route_jobs_id_stream_get`` and
    ``GET /openapi.json`` -> ``_route_openapi_json_get``.
    """
    slug = route_path.strip("/")
    for old, new in (("/", "_"), ("{", ""), ("}", ""), (".", "_")):
        slug = slug.replace(old, new)
    return f"_route_{slug}_{method.lower()}"


def _match(route_path: str, path: str) -> dict[str, str] | None:
    """Match a concrete request path against a ``{param}`` template."""
    template_parts = route_path.strip("/").split("/")
    path_parts = path.strip("/").split("/")
    if len(template_parts) != len(path_parts):
        return None
    params: dict[str, str] = {}
    for template, concrete in zip(template_parts, path_parts):
        if template.startswith("{") and template.endswith("}"):
            if not concrete:
                return None
            params[template[1:-1]] = concrete
        elif template != concrete:
            return None
    return params


class ServeHandler(BaseHTTPRequestHandler):
    """One HTTP connection; ``self.server.manager`` is the job manager."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # Route access logs through telemetry counters instead of stderr
        # noise; the CLI's --verbose logging covers interactive debugging.
        get_telemetry().counter("serve.http.requests")

    def _send_json(
        self, payload: Any, *, status: int = 200, headers: dict[str, str] | None = None
    ) -> None:
        body = payload if isinstance(payload, bytes) else dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        headers = {}
        if retry_after is not None:
            # Retry-After is an integer number of seconds; round up so the
            # client never retries before a token is actually available.
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        self._send_json({"error": message}, status=status, headers=headers)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        for route in ROUTES:
            route_method, _, route_path = route.partition(" ")
            if route_method != method:
                continue
            params = _match(route_path, path)
            if params is None:
                continue
            handler: Callable[..., None] = getattr(self, _handler_name(method, route_path))
            tel = get_telemetry()
            start = time.perf_counter()
            try:
                handler(**params)
            except UnknownJobError as error:
                self._send_error_json(404, str(error.args[0]))
            except RateLimitedError as error:
                self._send_error_json(429, str(error), retry_after=error.retry_after)
            except QueueFullError as error:
                self._send_error_json(503, str(error), retry_after=error.retry_after)
            except (KeyError, ValueError) as error:
                message = error.args[0] if isinstance(error, KeyError) and error.args else error
                self._send_error_json(400, str(message))
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                pass  # the client went away mid-response; nothing to answer
            finally:
                if tel.enabled:  # a stream's time is the job's remaining life
                    tel.timer("serve.http.request_seconds", time.perf_counter() - start, route=route)
            return
        known = sorted({r.partition(" ")[2] for r in ROUTES})
        self._send_error_json(404, f"no route for {method} {path}; known paths: {known}")

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _route_healthz_get(self) -> None:
        health = self.manager.health()
        self._send_json(health, status=200 if health["status"] == "ok" else 503)

    def _route_openapi_json_get(self) -> None:
        self._send_json(openapi_document(ROUTES))

    def _route_experiments_get(self) -> None:
        self._send_json(experiment_listing())

    def _route_scenarios_get(self) -> None:
        self._send_json(scenario_listing())

    def _route_jobs_get(self) -> None:
        self._send_json(self.manager.jobs())

    def _route_jobs_post(self) -> None:
        payload = self._read_body()
        job = self.manager.submit(payload, client=self.client_address[0])
        self._send_json(job.to_record(), status=202)

    def _route_jobs_id_get(self, id: str) -> None:  # noqa: A002
        self._send_json(self.manager.get(id).to_record())

    def _route_jobs_id_result_get(self, id: str) -> None:  # noqa: A002
        try:
            body = self.manager.result_bytes(id)
        except ValueError as error:
            job = self.manager.get(id)
            status = 409 if job.status in ("queued", "running") else 410
            self._send_error_json(status, str(error))
            return
        # The cache entry's bytes, unchanged: every client of the same key
        # receives exactly these, and nothing re-encodes them per request.
        self._send_json(body)

    def _route_jobs_id_delete(self, id: str) -> None:  # noqa: A002
        if self.manager.cancel(id):
            self._send_json(self.manager.get(id).to_record())
        else:
            self._send_error_json(409, f"job {id} is already running or finished; cannot cancel")

    def _route_jobs_id_stream_get(self, id: str) -> None:  # noqa: A002
        job = self.manager.get(id)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is an unbounded response: close-delimited, no Content-Length.
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for frame in job.broadcaster.subscribe():
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            get_telemetry().counter("serve.stream.disconnects")
        self.close_connection = True


class ReproServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server bound to one :class:`JobManager`.

    Connection threads are reused (see the module docstring). Each accepted
    connection goes through a queue to an idle thread, which runs it as
    :class:`~socketserver.ThreadingMixIn` would (``finish_request``, then
    ``handle_error`` on an exception, then ``shutdown_request``) and then
    waits for the next one. ``server_close()`` ends the idle threads; a busy
    one exits when its connection ends. The ``serve.http.connections`` and
    ``serve.http.connection_threads`` counters show the reuse.
    """

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], manager: JobManager):
        # Set before binding: a failed bind calls server_close().
        self._pool_lock = threading.Lock()
        #: Idle connection threads with the queue each waits on, latest last.
        self._idle: list[tuple[threading.Thread, queue.SimpleQueue]] = []
        self._closed = False
        super().__init__(address, ServeHandler)
        self.manager = manager

    def process_request(self, request: Any, client_address: Any) -> None:
        """Hand the connection to an idle thread, or start one if none is idle."""
        tel = get_telemetry()
        tel.counter("serve.http.connections")
        with self._pool_lock:
            idle = self._idle.pop() if self._idle else None
        if idle is not None:
            idle[1].put((request, client_address))
            return
        tel.counter("serve.http.connection_threads")
        threading.Thread(
            target=self._connection_thread,
            args=(request, client_address),
            name="repro-serve-connection",
            daemon=True,
        ).start()

    def _connection_thread(self, request: Any, client_address: Any) -> None:
        """Serve connections until enough threads are idle or the server closes."""
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        while True:
            self.process_request_thread(request, client_address)
            with self._pool_lock:
                if self._closed or len(self._idle) >= _IDLE_CONNECTION_THREADS:
                    return
                self._idle.append((threading.current_thread(), inbox))
            connection = inbox.get()
            if connection is None:  # woken by server_close()
                return
            request, client_address = connection

    def server_close(self) -> None:
        """Close the listening socket, then end and join the idle threads."""
        super().server_close()
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for _, inbox in idle:
            inbox.put(None)
        for thread, _ in idle:
            thread.join()


def serve_forever(
    server: ReproServer, *, install_signal_handlers: bool = True
) -> None:
    """Run the daemon until SIGTERM/SIGINT (or ``server.shutdown()``).

    ``server.shutdown()`` blocks until ``serve_forever`` returns, so calling
    it from a signal handler that interrupted the serving thread would
    deadlock — the shutdown runs on a short-lived helper thread instead.
    Handlers are only installed on the main thread (tests drive the server
    from worker threads, where installing handlers raises).
    """
    if install_signal_handlers and threading.current_thread() is threading.main_thread():
        import signal

        def _shutdown(signum: int, frame: Optional[Any]) -> None:
            threading.Thread(target=server.shutdown, name="repro-serve-shutdown").start()

        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    server.manager.start()
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.manager.stop()
        server.server_close()


__all__ = ["MAX_BODY_BYTES", "ROUTES", "ReproServer", "ServeHandler", "serve_forever"]
