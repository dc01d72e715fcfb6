"""The benchmark daemon: a threaded HTTP/JSON front on the scheduler.

Stdlib only — :class:`http.server.ThreadingHTTPServer` gives every
connection its own handler thread, which blocks in
:meth:`~repro.service.scheduler.SweepScheduler.wait` while the
scheduler's dispatchers run batches on the warm pool.  Connections are
HTTP/1.1 keep-alive: one handler thread serves a client's requests in
turn until the client closes, the connection sits idle for
:data:`IDLE_TIMEOUT` seconds, or the service stops.  Four endpoints:

``GET /healthz``
    Liveness: protocol version and uptime, nothing that can block.
``GET /stats``
    The scheduler's lifetime counters plus the shared cache's
    :meth:`~repro.core.parallel.ResultCache.stats` snapshot.
``POST /trial``
    One benchmark cell.  Responds with the JSON summary payload or —
    with ``"format": "wire"`` — the packed binary frame of
    :mod:`repro.core.wire` under ``application/x-repro-wire``, exactly
    the bytes the cache stores for that fingerprint.
``POST /sweep``
    A grid request (``base`` + ``sizes``/``counts``); the whole grid is
    admitted as one batch and answered as an ordered JSON cell list.

Every failure is a structured JSON error body
(:func:`~repro.service.protocol.error_payload`): 400 for malformed
requests, 429 for quota rejections, 503 on shutdown, 500 for engine
failures.  Nothing about a request is trusted: bodies are size-capped
and parsed defensively before they reach the protocol layer, and a
response sent before its request's body was read closes the connection,
so the unread bytes are never parsed as the next request.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..core.parallel import ResultCache
from ..core.wire import encode_result
from ..obs.kinds import SERVICE_REJECT
from .protocol import (PROTOCOL_VERSION, ProtocolError, ServiceError,
                       error_payload, parse_sweep_request,
                       parse_trial_request, result_to_payload)
from .scheduler import SweepScheduler

__all__ = ["IDLE_TIMEOUT", "MAX_BODY_BYTES", "SweepService", "serve"]

#: Request bodies above this are rejected outright (413) before parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a kept-alive connection may sit between requests before the
#: daemon closes it and frees its handler thread.
IDLE_TIMEOUT = 30.0

#: Seconds the daemon keeps reading (and dropping) what a client still
#: sends after a response that rejected its unread body, so the client
#: reads that response instead of a connection reset.
LINGER_SECONDS = 2.0

#: Binary responses (the cache's wire frames) use this content type.
WIRE_CONTENT_TYPE = "application/x-repro-wire"


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; the service rides on ``server.service``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-sweepd"
    #: Headers and body go out in separate writes; without TCP_NODELAY
    #: the body waits for a kept-alive client's delayed ACK.
    disable_nagle_algorithm = True
    #: Socket timeout: an idle kept-alive connection is closed after it.
    timeout = IDLE_TIMEOUT
    #: Whether the current request carries a body not yet read.
    _unread_body = False

    # The default handler logs every request to stderr; the daemon's
    # request log is the service.* event stream instead.
    def log_message(self, fmt, *args):  # noqa: D102
        if self.server.service.verbose:  # type: ignore[attr-defined]
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    @property
    def service(self) -> "SweepService":
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.service._track(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
            if self._unread_body:
                self._linger()
        finally:
            self.service._untrack(self.connection)

    def parse_request(self) -> bool:
        if not super().parse_request():
            return False
        self._unread_body = self.command != "GET" or any(
            name in self.headers
            for name in ("Content-Length", "Transfer-Encoding"))
        return True

    def _linger(self) -> None:
        """Drop what the client still sends, for at most LINGER_SECONDS.

        Closing with unread bytes queued would reset the connection,
        and the reset can overtake the response it follows.
        """
        sock = self.connection
        deadline = time.monotonic() + LINGER_SECONDS  # simlint: disable=SIM101
        try:
            sock.shutdown(socket.SHUT_WR)
            while True:
                remaining = deadline - time.monotonic()  # simlint: disable=SIM101
                if remaining <= 0:
                    return
                sock.settimeout(remaining)
                if not sock.recv(65536):
                    return
        except OSError:
            pass

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        if self._unread_body:
            # The body's bytes would otherwise be parsed as the next
            # request on this connection.
            self.send_header("Connection", "close")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _send_error(self, exc: ServiceError, client: str = "?") -> None:
        service = self.service
        service.scheduler.obs.emit(
            SERVICE_REJECT, service.scheduler._now(), client, exc.status,
            exc.reason)
        self._send_json(exc.status, error_payload(exc))

    def _read_body(self):
        if "Transfer-Encoding" in self.headers:
            raise ProtocolError("Transfer-Encoding is not supported; "
                                "send a Content-Length body")
        value = self.headers.get("Content-Length", "")
        if not (value.isascii() and value.isdigit()):
            raise ProtocolError("request requires a Content-Length header")
        length = int(value)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit", status=413)
        raw = self.rfile.read(length)
        self._unread_body = len(raw) < length
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")

    # -- endpoints ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler convention)
        service = self.service
        if self.path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": service.uptime(),
            })
        elif self.path == "/stats":
            self._send_json(200, service.stats())
        else:
            self._send_error(ServiceError(
                f"no such endpoint: GET {self.path}", status=404))

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/trial":
            handler = self._handle_trial
        elif self.path == "/sweep":
            handler = self._handle_sweep
        else:
            self._send_error(ServiceError(
                f"no such endpoint: POST {self.path}", status=404))
            return
        try:
            handler(self._read_body())
        except ServiceError as exc:
            self._send_error(exc)
        except Exception as exc:  # a handler bug must not kill the thread
            self._send_error(ServiceError(
                f"{type(exc).__name__}: {exc}", status=500))

    def _handle_trial(self, body) -> None:
        service = self.service
        config, client, priority, fmt, samples = parse_trial_request(body)
        try:
            result = service.scheduler.execute(
                config, client=client, priority=priority,
                timeout=service.request_timeout)
        except ServiceError as exc:
            self._send_error(exc, client)
            return
        if fmt == "wire":
            self._send(200, encode_result(result), WIRE_CONTENT_TYPE)
        else:
            self._send_json(200, result_to_payload(result, samples))

    def _handle_sweep(self, body) -> None:
        service = self.service
        cells, client, priority, samples = parse_sweep_request(body)
        scheduler = service.scheduler
        try:
            requests = [scheduler.submit(cell, client=client,
                                         priority=priority)
                        for cell in cells]
        except ServiceError as exc:
            # Quota hit partway through admission: the cells already
            # queued still run (and warm the cache), but this request
            # is answered with the rejection.
            self._send_error(exc, client)
            return
        try:
            results = [scheduler.wait(request,
                                      timeout=service.request_timeout)
                       for request in requests]
        except ServiceError as exc:
            self._send_error(exc, client)
            return
        self._send_json(200, {
            "cells": [result_to_payload(result, samples)
                      for result in results],
        })


class SweepService:
    """The daemon: one scheduler, one cache, one listening socket.

    Construct, then :meth:`start` (background thread) or
    :meth:`serve_forever` (foreground).  ``port=0`` binds an ephemeral
    port — read the bound address back from :attr:`address` — which is
    how tests and the load-test boot mode avoid collisions.
    """

    def __init__(self, scheduler: SweepScheduler,
                 host: str = "127.0.0.1", port: int = 8642,
                 request_timeout: Optional[float] = 300.0,
                 verbose: bool = False) -> None:
        self.scheduler = scheduler
        self.request_timeout = request_timeout
        self.verbose = verbose
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._t0 = time.monotonic()  # simlint: disable=SIM101
        #: Open connections and the handler thread serving each.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        self._closing = False

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolved even for ``port=0``)."""
        return self._httpd.server_address[:2]

    def uptime(self) -> float:
        """Seconds since the service object was constructed."""
        return time.monotonic() - self._t0  # simlint: disable=SIM101

    def stats(self) -> dict:
        """The ``GET /stats`` payload: scheduler counters + cache."""
        payload = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": self.uptime(),
            "scheduler": self.scheduler.stats.as_dict(),
            "inflight": self.scheduler.inflight(),
        }
        cache = self.scheduler.cache
        if isinstance(cache, ResultCache):
            payload["cache"] = cache.stats()
        return payload

    def start(self) -> "SweepService":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http",
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`stop` (or SIGINT)."""
        self._httpd.serve_forever()

    def _track(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections[sock] = threading.current_thread()
            closing = self._closing
        if closing:
            _end_reads(sock)

    def _untrack(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.pop(sock, None)

    def stop(self) -> None:
        """Stop accepting, close every connection, fail queued requests.

        A handler mid-request still writes its response; then it, like
        every idle handler, reads end-of-stream and closes.  A client's
        next request on a kept-alive connection therefore fails as one
        on a new connection would: the port is closed.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        with self._connections_lock:
            self._closing = True
            connections = dict(self._connections)
        for sock in connections:
            _end_reads(sock)
        self.scheduler.stop()
        # One deadline for all: a handler still running a long batch
        # must not make stop() wait 5 s per open connection.
        deadline = time.monotonic() + 5.0  # simlint: disable=SIM101
        for thread in connections.values():
            remaining = deadline - time.monotonic()  # simlint: disable=SIM101
            thread.join(max(0.0, remaining))
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def _end_reads(sock: socket.socket) -> None:
    """Make the handler's next read on ``sock`` see end-of-stream."""
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # already closed by its handler


def serve(scheduler: SweepScheduler, host: str = "127.0.0.1",
          port: int = 8642, verbose: bool = False,
          request_timeout: Optional[float] = 300.0) -> SweepService:
    """Build and start a background :class:`SweepService` in one call."""
    return SweepService(scheduler, host=host, port=port, verbose=verbose,
                        request_timeout=request_timeout).start()
