"""A thin stdlib client for the sweep daemon.

:class:`ServiceClient` speaks the protocol of
:mod:`repro.service.protocol` over :mod:`http.client`, with no
dependencies.  It exists so tests, :mod:`scripts.load_test`, and
notebook users don't hand-roll HTTP:

>>> client = ServiceClient("http://127.0.0.1:8642", client_id="nb")
>>> client.healthz()["status"]
'ok'
>>> payload = client.trial({"message_bytes": 4096, "partitions": 8})
>>> payload["metrics"]["overhead"]

Each calling thread keeps one persistent HTTP/1.1 connection, so a loop
of requests pays the TCP handshake and the daemon's handler-thread
start once instead of per request.  A *reused* connection that the
daemon closed before answering (its idle timeout, a restart) is retried
once on a fresh connection; nothing else is retried.  :meth:`close`
(or a ``with`` block) closes every thread's connection.

Server-side rejections come back as the same exception types the
daemon raised — :class:`~repro.service.protocol.ProtocolError` for a
400, :class:`~repro.service.protocol.QuotaError` for a 429, plain
:class:`~repro.service.protocol.ServiceError` otherwise — rebuilt from
the structured error body, so callers handle local and remote failures
with one ``except`` clause.  Every transport failure is a
``ServiceError`` with status 503.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import Dict, List, Optional, Sequence

from ..core.config import PtpBenchmarkConfig
from ..core.runner import PtpResult
from ..core.wire import decode_result
from .protocol import (ProtocolError, QuotaError, ServiceError,
                       payload_from_config)
from .server import WIRE_CONTENT_TYPE

__all__ = ["ServiceClient"]


def _rebuild_error(status: int, body: bytes) -> ServiceError:
    """Turn a structured error response back into the exception it was."""
    try:
        reason = json.loads(body)["error"]["reason"]
    except (ValueError, KeyError, TypeError):
        reason = body.decode("utf-8", "replace") or f"HTTP {status}"
    if status == 400:
        return ProtocolError(reason)
    if status == 429:
        # QuotaError's constructor wants the server-side numbers, which
        # the body doesn't carry — build the instance around the reason.
        error = QuotaError.__new__(QuotaError)
        ServiceError.__init__(error, reason, status=429)
        return error
    return ServiceError(reason, status=status)


class ServiceClient:
    """One daemon endpoint plus the identity requests are billed to.

    Safe to share between threads: each thread talks over its own
    kept-alive connection.
    """

    def __init__(self, base_url: str, client_id: str = "anonymous",
                 timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        self._address = (url.hostname, url.port)
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Every thread's connection, so :meth:`close` reaches them all.
        self._connections: List[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close the connection of every thread that used this client.

        A later request simply reconnects.
        """
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            host, port = self._address
            connection = http.client.HTTPConnection(host, port,
                                                    timeout=self.timeout)
            self._local.connection = connection
            with self._lock:
                self._connections.append(connection)
        return connection

    @staticmethod
    def _exchange(connection: http.client.HTTPConnection, method: str,
                  path: str, body: Optional[bytes], headers: Dict):
        reused = connection.sock is not None
        try:
            connection.request(method, path, body, headers)
            response = connection.getresponse()
        except ConnectionError:
            # The daemon closed a kept-alive connection before any
            # response arrived; requests are idempotent (content-
            # addressed), so send it once more on a fresh connection.
            connection.close()
            if not reused:
                raise
            connection.request(method, path, body, headers)
            response = connection.getresponse()
        return (response.status, response.getheader("Content-Type", ""),
                response.read())

    def _request(self, path: str, payload: Optional[Dict] = None,
                 raw: bool = False):
        method, body, headers = "GET", None, {}
        if payload is not None:
            method, body = "POST", json.dumps(payload).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        connection = self._connection()
        try:
            status, content_type, data = self._exchange(
                connection, method, self._prefix + path, body, headers)
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise ServiceError(f"cannot reach {self.base_url}: {exc}",
                               status=503) from exc
        if not 200 <= status < 300:
            raise _rebuild_error(status, data)
        if raw:
            if content_type != WIRE_CONTENT_TYPE:
                raise ServiceError(
                    f"expected a wire frame, got {content_type!r}")
            return data
        return json.loads(data)

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> Dict:
        """Liveness probe: the daemon's ``GET /healthz`` payload."""
        return self._request("/healthz")

    def stats(self) -> Dict:
        """Lifetime counters + cache snapshot from ``GET /stats``."""
        return self._request("/stats")

    def trial(self, config: Dict, priority: int = 0,
              samples: bool = False) -> Dict:
        """Run one cell described by a protocol config dict."""
        return self._request("/trial", {
            "config": config, "client": self.client_id,
            "priority": priority, "samples": samples,
        })

    def trial_result(self, config: PtpBenchmarkConfig,
                     priority: int = 0) -> PtpResult:
        """Run one cell from a live config; decode the binary frame.

        The wire format carries the raw timelines, so the returned
        :class:`~repro.core.runner.PtpResult` is bit-identical to a
        local run of the same fingerprint — including the event digest.
        """
        frame = self._request("/trial", {
            "config": payload_from_config(config),
            "client": self.client_id, "priority": priority,
            "format": "wire",
        }, raw=True)
        return decode_result(config, frame)

    def sweep(self, base: Dict, sizes: Sequence[int],
              counts: Sequence[int], priority: int = 0,
              samples: bool = False) -> List[Dict]:
        """Run a grid; returns the ordered per-cell payload list."""
        payload = self._request("/sweep", {
            "base": base, "sizes": list(sizes), "counts": list(counts),
            "client": self.client_id, "priority": priority,
            "samples": samples,
        })
        return payload["cells"]
