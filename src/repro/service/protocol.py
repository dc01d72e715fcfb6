"""The sweep service's request protocol: JSON in, results out.

A service request is a plain JSON object describing one
:class:`~repro.core.config.PtpBenchmarkConfig` (or a grid of them) in
the same vocabulary the CLI flags use — ``message_bytes``,
``partitions``, ``noise``/``noise_percent`` by name.  This module owns
both directions of that boundary:

* :func:`config_from_payload` validates a request dict *strictly*
  (unknown keys, wrong types, numbers past the float range, and
  contradictory values are all :class:`ProtocolError` with a
  human-readable reason — the daemon's structured 400) and resolves it
  into a live, fully validated config.
  Every simulated-behaviour input rides the fingerprint, so two clients
  sending the same JSON always address the same cache entry.
* :func:`payload_from_config` is the inverse, used by the thin client
  and the load-test replayer to speak the protocol from a live config.
* :func:`result_to_payload` / the wire codec are the two response
  shapes: a JSON summary (metrics, digest, provenance, optionally the
  raw sample timelines) or the packed binary frame of
  :mod:`repro.core.wire`, byte-identical to what the cache stores.

The protocol is deliberately *narrower* than the config dataclass:
substrate presets (machine/network/cost objects) are not addressable
over the wire — the daemon benchmarks the substrate it was started
with, the way one benchmark host serves many clients.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.config import PtpBenchmarkConfig
from ..core.parallel import config_fingerprint, plan_cells
from ..core.runner import PtpResult, PtpSample
from ..core.runner import METRIC_NAMES
from ..errors import ConfigurationError, ReproError
from ..noise import NOISE_MODELS, noise_model_from_name

__all__ = ["PROTOCOL_VERSION", "ProtocolError", "QuotaError",
           "ServiceError", "config_from_payload", "payload_from_config",
           "parse_trial_request", "parse_sweep_request",
           "result_to_payload", "error_payload"]

#: Bumped on any incompatible change to the request/response JSON shape.
PROTOCOL_VERSION = 3

#: Config fields a request may carry, with the type(s) each accepts.
#: ``bool`` is deliberately excluded from the int fields (it is an int
#: subclass, and ``"partitions": true`` must be a 400, not 1).
_INT_FIELDS = ("message_bytes", "partitions", "partitions_per_thread",
               "iterations", "warmup", "seed")
_CONFIG_FIELDS = _INT_FIELDS + ("compute_seconds", "compute_ms", "noise",
                                "noise_percent", "cache")

#: Top-level keys of a ``POST /trial`` and a ``POST /sweep`` body.
_TRIAL_KEYS = ("config", "client", "priority", "format", "samples")
_SWEEP_KEYS = ("base", "sizes", "counts", "client", "priority", "samples")

#: Noise-model class -> protocol name (the inverse of
#: :data:`~repro.noise.NOISE_MODELS`).
_NOISE_NAMES = {cls: name for name, cls in NOISE_MODELS.items()}


class ServiceError(ReproError):
    """A request failed with an HTTP-style status and a reason."""

    status = 500

    def __init__(self, reason: str, status: Optional[int] = None) -> None:
        super().__init__(reason)
        self.reason = reason
        if status is not None:
            self.status = status


class ProtocolError(ServiceError):
    """A request payload is malformed or invalid (the structured 400)."""

    status = 400


class QuotaError(ServiceError):
    """A client exceeded its in-flight request quota (the 429)."""

    status = 429

    def __init__(self, client: str, inflight: int, limit: int) -> None:
        super().__init__(
            f"client {client!r} has {inflight} request(s) in flight "
            f"(quota {limit}); retry after one completes")
        self.client = client
        self.inflight = inflight
        self.limit = limit


def _require_mapping(payload, what: str, allowed) -> Dict:
    """``payload`` as a dict whose keys are all in ``allowed``."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ProtocolError(
            f"unknown {what} field(s) {unknown}; allowed: {sorted(allowed)}")
    return payload


def _number(value, what: str) -> float:
    """A JSON number as a float; booleans, strings and ints beyond the
    float range are a :class:`ProtocolError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ProtocolError(f"{what} is out of range: {value!r}") from None


def config_from_payload(payload: Dict) -> PtpBenchmarkConfig:
    """Resolve a request's config object into a live, validated config.

    Strict on purpose: unknown keys are rejected (a typo like
    ``"partitons"`` must not silently benchmark the default), numeric
    fields must be actual numbers (not booleans or strings), and the
    resulting config runs the dataclass's own construction-time
    validation — every failure is a :class:`ProtocolError` carrying the
    validation reason verbatim, which the daemon returns as the 400
    body.
    """
    payload = _require_mapping(payload, "config", _CONFIG_FIELDS)
    if "message_bytes" not in payload or "partitions" not in payload:
        raise ProtocolError(
            "config requires 'message_bytes' and 'partitions'")
    if "compute_seconds" in payload and "compute_ms" in payload:
        raise ProtocolError(
            "give 'compute_seconds' or 'compute_ms', not both")
    kwargs: Dict = {}
    for name in _INT_FIELDS:
        if name not in payload:
            continue
        value = payload[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                f"config field {name!r} must be an integer, got "
                f"{value!r}")
        kwargs[name] = value
    if kwargs["message_bytes"] >= 1 << 64:
        raise ProtocolError(
            f"config field 'message_bytes' must be < 2**64 (the wire "
            f"frame's field), got {kwargs['message_bytes']}")
    compute = payload.get("compute_seconds")
    if "compute_ms" in payload:
        compute = payload["compute_ms"]
    if compute is not None:
        compute = _number(compute, "compute time")
        kwargs["compute_seconds"] = (compute / 1e3 if "compute_ms" in payload
                                     else compute)
    noise_name = payload.get("noise", "none")
    if not isinstance(noise_name, str):
        raise ProtocolError(
            f"config field 'noise' must be a model name, got "
            f"{noise_name!r}")
    percent = payload.get("noise_percent")
    if percent is not None:
        percent = _number(percent, "config field 'noise_percent'")
    if "cache" in payload:
        if not isinstance(payload["cache"], str):
            raise ProtocolError(
                f"config field 'cache' must be a string, got "
                f"{payload['cache']!r}")
        kwargs["cache"] = payload["cache"]
    try:
        kwargs["noise"] = noise_model_from_name(noise_name, percent)
        return PtpBenchmarkConfig(**kwargs)
    except ConfigurationError as exc:
        raise ProtocolError(str(exc))


def payload_from_config(config: PtpBenchmarkConfig) -> Dict:
    """The request dict addressing ``config`` (the client-side inverse).

    Only protocol-expressible configs round-trip: custom substrate
    presets are outside the wire vocabulary, and an unknown noise model
    raises :class:`ProtocolError`.
    """
    name = _NOISE_NAMES.get(type(config.noise))
    if name is None:
        raise ProtocolError(
            f"noise model {type(config.noise).__name__} has no protocol "
            f"name; use one of {sorted(_NOISE_NAMES.values())}")
    payload: Dict = {
        "message_bytes": config.message_bytes,
        "partitions": config.partitions,
        "compute_seconds": config.compute_seconds,
        "iterations": config.iterations,
        "warmup": config.warmup,
        "seed": config.seed,
        "cache": config.cache,
    }
    if config.partitions_per_thread != 1:
        payload["partitions_per_thread"] = config.partitions_per_thread
    if name != "none":
        payload["noise"] = name
        payload["noise_percent"] = config.noise.noise_percent
    return payload


def _client_and_priority(payload: Dict) -> Tuple[str, int]:
    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError(
            f"'client' must be a non-empty string, got {client!r}")
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ProtocolError(
            f"'priority' must be an integer, got {priority!r}")
    return client, priority


def parse_trial_request(payload) -> Tuple[PtpBenchmarkConfig, str, int,
                                          str, bool]:
    """Validate one ``POST /trial`` body.

    Returns ``(config, client, priority, format, include_samples)``;
    ``format`` is ``"json"`` (summary payload) or ``"wire"`` (binary
    frame).  Any problem is a :class:`ProtocolError`, an unknown
    top-level key included: a typo like ``"sample"`` must not answer
    without the samples it asked for.
    """
    payload = _require_mapping(payload, "request", _TRIAL_KEYS)
    if "config" not in payload:
        raise ProtocolError("request requires a 'config' object")
    config = config_from_payload(payload["config"])
    client, priority = _client_and_priority(payload)
    fmt = payload.get("format", "json")
    if fmt not in ("json", "wire"):
        raise ProtocolError(
            f"'format' must be 'json' or 'wire', got {fmt!r}")
    samples = payload.get("samples", False)
    if not isinstance(samples, bool):
        raise ProtocolError(
            f"'samples' must be a boolean, got {samples!r}")
    return config, client, priority, fmt, samples


def parse_sweep_request(payload) -> Tuple[List[PtpBenchmarkConfig], str,
                                          int, bool]:
    """Validate one ``POST /sweep`` body into its per-cell configs.

    The body carries a ``base`` config plus ``sizes``/``counts`` grid
    axes; cells are planned exactly as the CLI sweep plans them
    (:func:`~repro.core.parallel.plan_cells`, per-cell derived seeds),
    so a service sweep addresses the same fingerprints a local one
    does.  Returns ``(cells, client, priority, include_samples)``.
    """
    payload = _require_mapping(payload, "sweep request", _SWEEP_KEYS)
    if "base" not in payload:
        raise ProtocolError("sweep request requires a 'base' config")
    base = config_from_payload(payload["base"])
    axes = {}
    for name in ("sizes", "counts"):
        values = payload.get(name)
        if (not isinstance(values, list) or not values
                or any(isinstance(v, bool) or not isinstance(v, int)
                       or v >= 1 << 64 for v in values)):
            raise ProtocolError(
                f"sweep request requires {name!r} as a non-empty list "
                f"of integers below 2**64 (the wire frame's field)")
        axes[name] = values
    client, priority = _client_and_priority(payload)
    samples = payload.get("samples", False)
    if not isinstance(samples, bool):
        raise ProtocolError(
            f"'samples' must be a boolean, got {samples!r}")
    try:
        cells = plan_cells(base, axes["sizes"], axes["counts"])
    except ConfigurationError as exc:
        raise ProtocolError(str(exc))
    return cells, client, priority, samples


def result_to_payload(result: PtpResult,
                      include_samples: bool = False) -> Dict:
    """The JSON response body for one answered cell.

    Carries the fingerprint (the cache identity the request resolved
    to), provenance (``source``/``trials``), the SHA-256 event digest —
    byte-equal digests prove a service answer identical to a local run
    — and the four derived pruned-mean metrics.  With
    ``include_samples`` the raw per-iteration timelines ride along, from
    which every metric is recomputable.
    """
    payload: Dict = {
        "fingerprint": config_fingerprint(result.config),
        "source": result.source,
        "trials": result.trials,
        "event_digest": result.event_digest,
        "n_samples": result.n_samples,
        "metrics": {name: getattr(result, name).mean
                    for name in METRIC_NAMES},
    }
    if include_samples:
        payload["samples"] = [_sample_to_dict(s) for s in result.samples]
    return payload


def _sample_to_dict(sample: PtpSample) -> Dict:
    """One measured iteration's raw timeline (the metrics derive from it)."""
    return {
        "iteration": sample.iteration,
        "message_bytes": sample.timeline.message_bytes,
        "pready_times": sample.timeline.pready_times.tolist(),
        "arrival_times": sample.timeline.arrival_times.tolist(),
        "join_time": sample.timeline.join_time,
        "pt2pt_time": sample.timeline.pt2pt_time,
    }


def error_payload(exc: ServiceError) -> Dict:
    """The structured JSON body every rejected request gets."""
    return {"error": {"status": exc.status, "reason": exc.reason}}
