"""Result persistence: save and reload sweep results as JSON.

Benchmark campaigns want to archive measurements, diff them across code
revisions, and feed external plotting — the role ``asv``-style result
files play for performance suites.  Timelines are stored losslessly, so a
reloaded result reproduces every derived metric exactly.

The config snapshot stores the *descriptive* fields (sizes, counts, noise,
cache, impl, seed); substrate objects (machine/network/cost presets) are
recorded by repr only — a reloaded result is for analysis, not for
re-running.

This JSON layer is the *archival* format.  Results crossing a process or
cache boundary travel as packed binary frames instead
(:mod:`repro.core.wire`).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

from ..errors import ConfigurationError
from ..faults import FaultOutcome
from ..metrics import PartitionTimeline, PtpMetrics
from .runner import PtpResult, PtpSample
from .sweep import SweepResult

__all__ = ["sample_to_dict", "sample_from_dict",
           "result_to_dict", "result_from_dict", "sweep_to_dict",
           "sweep_from_dict", "save_sweep", "load_sweep",
           "FORMAT_VERSION"]

#: Bumped on any incompatible change to the JSON layout.
FORMAT_VERSION = 1


def _config_snapshot(config) -> Dict:
    snap = {
        "message_bytes": config.message_bytes,
        "partitions": config.partitions,
        "partitions_per_thread": config.partitions_per_thread,
        "compute_seconds": config.compute_seconds,
        "noise": config.noise.describe(),
        "cache": config.cache,
        "impl": config.impl,
        "iterations": config.iterations,
        "warmup": config.warmup,
        "seed": config.seed,
        "label": config.label(),
    }
    if config.faults is not None:
        snap["faults"] = config.faults.describe()
    return snap


def sample_to_dict(sample: PtpSample) -> Dict:
    """Serialize one measured iteration (the timeline is lossless).

    Only the raw timeline is stored; the four derived metrics are
    recomputed on load, so a round trip reproduces them bit-exactly.
    """
    return {
        "iteration": sample.iteration,
        "message_bytes": sample.timeline.message_bytes,
        "pready_times": list(sample.timeline.pready_times),
        "arrival_times": list(sample.timeline.arrival_times),
        "join_time": sample.timeline.join_time,
        "pt2pt_time": sample.timeline.pt2pt_time,
    }


def sample_from_dict(data: Dict) -> PtpSample:
    """Rebuild one iteration, recomputing its metrics from the timeline."""
    timeline = PartitionTimeline(
        message_bytes=data["message_bytes"],
        pready_times=data["pready_times"],
        arrival_times=data["arrival_times"],
        join_time=data["join_time"],
        pt2pt_time=data["pt2pt_time"],
    )
    return PtpSample(
        iteration=data["iteration"],
        timeline=timeline,
        metrics=PtpMetrics.from_timeline(timeline),
    )


def result_to_dict(result: PtpResult) -> Dict:
    """Serialize one configuration's result (timelines are lossless).

    The event-stream digest, the fault outcome, and non-default
    provenance (``source``/``trials``) ride along when present (additive
    fields — the format version is unchanged, and old records simply
    load with the defaults: ``event_digest=None``, ``fault_outcome=None``,
    one simulated trial).
    """
    out = {
        "config": _config_snapshot(result.config),
        "samples": [sample_to_dict(s) for s in result.samples],
    }
    if result.event_digest is not None:
        out["event_digest"] = result.event_digest
    if result.fault_outcome is not None:
        out["fault_outcome"] = result.fault_outcome.to_dict()
    if result.source != "des":
        out["source"] = result.source
    if result.trials != 1:
        out["trials"] = result.trials
    return out


def result_from_dict(data: Dict) -> PtpResult:
    """Rebuild a result; metrics are recomputed from the stored timelines.

    The returned result's ``config`` is the stored *snapshot dict* (the
    live substrate objects are not round-tripped).
    """
    try:
        samples_data = data["samples"]
        config = data["config"]
    except KeyError as exc:
        raise ConfigurationError(f"malformed result record: missing {exc}")
    result = PtpResult(config=config,
                       event_digest=data.get("event_digest"),
                       source=data.get("source", "des"),
                       trials=data.get("trials", 1))
    outcome = data.get("fault_outcome")
    if outcome is not None:
        result.fault_outcome = FaultOutcome.from_dict(outcome)
    for s in samples_data:
        result.samples.append(sample_from_dict(s))
    return result


def sweep_to_dict(sweep: SweepResult) -> Dict:
    """Serialize a whole sweep."""
    return {
        "format_version": FORMAT_VERSION,
        "points": [
            {
                "message_bytes": p.config.message_bytes,
                "partitions": p.config.partitions,
                "result": result_to_dict(p.result),
            }
            for p in sweep.points
        ],
    }


def sweep_from_dict(data: Dict) -> "LoadedSweep":
    """Rebuild a sweep into a :class:`LoadedSweep` (metrics recomputed)."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported result format {version!r} "
            f"(this build reads {FORMAT_VERSION})")
    loaded = LoadedSweep()
    for p in data["points"]:
        loaded.points.append(LoadedPoint(
            message_bytes=p["message_bytes"],
            partitions=p["partitions"],
            result=result_from_dict(p["result"]),
        ))
    return loaded


class LoadedPoint:
    """One reloaded sweep cell (config is a snapshot, not live objects)."""

    def __init__(self, message_bytes: int, partitions: int,
                 result: PtpResult):
        self.message_bytes = message_bytes
        self.partitions = partitions
        self.result = result


class LoadedSweep:
    """A reloaded sweep: enough structure for tables and comparisons."""

    def __init__(self) -> None:
        self.points: List[LoadedPoint] = []

    def value(self, metric: str, message_bytes: int,
              partitions: int) -> float:
        """Pruned-mean metric value of one cell (as SweepResult.value)."""
        for p in self.points:
            if (p.message_bytes == message_bytes
                    and p.partitions == partitions):
                return getattr(p.result, metric).mean
        raise ConfigurationError(
            f"no stored point for m={message_bytes}, n={partitions}")


def save_sweep(sweep: SweepResult,
               path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write a sweep to ``path`` as JSON; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sweep_to_dict(sweep), indent=1))
    return path


def load_sweep(path: Union[str, pathlib.Path]) -> LoadedSweep:
    """Read a sweep previously written by :func:`save_sweep`."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigurationError(f"no result file at {path}")
    return sweep_from_dict(json.loads(path.read_text()))
