"""Per-layer attribution for the traced benchmark run.

Self time comes from :mod:`cProfile`, folded by the module that owns each
function: ``repro.<subpackage>`` (``sim``, ``mpi``, ``obs``, ...) and, for
the engine package, ``repro.core.<module>`` (``core.wire``,
``core.parallel``, ``core.pool``, ...).  Time spent in the standard library
or in builtins is charged to the repro layer that called it, except for
blocking primitives (lock waits, pipe and socket reads, ``poll``), which
land in a ``wait`` row: a thread parked on a queue is not doing its
layer's work.

:data:`PER_LAYER` is the catalogue of per-layer metrics the traced run
reports.  Each entry names the end-to-end metric and workload the layer
metric is expected to move, so a change that claims a gain on one layer
can be checked against the right end-to-end number.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
from typing import Dict, List, Optional, Tuple

#: (name, unit, better, what it should move).  The order is the report
#: order; ``BENCHMARK.json``'s ``per_layer`` list mirrors it.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.self_s", "s", "lower",
     "wall_s on figures-cold, op_p99_ms on service-mixed"),
    ("sim.events", "count", "lower", "as sim.self_s"),
    ("sim.ns_per_event", "ns", "lower", "as sim.self_s"),
    ("mpi.self_s", "s", "lower", "as sim.self_s"),
    ("partitioned.self_s", "s", "lower", "as sim.self_s"),
    ("network.self_s", "s", "lower", "as sim.self_s"),
    ("threadsim.self_s", "s", "lower", "as sim.self_s"),
    ("machine.self_s", "s", "lower", "as sim.self_s"),
    ("mpi.messages", "count", "lower", "as sim.self_s"),
    ("partitioned.pready", "count", "lower", "as sim.self_s"),
    ("network.frames", "count", "lower", "as sim.self_s"),
    ("threadsim.computes", "count", "lower", "as sim.self_s"),
    ("obs.self_s", "s", "lower", "wall_s on figures-cold"),
    ("obs.events", "count", "lower", "wall_s on figures-cold"),
    ("metrics.self_s", "s", "lower",
     "wall_s on figures-cold, op_p50_ms on service-mixed"),
    ("metrics.samples", "count", "lower", "as metrics.self_s"),
    ("wire.encode_calls", "count", "lower", "wall_s on figures-cold"),
    ("wire.encode_s", "s", "lower", "wall_s on figures-cold"),
    ("wire.decode_calls", "count", "lower",
     "wall_s on figures-cold, op_p50_ms on service-mixed"),
    ("wire.decode_s", "s", "lower",
     "wall_s on figures-cold, op_p50_ms on service-mixed"),
    ("wire.bytes", "bytes", "lower", "wall_s on figures-cold"),
    ("cache.get_s", "s", "lower",
     "wall_s on figures-cold, op_p50_ms on service-mixed"),
    ("cache.put_s", "s", "lower", "wall_s on figures-cold"),
    ("cache.hits", "count", "higher", "wall_s on figures-cold"),
    ("cache.misses", "count", "lower", "wall_s on figures-cold"),
    ("cache.stores", "count", "lower", "wall_s on figures-cold"),
    ("cache.memory_hits", "count", "higher", "op_p50_ms on service-mixed"),
    ("plan.fingerprint_s", "s", "lower",
     "wall_s on figures-cold, op_p50_ms on service-mixed"),
    ("pool.tasks", "count", "lower", "wall_s on figures-cold"),
    ("pool.chunks", "count", "lower", "wall_s on figures-cold"),
    ("pool.mean_chunk", "tasks", "higher", "wall_s on figures-cold"),
    ("pool.warm_tasks", "count", "higher", "wall_s on figures-cold"),
    ("pool.stolen_tasks", "count", "higher", "wall_s on figures-cold"),
    ("pool.booted", "count", "lower", "setup_s on figures-cold"),
    ("pool.manager_wait_s", "s", "lower",
     "wall_s on figures-cold; not service-mixed"),
    ("analytic.cells", "count", "higher",
     "wall_s on figures-cold (its fig4-analytic operation)"),
    ("analytic.eval_s", "s", "lower", "as analytic.cells"),
    ("service.batches", "count", "lower",
     "op_p50_ms, op_p99_ms and wall_s on service-mixed"),
    ("service.mean_batch", "requests", "higher", "as service.batches"),
    ("service.queue_wait_ms", "ms", "lower", "as service.batches"),
    ("service.handler_ms", "ms", "lower", "as service.batches"),
    ("scheduler.executed", "count", "lower", "as service.batches"),
    ("scheduler.cache_hits", "count", "higher", "as service.batches"),
    ("scheduler.singleflight_hits", "count", "higher",
     "as service.batches"),
    ("patterns.self_s", "s", "lower", "wall_s on figures-cold only"),
    ("proxy.self_s", "s", "lower", "wall_s on figures-cold only"),
    ("patterns.motif_runs", "count", "lower", "wall_s on figures-cold only"),
    ("trace.overhead_s", "s", "lower",
     "nothing: traced minus untraced wall_s of one pass"),
)

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("sim", "mpi", "partitioned", "network", "threadsim",
                    "machine", "obs", "metrics", "patterns", "proxy")

#: The discrete-event stack: the layers that simulate.
DES_LAYERS = ("sim", "obs", "mpi", "network", "threadsim", "machine",
              "partitioned")

#: Builtins whose time is a thread waiting, not working.
_WAIT_MARKERS = ("'acquire' of", "time.sleep", "'poll' of", "select.",
                 "'recv_into' of", "'recv' of", "'accept' of",
                 "posix.read", "posix.waitpid")

#: Library code that is a layer of its own rather than a caller's helper.
#: The HTTP client side (urllib) is the load generator, not the daemon.
_LIBRARY_LAYERS = (("/e2ebench/", "bench"), ("/http/server.py", "http"),
                   ("/socketserver.py", "http"), ("/http/client.py", "client"),
                   ("/urllib/", "client"), ("/multiprocessing/", "ipc"))

_Func = Tuple[str, int, str]


def empty_metrics() -> Dict[str, float]:
    """Every per-layer metric at zero (layers a workload never touches)."""
    return {name: 0 for name, _, _, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Profiling every thread of the process
# ---------------------------------------------------------------------------

class ThreadProfiler:
    """cProfile the calling thread and every thread started while active.

    :mod:`cProfile` observes one thread; the service workload answers
    requests on handler and dispatcher threads, so each new thread gets its
    own profiler through :func:`threading.setprofile`.  Read :meth:`stats`
    only after those threads have finished.
    """

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main: Optional[cProfile.Profile] = None

    def _start_thread(self, frame, event, arg) -> None:
        sys.setprofile(None)
        profile = cProfile.Profile()
        with self._lock:
            self._profiles.append(profile)
        profile.enable()

    def __enter__(self) -> "ThreadProfiler":
        threading.setprofile(self._start_thread)
        self._main = cProfile.Profile()
        self._profiles.append(self._main)
        self._main.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._main.disable()
        threading.setprofile(None)

    def stats(self) -> pstats.Stats:
        """Every thread's profile merged into one table."""
        with self._lock:
            profiles = list(self._profiles)
        merged = pstats.Stats(profiles[0])
        for profile in profiles[1:]:
            merged.add(profile)
        return merged


def kind_counter():
    """A sink counting events per kind, for ``run_ptp_trial(sinks=...)``.

    :class:`repro.obs.CounterSink` would serve, but it has no record-free
    ``accept_raw`` path: subscribed to every kind it makes the bus build an
    event record per emit, which doubles the obs layer's self time in the
    very profile it is meant to annotate.
    """
    from repro.obs import Sink

    class KindCounter(Sink):
        __slots__ = ("counts",)

        def __init__(self) -> None:
            self.counts: Dict[str, int] = {}

        def accept_raw(self, time, kind, values) -> None:
            self.counts[kind.name] = self.counts.get(kind.name, 0) + 1

        def accept(self, record) -> None:
            self.accept_raw(record.time, record.kind, record.values)

    return KindCounter()


def des_counts(counts: Dict[str, int], events: int,
               sim_self_s: float) -> Dict[str, float]:
    """The DES layers' per-layer counts from a :func:`kind_counter`."""
    return {
        "sim.events": events,
        "sim.ns_per_event": 1e9 * sim_self_s / events if events else 0.0,
        "mpi.messages": counts.get("send.start", 0),
        "partitioned.pready": counts.get("part.pready", 0),
        "network.frames": counts.get("nic.tx_start", 0),
        "threadsim.computes": counts.get("thread.computed", 0),
        "obs.events": sum(counts.values()),
    }


# ---------------------------------------------------------------------------
# Folding self time by layer
# ---------------------------------------------------------------------------

def _own_layer(func: _Func) -> Optional[str]:
    """The repro layer a function's source file belongs to, if any."""
    path = func[0].replace("\\", "/")
    cut = path.rfind("/repro/")
    if cut < 0:
        for marker, layer in _LIBRARY_LAYERS:
            if marker in path:
                return layer
        return None
    parts = path[cut + len("/repro/"):].split("/")
    if len(parts) == 1:
        return "cli"
    if parts[0] == "core":
        return "core." + parts[1][:-3]
    if parts[0] == "service" and parts[1] == "client.py":
        return "client"
    return parts[0]


def fold_self_time(table: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer, summed over every profiled function."""
    raw = table.stats  # type: ignore[attr-defined]
    resolved: Dict[_Func, str] = {}

    def layer_of(func: _Func, seen: set) -> str:
        own = _own_layer(func)
        if own is not None:
            return own
        if func in resolved:
            return resolved[func]
        if func in seen or func not in raw:
            return "other"
        seen.add(func)
        callers = raw[func][4]
        layer = "other"
        if callers:
            dominant = max(callers.items(), key=lambda kv: kv[1][3])[0]
            layer = layer_of(dominant, seen)
        resolved[func] = layer
        return layer

    out: Dict[str, float] = {}
    for func, (_, _, self_s, _, callers) in raw.items():
        if func[0] == "~" and any(m in func[2] for m in _WAIT_MARKERS):
            out["wait"] = out.get("wait", 0.0) + self_s
            continue
        own = _own_layer(func)
        if own is not None or not callers:
            key = own or "other"
            out[key] = out.get(key, 0.0) + self_s
            continue
        # Charge library time to the caller's layer, edge by edge.
        for caller, edge in callers.items():
            key = layer_of(caller, set())
            out[key] = out.get(key, 0.0) + edge[2]
    return out


def calls(table: pstats.Stats, file_suffix: str,
          name: str) -> Tuple[int, float]:
    """``(calls, cumulative seconds)`` of the named function(s)."""
    count, seconds = 0, 0.0
    raw = table.stats  # type: ignore[attr-defined]
    for func, (_, ncalls, _, cumulative, _) in raw.items():
        if func[2] == name and func[0].replace("\\", "/").endswith(
                file_suffix):
            count += ncalls
            seconds += cumulative
    return count, seconds


def profile_metrics(table: pstats.Stats) -> Dict[str, float]:
    """The per-layer metrics a profile alone can give."""
    folded = fold_self_time(table)
    out: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = folded.get(layer, 0.0)
    encode_calls, encode_s = calls(table, "repro/core/wire.py",
                                   "encode_result")
    decode_calls, decode_s = calls(table, "repro/core/wire.py",
                                   "decode_result")
    out["wire.encode_calls"] = encode_calls
    out["wire.encode_s"] = encode_s
    out["wire.decode_calls"] = decode_calls
    out["wire.decode_s"] = decode_s
    out["cache.get_s"] = calls(table, "repro/core/parallel.py", "get")[1]
    out["cache.put_s"] = calls(table, "repro/core/parallel.py", "put")[1]
    out["plan.fingerprint_s"] = calls(table, "repro/core/parallel.py",
                                      "config_fingerprint")[1]
    out["analytic.eval_s"] = calls(table, "repro/analytic/model.py",
                                   "evaluate_analytic")[1]
    out["pool.manager_wait_s"] = calls(table, "multiprocessing/queues.py",
                                       "get")[1]
    out["patterns.motif_runs"] = calls(table, "repro/patterns/runner.py",
                                       "run_motif")[0]
    return out


def report(workload: str, table: pstats.Stats, wall_s: float,
           metrics: Dict[str, float]) -> str:
    """The traced run's table: self time and wall share per layer, then
    every per-layer count, then the tracing overhead."""
    folded = fold_self_time(table)
    busy = sum(v for k, v in folded.items() if k != "wait")
    lines = [f"== {workload}: self time by layer (profiled wall "
             f"{wall_s:.3f} s, busy {busy:.3f} s over all threads) =="]
    lines.append(f"{'layer':<18}{'self_s':>10}{'of wall':>9}{'of busy':>9}")
    des = sum(folded.get(layer, 0.0) for layer in DES_LAYERS)
    rows = sorted(folded.items(), key=lambda kv: -kv[1])
    for layer, seconds in rows + [("DES stack", des)]:
        of_busy = "" if layer == "wait" else f"{seconds / busy:>9.1%}"
        lines.append(f"{layer:<18}{seconds:>10.4f}"
                     f"{seconds / wall_s:>9.1%}{of_busy}")
    lines.append(f"== {workload}: per-layer metrics ==")
    for name, unit, _, moves in PER_LAYER:
        value = metrics[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"{name:<28}{shown:>14} {unit:<9} moves: {moves}")
    lines.append(f"{'tracing overhead':<28}"
                 f"{metrics['trace.overhead_s']:>14.4f} s")
    return "\n".join(lines)
