"""The built-in event taxonomy, registered on the process-wide schema.

Every instrumented component of the substrate emits one of the kinds
below; the module-level constants are the interned
:class:`~repro.obs.schema.EventKind` handles emit sites import directly
(one attribute load at emit time, no string lookup).

Categories
----------
``part.*``
    Partitioned-request lifecycle.  The *entry* kinds (``part.init``,
    ``part.start``, ``part.wait``, ``part.pready``, ``part.parrived``,
    ``part.arrived``) fire on entry, before argument validation, so a
    call the runtime rejects is still in the stream.  They stay there
    because moving an emit after validation would change the stream,
    and with it every pinned event digest.  The remaining kinds mark
    post-cost runtime milestones.
``send.* / recv.*``
    Ordinary point-to-point milestones.
``thread.* / team.*``
    Simulated OpenMP regions.
``nic.*``
    Per-rank NIC transmit engine activity.
``bench.*``
    Phase markers emitted by the micro-benchmark runner; the streaming
    :class:`~repro.obs.timeline.TimelineBuilder` turns them (plus
    ``part.pready``/``part.arrived``) into
    :class:`~repro.metrics.timeline.PartitionTimeline` objects.
``pool.*``
    The persistent worker pool (:mod:`repro.core.pool`): one
    ``pool.dispatch_batch`` per task submitted to its executor.  Unlike
    every other category it is a *manager-side* event stamped with
    host-monotonic seconds since pool creation — it describes how a
    sweep was executed, never what it computed, so it is excluded from
    result event digests by construction (the per-cell digest is sealed
    inside the worker).  The end-to-end benchmark's trace counts it; it
    stays until that benchmark is next revised (ROADMAP item 1).
``service.*``
    The benchmark daemon (:mod:`repro.service`): request admission,
    quota rejections, scheduler batches, and responses.  Like ``pool.*``
    these are host-side lifecycle events (seconds since the service
    started) describing how requests were served, never what they
    computed.
"""

from __future__ import annotations

from .schema import SCHEMA

__all__ = [
    "PART_INIT", "PART_START", "PART_WAIT", "PART_PREADY", "PART_PARRIVED",
    "PART_ARRIVED",
    "PART_SEND_START", "PART_RECV_START", "PART_SEND_INJECTED",
    "PART_SEND_EPOCH_COMPLETE", "PART_RECV_EPOCH_COMPLETE",
    "SEND_START", "SEND_COMPLETE", "RECV_POST", "RECV_COMPLETE",
    "THREAD_COMPUTED", "TEAM_FORK", "TEAM_JOIN",
    "NIC_TX_START", "NIC_TX_DONE",
    "BENCH_PART_BEGIN", "BENCH_SINGLE_BEGIN", "BENCH_JOIN",
    "BENCH_SEND_BEGIN", "BENCH_RECV_COMPLETE",
    "POOL_DISPATCH_BATCH",
    "SERVICE_REQUEST", "SERVICE_RESPONSE", "SERVICE_REJECT",
    "SERVICE_QUOTA_REJECT", "SERVICE_BATCH",
]

# -- partitioned lifecycle (entry events, pre-validation) -----------------
PART_INIT = SCHEMA.register(
    "part.init", ("rank", "side", "peer", "tag", "nbytes", "partitions"),
    doc="psend_init/precv_init registered a partitioned request")
PART_START = SCHEMA.register(
    "part.start", ("rank", "side", "epoch"),
    doc="start() called to arm a new epoch (pre-validation)")
PART_WAIT = SCHEMA.register(
    "part.wait", ("rank", "side", "epoch"),
    doc="wait() entered to complete the current epoch")
PART_PREADY = SCHEMA.register(
    "part.pready", ("rank", "partition", "epoch"),
    doc="MPI_Pready call time for one partition (pre-cost, the paper's "
        "sender-side timestamp)")
PART_PARRIVED = SCHEMA.register(
    "part.parrived", ("rank", "partition", "epoch"),
    doc="MPI_Parrived poll of one partition")
PART_ARRIVED = SCHEMA.register(
    "part.arrived", ("rank", "partition", "epoch", "nbytes"),
    doc="one partition landed in the receive buffer (the paper's "
        "receiver-side timestamp)")

# -- partitioned runtime milestones (post-cost) ---------------------------
PART_SEND_START = SCHEMA.register(
    "part.send_start", ("rank", "epoch"),
    doc="send-side start() completed (costs charged)")
PART_RECV_START = SCHEMA.register(
    "part.recv_start", ("rank", "epoch"),
    doc="receive-side start() completed (internal receives posted)")
PART_SEND_INJECTED = SCHEMA.register(
    "part.send_injected", ("rank", "partition", "epoch"),
    doc="NIC finished injecting one partition's data")
PART_SEND_EPOCH_COMPLETE = SCHEMA.register(
    "part.send_epoch_complete", ("rank", "epoch"),
    doc="every partition of the epoch has been injected")
PART_RECV_EPOCH_COMPLETE = SCHEMA.register(
    "part.recv_epoch_complete", ("rank", "epoch"),
    doc="every partition of the epoch has arrived")

# -- ordinary point-to-point ----------------------------------------------
SEND_START = SCHEMA.register(
    "send.start", ("rank", "dest", "tag", "nbytes"),
    doc="isend posted (eager injection or RTS queued)")
SEND_COMPLETE = SCHEMA.register(
    "send.complete", ("rank", "dest", "tag", "nbytes"),
    doc="send-side completion (buffer reusable)")
RECV_POST = SCHEMA.register(
    "recv.post", ("rank", "source", "tag"),
    doc="receive posted to the matching engine")
RECV_COMPLETE = SCHEMA.register(
    "recv.complete", ("rank", "source", "tag", "nbytes"),
    doc="receive-side completion (data in the user buffer)")

# -- simulated threads -----------------------------------------------------
THREAD_COMPUTED = SCHEMA.register(
    "thread.computed", ("rank", "thread", "nominal", "wall"),
    doc="one thread finished a compute burst (nominal vs wall seconds)")
TEAM_FORK = SCHEMA.register(
    "team.fork", ("rank", "nthreads"),
    doc="parallel region opened")
TEAM_JOIN = SCHEMA.register(
    "team.join", ("rank", "team", "nthreads"),
    doc="parallel region joined (implicit barrier paid)")

# -- NIC transmit engine ---------------------------------------------------
NIC_TX_START = SCHEMA.register(
    "nic.tx_start", ("rank", "dst", "nbytes"),
    doc="transmit engine started serializing one message")
NIC_TX_DONE = SCHEMA.register(
    "nic.tx_done", ("rank", "dst", "nbytes"),
    doc="injection finished; propagation toward the destination begins")

# -- micro-benchmark phase markers ----------------------------------------
BENCH_PART_BEGIN = SCHEMA.register(
    "bench.part_begin", ("rank", "iteration", "message_bytes",
                         "partitions"),
    doc="partitioned phase: parallel region about to open (the anchor "
        "of the iteration's relative clock)")
BENCH_SINGLE_BEGIN = SCHEMA.register(
    "bench.single_begin", ("rank", "iteration"),
    doc="single-send phase: parallel region about to open")
BENCH_JOIN = SCHEMA.register(
    "bench.join", ("rank", "iteration"),
    doc="single-send phase: compute threads joined")
BENCH_SEND_BEGIN = SCHEMA.register(
    "bench.send_begin", ("rank", "iteration"),
    doc="single-send phase: the reference m-byte send is being posted")
BENCH_RECV_COMPLETE = SCHEMA.register(
    "bench.recv_complete", ("rank", "iteration"),
    doc="single-send phase: the reference receive completed "
        "(closes the iteration)")

# -- persistent worker pool (repro.core.pool; manager-side) ----------------
POOL_DISPATCH_BATCH = SCHEMA.register(
    "pool.dispatch_batch", ("tasks",),
    doc="the manager submitted one task to the pool's executor (tasks "
        "is always 1)")

# -- benchmark daemon (repro.service; host-side) ---------------------------
SERVICE_REQUEST = SCHEMA.register(
    "service.request", ("client", "priority", "fingerprint"),
    doc="the scheduler admitted one benchmark request")
SERVICE_RESPONSE = SCHEMA.register(
    "service.response", ("client", "fingerprint", "wait_seconds"),
    doc="one request was answered (wait = admission to completion)")
SERVICE_REJECT = SCHEMA.register(
    "service.reject", ("client", "status", "reason"),
    doc="a request was rejected before scheduling (malformed config, "
        "bad payload); status is the HTTP-style code")
SERVICE_QUOTA_REJECT = SCHEMA.register(
    "service.quota_reject", ("client", "inflight", "limit"),
    doc="a request exceeded its client's in-flight quota (429)")
SERVICE_BATCH = SCHEMA.register(
    "service.batch", ("size", "queued"),
    doc="the scheduler dispatched one batch of requests to the engine "
        "(queued = requests still waiting after the batch was cut)")
