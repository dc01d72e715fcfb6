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
    ``part.buffer_write``, ``part.buffer_read``, ``part.arrived``) fire
    where the old checker shadow hooks did — before argument validation —
    and carry the live request object in the internal ``req`` field so
    the dynamic checker can shadow the state machine.  The remaining
    kinds mark post-cost runtime milestones.
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
``fault.*``
    Injected faults firing (``repro.faults``): dropped frames, NIC
    stalls, degraded-link transmissions, duplicate deliveries, and
    fail-stops.  Silent when no :class:`~repro.faults.FaultPlan` is
    configured.
``retry.*``
    The reliable transport reacting to faults: retransmissions, ACKs
    clearing pending frames, and frames abandoned after the retry
    budget.
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
    "PART_BUFFER_WRITE", "PART_BUFFER_READ", "PART_ARRIVED",
    "PART_SEND_START", "PART_RECV_START", "PART_SEND_INJECTED",
    "PART_SEND_EPOCH_COMPLETE", "PART_RECV_EPOCH_COMPLETE",
    "SEND_START", "SEND_COMPLETE", "RECV_POST", "RECV_COMPLETE",
    "RECV_CANCELLED", "THREAD_COMPUTED", "TEAM_FORK", "TEAM_JOIN",
    "NIC_TX_START", "NIC_TX_DONE",
    "BENCH_PART_BEGIN", "BENCH_SINGLE_BEGIN", "BENCH_JOIN",
    "BENCH_SEND_BEGIN", "BENCH_RECV_COMPLETE",
    "FAULT_DROP", "FAULT_STALL", "FAULT_DEGRADE", "FAULT_DUPLICATE",
    "FAULT_FAILSTOP", "RETRY_RETRANSMIT", "RETRY_ACK", "RETRY_ABANDONED",
    "POOL_DISPATCH_BATCH",
    "SERVICE_REQUEST", "SERVICE_RESPONSE", "SERVICE_REJECT",
    "SERVICE_QUOTA_REJECT", "SERVICE_BATCH",
]

# -- partitioned lifecycle (entry events; req is in-process only) ----------
PART_INIT = SCHEMA.register(
    "part.init", ("rank", "side", "peer", "tag", "nbytes", "partitions",
                  "req"), internal=("req",),
    doc="psend_init/precv_init registered a partitioned request")
PART_START = SCHEMA.register(
    "part.start", ("rank", "side", "epoch", "req"), internal=("req",),
    doc="start() called to arm a new epoch (pre-validation)")
PART_WAIT = SCHEMA.register(
    "part.wait", ("rank", "side", "epoch", "req"), internal=("req",),
    doc="wait() entered to complete the current epoch")
PART_PREADY = SCHEMA.register(
    "part.pready", ("rank", "partition", "epoch", "req"),
    internal=("req",),
    doc="MPI_Pready call time for one partition (pre-cost, the paper's "
        "sender-side timestamp)")
PART_PARRIVED = SCHEMA.register(
    "part.parrived", ("rank", "partition", "epoch", "req"),
    internal=("req",),
    doc="MPI_Parrived poll of one partition")
PART_BUFFER_WRITE = SCHEMA.register(
    "part.buffer_write", ("rank", "partition", "epoch", "req"),
    internal=("req",),
    doc="application annotated a send-buffer write")
PART_BUFFER_READ = SCHEMA.register(
    "part.buffer_read", ("rank", "partition", "epoch", "req"),
    internal=("req",),
    doc="application annotated a receive-buffer read")
PART_ARRIVED = SCHEMA.register(
    "part.arrived", ("rank", "partition", "epoch", "nbytes", "req"),
    internal=("req",),
    doc="one partition landed in the receive buffer (the paper's "
        "receiver-side timestamp)")

# -- partitioned runtime milestones (post-cost, wire-only) -----------------
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
RECV_CANCELLED = SCHEMA.register(
    "recv.cancelled", ("rank", "tag"),
    doc="MPI_Cancel succeeded on a pending receive")

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

# -- fault injection (repro.faults) ---------------------------------------
FAULT_DROP = SCHEMA.register(
    "fault.drop", ("rank", "dst", "kind", "seq", "nbytes"),
    doc="the fabric lost one injected frame (kind/seq identify it; "
        "seq is -1 for untracked frames)")
FAULT_STALL = SCHEMA.register(
    "fault.nic_stall", ("rank", "duration"),
    doc="the NIC stalled before injecting (periodic stall window)")
FAULT_DEGRADE = SCHEMA.register(
    "fault.link_degrade", ("rank", "dst", "bandwidth_scale",
                           "latency_scale"),
    doc="one transmission ran inside a link-degradation window")
FAULT_DUPLICATE = SCHEMA.register(
    "fault.duplicate", ("rank", "src", "seq"),
    doc="receiver discarded an already-delivered frame (re-ACKed)")
FAULT_FAILSTOP = SCHEMA.register(
    "fault.fail_stop", ("rank",),
    doc="rank failed-stop: NIC dead, inbound frames black-holed")

# -- reliable transport (retry/backoff) -----------------------------------
RETRY_RETRANSMIT = SCHEMA.register(
    "retry.retransmit", ("rank", "dst", "seq", "attempt", "timeout"),
    doc="ACK timeout expired; the frame is being re-injected "
        "(timeout = the next backoff interval)")
RETRY_ACK = SCHEMA.register(
    "retry.ack", ("rank", "src", "seq"),
    doc="an ACK cleared one pending frame at the sender")
RETRY_ABANDONED = SCHEMA.register(
    "retry.abandoned", ("rank", "dst", "seq", "attempts"),
    doc="retry budget exhausted; the frame is given up for lost")

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
