"""Golden event-digest tests: the kernel fast paths must be invisible.

Every optimization inside :mod:`repro.sim.core` (immediate-event ring,
time-bucketed future queue, recycled sleeps, single-waiter dispatch) and
:mod:`repro.obs` (batched digest serialization, record-free emission) is
required to leave the observable event stream bit-identical.  These
fixed-seed mini-sweep digests were captured before the fast paths landed;
any change to event ordering, timing, or payload rendering shows up here
as a hash mismatch.

If one of these fails after an intentional semantic change to the model
layer (new event kinds, different timing model), re-capture the digests
and say so in the commit; a failure after a kernel-only change is a bug.
"""

import pytest

from repro.analysis import ResourceMonitor, enable_checking
from repro.core import PtpBenchmarkConfig, runner
from repro.core.runner import run_ptp_benchmark, run_ptp_trial
from repro.faults import DegradeWindow, FailStop, FaultPlan
from repro.machine import BindPolicy, bind_threads
from repro.mpi import Cluster

#: (config kwargs, expected sha256 of the canonical event stream).
GOLDEN = [
    (dict(message_bytes=4096, partitions=4, iterations=2, warmup=1,
          seed=7),
     "17971fc30d26c1e63a06990c6834072bc957f7a297ce0907710d0efe30a3d743"),
    (dict(message_bytes=65536, partitions=8, iterations=2, warmup=0,
          seed=7),
     "091a960a6a6788390729daecccdb478377e4f1f6a5e8cbeca55fc429bd542765"),
    (dict(message_bytes=262144, partitions=16, iterations=1, warmup=0,
          seed=13, cache="cold"),
     "d892b2aaac77cc9dc8ffa2b25cb9acf2cb3e421050b560c0245566fb4d3a1c1a"),
    (dict(message_bytes=16384, partitions=8, iterations=2, warmup=1,
          seed=42, impl="native"),
     "e6c6de576cdbd7594a85c6c1ee6a046b6d733cfe29f8500666d2cc3e85140374"),
]


#: Trials off the clean two-rank hot path: lossy links, a fail-stop, an
#: oversubscribed cold-cache node, chained partitions and a scattered
#: binding.  :func:`_exercises` checks that each case still reaches the
#: branch it is named for, so it cannot pass vacuously.
LOSSY = FaultPlan(drop_probability=0.2, stall_period=4e-4,
                  stall_duration=3e-5,
                  degrade_windows=(DegradeWindow(start=0.0, end=3e-3,
                                                 bandwidth_scale=0.5,
                                                 latency_scale=2.0),))
FAILSTOP = FaultPlan(fail_stop=FailStop(rank=1, time=4e-3), deadline=0.02)
WIDE = {
    "lossy": (dict(message_bytes=65536, partitions=8, iterations=2,
                   warmup=1, seed=3, compute_seconds=1e-3, faults=LOSSY),
              "cf184d598ed58fd606527d118e019034397dc8340091db53efd52f8c74769355"),
    "failstop": (dict(message_bytes=16384, partitions=4, iterations=3,
                      warmup=0, seed=5, compute_seconds=1e-3,
                      faults=FAILSTOP),
                 "122a8a0ee2686b40b41038e21ab223b18f2f2b937b06d52ec87d1e37e09d9c17"),
    "oversubscribed-cold": (dict(message_bytes=1 << 20, partitions=64,
                                 iterations=1, warmup=0, seed=11,
                                 compute_seconds=1e-3, cache="cold"),
                            "4dc9418f9613c92ca6c5bd612e9385530a7f9e5918758feb21a9bb71a9339aa4"),
    "ppt2": (dict(message_bytes=32768, partitions=8, partitions_per_thread=2,
                  iterations=2, warmup=1, seed=17, compute_seconds=1e-3),
             "06691ac9105465e367015d8b278600d0ce97b560ca710058639df134e659ec8c"),
    "scatter": (dict(message_bytes=131072, partitions=8, iterations=2,
                     warmup=0, seed=19, compute_seconds=1e-3,
                     bind_policy=BindPolicy.SCATTER),
                "9aad28ee4f3095851642bf797681d3adef82af6d57f7aa7ef2c699cc390f1c7f"),
}


def _exercises(name, result, cluster):
    """True when the trial reached the branch its case is named for."""
    outcome = result.fault_outcome
    if name == "lossy":
        return (outcome.delivered and outcome.retransmits > 0
                and outcome.duplicates > 0 and outcome.stalls > 0
                and cluster.fault_stats.degraded > 0)
    if name == "failstop":
        return not outcome.delivered and outcome.fail_stops == 1
    config = result.config
    if name == "oversubscribed-cold":
        return (config.threads > cluster.spec.cores_per_node
                and cluster.procs[0].cache.stats.invalidations > 0)
    if name == "ppt2":
        return config.threads == 4
    return bool(bind_threads(config.threads, cluster.spec,
                             cluster.bind_policy).spillover_threads())


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_golden_digest(name):
    kwargs, expected = WIDE[name]
    result, cluster = run_ptp_trial(PtpBenchmarkConfig(**kwargs))
    assert _exercises(name, result, cluster)
    assert result.event_digest == expected


@pytest.mark.parametrize("kwargs,expected", GOLDEN,
                         ids=[f"{kw['message_bytes']}B-p{kw['partitions']}"
                              f"-s{kw['seed']}" for kw, _ in GOLDEN])
def test_golden_digest(kwargs, expected):
    result = run_ptp_benchmark(PtpBenchmarkConfig(**kwargs))
    assert result.event_digest == expected


@pytest.mark.parametrize("kwargs,expected", GOLDEN[:1],
                         ids=["repeatable"])
def test_digest_is_repeatable_within_process(kwargs, expected):
    first = run_ptp_benchmark(PtpBenchmarkConfig(**kwargs)).event_digest
    second = run_ptp_benchmark(PtpBenchmarkConfig(**kwargs)).event_digest
    assert first == second == expected


def test_golden_digests_via_worker_pool():
    """The pool path must reproduce the pinned digests bit for bit.

    The workers ship raw timelines + digests back to the manager, so a
    scheduling or serialization bug on the pool path would surface here
    even if the simulator itself is untouched.
    """
    from repro.core import WorkerPool
    from repro.core.wire import decode_result

    configs = [PtpBenchmarkConfig(**kwargs) for kwargs, _ in GOLDEN]
    pool = WorkerPool(2)
    try:
        got = dict(pool.run(configs))
    finally:
        pool.shutdown()
    assert [decode_result(configs[i], got[i]).event_digest
            for i in range(len(GOLDEN))] == \
        [expected for _, expected in GOLDEN]


class _CountingMonitor(ResourceMonitor):
    """A resource monitor that also counts lock grants."""

    def __init__(self):
        super().__init__()
        self.grants = 0

    def on_resource_request(self, resource, event, granted):
        self.grants += granted
        super().on_resource_request(resource, event, granted)

    def on_resource_release(self, resource, handed):
        self.grants += handed is not None
        super().on_resource_release(resource, handed)


class _CheckedCluster(Cluster):
    """A cluster with the dynamic checker and a counting monitor on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        checker = enable_checking(self)
        checker.monitor = self.sim.monitor = _CountingMonitor()


@pytest.mark.parametrize("name", ["lossy", "scatter"])
def test_fast_paths_step_aside_under_the_checker(name, monkeypatch):
    """With a monitor installed every lock grant goes through the
    resource, the stream is the unchecked one, and a clean trial stays
    clean."""
    config = PtpBenchmarkConfig(**WIDE[name][0])
    monkeypatch.setattr(runner, "Cluster", _CheckedCluster)
    result, cluster = run_ptp_trial(config)
    monitor = cluster.sim.monitor
    acquisitions = sum(p.lock.stats.acquisitions for p in cluster.procs)
    assert acquisitions > 0
    assert monitor.grants == acquisitions
    assert result.event_digest == WIDE[name][1]
    cluster.checker.finalize()
    assert cluster.checker.findings == []
