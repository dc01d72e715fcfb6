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

from repro.core import PtpBenchmarkConfig
from repro.core.runner import run_ptp_benchmark, run_ptp_trial

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
]


#: Trials off the default two-rank hot path: an oversubscribed
#: cold-cache node and chained partitions.
#: :func:`_exercises` checks that each case still reaches the branch it
#: is named for, so it cannot pass vacuously.
WIDE = {
    "oversubscribed-cold": (dict(message_bytes=1 << 20, partitions=64,
                                 iterations=1, warmup=0, seed=11,
                                 compute_seconds=1e-3, cache="cold"),
                            "4dc9418f9613c92ca6c5bd612e9385530a7f9e5918758feb21a9bb71a9339aa4"),
    "ppt2": (dict(message_bytes=32768, partitions=8, partitions_per_thread=2,
                  iterations=2, warmup=1, seed=17, compute_seconds=1e-3),
             "06691ac9105465e367015d8b278600d0ce97b560ca710058639df134e659ec8c"),
}


def _exercises(name, result, cluster):
    """True when the trial reached the branch its case is named for."""
    config = result.config
    if name == "oversubscribed-cold":
        # 64 threads on 40 cores: the compact binding fills the NIC's
        # socket, spills over onto the other one, then wraps around.
        binding = cluster._binding(config.threads)
        return (config.threads > cluster.spec.cores_per_node
                and binding.oversubscribed
                and bool(binding.spillover_threads())
                and cluster.procs[0].cache.stats.invalidations > 0)
    return config.threads == 4


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
