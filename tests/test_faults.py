"""Fault injection (``repro.faults``): plans, retry transport, outcomes.

Covers the fault-plan dataclasses and spec grammar, the ACK/retransmit
transport under a lossy fabric (payload delivery, duplicate suppression,
retry budget), graceful degradation of trials (fail-stop, deadline), and
the determinism guarantees: a fault plan is part of the cache
fingerprint, and serial / parallel / cached executions of a faulty
configuration remain bit-identical.
"""

import pytest

from repro.core import (PtpBenchmarkConfig, config_fingerprint,
                        fault_table, run_cells, run_ptp_benchmark,
                        run_ptp_trial, sweep_ptp)
from repro.errors import ConfigurationError
from repro.faults import (DegradeWindow, FailStop, FaultOutcome, FaultPlan,
                          RetryPolicy, parse_fault_spec)
from repro.mpi import Cluster
from repro.obs import MemorySink

#: A quick one-cell config the fault trials build on.
QUICK = dict(message_bytes=4096, partitions=4, compute_seconds=1e-4,
             iterations=2, warmup=0)

#: A plan lossy enough to force retransmits at QUICK's traffic volume.
LOSSY = FaultPlan(drop_probability=0.2)


def _config(**overrides):
    kwargs = dict(QUICK)
    kwargs.update(overrides)
    return PtpBenchmarkConfig(**kwargs)


class TestFaultPlanValidation:
    def test_clean_plan_is_inactive(self):
        plan = FaultPlan()
        assert not plan.active
        assert not plan.lossy
        assert plan.describe() == "clean"

    def test_drop_probability_bounds(self):
        FaultPlan(drop_probability=0.999)
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_probability=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_probability=-0.1)

    def test_degrade_window_validation(self):
        with pytest.raises(ConfigurationError):
            DegradeWindow(start=2.0, end=1.0)
        with pytest.raises(ConfigurationError):
            DegradeWindow(start=0.0, end=1.0, bandwidth_scale=0.0)
        with pytest.raises(ConfigurationError):
            DegradeWindow(start=0.0, end=1.0, latency_scale=0.5)

    def test_degrade_at_composes_overlapping_windows(self):
        plan = FaultPlan(degrade_windows=(
            DegradeWindow(0.0, 2.0, bandwidth_scale=0.5),
            DegradeWindow(1.0, 3.0, latency_scale=4.0),
        ))
        assert plan.degrade_at(0.5) == (0.5, 1.0)
        assert plan.degrade_at(1.5) == (0.5, 4.0)
        assert plan.degrade_at(2.5) == (1.0, 4.0)
        assert plan.degrade_at(5.0) == (1.0, 1.0)

    def test_stall_is_phase_aligned(self):
        plan = FaultPlan(stall_period=1.0, stall_duration=0.25)
        assert plan.stall_delay(0.1) == pytest.approx(0.15)
        assert plan.stall_delay(0.5) == 0.0
        assert plan.stall_delay(2.2) == pytest.approx(0.05)
        with pytest.raises(ConfigurationError):
            FaultPlan(stall_period=1.0, stall_duration=1.0)

    def test_slowdown_validation_and_lookup(self):
        plan = FaultPlan(rank_slowdown=((1, 2.5),))
        assert plan.slowdown_for(1) == 2.5
        assert plan.slowdown_for(0) == 1.0
        with pytest.raises(ConfigurationError):
            FaultPlan(rank_slowdown=((0, 0.5),))
        with pytest.raises(ConfigurationError):
            FaultPlan(rank_slowdown=((0, 2.0), (0, 3.0)))

    def test_retry_policy_backoff_caps(self):
        policy = RetryPolicy(ack_timeout=1e-5, backoff_factor=2.0,
                             max_backoff=4e-5)
        assert policy.timeout_after(0) == pytest.approx(1e-5)
        assert policy.timeout_after(1) == pytest.approx(2e-5)
        assert policy.timeout_after(10) == pytest.approx(4e-5)

    def test_cluster_rejects_out_of_range_fault_ranks(self):
        with pytest.raises(ConfigurationError):
            Cluster(nranks=2, faults=FaultPlan(
                fail_stop=FailStop(rank=5, time=1.0)))
        with pytest.raises(ConfigurationError):
            Cluster(nranks=2, faults=FaultPlan(rank_slowdown=((7, 2.0),)))


class TestFaultSpecGrammar:
    def test_full_spec_round_trip(self):
        plan = parse_fault_spec(
            "drop=0.05,degrade=0:1:0.5:2,stall=0.01/0.001,slow=1:3,"
            "failstop=0@2.5,deadline=9,ack_timeout=2e-5,backoff=3,"
            "max_backoff=0.01,retries=4")
        assert plan.drop_probability == 0.05
        assert plan.degrade_windows == (
            DegradeWindow(0.0, 1.0, bandwidth_scale=0.5, latency_scale=2.0),)
        assert plan.stall_period == 0.01
        assert plan.stall_duration == 0.001
        assert plan.rank_slowdown == ((1, 3.0),)
        assert plan.fail_stop == FailStop(rank=0, time=2.5)
        assert plan.deadline == 9.0
        assert plan.retry == RetryPolicy(ack_timeout=2e-5, backoff_factor=3.0,
                                         max_backoff=0.01, max_retries=4)

    @pytest.mark.parametrize("bad", [
        "", "drop", "drop=x", "unknown=1", "drop=0.5,drop=0.5",
        "failstop=1", "stall=0.5", "degrade=1:2",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(bad)

    def test_grammar_text_available(self):
        assert "drop=P" in parse_fault_spec.GRAMMAR


class TestLossyTransport:
    def _run_payload(self, nbytes, plan, seed=2):
        """One send/recv under ``plan``; returns (received, cluster)."""
        got = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 5, nbytes,
                                         payload=("hello", nbytes))
            else:
                req = yield from ctx.comm.irecv(ctx.main, 0, 5, nbytes)
                yield req.wait()
                got["payload"] = req.status.payload

        cluster = Cluster(nranks=2, seed=seed, faults=plan)
        mem = MemorySink()
        cluster.obs.attach(mem, ("fault.*", "retry.*"))
        cluster.run(program)
        return got.get("payload"), cluster, mem

    def test_eager_payload_survives_drops(self):
        # High loss on a small (eager) message: the payload still lands
        # intact, and the retransmit path provably fired.
        plan = FaultPlan(drop_probability=0.4)
        payload, cluster, mem = self._run_payload(1024, plan)
        assert payload == ("hello", 1024)
        stats = cluster.fault_stats
        assert stats.drops > 0
        assert stats.retransmits > 0
        assert stats.abandoned == 0
        assert mem.filter("retry.retransmit")

    def test_rendezvous_payload_survives_drops(self):
        # Above the eager threshold the RTS/CTS handshake frames are
        # droppable too; retry must recover the whole exchange.
        plan = FaultPlan(drop_probability=0.3)
        payload, cluster, _ = self._run_payload(64 * 1024, plan, seed=5)
        assert payload == ("hello", 64 * 1024)
        assert cluster.fault_stats.drops > 0

    def test_duplicates_are_suppressed_not_redelivered(self):
        # Drive loss until a duplicate delivery happens (lost ACK path):
        # the receiver re-ACKs but hands the message up exactly once.
        for seed in range(20):
            payload, cluster, mem = self._run_payload(
                1024, FaultPlan(drop_probability=0.4), seed=seed)
            assert payload == ("hello", 1024)
            if cluster.fault_stats.duplicates:
                assert mem.filter("fault.duplicate")
                return
        pytest.fail("no seed in 0..19 produced a duplicate delivery")

    def test_clean_plan_changes_nothing(self):
        # A present-but-empty plan must not perturb the simulation.
        clean, _, _ = self._run_payload(1024, None)
        with_plan, cluster, mem = self._run_payload(1024, FaultPlan())
        assert clean == with_plan
        assert cluster.fault_stats.drops == 0
        assert len(mem) == 0


class TestGracefulDegradation:
    def test_fail_stop_yields_outcome_not_crash(self):
        # Rank 1 dies mid-way through the first compute phase, so the
        # sender's partitioned traffic can never complete.
        config = _config(compute_seconds=1e-3, faults=FaultPlan(
            fail_stop=FailStop(rank=1, time=5e-4), deadline=0.05))
        result = run_ptp_benchmark(config)
        outcome = result.fault_outcome
        assert outcome is not None
        assert not outcome.delivered
        assert outcome.fail_stops == 1
        assert "fail-stop" in outcome.reason
        assert "ABANDONED" in outcome.describe()

    def test_deadline_yields_outcome_not_crash(self):
        config = _config(compute_seconds=1e-2,
                         faults=FaultPlan(deadline=1e-3))
        result = run_ptp_benchmark(config)
        assert not result.fault_outcome.delivered
        assert "deadline" in result.fault_outcome.reason
        assert result.samples == ()

    def test_lossy_trial_delivers_with_outcome(self):
        result = run_ptp_benchmark(_config(faults=LOSSY))
        assert result.fault_outcome.delivered
        assert result.fault_outcome.retransmits > 0
        assert len(result.samples) == QUICK["iterations"]

    def test_retry_events_flow_through_trial_sinks(self):
        mem = MemorySink()
        result, _ = run_ptp_trial(_config(faults=LOSSY),
                                  sinks=[(mem, ("retry.*", "fault.*"))])
        assert mem.filter("fault.drop")
        assert mem.filter("retry.retransmit")
        assert result.fault_outcome.drops == len(mem.filter("fault.drop"))


class TestDeterminismAndCaching:
    def test_fault_plan_enters_fingerprint(self):
        clean = _config()
        faulty = _config(faults=LOSSY)
        assert config_fingerprint(clean) != config_fingerprint(faulty)
        assert config_fingerprint(faulty) == config_fingerprint(
            _config(faults=FaultPlan(drop_probability=0.2)))
        assert config_fingerprint(faulty) != config_fingerprint(
            _config(faults=FaultPlan(drop_probability=0.3)))

    def test_faulty_trial_is_bit_identical_on_rerun(self):
        a = run_ptp_benchmark(_config(faults=LOSSY))
        b = run_ptp_benchmark(_config(faults=LOSSY))
        assert a.event_digest == b.event_digest
        assert a.fault_outcome == b.fault_outcome

    def test_serial_parallel_cached_agree_under_faults(self, tmp_path):
        cells = [_config(faults=LOSSY),
                 _config(message_bytes=8192, faults=LOSSY)]
        serial, _ = run_cells(cells, jobs=1)
        parallel, _ = run_cells(cells, jobs=2, cache=tmp_path / "cache")
        cached, stats = run_cells(cells, jobs=1, cache=tmp_path / "cache")
        assert stats.executed == 0
        for s, p, c in zip(serial, parallel, cached):
            assert s.event_digest == p.event_digest == c.event_digest
            assert s.fault_outcome == p.fault_outcome == c.fault_outcome

    def test_outcome_dict_maps_every_field(self):
        data = FaultOutcome(delivered=True, drops=3).to_dict()
        assert data["drops"] == 3
        assert set(data) == set(FaultOutcome.__dataclass_fields__)


class TestReporting:
    def test_fault_table_lists_faulty_cells(self):
        base = _config(faults=LOSSY)
        sweep = sweep_ptp(base, [4096, 8192], [2])
        table = fault_table(sweep)
        assert table is not None
        assert "fault outcomes" in table
        assert "4KiB" in table and "8KiB" in table

    def test_fault_table_none_for_clean_sweeps(self):
        sweep = sweep_ptp(_config(), [4096], [2])
        assert fault_table(sweep) is None
        assert sweep.fault_points() == []
