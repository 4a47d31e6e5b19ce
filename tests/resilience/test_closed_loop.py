"""Closed-loop ``simulate_traffic``: conservation, equivalence, digests.

The resilience layer must not bend the simulation's contracts: every
request still gets exactly one terminal outcome, a one-attempt client is
status-identical to the open loop, and the digest is byte-identical
under rerun and evaluation-order perturbation.  On top of that sit the
closed-loop claims themselves: retries re-serve real requests, the token
bucket caps amplification, and the breaker converts overload into sheds.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults.plan import build_outage_calendar
from repro.loadgen.arrivals import TrafficConfig, generate_trace
from repro.loadgen.autoscaler import AutoscalerConfig
from repro.loadgen.queue import (
    DROPPED,
    ERROR,
    FAILED,
    REJECTED,
    SERVED,
    SHED,
    AdmissionConfig,
)
from repro.loadgen.sim import simulate_traffic
from repro.resilience.breaker import serving_breaker_config
from repro.resilience.clients import ClientConfig, ClosedLoopRuntime, plan_resilience
from repro.resilience.scenario import StormConfig, policy_spec, run_rung
from repro.resilience.shedding import SheddingConfig
from repro.serving import (
    DEVICE_CATALOG,
    BatchingConfig,
    InferenceEngine,
    food11_classifier,
)

#: ~8 rps for six minutes with a one-minute full outage in the middle —
#: small enough to simulate in milliseconds, faulty enough that every
#: loss class and retry path fires.
TRAFFIC = TrafficConfig(
    seed=7, pattern="poisson", requests_per_day=700_000.0, duration_hours=0.1
)
OPS = dict(
    admission=AdmissionConfig(queue_capacity=32, deadline_ms=500.0),
    batching=BatchingConfig(max_batch=8),
    autoscaler=AutoscalerConfig(
        min_replicas=1, max_replicas=1, control_interval_s=10.0,
        provisioning_lag_s=30.0,
    ),
)


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TRAFFIC)


@pytest.fixture(scope="module")
def calendar():
    return build_outage_calendar(
        outage_start_s=120.0, outage_end_s=180.0, horizon_hours=TRAFFIC.duration_hours
    )


def run(trace, engine, calendar, client, *, perturb=False, **defenses):
    model = plan_resilience(trace, client, **defenses)
    return simulate_traffic(
        trace, engine, calendar=calendar, resilience=model, perturb=perturb, **OPS
    )


@pytest.fixture(scope="module")
def naive_run(trace, engine, calendar):
    return run(trace, engine, calendar, ClientConfig.naive())


@pytest.fixture(scope="module")
def guarded_run(trace, engine, calendar):
    return run(
        trace, engine, calendar, ClientConfig.budgeted(),
        shedding=SheddingConfig(brownout_depth_fraction=0.3),
        breaker=serving_breaker_config(min_volume=20),
    )


class TestContractsHold:
    def test_every_request_terminal_and_attempted(self, naive_run):
        out = naive_run.resilience
        assert (naive_run.status >= SERVED).all()
        assert (naive_run.status <= SHED).all()
        assert (out.attempts >= 1).all()
        counted = (
            naive_run.served + naive_run.rejected + naive_run.dropped
            + naive_run.errored + naive_run.failed + naive_run.shed
        )
        assert counted == naive_run.offered

    def test_no_retry_client_is_status_identical_to_open_loop(
        self, trace, engine, calendar
    ):
        open_loop = simulate_traffic(trace, engine, calendar=calendar, **OPS)
        closed = run(trace, engine, calendar, ClientConfig.no_retry())
        assert np.array_equal(closed.status, open_loop.status)
        assert np.array_equal(closed.replica_of, open_loop.replica_of)
        assert closed.resilience.amplification == 1.0
        assert closed.batches == open_loop.batches

    def test_rerun_and_perturb_digests_identical(
        self, trace, engine, calendar, naive_run
    ):
        again = run(trace, engine, calendar, ClientConfig.naive())
        flipped = run(trace, engine, calendar, ClientConfig.naive(), perturb=True)
        assert again.digest() == naive_run.digest() == flipped.digest()

    def test_client_seed_reaches_the_digest(self, trace, engine, calendar, naive_run):
        other = run(trace, engine, calendar, ClientConfig.naive(seed=99))
        assert other.digest() != naive_run.digest()


class TestClosedLoopBehaviour:
    def test_outage_losses_get_retried_and_served(self, trace, engine, calendar):
        """The point of the loop: requests the outage failed come back
        and complete — some request needs >1 attempts and still SERVES."""
        open_loop = simulate_traffic(trace, engine, calendar=calendar, **OPS)
        closed = run(trace, engine, calendar, ClientConfig.naive())
        out = closed.resilience
        assert out.retries > 0
        retried_and_served = (out.attempts > 1) & (closed.status == SERVED)
        assert retried_and_served.any()
        assert closed.served > open_loop.served

    def test_attempts_total_consistency(self, naive_run):
        out = naive_run.resilience
        assert out.attempts_total == naive_run.offered + out.retries
        assert naive_run.attempts_total == out.attempts_total

    def test_budget_caps_amplification(self, guarded_run):
        fill = ClientConfig.budgeted().budget.fill_per_request
        assert guarded_run.resilience.amplification <= 1.0 + fill + 1e-9

    def test_breaker_sheds_during_the_storm(self, guarded_run):
        out = guarded_run.resilience
        assert out.breaker_opens >= 1
        assert out.shed_breaker > 0
        assert out.shed_tier > 0
        # counters book *attempts*; the status array books final request
        # outcomes, and a shed attempt retried to success leaves no SHED
        assert guarded_run.shed <= out.shed_breaker + out.shed_tier

    def test_brownout_marks_served_requests_only(self, trace, engine, calendar):
        result = run(
            trace, engine, calendar, ClientConfig.naive(),
            shedding=SheddingConfig(brownout_depth_fraction=0.1),
        )
        out = result.resilience
        assert out.brownout_served > 0
        assert (result.status[out.brownout] == SERVED).all()

    def test_depth_samples_cover_every_control_tick(self, naive_run):
        samples = naive_run.resilience.depth_samples
        interval = OPS["autoscaler"].control_interval_s
        # the loop ends once the last attempt terminates, so the final
        # few ticks of the horizon may never fire
        assert len(samples) >= TRAFFIC.duration_s / interval - 4
        assert (np.diff(samples[:, 0]) > 0).all()


#: A two-and-a-half-minute storm with a 40 s outage (the golden-digest
#: storm), and the same storm with one replica struck instead of both.
STORM = StormConfig(duration_s=150.0, outage_start_s=40.0, outage_end_s=80.0)
STORMS = {
    "naive": ("naive-retry", STORM),
    "budgeted": ("budgeted-retry+breaker", STORM),
    "hedged": ("hedged-retry+breaker", STORM),
    "naive-partial": ("naive-retry", replace(STORM, outage_dark_replicas=1)),
}


class TestFrontDoorNeedsNoReset:
    """A granted retry after a front-door failure (REJECTED, ERROR, SHED)
    un-books only the status: no attempt that ends at the front door or
    in the queue ever started service, and a struck (FAILED) attempt's
    retry resets start, finish and replica before the next attempt."""

    @pytest.fixture
    def struck_retries(self, monkeypatch):
        """Indices of FAILED attempts granted a retry, recorded by a
        class-level wrapper the simulation must call through."""
        granted: list[int] = []
        original = ClosedLoopRuntime.on_failure

        def recording(self, idx, now_s, code):
            due = original(self, idx, now_s, code)
            if code == FAILED and due is not None:
                granted.append(idx)
            return due

        monkeypatch.setattr(ClosedLoopRuntime, "on_failure", recording)
        return granted

    @staticmethod
    def lost_after_run(storm):
        policy, config = STORMS[storm]
        result = run_rung(policy_spec(policy, config))[1]
        lost = np.isin(result.status, (REJECTED, ERROR, SHED, DROPPED))
        assert lost.any()
        assert np.isnan(result.start_s[lost]).all()
        assert np.isnan(result.finish_s[lost]).all()
        assert (result.replica_of[lost] == -1).all()
        return lost

    @pytest.mark.parametrize("storm", sorted(STORMS))
    def test_unserved_terminals_never_started(self, storm, struck_retries):
        self.lost_after_run(storm)
        assert struck_retries  # the outage struck in-flight attempts

    def test_struck_then_retried_request_is_reset(self, struck_retries):
        """Requests struck mid-service and retried into a front-door or
        queue loss: without the reset their struck start and replica
        would survive into the result."""
        lost = self.lost_after_run("naive")
        struck = np.unique(np.asarray(struck_retries, dtype=np.int64))
        assert lost[struck].any()
