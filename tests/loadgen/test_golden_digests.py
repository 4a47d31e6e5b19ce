"""Golden digests: the serving event loop's outcomes, pinned as literals.

Every other digest test in ``tests/loadgen`` compares two runs of the
current code (rerun, perturbed scan, null calendar), so a change that
moves every run the same way passes them all.  This pack pins the
absolute :meth:`TrafficResult.digest` of small open- and closed-loop
scenarios, captured from the event loop before its hot path was
reworked, so any drift in an outcome — including a change in the
*Python type* of a time value, which ``repr(ReplicaSpan)`` carries into
the digest — fails here.

Each case also runs with ``perturb=True``: the reversed fleet scan must
land on the same literal.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from repro.faults.plan import (
    SERVING_SITE,
    ApiErrorBurst,
    FaultCalendar,
    FaultPlanConfig,
    OutageWindow,
    partial_serving_site,
)
from repro.loadgen import (
    AdmissionConfig,
    AutoscalerConfig,
    TrafficConfig,
    generate_trace,
    simulate_traffic,
)
from repro.resilience.clients import ClientConfig, plan_resilience
from repro.resilience.scenario import StormConfig, policy_spec, run_rung
from repro.resilience.sweep import build_points, quick_sweep_config
from repro.serving import DEVICE_CATALOG, BatchingConfig, InferenceEngine, food11_classifier

#: A five-minute flash crowd, ~350 rps against ~200 rps of one replica:
#: the queue fills, the deadline drops, and the autoscaler scales.
HOT = TrafficConfig(
    seed=11,
    pattern="flash",
    requests_per_day=3e7,
    duration_hours=1.0 / 12.0,
    flash_count=1,
    flash_multiplier=4.0,
    flash_duration_s=60.0,
)

TIGHT = dict(
    admission=AdmissionConfig(queue_capacity=64, deadline_ms=250.0),
    batching=BatchingConfig(max_batch=8, max_queue_delay_ms=5.0),
    autoscaler=AutoscalerConfig(
        min_replicas=1,
        max_replicas=3,
        control_interval_s=10.0,
        provisioning_lag_s=30.0,
        target_queue_per_replica=16.0,
        scale_down_idle_ticks=2,
    ),
)

#: A two-and-a-half-minute storm: a full-site outage from 40 s to 80 s.
STORM = StormConfig(duration_s=150.0, outage_start_s=40.0, outage_end_s=80.0)


def _calendar(outages=(), bursts=()) -> FaultCalendar:
    """Serving windows in seconds; ``outages`` items are (start, end, site)."""
    return FaultCalendar(
        config=FaultPlanConfig(seed=0, sites=(SERVING_SITE,)),
        horizon_hours=1.0,
        outages=tuple(OutageWindow(site, s / 3600.0, e / 3600.0) for s, e, site in outages),
        bursts=tuple(ApiErrorBurst(SERVING_SITE, s / 3600.0, e / 3600.0) for s, e in bursts),
    )


def _open_loop(calendar=None):
    def run(perturb):
        engine = InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])
        trace = generate_trace(HOT)
        return simulate_traffic(trace, engine, calendar=calendar, perturb=perturb, **TIGHT)

    return run


def _closed_loop(policy, storm=STORM):
    def run(perturb):
        return run_rung(policy_spec(policy, storm, perturb=perturb))[1]

    return run


def _closed_loop_bursts(perturb):
    """Retries re-check API-burst membership by instant: naive retries
    into an outage and three burst windows, one nested in another."""
    engine = InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])
    trace = generate_trace(
        TrafficConfig(seed=3, pattern="poisson", requests_per_day=1.5e7, duration_hours=0.03)
    )
    calendar = _calendar(
        outages=[(20.0, 30.0, SERVING_SITE)],
        bursts=[(40.0, 44.0), (41.0, 42.0), (60.0, 60.25)],
    )
    return simulate_traffic(
        trace,
        engine,
        calendar=calendar,
        resilience=plan_resilience(trace, ClientConfig.naive(seed=3)),
        perturb=perturb,
        **TIGHT,
    )


def _quick_grid_point(perturb):
    """The CLI quick grid's 250 rps / 90 s / full-site budgeted point."""
    (point,) = [
        p
        for p in build_points(quick_sweep_config(), perturb=perturb)
        if p.load_rps == 250.0
        and p.outage_length_s == 90.0
        and p.dark_replicas == 0
        and p.policy == "budgeted-retry+breaker"
    ]
    return run_rung(point.rung)[1]


CASES = {
    "open-clean": _open_loop(),
    "open-outage-burst": _open_loop(
        _calendar(outages=[(60.0, 100.0, SERVING_SITE)], bursts=[(150.0, 170.0), (165.0, 190.0)])
    ),
    "open-partial": _open_loop(
        _calendar(outages=[(50.0, 140.0, partial_serving_site(1))], bursts=[(200.0, 210.0)])
    ),
    "closed-naive": _closed_loop("naive-retry"),
    "closed-budgeted": _closed_loop("budgeted-retry+breaker"),
    "closed-adaptive": _closed_loop("adaptive-retry+breaker"),
    "closed-hedged": _closed_loop("hedged-retry+breaker"),
    "closed-brownout-partial": _closed_loop(
        "budgeted-retry+breaker", replace(STORM, outage_dark_replicas=1)
    ),
    "closed-naive-bursts": _closed_loop_bursts,
    "quick-grid-budgeted": _quick_grid_point,
}

GOLDEN = {
    "open-clean": "2d0c4decdb36b149f22887ebfae13b7dac70adcb7cc5688636466321ba6206f1",
    "open-outage-burst": "120e42b88d1acf32f2f45a58352b905bebde31d4f23b96821b75a61da29b5760",
    "open-partial": "715a2bc3dac4328a50226313b041a4119e22a1faabe72a2416c94ea610c823c3",
    "closed-naive": "b395654c15367e591647abe6f35b4f1ff1cfcb98a6972b5f8ff50badf978f003",
    "closed-budgeted": "96156fbd2a23f0fc94dab4b80b1246d5ac15c2fc9dfb30beb0572ddd0f82fd9d",
    "closed-adaptive": "753e2af02b7a9dbcb1630f0bee5b5ef29f0c145bb62afc820875818ae6172665",
    "closed-hedged": "35c9f622d13b493780cf5da5496b1ca510e68165e47141d7f4e9b5b179b4053e",
    "closed-brownout-partial": "ffe09974a69b500aa6782a525d134b0934f4fef8ab4e3ad886b5f9e94934e2d3",
    "closed-naive-bursts": "b3b35db73341cdc31cdd1dde4ce51798fea88603440cd3fb01bacd6630f88894",
    "quick-grid-budgeted": "024d057521149967d8e286efda13dbebbd26620d9536e3c6f495aadf00f5843b",
}


@cache
def _result(case, perturb=False):
    return CASES[case](perturb)


@pytest.mark.parametrize("perturb", [False, True], ids=["plain", "perturbed"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_digest_matches_golden(case, perturb):
    assert _result(case, perturb).digest() == GOLDEN[case]


def test_drain_span_keeps_its_numpy_end_time():
    """At the quick-grid point one replica's last batch starts at an
    arrival instant read from the trace array, so its finish, the drain
    span's end, is a ``np.float64``.  Its ``repr`` differs from a Python
    float's under numpy 2 and so feeds the digest: normalizing it would
    move every pin that carries one."""
    spans = _result("quick-grid-budgeted").spans
    assert [type(s.terminated_at_s) for s in spans] == [float, float, np.float64, float]


def test_cases_reach_the_paths_they_pin():
    hot = _result("open-clean")
    assert hot.telemetry.scale_ups > 0 and hot.telemetry.scale_downs > 0
    assert hot.dropped > 0 and hot.rejected > 0
    partial = _result("open-partial")
    assert 0 < partial.telemetry.outage_kills < len(partial.spans)
    naive = _result("closed-naive").resilience
    assert naive.attempts_total > 2 * len(naive.attempts)  # the storm amplifies
    bursts = _result("closed-naive-bursts")
    assert bursts.errored > 0 and bursts.resilience.retries > bursts.errored
    brownout = _result("closed-brownout-partial").resilience
    assert brownout.brownout_served > 0
