"""Benchmark: a web-scale serving day through the operations layer.

The acceptance scenario of the loadgen subsystem: millions of requests
per day of flash-crowd traffic driven through admission control, dynamic
batching, and the reactive autoscaler — once fault-free and once with a
non-null fault calendar striking the fleet mid-run — reporting p50/p99
latency, the loss breakdown, and cost per million served requests, with
the digest-stability contract asserted on every run.

Each day is its own benchmark, so the harness times one simulation
apiece; full runs append each day's simulate seconds and µs per attempt
to the ``BENCH_loadgen.json`` trajectory at the repo root.  ``--quick`` keeps
the offered *rate* at millions/day but shortens the simulated horizon so
CI finishes in seconds, and records nothing.
"""

from types import SimpleNamespace

import pytest

from repro.common.tables import format_table
from repro.faults.plan import build_serving_calendar
from repro.loadgen import (
    AutoscalerConfig,
    SloPolicy,
    TrafficConfig,
    build_report,
    generate_trace,
    simulate_traffic,
)
from repro.serving import DEVICE_CATALOG, InferenceEngine, food11_classifier


@pytest.fixture(scope="module")
def serving_day(request):
    """The flash-crowd trace, fleet and fault calendar both days share."""
    quick = request.config.getoption("--quick")
    hours = 2.0 if quick else 24.0
    traffic = TrafficConfig(
        seed=0,
        pattern="flash",
        requests_per_day=2e6,
        duration_hours=hours,
        flash_count=1 if quick else 2,
    )
    # fault rates chosen so the calendar is non-null on either horizon:
    # at least one outage window must strike the fleet mid-run
    fault_rate = 100.0 if quick else 2.0
    calendar = build_serving_calendar(
        duration_hours=hours,
        seed=7,
        outage_rate_per_week=fault_rate,
        burst_rate_per_week=fault_rate,
    )
    assert calendar.outages, "benchmark requires a non-null fault plan"

    trace = generate_trace(traffic)
    assert trace.offered_per_day >= 1e6, "the scenario must offer >= 1M requests/day"
    return SimpleNamespace(
        hours=hours,
        trace=trace,
        engine=InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"]),
        scaler=AutoscalerConfig(min_replicas=1, max_replicas=8),
        calendar=calendar,
        results={},
    )


@pytest.mark.parametrize("day", ["fault-free", "faulted"])
def test_million_request_day(benchmark, quick, bench_trajectory, serving_day, day):
    s = serving_day
    faulted = day == "faulted"
    kwargs = dict(autoscaler=s.scaler, calendar=s.calendar if faulted else None)
    result = benchmark.pedantic(
        simulate_traffic, args=(s.trace, s.engine), kwargs=kwargs, rounds=1, iterations=1
    )
    s.results[day] = result

    # digest stability: a rerun (fault-free) and an evaluation-order
    # perturbation (faulted) must reproduce the day byte-for-byte
    rerun = simulate_traffic(s.trace, s.engine, perturb=faulted, **kwargs)
    assert rerun.digest() == result.digest()

    policy = SloPolicy(p99_budget_ms=250.0, max_loss_rate=0.01)
    report = build_report(result, s.engine, policy)
    print()
    print(
        format_table(
            ["run", "offered", "served", "loss", "p50 ms", "p99 ms",
             "peak", "repl hrs", "$/M", "slo"],
            [
                [
                    day,
                    result.offered,
                    result.served,
                    f"{result.loss_rate:.3%}",
                    result.p50_ms,
                    result.p99_ms,
                    result.telemetry.peak_replicas,
                    result.replica_hours,
                    report.cost_per_million_usd,
                    "yes" if report.slo.attained else "no",
                ]
            ],
            title=(
                f"2M-requests/day flash-crowd traffic on server-cpu-16c"
                f" ({s.hours:g} h horizon):"
            ),
            float_fmt=",.2f",
        )
    )

    # shape: the outage costs requests (losses strictly worse than clean)
    # while the autoscaler keeps the clean day serving the vast majority
    assert result.faulted == faulted
    if faulted:
        clean = s.results.get("fault-free") or simulate_traffic(
            s.trace, s.engine, autoscaler=s.scaler
        )
        assert result.loss_rate > clean.loss_rate
    else:
        assert result.served > 0.9 * result.offered

    if not quick and benchmark.stats is not None:
        simulate_s = benchmark.stats.stats.total
        bench_trajectory(
            "loadgen",
            {
                "day": day,
                "hours": s.hours,
                "attempts": result.attempts_total,
                "simulate_s": round(simulate_s, 3),
                "us_per_attempt": round(simulate_s / result.attempts_total * 1e6, 3),
                "digest": result.digest(),
            },
        )
