"""Digest equality under faults: serial vs parallel, and the null-plan anchor.

Mirrors ``tests/parallel/test_equivalence.py`` — the contract is that a
resolved fault plan is just data, so worker count can never change the
merged records digest.
"""

import json

import pytest

from repro.core.cohort import CohortConfig, CohortSimulation, plan_cohort
from repro.core.course import scaled_course
from repro.core.report import records_digest
from repro.faults.__main__ import main as faults_cli
from repro.faults.plan import FaultPlanConfig, plan_faulted_cohort
from repro.parallel.engine import execute_plan
from repro.parallel.merge import merge_shard_records

SMALL = scaled_course(0.25)
SEEDS = (42, 7, 1234)
WORKERS = (1, 2, 4)

CHAOS = FaultPlanConfig(
    seed=11,
    outage_rate_per_week=0.3,
    hazard_rate_per_khour=2.0,
    burst_rate_per_week=1.0,
)


@pytest.fixture(scope="module")
def faulted_runs():
    """One faulted plan + serial reference digest per cohort seed."""
    runs = {}
    for seed in SEEDS:
        config = CohortConfig(seed=seed)
        plan, ledger = plan_faulted_cohort(SMALL, config, CHAOS)
        records = CohortSimulation(SMALL, config, plan=plan).run()
        runs[seed] = (config, plan, ledger, records)
    return runs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_matches_serial_under_faults(faulted_runs, seed, workers):
    config, plan, _, serial = faulted_runs[seed]
    results = execute_plan(plan, config, workers=workers)
    merged = merge_shard_records([r.records for r in results])
    assert records_digest(merged) == records_digest(serial)
    assert len(merged) == len(serial)


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_plan_is_reproducible(seed):
    config = CohortConfig(seed=seed)
    a, la = plan_faulted_cohort(SMALL, config, CHAOS)
    b, lb = plan_faulted_cohort(SMALL, config, CHAOS)
    assert a.student_shards == b.student_shards
    assert a.group_shards == b.group_shards
    assert la.events == lb.events


def test_faults_actually_fired(faulted_runs):
    """Anti-vacuity: the chaos config must perturb every seed's plan."""
    for seed in SEEDS:
        _, _, ledger, _ = faulted_runs[seed]
        assert ledger.events, f"no fault events at seed {seed}"


def test_null_fault_plan_matches_unfaulted_baseline():
    """FaultPlanConfig() must be invisible: same plan objects, same digest."""
    config = CohortConfig(seed=42)
    base_plan = plan_cohort(SMALL, config)
    null_plan, ledger = plan_faulted_cohort(SMALL, config, FaultPlanConfig())
    assert ledger.events == []
    assert null_plan.student_shards == base_plan.student_shards
    assert null_plan.group_shards == base_plan.group_shards

    base = CohortSimulation(SMALL, config, plan=base_plan).run()
    nulled = CohortSimulation(SMALL, config, plan=null_plan).run()
    assert records_digest(nulled) == records_digest(base)


@pytest.mark.parametrize("fault_seed", (7, 11))
def test_fault_seed_independent_of_cohort_seed(fault_seed):
    """The calendar comes from the fault plan's own seed stream, so changing
    the cohort seed must not change which windows exist."""
    cfg = FaultPlanConfig(seed=fault_seed, outage_rate_per_week=0.5)
    _, ledger_a = plan_faulted_cohort(SMALL, CohortConfig(seed=1), cfg)
    _, ledger_b = plan_faulted_cohort(SMALL, CohortConfig(seed=2), cfg)
    # Different cohorts schedule different activities, so event lists differ,
    # but both were swept against the identical calendar.
    from repro.faults.plan import build_fault_calendar

    horizon = SMALL.semester_hours
    assert build_fault_calendar(cfg, horizon_hours=horizon) == \
        build_fault_calendar(cfg, horizon_hours=horizon)
    assert ledger_a.events or ledger_b.events


def test_cli_verify_gates_the_columnar_engine(capsys):
    """``--verify`` holds the columnar engine's native fault sweep to the
    same digest as the parallel and serial object paths."""
    code = faults_cli([
        "--outage-rate", "0.3", "--hazard-rate", "2.0", "--burst-rate", "1.0",
        "--fault-seed", "11", "--scale", "0.25", "--verify", "--json", "-",
    ])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["digest_match"] is True and summary["columnar_match"] is True
    assert summary["columnar_digest"] == summary["digest"]
    assert summary["fault_events"] > 0
