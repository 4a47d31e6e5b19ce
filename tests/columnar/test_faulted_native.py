"""Differential pack: faulted cohorts planned natively in columns.

``plan_columns(..., faults=FaultSweep(...))`` walks the fault sweep over
the raw activity tables; the object planner walks the same calendar over
shards.  Both adapters share one set of walk helpers, so for every seed,
course and fault plan the native tables must equal
``columns_from_plan(plan_faulted_cohort(...))`` array for array and the
two ledgers must agree event by event — the hazard stream is one serial
generator, so any drift in visiting order shows up here first.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar import plan_columns, run_columnar
from repro.columnar.planner import _raw_tables, columns_from_plan
from repro.common.errors import InvalidStateError
from repro.common.retry import RetryPolicy
from repro.core import scaled_course
from repro.core.cohort import CohortConfig
from repro.core.course import COURSE
from repro.core.report import fault_accounting
from repro.faults.plan import (
    FaultPlanConfig,
    FaultSweep,
    build_fault_calendar,
    plan_faulted_cohort,
)

#: 48-student cohort: big enough to populate every activity family.
SMALL = scaled_course(0.25)
#: 1-student cohort: the smallest legal cohort (1 student, 1 group).
ONE = scaled_course(1.0 / 191.0)
SEEDS = (42, 7, 1337)

CHAOS = FaultPlanConfig(
    seed=11, outage_rate_per_week=0.3, hazard_rate_per_khour=2.0, burst_rate_per_week=1.0
)
#: name -> (fault plan, relaunch policy); each config isolates one fault
#: class or pins one edge of the redo/abandon semantics.
FAULT_PLANS = {
    "chaos": (CHAOS, None),
    "outage-only": (FaultPlanConfig(seed=5, outage_rate_per_week=1.5, outage_mean_hours=20.0), None),
    "hazard-only": (FaultPlanConfig(seed=3, hazard_rate_per_khour=40.0), None),
    "burst-only": (FaultPlanConfig(seed=9, burst_rate_per_week=6.0, burst_mean_hours=2.0), None),
    "redo-0": (dataclasses.replace(CHAOS, hazard_rate_per_khour=10.0, redo_fraction=0.0), None),
    "redo-1": (dataclasses.replace(CHAOS, hazard_rate_per_khour=10.0, redo_fraction=1.0), None),
    "no-relaunch": (
        dataclasses.replace(CHAOS, outage_rate_per_week=2.0, hazard_rate_per_khour=30.0),
        RetryPolicy(max_attempts=1),
    ),
}


def native_plan(course, config, fault_config, relaunch=None, *, workers=1):
    calendar = build_fault_calendar(fault_config, horizon_hours=course.semester_hours)
    sweep = FaultSweep(calendar, relaunch=relaunch)
    plan = plan_columns(course, config, workers=workers, faults=sweep)
    return plan, sweep.ledger


def assert_tables_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype, f.name
        np.testing.assert_array_equal(x, y, err_msg=f.name)


@pytest.mark.parametrize("name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("course", (ONE, SMALL), ids=("one", "small"))
@pytest.mark.parametrize("seed", SEEDS)
def test_native_faulted_tables_match_object_reference(seed, course, name):
    fault_config, relaunch = FAULT_PLANS[name]
    config = CohortConfig(seed=seed)
    native, ledger = native_plan(course, config, fault_config, relaunch)
    plan, reference = plan_faulted_cohort(course, config, fault_config, relaunch=relaunch)
    assert_tables_equal(native.tables, columns_from_plan(plan, course).tables)
    assert list(ledger.events) == list(reference.events)
    if course is SMALL:
        assert ledger.events  # anti-vacuity: every plan fires on 48 students
    if name == "no-relaunch" and course is SMALL:
        assert ledger.abandoned > 0  # the one-attempt policy abandons


@settings(deadline=None, max_examples=6, suppress_health_check=[HealthCheck.too_slow])
@given(
    fault_seed=st.integers(0, 10_000),
    outage_rate=st.floats(0.0, 3.0),
    hazard_rate=st.floats(0.0, 60.0),
    burst_rate=st.floats(0.0, 4.0),
    redo_fraction=st.floats(0.0, 1.0),
)
def test_native_sweep_matches_object_sweep_at_paper_scale(
    fault_seed, outage_rate, hazard_rate, burst_rate, redo_fraction
):
    """Any fault seed and rates, on the paper's 191-student cohort."""
    fault_config = FaultPlanConfig(
        seed=fault_seed,
        outage_rate_per_week=outage_rate,
        hazard_rate_per_khour=hazard_rate,
        burst_rate_per_week=burst_rate,
        redo_fraction=redo_fraction,
    )
    config = CohortConfig(seed=42)
    native, ledger = native_plan(COURSE, config, fault_config)
    plan, reference = plan_faulted_cohort(COURSE, config, fault_config)
    assert_tables_equal(native.tables, columns_from_plan(plan, COURSE).tables)
    assert ledger.events == reference.events


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_exercises_the_exact_lease_replay(seed):
    """Faulted bookings pile up on the lease calendars, so the vectorized
    count check fails and the exact replay decides the outcome."""
    native, _ = native_plan(SMALL, CohortConfig(seed=seed), CHAOS)
    assert native.sweep_info["lease_fast_path"] is False


# -- contracts of the column adapter ------------------------------------------------


def test_reusing_a_sweep_raises():
    calendar = build_fault_calendar(CHAOS, horizon_hours=SMALL.semester_hours)
    sweep = FaultSweep(calendar)
    plan_columns(SMALL, CohortConfig(), faults=sweep)
    with pytest.raises(InvalidStateError):
        plan_columns(SMALL, CohortConfig(), faults=sweep)
    with pytest.raises(InvalidStateError):
        sweep.apply((), (), semester_hours=SMALL.semester_hours)


def test_null_calendar_returns_native_tables_unchanged():
    config = CohortConfig(seed=42)
    raw, schema = _raw_tables(SMALL, config, workers=1)
    calendar = build_fault_calendar(FaultPlanConfig(), horizon_hours=SMALL.semester_hours)
    sweep = FaultSweep(calendar)
    assert sweep.apply_tables(raw, schema=schema, semester_hours=SMALL.semester_hours) is raw
    assert not sweep.ledger.events
    faulted = plan_columns(SMALL, config, faults=FaultSweep(calendar))
    assert_tables_equal(faulted.tables, plan_columns(SMALL, config).tables)


@pytest.mark.parametrize("name", ("chaos", "redo-1", "no-relaunch"))
def test_fault_accounting_matches_object_sweep(name):
    fault_config, relaunch = FAULT_PLANS[name]
    config = CohortConfig(seed=7)
    _, ledger = native_plan(SMALL, config, fault_config, relaunch)
    _, reference = plan_faulted_cohort(SMALL, config, fault_config, relaunch=relaunch)
    native_report = fault_accounting(ledger, course=SMALL)
    object_report = fault_accounting(reference, course=SMALL)
    assert native_report == object_report  # field for field, exact floats
    assert native_report.render() == object_report.render()
    assert ledger.per_user_redo_hours() == reference.per_user_redo_hours()
    assert ledger.hardware_failures() == reference.hardware_failures()


def test_ledger_view_indexes_like_a_list():
    _, ledger = native_plan(SMALL, CohortConfig(seed=42), CHAOS)
    events = list(ledger.events)
    assert len(ledger.events) == len(events) > 2
    assert ledger.events[0] == events[0] and ledger.events[-1] == events[-1]
    assert ledger.events[1:3] == events[1:3]
    assert ledger.events == events


def test_fanout_is_invariant_under_faults():
    config = CohortConfig(seed=1337)
    serial, serial_ledger = native_plan(SMALL, config, CHAOS, workers=1)
    fanned, fanned_ledger = native_plan(SMALL, config, CHAOS, workers=2)
    assert_tables_equal(serial.tables, fanned.tables)
    assert serial_ledger.rows == fanned_ledger.rows

    def run(workers):
        calendar = build_fault_calendar(CHAOS, horizon_hours=SMALL.semester_hours)
        return run_columnar(SMALL, config, workers=workers, faults=FaultSweep(calendar))

    assert run(1).digest == run(2).digest
