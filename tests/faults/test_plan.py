"""Plan-time fault resolution: calendars, the sweep, and the ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidStateError, ValidationError
from repro.core.cohort import (
    KVM_SITE,
    METAL_SITE,
    CohortConfig,
    ShardPlan,
    SlotActivity,
    VmLabActivity,
    plan_cohort,
)
from repro.core.course import scaled_course
from repro.faults.plan import (
    ApiErrorBurst,
    FaultCalendar,
    FaultPlanConfig,
    FaultSweep,
    OutageWindow,
    build_fault_calendar,
    plan_faulted_cohort,
)

SMALL = scaled_course(0.25)


def calendar_with(outages=(), bursts=(), config=None, horizon=1000.0):
    cfg = config if config is not None else FaultPlanConfig(seed=1)
    return FaultCalendar(config=cfg, horizon_hours=horizon,
                         outages=tuple(outages), bursts=tuple(bursts))


def vm_shard(start=100.0, duration=10.0, vm_count=2):
    act = VmLabActivity(lab_id="lab2", user="s1", start=start, duration=duration,
                        flavor="m1.medium", vm_count=vm_count)
    return ShardPlan(shard_id="student:s1", spawn_key=(0,), vm_labs=(act,))


class TestConfigValidation:
    def test_default_is_null(self):
        assert FaultPlanConfig().is_null

    @pytest.mark.parametrize("kwargs", [
        {"outage_rate_per_week": -1.0},
        {"hazard_rate_per_khour": -0.1},
        {"burst_rate_per_week": -2.0},
        {"outage_mean_hours": 0.0},
        {"outage_sigma": -0.5},
        {"redo_fraction": 1.5},
        {"sites": ()},
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FaultPlanConfig(**kwargs)


class TestCalendar:
    def test_null_config_builds_empty_calendar(self):
        cal = build_fault_calendar(FaultPlanConfig(), horizon_hours=500.0)
        assert cal.empty
        assert cal.outages == () and cal.bursts == ()

    def test_calendar_is_pure_function_of_config_and_horizon(self):
        cfg = FaultPlanConfig(seed=5, outage_rate_per_week=0.5, burst_rate_per_week=1.0)
        a = build_fault_calendar(cfg, horizon_hours=2000.0)
        b = build_fault_calendar(cfg, horizon_hours=2000.0)
        assert a == b
        assert not a.empty

    def test_different_fault_seed_different_calendar(self):
        kw = dict(outage_rate_per_week=1.0, burst_rate_per_week=2.0)
        a = build_fault_calendar(FaultPlanConfig(seed=1, **kw), horizon_hours=2000.0)
        b = build_fault_calendar(FaultPlanConfig(seed=2, **kw), horizon_hours=2000.0)
        assert a.outages != b.outages

    def test_windows_clamped_to_horizon_and_sorted(self):
        cfg = FaultPlanConfig(seed=5, outage_rate_per_week=2.0,
                              outage_mean_hours=100.0, outage_sigma=1.0)
        cal = build_fault_calendar(cfg, horizon_hours=300.0)
        assert all(w.end <= 300.0 for w in cal.outages)
        starts = [w.start for w in cal.outages]
        assert starts == sorted(starts)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValidationError):
            build_fault_calendar(FaultPlanConfig(), horizon_hours=0.0)

    def test_lookups(self):
        w = OutageWindow(site=KVM_SITE, start=10.0, end=20.0)
        b = ApiErrorBurst(site=KVM_SITE, start=50.0, end=51.0)
        cal = calendar_with(outages=[w], bursts=[b])
        assert cal.outage_at(KVM_SITE, 10.0) is w
        assert cal.outage_at(KVM_SITE, 20.0) is None  # half-open
        assert cal.outage_at(METAL_SITE, 15.0) is None
        assert cal.burst_at(KVM_SITE, 50.5) is b
        assert cal.outage_over(KVM_SITE, 0.0, 10.1) is w
        assert cal.outage_over(KVM_SITE, 20.0, 30.0) is None
        assert cal.next_clear(KVM_SITE, 15.0) == 20.0
        assert cal.next_clear(KVM_SITE, 5.0) == 5.0


def scan_at(windows, site, t):
    """Reference point lookup: a scan of the whole calendar."""
    return next((w for w in windows if w.site == site and w.start <= t < w.end), None)


def scan_over(windows, site, start, end):
    """Reference interval lookup: earliest start, first among ties."""
    best = None
    for w in windows:
        if w.site == site and w.end > start and w.start < end:
            if best is None or w.start < best.start:
                best = w
    return best


_times = st.integers(0, 40).map(float)
_windows = st.lists(
    st.builds(
        lambda site, start, length: OutageWindow(site, start, start + length),
        st.sampled_from((KVM_SITE, METAL_SITE)),
        _times,
        st.integers(0, 12).map(float),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(outages=_windows, bursts=_windows, site=st.sampled_from((KVM_SITE, METAL_SITE)),
       t=_times, hours=st.integers(0, 10).map(float))
def test_indexed_lookups_match_a_full_scan(outages, bursts, site, t, hours):
    """Unsorted, overlapping, tied and empty windows: the per-site index
    returns the very window a scan of the whole calendar would."""
    bursts = [ApiErrorBurst(w.site, w.start, w.end) for w in bursts]
    cal = calendar_with(outages=outages, bursts=bursts)
    assert cal.outage_at(site, t) is scan_at(outages, site, t)
    assert cal.burst_at(site, t) is scan_at(bursts, site, t)
    assert cal.outage_over(site, t, t + hours) is scan_over(outages, site, t, t + hours)


class TestSweepSemantics:
    def test_empty_calendar_returns_same_objects(self):
        """The null plan is a strict no-op — identity, not just equality."""
        shards = (vm_shard(),)
        sweep = FaultSweep(calendar_with())
        out_students, out_groups = sweep.apply(shards, (), semester_hours=1000.0)
        assert out_students is shards
        assert sweep.ledger.events == []

    def test_apply_twice_raises(self):
        cal = calendar_with(outages=[OutageWindow(KVM_SITE, 10.0, 20.0)])
        sweep = FaultSweep(cal)
        sweep.apply((vm_shard(),), (), semester_hours=1000.0)
        with pytest.raises(InvalidStateError):
            sweep.apply((vm_shard(),), (), semester_hours=1000.0)

    def test_outage_kills_running_vm_and_relaunches(self):
        cal = calendar_with(outages=[OutageWindow(KVM_SITE, start=105.0, end=106.0)])
        sweep = FaultSweep(cal)
        (shard,), _ = sweep.apply((vm_shard(start=100.0, duration=10.0),), (),
                                  semester_hours=1000.0)
        assert len(shard.vm_labs) == 2
        first, second = shard.vm_labs
        assert first.start == 100.0 and first.duration == pytest.approx(5.0)
        assert second.start >= 106.0  # relaunch waits out the window
        # remaining 5 h plus the redone fraction of the killed 5 h
        assert second.duration == pytest.approx(5.0 + 0.5 * 5.0)
        assert sweep.ledger.outage_kills == 1
        assert sweep.ledger.redo_instance_hours == pytest.approx(2.5 * 2)  # ×vm_count

    def test_start_inside_outage_is_delayed(self):
        cal = calendar_with(outages=[OutageWindow(KVM_SITE, start=95.0, end=120.0)])
        sweep = FaultSweep(cal)
        (shard,), _ = sweep.apply((vm_shard(start=100.0, duration=10.0),), (),
                                  semester_hours=1000.0)
        assert len(shard.vm_labs) == 1
        assert shard.vm_labs[0].start >= 120.0
        assert shard.vm_labs[0].duration == pytest.approx(10.0)  # work not lost
        assert sweep.ledger.delayed_starts == 1
        assert sweep.ledger.delay_hours > 0

    def test_semester_long_outage_abandons_activity(self):
        cal = calendar_with(outages=[OutageWindow(KVM_SITE, start=0.0, end=1000.0)])
        sweep = FaultSweep(cal)
        (shard,), _ = sweep.apply((vm_shard(start=100.0, duration=10.0, vm_count=3),),
                                  (), semester_hours=1000.0)
        assert shard.vm_labs == ()
        assert sweep.ledger.abandoned == 1
        assert sweep.ledger.lost_instance_hours == pytest.approx(30.0)

    def test_slot_overlapping_outage_moves_whole_interval(self):
        slot = SlotActivity(lab_id="lab4", user="s1", site=METAL_SITE,
                            node_type="gpu_v100", start=100.0, slot_hours=3.0,
                            edge=False)
        shard = ShardPlan(shard_id="student:s1", spawn_key=(0,), slots=(slot,))
        cal = calendar_with(outages=[OutageWindow(METAL_SITE, start=102.0, end=104.0)])
        sweep = FaultSweep(cal)
        (out,), _ = sweep.apply((shard,), (), semester_hours=1000.0)
        moved = out.slots[0]
        assert moved.start >= 104.0
        assert moved.slot_hours == 3.0  # reservations move, never shrink
        assert cal.outage_over(METAL_SITE, moved.start,
                               moved.start + moved.slot_hours) is None

    def test_burst_delays_start_on_transient_policy(self):
        cal = calendar_with(bursts=[ApiErrorBurst(KVM_SITE, start=99.9, end=100.5)])
        sweep = FaultSweep(cal)
        (shard,), _ = sweep.apply((vm_shard(start=100.0, duration=10.0),), (),
                                  semester_hours=1000.0)
        assert shard.vm_labs[0].start > 100.0
        # 0.25 h backoff lands inside the burst; the second (0.5 h) clears it
        assert shard.vm_labs[0].start == pytest.approx(100.75)
        assert sweep.ledger.delayed_starts == 1

    def test_hazard_kills_are_seeded_and_bounded(self):
        cfg = FaultPlanConfig(seed=3, hazard_rate_per_khour=50.0)
        cal = build_fault_calendar(cfg, horizon_hours=1000.0)
        a = FaultSweep(cal).apply((vm_shard(duration=100.0),), (), semester_hours=1000.0)
        b = FaultSweep(cal).apply((vm_shard(duration=100.0),), (), semester_hours=1000.0)
        assert a == b  # hazard stream re-derived, not shared state
        sweep = FaultSweep(cal)
        (shard,), _ = sweep.apply((vm_shard(duration=100.0),), (), semester_hours=1000.0)
        # relaunch policy bounds segments: ≤ 1 original + 3 relaunches
        assert 1 <= len(shard.vm_labs) <= 4


class TestLedgerConservation:
    def test_unit_hour_accounting_balances(self):
        """Planned = executed + lost − redo, per the ledger's books."""
        cfg = FaultPlanConfig(seed=9, outage_rate_per_week=0.5,
                              hazard_rate_per_khour=5.0, burst_rate_per_week=1.0)
        config = CohortConfig()
        base = plan_cohort(SMALL, config)
        faulted, ledger = plan_faulted_cohort(SMALL, config, cfg)
        assert ledger.events  # anti-vacuity

        def vm_instance_hours(plan):
            return sum(
                a.duration * a.vm_count
                for s in plan.student_shards for a in s.vm_labs
            ) + sum(
                a.hours for s in plan.group_shards for a in s.project_vms
            )

        planned = vm_instance_hours(base)
        executed = vm_instance_hours(faulted)
        assert executed == pytest.approx(
            planned + ledger.redo_instance_hours - ledger.lost_instance_hours,
            rel=1e-9,
        )

    def test_hardware_failures_view_matches_counts(self):
        cfg = FaultPlanConfig(seed=9, hazard_rate_per_khour=10.0)
        _, ledger = plan_faulted_cohort(SMALL, CohortConfig(), cfg)
        failures = ledger.hardware_failures()
        assert len(failures) == ledger.hardware_kills
        assert all(f.site for f in failures)

    def test_per_user_redo_sums_to_total(self):
        cfg = FaultPlanConfig(seed=9, outage_rate_per_week=0.5,
                              hazard_rate_per_khour=5.0)
        _, ledger = plan_faulted_cohort(SMALL, CohortConfig(), cfg)
        per_user = ledger.per_user_redo_hours()
        assert sum(per_user.values()) == pytest.approx(ledger.redo_instance_hours)
