"""Plan-time fault resolution: seeded calendars and the shard sweep.

Mirrors the cohort's plan → execute → merge architecture (PR 3's
admission sweeps): all fault randomness is drawn serially at plan time
from one ``SeedSequence(fault_seed).spawn(3)`` tree — (outage stream,
burst stream, hazard stream) — and resolved into rewritten activities
with fully absolute times: object shards for the object planner, activity
tables for the columnar one, through the same walks.  Execution stays
RNG-free, so the parallel engine's digest contract survives any fault
plan, and the *empty* calendar leaves every shard and table
byte-identical to the fault-free planner (the null plan is a strict
no-op).

Three fault classes, matching what real testbeds throw at a course:

* **Site outages / maintenance windows** — Poisson arrivals per site,
  lognormal durations.  Starts inside a window are delayed (retry with
  backoff); instances running into a window are force-terminated and
  relaunched after it, redoing part of their work.
* **Hardware failures** — per-instance exponential (MTBF-style) hazard
  draws.  A failed lab segment ends early; the student relaunches under
  the cohort's :class:`~repro.common.retry.RetryPolicy`, paying redo
  hours, or abandons the lab when attempts run out.
* **Transient API-error bursts** — short windows during which
  provisioning calls fail with 503/429-style errors; starts retry on a
  tight exponential-backoff policy.

Every rewrite is recorded in a :class:`FaultLedger` so
:func:`repro.core.report.fault_accounting` can price what the faults
cost (lost instance-hours, redo hours, per-student deltas).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import accumulate, starmap

import numpy as np

from repro.common.errors import InvalidStateError, ValidationError
from repro.common.retry import RetryPolicy
from repro.core.cohort import (
    COURSE,
    EDGE_SITE,
    KVM_SITE,
    METAL_SITE,
    CohortConfig,
    CohortPlan,
    CourseDefinition,
    ProjectLeaseActivity,
    ProjectVmActivity,
    ShardPlan,
    SlotActivity,
    VmLabActivity,
    plan_cohort,
)

#: Segments shorter than this are dropped rather than scheduled (a VM set
#: that would be torn down the instant it boots produces no usage).
_MIN_SEGMENT_HOURS = 1e-6

#: The logical site the serving stack runs on.  ``repro.loadgen`` builds
#: its fault calendars against this site name so serving outages and
#: API-error bursts draw from the same seeded generators as the testbed's,
#: without ever colliding with the cohort sites' windows.
SERVING_SITE = "serving"


def partial_serving_site(dark_replicas: int) -> str:
    """The scoped site name for a *partial* serving outage.

    ``serving/dark-k`` means the window strikes only ``k`` replicas of
    the fleet and caps capacity by ``k`` for its duration — the
    one-replica-of-N brownfield outage, as opposed to the full-site
    window spelled :data:`SERVING_SITE`.  The scope rides in the site
    name so :class:`FaultCalendar` needs no schema change and existing
    full-site consumers (which filter on ``SERVING_SITE`` exactly) are
    untouched.
    """
    if dark_replicas < 1:
        raise ValidationError(
            f"a partial outage darkens at least one replica: {dark_replicas!r}"
        )
    return f"{SERVING_SITE}/dark-{dark_replicas}"


def serving_scope(site: str) -> int | None:
    """How many replicas a serving-site window darkens.

    ``0`` = the full site (:data:`SERVING_SITE`), ``k > 0`` = a partial
    window from :func:`partial_serving_site`, ``None`` = not a serving
    window at all (a cohort site).
    """
    if site == SERVING_SITE:
        return 0
    prefix = f"{SERVING_SITE}/dark-"
    if site.startswith(prefix):
        try:
            dark = int(site[len(prefix):])
        except ValueError:
            return None
        return dark if dark >= 1 else None
    return None


# -- configuration -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlanConfig:
    """Knobs of the fault model.  All rates default to zero: the default
    config IS the null plan, and a null plan is a byte-exact no-op.

    ``seed`` is independent of the cohort seed — fault streams never
    touch the cohort's ``SeedSequence`` tree, so enabling faults cannot
    perturb behaviour draws (and disabling them restores the baseline
    artifacts bit-for-bit).
    """

    seed: int = 7
    #: Site outages: Poisson arrivals per site per week, lognormal length.
    outage_rate_per_week: float = 0.0
    outage_mean_hours: float = 6.0
    outage_sigma: float = 0.6
    #: Hardware failures: exponential hazard per instance, per 1000 hours.
    hazard_rate_per_khour: float = 0.0
    #: Transient API-error bursts: Poisson arrivals per site per week.
    burst_rate_per_week: float = 0.0
    burst_mean_hours: float = 0.5
    burst_sigma: float = 0.5
    #: Fraction of a killed segment's work the relaunch must redo (the
    #: part since the last "save your work" point).
    redo_fraction: float = 0.5
    #: Sites the outage/burst generators cover.
    sites: tuple[str, ...] = (KVM_SITE, METAL_SITE, EDGE_SITE)

    def __post_init__(self) -> None:
        for name in ("outage_rate_per_week", "hazard_rate_per_khour", "burst_rate_per_week"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} cannot be negative: {getattr(self, name)!r}")
        if self.outage_mean_hours <= 0 or self.burst_mean_hours <= 0:
            raise ValidationError(f"window mean hours must be positive: {self!r}")
        if self.outage_sigma < 0 or self.burst_sigma < 0:
            raise ValidationError(f"window sigma cannot be negative: {self!r}")
        if not (0.0 <= self.redo_fraction <= 1.0):
            raise ValidationError(f"redo fraction must be in [0, 1]: {self.redo_fraction!r}")
        if not self.sites:
            raise ValidationError("fault plan needs at least one site")

    @property
    def is_null(self) -> bool:
        """True when no fault class can ever fire."""
        return (
            self.outage_rate_per_week == 0
            and self.hazard_rate_per_khour == 0
            and self.burst_rate_per_week == 0
        )


# -- the calendar ------------------------------------------------------------------


@dataclass(frozen=True)
class OutageWindow:
    """One site-wide outage / maintenance window [start, end)."""

    site: str
    start: float
    end: float


@dataclass(frozen=True)
class ApiErrorBurst:
    """One transient API-error window [start, end) on a site."""

    site: str
    start: float
    end: float


@dataclass(frozen=True)
class FaultCalendar:
    """The fully resolved fault schedule for one semester.

    Static data only — the calendar is what makes fault injection
    deterministic: every consumer (the plan sweep, the runtime injector,
    the report) reads the same windows.  The hazard stream is *not*
    materialized here (failure times depend on instance lifetimes, which
    the sweep resolves); :meth:`hazard_rng` re-derives its seeded
    generator so every sweep over this calendar draws identically.
    """

    config: FaultPlanConfig
    horizon_hours: float
    outages: tuple[OutageWindow, ...]
    bursts: tuple[ApiErrorBurst, ...]

    @property
    def empty(self) -> bool:
        """No windows and no hazard: applying this calendar is a no-op."""
        return (
            not self.outages
            and not self.bursts
            and self.config.hazard_rate_per_khour == 0
        )

    def hazard_rng(self) -> np.random.Generator:
        """The hazard stream (third spawn of the fault seed tree)."""
        return np.random.default_rng(np.random.SeedSequence(self.config.seed).spawn(3)[2])

    # -- lookups ------------------------------------------------------------
    #
    # A sweep asks these once or more per activity, ~10^5 times at 50x the
    # paper cohort, so each site's windows are indexed once (see
    # _SiteWindows) instead of scanning the whole calendar per query.

    @cached_property
    def _outage_index(self) -> dict[str, "_SiteWindows"]:
        return _SiteWindows.by_site(self.outages)

    @cached_property
    def _burst_index(self) -> dict[str, "_SiteWindows"]:
        return _SiteWindows.by_site(self.bursts)

    def outage_at(self, site: str, t: float) -> OutageWindow | None:
        """First outage on ``site`` (calendar order) with start <= t < end."""
        index = self._outage_index.get(site)
        return index.at(t) if index is not None else None

    def burst_at(self, site: str, t: float) -> ApiErrorBurst | None:
        """First burst on ``site`` (calendar order) with start <= t < end."""
        index = self._burst_index.get(site)
        return index.at(t) if index is not None else None

    def outage_over(self, site: str, start: float, end: float) -> OutageWindow | None:
        """Earliest outage overlapping [start, end), if any."""
        index = self._outage_index.get(site)
        return index.over(start, end) if index is not None else None

    def next_clear(self, site: str, t: float) -> float:
        """First instant >= ``t`` outside every outage window on ``site``."""
        moved = True
        while moved:
            moved = False
            w = self.outage_at(site, t)
            if w is not None:
                t = w.end
                moved = True
        return t


class _SiteWindows:
    """One site's windows, sorted by start, for point and interval queries.

    ``reach[k]`` is the latest end among the first ``k + 1`` windows, so
    ``bisect_right(reach, t)`` skips every window that ends by ``t``
    without arithmetic, and ``bisect`` on the starts drops every window
    that starts too late.  The sort is stable and each entry keeps its
    calendar position, so ties resolve exactly as a scan of the whole
    calendar would.
    """

    __slots__ = ("entries", "starts", "reach")

    def __init__(self, entries: list[tuple[int, OutageWindow | ApiErrorBurst]]) -> None:
        self.entries = sorted(entries, key=lambda entry: entry[1].start)
        self.starts = [w.start for _, w in self.entries]
        self.reach = list(accumulate((w.end for _, w in self.entries), max))

    @classmethod
    def by_site(cls, windows) -> dict[str, "_SiteWindows"]:
        grouped: dict[str, list] = {}
        for pos, w in enumerate(windows):
            grouped.setdefault(w.site, []).append((pos, w))
        return {site: cls(entries) for site, entries in grouped.items()}

    def at(self, t: float):
        """The window earliest in calendar order with start <= t < end."""
        best = None
        for k in range(bisect_right(self.reach, t), bisect_right(self.starts, t)):
            pos, w = self.entries[k]
            if w.end > t and (best is None or pos < best[0]):
                best = (pos, w)
        return best[1] if best is not None else None

    def over(self, start: float, end: float):
        """The earliest-starting window overlapping [start, end); among
        equal starts, the one earliest in calendar order."""
        for k in range(bisect_right(self.reach, start), bisect_left(self.starts, end)):
            w = self.entries[k][1]
            if w.end > start:
                return w
        return None


def _lognormal_hours(rng: np.random.Generator, mean: float, sigma: float) -> float:
    """A lognormal draw whose *distribution mean* is exactly ``mean``."""
    mu = np.log(mean) - sigma**2 / 2.0
    return float(rng.lognormal(mu, sigma))


def build_fault_calendar(
    config: FaultPlanConfig, *, horizon_hours: float
) -> FaultCalendar:
    """Resolve the seeded generators into a static window calendar.

    Streams: ``SeedSequence(config.seed).spawn(3)`` → (outages, bursts,
    hazard).  Sites are walked in the config's fixed order, so the
    calendar is a pure function of (config, horizon).
    """
    if horizon_hours <= 0:
        raise ValidationError(f"horizon must be positive: {horizon_hours!r}")
    outage_ss, burst_ss, _hazard_ss = np.random.SeedSequence(config.seed).spawn(3)
    weeks = horizon_hours / 168.0

    outages: list[OutageWindow] = []
    rng = np.random.default_rng(outage_ss)
    for site in config.sites:
        for _ in range(int(rng.poisson(config.outage_rate_per_week * weeks))):
            start = float(rng.uniform(0.0, horizon_hours))
            length = _lognormal_hours(rng, config.outage_mean_hours, config.outage_sigma)
            outages.append(
                OutageWindow(site=site, start=start, end=min(start + length, horizon_hours))
            )

    bursts: list[ApiErrorBurst] = []
    rng = np.random.default_rng(burst_ss)
    for site in config.sites:
        for _ in range(int(rng.poisson(config.burst_rate_per_week * weeks))):
            start = float(rng.uniform(0.0, horizon_hours))
            length = _lognormal_hours(rng, config.burst_mean_hours, config.burst_sigma)
            bursts.append(
                ApiErrorBurst(site=site, start=start, end=min(start + length, horizon_hours))
            )

    return FaultCalendar(
        config=config,
        horizon_hours=horizon_hours,
        outages=tuple(sorted(outages, key=lambda w: (w.start, w.site, w.end))),
        bursts=tuple(sorted(bursts, key=lambda w: (w.start, w.site, w.end))),
    )


# -- the ledger --------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One resolved fault outcome, in instance-hours.

    ``kind`` is one of ``hw_kill`` / ``outage_kill`` (forced
    termination + relaunch), ``delayed_start`` (window pushed the start),
    ``abandoned`` (retry budget exhausted; the remaining work never ran).
    """

    kind: str
    site: str
    user: str
    lab: str
    resource_type: str
    at: float
    lost_hours: float = 0.0  # planned instance-hours that never ran
    redo_hours: float = 0.0  # extra instance-hours re-billed by the relaunch
    delay_hours: float = 0.0  # start slip caused by retry backoff


@dataclass(frozen=True)
class HardwareFailure:
    """One resolved per-instance hardware failure (an MTBF hazard draw)."""

    site: str
    user: str
    lab: str
    at: float


#: One ledger row: a :class:`FaultEvent`'s fields in declaration order.
LedgerRow = tuple[str, str, str, str, str, float, float, float, float]
#: What a walk logs, before the activity's identity is attached:
#: ``(kind, at, lost_hours, redo_hours, delay_hours)``.
WalkEntry = tuple[str, float, float, float, float]

_KIND, _SITE, _USER, _LAB, _AT, _LOST, _REDO, _DELAY = 0, 1, 2, 3, 5, 6, 7, 8


class LedgerEvents(Sequence):
    """The ledger's rows as :class:`FaultEvent` objects, built on access.

    A chaos semester at 50x the paper cohort logs ~150k events; building
    them all as frozen dataclasses would cost more than the sweep that
    found them, and most consumers only count or sum.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[LedgerRow]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [FaultEvent(*row) for row in self._rows[index]]
        return FaultEvent(*self._rows[index])

    def __iter__(self) -> Iterator[FaultEvent]:
        return starmap(FaultEvent, self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LedgerEvents):
            return self._rows == other._rows
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LedgerEvents({len(self._rows)} events)"


@dataclass
class FaultLedger:
    """Accumulated fault accounting for one plan sweep.

    Rows are plain tuples in sweep order; :attr:`events` is the
    :class:`FaultEvent` view of them.  Every aggregate reads the rows
    left to right, so each total is the in-order sum over the events.
    """

    rows: list[LedgerRow] = field(default_factory=list)

    @property
    def events(self) -> LedgerEvents:
        return LedgerEvents(self.rows)

    def record(
        self, walked: Sequence[WalkEntry], site: str, user: str, lab: str, resource: str
    ) -> None:
        """Log one activity's walk entries under its identity."""
        append = self.rows.append
        for kind, at, lost, redo, delay in walked:
            append((kind, site, user, lab, resource, at, lost, redo, delay))

    def count(self, kind: str) -> int:
        return sum(1 for row in self.rows if row[_KIND] == kind)

    @property
    def hardware_kills(self) -> int:
        return self.count("hw_kill")

    @property
    def outage_kills(self) -> int:
        return self.count("outage_kill")

    @property
    def delayed_starts(self) -> int:
        return self.count("delayed_start")

    @property
    def abandoned(self) -> int:
        return self.count("abandoned")

    @property
    def lost_instance_hours(self) -> float:
        return sum(row[_LOST] for row in self.rows)

    @property
    def redo_instance_hours(self) -> float:
        return sum(row[_REDO] for row in self.rows)

    @property
    def delay_hours(self) -> float:
        return sum(row[_DELAY] for row in self.rows)

    def hardware_failures(self) -> tuple[HardwareFailure, ...]:
        """The resolved MTBF failures, as standalone records."""
        return tuple(
            HardwareFailure(site=row[_SITE], user=row[_USER], lab=row[_LAB], at=row[_AT])
            for row in self.rows
            if row[_KIND] == "hw_kill"
        )

    def per_user_redo_hours(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for row in self.rows:
            if row[_REDO]:
                out[row[_USER]] = out.get(row[_USER], 0.0) + row[_REDO]
        return out


# -- the sweep ---------------------------------------------------------------------


class FaultSweep:
    """Applies a :class:`FaultCalendar` to a raw plan (pre-admission).

    Two adapters share one set of value-level walks (:meth:`_walk_run`,
    :meth:`_walk_booking`, :meth:`_clear_interval`): :meth:`apply`
    rewrites object shards (the planner's
    :class:`~repro.core.cohort.FaultModel` protocol) and
    :meth:`apply_tables` rewrites columnar activity tables.  Both visit
    activities in the same order — each student's VM labs then its
    slots, then each group's service VMs then its leases — so they draw
    the one hazard stream identically and log identical ledgers.

    One sweep = one ledger: applying the same sweep twice would
    double-count accounting, so a second apply raises — plan once, then
    hand the *plan* to every executor.
    """

    def __init__(
        self,
        calendar: FaultCalendar,
        *,
        relaunch: RetryPolicy | None = None,
        transient: RetryPolicy | None = None,
    ) -> None:
        self.calendar = calendar
        self.relaunch = relaunch if relaunch is not None else RetryPolicy.relaunch_default()
        self.transient = transient if transient is not None else RetryPolicy.transient_default()
        self.ledger = FaultLedger()
        self._applied = False

    def _begin(self) -> np.random.Generator | None:
        """Claim the sweep's one run: the hazard stream, or None when the
        calendar is empty (the strict no-op)."""
        if self._applied:
            raise InvalidStateError(
                "FaultSweep already applied; build a fresh sweep (or reuse the plan)"
            )
        self._applied = True
        return None if self.calendar.empty else self.calendar.hazard_rng()

    # -- object adapter (FaultModel) ----------------------------------------

    def apply(
        self,
        student_shards: tuple[ShardPlan, ...],
        group_shards: tuple[ShardPlan, ...],
        *,
        semester_hours: float,
    ) -> tuple[tuple[ShardPlan, ...], tuple[ShardPlan, ...]]:
        rng = self._begin()
        if rng is None:
            return student_shards, group_shards  # strict no-op: same objects
        out = [
            self._apply_shard(shard, rng, semester_hours)
            for shard in (*student_shards, *group_shards)
        ]
        n = len(student_shards)
        return tuple(out[:n]), tuple(out[n:])

    def _apply_shard(
        self, shard: ShardPlan, rng: np.random.Generator, semester_hours: float
    ) -> ShardPlan:
        record = self.ledger.record
        vm_labs: list[VmLabActivity] = []
        for act in shard.vm_labs:
            segments, walked = self._walk_run(
                rng, semester_hours, KVM_SITE, act.start, act.duration, act.vm_count
            )
            record(walked, KVM_SITE, act.user, act.lab_id, act.flavor)
            vm_labs.extend(replace(act, start=s, duration=h) for s, h in segments)
        slots: list[SlotActivity] = []
        for slot in shard.slots:
            start, walked = self._walk_booking(
                rng, semester_hours, slot.site, slot.start, slot.slot_hours
            )
            record(walked, slot.site, slot.user, slot.lab_id, slot.node_type)
            if start is not None:
                slots.append(slot if start == slot.start else replace(slot, start=start))
        project_vms: list[ProjectVmActivity] = []
        for vm in shard.project_vms:
            segments, walked = self._walk_run(
                rng, semester_hours, KVM_SITE, vm.start, vm.hours, 1
            )
            record(walked, KVM_SITE, vm.user, "project", vm.flavor)
            project_vms.extend(replace(vm, start=s, hours=h) for s, h in segments)
        project_leases: list[ProjectLeaseActivity] = []
        for lease in shard.project_leases:
            start, walked = self._walk_booking(
                rng, semester_hours, lease.site, lease.start, lease.hours
            )
            record(walked, lease.site, lease.user, "project", lease.node_type)
            if start is not None:
                project_leases.append(
                    lease if start == lease.start else replace(lease, start=start)
                )
        return replace(
            shard,
            vm_labs=tuple(vm_labs),
            slots=tuple(slots),
            project_vms=tuple(project_vms),
            project_leases=tuple(project_leases),
        )

    # -- column adapter -----------------------------------------------------

    def apply_tables(self, tables, *, schema, semester_hours: float):
        """Fault-resolve native columnar activity tables (pre-admission).

        The column twin of :meth:`apply` over
        :class:`~repro.columnar.planner.ActivityTables` in native rank
        order.  A killed run expands into its segment rows in place, an
        abandoned run or booking drops its row, and the ``ps_*`` storage
        rows pass through.  An empty calendar returns ``tables`` itself.
        """
        from repro.columnar.schema import SITE_NAMES, group_user, student_user

        rng = self._begin()
        if rng is None:
            return tables
        labs, rtypes = schema.lab_names, schema.rtype_names
        t = tables
        (vm_rows, vm_start, vm_hours), (slot_rows, slot_start) = self._walk_family(
            rng,
            semester_hours,
            student_user,
            runs=(
                t.vm_student, t.vm_start, t.vm_duration, t.vm_count.tolist(),
                _decode(labs, t.vm_lab), _decode(rtypes, t.vm_flavor),
            ),
            bookings=(
                t.slot_student, _decode(SITE_NAMES, t.slot_site), t.slot_start,
                t.slot_hours, _decode(labs, t.slot_lab), _decode(rtypes, t.slot_node),
            ),
        )
        n_pvm = len(t.pvm_start)
        (pvm_rows, pvm_start, pvm_hours), (pl_rows, pl_start) = self._walk_family(
            rng,
            semester_hours,
            group_user,
            runs=(
                t.pvm_group, t.pvm_start, t.pvm_hours, [1] * n_pvm,
                ["project"] * n_pvm, _decode(rtypes, t.pvm_flavor),
            ),
            bookings=(
                t.pl_group, _decode(SITE_NAMES, t.pl_site), t.pl_start, t.pl_hours,
                ["project"] * len(t.pl_start), _decode(rtypes, t.pl_node),
            ),
        )
        return replace(
            t,
            **_take(t, "vm_", vm_rows, vm_start=vm_start, vm_duration=vm_hours),
            **_take(t, "slot_", slot_rows, slot_start=slot_start),
            **_take(t, "pvm_", pvm_rows, pvm_start=pvm_start, pvm_hours=pvm_hours),
            **_take(t, "pl_", pl_rows, pl_start=pl_start),
        )

    def _walk_family(self, rng, semester_hours, user_of, *, runs, bookings):
        """Walk one owner family's run rows and booking rows, owner-major.

        ``runs`` is (owner, start, hours, instances, lab, resource) and
        ``bookings`` is (owner, site, start, hours, lab, resource), each
        column a row-aligned array or list with owners ascending.  Each
        owner's runs are walked before its bookings, the object shard
        order.  Returns ``(source rows, starts, hours)`` for the run
        segments and ``(source rows, starts)`` for the kept bookings.
        """
        r_owner, r_start, r_hours, r_count, r_lab, r_res = runs
        b_owner, b_site, b_start, b_hours, b_lab, b_res = bookings
        n_runs = len(r_owner)
        owners = np.concatenate([r_owner, b_owner])
        order = np.argsort(owners, kind="stable").tolist()
        owners = owners.tolist()
        r_start, r_hours = r_start.tolist(), r_hours.tolist()
        b_start, b_hours = b_start.tolist(), b_hours.tolist()
        walk_run, walk_booking = self._walk_run, self._walk_booking
        record = self.ledger.record
        run_rows: list[int] = []
        run_starts: list[float] = []
        run_hours: list[float] = []
        book_rows: list[int] = []
        book_starts: list[float] = []
        for row in order:
            if row < n_runs:
                segments, walked = walk_run(
                    rng, semester_hours, KVM_SITE, r_start[row], r_hours[row], r_count[row]
                )
                if walked:
                    record(walked, KVM_SITE, user_of(owners[row]), r_lab[row], r_res[row])
                for seg_start, seg_hours in segments:
                    run_rows.append(row)
                    run_starts.append(seg_start)
                    run_hours.append(seg_hours)
            else:
                b = row - n_runs
                start, walked = walk_booking(
                    rng, semester_hours, b_site[b], b_start[b], b_hours[b]
                )
                if walked:
                    record(walked, b_site[b], user_of(owners[row]), b_lab[b], b_res[b])
                if start is not None:
                    book_rows.append(b)
                    book_starts.append(start)
        return (
            (
                np.asarray(run_rows, dtype=np.intp),
                np.asarray(run_starts, dtype=np.float64),
                np.asarray(run_hours, dtype=np.float64),
            ),
            (np.asarray(book_rows, dtype=np.intp), np.asarray(book_starts, dtype=np.float64)),
        )

    # -- value-level walks (the one copy of the fault semantics) -------------

    def _walk_run(
        self,
        rng: np.random.Generator,
        semester_hours: float,
        site: str,
        start: float,
        hours: float,
        instances: int,
    ) -> tuple[list[tuple[float, float]], list[WalkEntry]]:
        """Fault-resolve one unattended instance run (VM lab / project VM).

        Start delays, then a segment walk: each segment runs until the
        earlier of its planned end, a hazard draw, or the next outage;
        kills relaunch after policy backoff with redo hours, until the
        retry budget or the semester runs out.  Returns the executed
        ``(start, hours)`` segments and the walk's ledger entries.
        """
        cal = self.calendar
        walked: list[WalkEntry] = []
        seg_start = self._clear_interval(site, start, 0.0, rng, semester_hours)
        if seg_start is None:
            walked.append(("abandoned", start, hours * instances, 0.0, 0.0))
            return [], walked
        if seg_start > start:
            walked.append(("delayed_start", start, 0.0, 0.0, seg_start - start))

        segments: list[tuple[float, float]] = []
        remaining = hours
        relaunches = 0
        hazard = cal.config.hazard_rate_per_khour / 1000.0 * instances
        while remaining > _MIN_SEGMENT_HOURS and seg_start < semester_hours:
            kill_in = math.inf
            if hazard > 0:
                kill_in = float(rng.exponential(1.0 / hazard))
            window = cal.outage_over(site, seg_start, min(seg_start + remaining, semester_hours))
            outage_in = window.start - seg_start if window is not None else math.inf
            cut = min(kill_in, outage_in)
            if cut >= remaining:
                segments.append((seg_start, remaining))
                return segments, walked

            executed = max(cut, 0.0)
            kill_t = seg_start + executed
            if executed > _MIN_SEGMENT_HOURS:
                segments.append((seg_start, executed))
            kind = "outage_kill" if outage_in <= kill_in else "hw_kill"
            redo = cal.config.redo_fraction * executed
            left = remaining - executed

            relaunches += 1
            u = float(rng.random())  # one draw per relaunch, jitter or not
            if not self.relaunch.allows_retry(relaunches - 1, elapsed_hours=kill_t - start):
                walked.append(("abandoned", kill_t, left * instances, 0.0, 0.0))
                return segments, walked
            next_start = kill_t + self.relaunch.backoff_hours(relaunches, u=u)
            if kind == "outage_kill" and window is not None:
                next_start = max(next_start, window.end)
            next_start = cal.next_clear(site, next_start)
            if next_start >= semester_hours:
                walked.append(("abandoned", kill_t, left * instances, 0.0, 0.0))
                return segments, walked
            walked.append((kind, kill_t, 0.0, redo * instances, next_start - kill_t))
            remaining = left + redo
            seg_start = next_start
        return segments, walked

    def _walk_booking(
        self,
        rng: np.random.Generator,
        semester_hours: float,
        site: str,
        start: float,
        hours: float,
    ) -> tuple[float | None, list[WalkEntry]]:
        """Fault-resolve one reservation (lab slot / project lease).

        Reserved instances are lease-bound and auto-terminated, so the
        whole interval must clear every outage window; bursts only block
        the booking call itself.  Returns the cleared start, or None when
        the retry budget ran out (logged as abandoned), and the walk's
        ledger entries.
        """
        t = self._clear_interval(site, start, hours, rng, semester_hours)
        if t is None:
            return None, [("abandoned", start, hours, 0.0, 0.0)]
        if t > start:
            return t, [("delayed_start", start, 0.0, 0.0, t - start)]
        return t, []

    def _clear_interval(
        self,
        site: str,
        t: float,
        hours: float,
        rng: np.random.Generator,
        semester_hours: float,
    ) -> float | None:
        """First admissible start >= ``t`` for an interval of ``hours``.

        ``hours == 0`` clears a single provisioning call.  Outage
        conflicts retry on the relaunch policy (site-down timescale),
        burst conflicts on the transient policy (rate-limit timescale);
        exhausting either budget abandons the attempt.
        """
        cal = self.calendar
        outage_retries = 0
        burst_retries = 0
        t0 = t
        while t < semester_hours:
            window = (
                cal.outage_over(site, t, t + hours)
                if hours > 0
                else cal.outage_at(site, t)
            )
            if window is not None:
                outage_retries += 1
                if not self.relaunch.allows_retry(
                    outage_retries - 1, elapsed_hours=t - t0
                ):
                    return None
                u = float(rng.random())
                t = max(window.end, t + self.relaunch.backoff_hours(outage_retries, u=u))
                continue
            burst = cal.burst_at(site, t)
            if burst is not None:
                burst_retries += 1
                if not self.transient.allows_retry(
                    burst_retries - 1, elapsed_hours=t - t0
                ):
                    return None
                u = float(rng.random())
                t = t + self.transient.backoff_hours(burst_retries, u=u)
                continue
            return t
        return None


def _take(tables, prefix: str, rows: np.ndarray, **rewritten: np.ndarray) -> dict:
    """One table family's columns at ``rows``, with ``rewritten`` swapped in."""
    return {
        f.name: rewritten[f.name] if f.name in rewritten else getattr(tables, f.name)[rows]
        for f in fields(tables)
        if f.name.startswith(prefix)
    }


def _decode(vocab: tuple[str, ...], codes: np.ndarray) -> list[str]:
    """Code column -> per-row vocabulary strings."""
    return np.asarray(vocab, dtype=object)[codes].tolist()


# -- the front door ----------------------------------------------------------------


def plan_faulted_cohort(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    fault_config: FaultPlanConfig | None = None,
    *,
    relaunch: RetryPolicy | None = None,
    transient: RetryPolicy | None = None,
) -> tuple[CohortPlan, FaultLedger]:
    """Plan one semester under a fault plan; returns (plan, ledger).

    The returned plan is an ordinary :class:`~repro.core.cohort.CohortPlan`
    — hand it to ``CohortSimulation(plan=...)`` for the serial reference
    or ``repro.parallel.execute_plan`` for the pool; both produce the
    same record digest because all fault resolution happened here.
    """
    cfg = config if config is not None else CohortConfig()
    fcfg = fault_config if fault_config is not None else FaultPlanConfig()
    calendar = build_fault_calendar(fcfg, horizon_hours=course.semester_hours)
    sweep = FaultSweep(calendar, relaunch=relaunch, transient=transient)
    plan = plan_cohort(course, cfg, faults=sweep)
    return plan, sweep.ledger


def build_serving_calendar(
    *,
    duration_hours: float,
    seed: int = 7,
    outage_rate_per_week: float = 0.0,
    outage_mean_hours: float = 0.25,
    outage_sigma: float = 0.6,
    burst_rate_per_week: float = 0.0,
    burst_mean_hours: float = 0.05,
    burst_sigma: float = 0.5,
) -> FaultCalendar:
    """A fault calendar scoped to the serving site (:data:`SERVING_SITE`).

    The serving stack fails on minutes-scale windows (a replica fleet
    losing its zone, a rate-limit storm at the front door), not the
    hours-scale maintenance windows of the cohort testbed, so the window
    means default two orders of magnitude shorter.  Same seeded
    generators, same determinism contract: the calendar is a pure
    function of its arguments, and the zero-rate default is empty.
    """
    config = FaultPlanConfig(
        seed=seed,
        outage_rate_per_week=outage_rate_per_week,
        outage_mean_hours=outage_mean_hours,
        outage_sigma=outage_sigma,
        burst_rate_per_week=burst_rate_per_week,
        burst_mean_hours=burst_mean_hours,
        burst_sigma=burst_sigma,
        sites=(SERVING_SITE,),
    )
    return build_fault_calendar(config, horizon_hours=duration_hours)


def build_outage_calendar(
    *,
    outage_start_s: float,
    outage_end_s: float,
    horizon_hours: float,
    dark_replicas: int = 0,
) -> FaultCalendar:
    """One explicit serving-site outage window, placed in seconds.

    The retry-storm scenario (`repro.resilience.scenario`) needs a
    *controlled* experiment: the same outage at the same instant under
    every client policy, so rung-to-rung differences are policy and
    nothing else.  A sampled calendar can't give that — this builds the
    window directly (the config is the null plan; the window is explicit,
    not drawn).

    ``dark_replicas=0`` (default) is the full-site outage; ``k > 0``
    scopes the window via :func:`partial_serving_site` so only ``k``
    replicas go dark and the rest of the fleet keeps serving.
    """
    if not (0.0 <= outage_start_s < outage_end_s):
        raise ValidationError(
            f"need 0 <= start < end: {outage_start_s!r}, {outage_end_s!r}"
        )
    if outage_end_s > horizon_hours * 3600.0:
        raise ValidationError(
            f"outage ends past the horizon: {outage_end_s!r} s vs {horizon_hours!r} h"
        )
    if dark_replicas < 0:
        raise ValidationError(f"dark_replicas cannot be negative: {dark_replicas!r}")
    site = SERVING_SITE if dark_replicas == 0 else partial_serving_site(dark_replicas)
    return FaultCalendar(
        config=FaultPlanConfig(seed=0, sites=(site,)),
        horizon_hours=horizon_hours,
        outages=(
            OutageWindow(
                site=site,
                start=outage_start_s / 3600.0,
                end=outage_end_s / 3600.0,
            ),
        ),
        bursts=(),
    )
