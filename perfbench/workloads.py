"""The benchmark's four batch jobs, their oracle gates and their checks.

Each workload builds its inputs from the seed in ``setup``, which also
runs the workload's oracle gate and so warms the code path; ``job`` then
runs one batch job and returns what the harness needs to time and check
it.  Every call goes through a module attribute
(``engine.run_columnar``, ``sim.simulate_traffic``...) so the wrappers
in :data:`TRACE_TARGETS` see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.columnar import engine
from repro.columnar.kernels import iter_record_batches
from repro.columnar.merge import CanonicalMerger
from repro.core.cohort import CohortConfig, CohortSimulation
from repro.core.course import COURSE, scaled_course
from repro.core.report import headline_summary, records_digest
from repro.faults.plan import (
    FaultPlanConfig,
    FaultSweep,
    build_fault_calendar,
    build_serving_calendar,
    plan_faulted_cohort,
)
from repro.loadgen import arrivals, sim
from repro.loadgen import report as loadgen_report
from repro.loadgen.autoscaler import AutoscalerConfig
from repro.loadgen.queue import DROPPED, ERROR, FAILED, REJECTED, SERVED, SHED, AdmissionConfig
from repro.resilience import sweep
from repro.resilience.scenario import DEFENDED_POLICIES
from repro.serving.batching import BatchingConfig
from repro.serving.devices import DEVICE_CATALOG
from repro.serving.engine import InferenceEngine
from repro.serving.models import food11_classifier

from tracing import clock, patched

#: ``benchmarks/bench_faults.py``'s chaos plan: every fault kind fires.
CHAOS = FaultPlanConfig(
    seed=11,
    outage_rate_per_week=0.3,
    hazard_rate_per_khour=2.0,
    burst_rate_per_week=1.0,
)

#: The paper's headline numbers (abstract and §6) that ``paper_err_pct``
#: compares the seed's paper-scale semester against.
PAPER = {
    "lab_instance_hours": 109_837.0,
    "project_instance_hours": 76_855.0,
    "aws_lab_per_student": 124.0,
    "gcp_lab_per_student": 111.0,
}

STATUSES = (SERVED, REJECTED, DROPPED, ERROR, FAILED, SHED)


def _count_simulate(result, args):
    out = result.resilience
    return {
        "offered": result.offered,
        "served": result.served,
        "attempts": result.attempts_total,
        "batches": result.batches,
        "peak_replicas": result.telemetry.peak_replicas,
        "breaker_opens": out.breaker_opens if out is not None else 0,
    }


def _count_run(result, args):
    return {
        "records": result.records,
        "fast_paths": sum(bool(v) for v in result.sweep_info.values()),
    }


#: Wrapped entry points: ``target -> (span name, kind, counter)``.  The
#: target is the name the caller resolves, so ``plan_columns`` is wrapped
#: where ``engine`` imported it and ``sweep_kvm_quota`` where
#: ``plan_columns`` imports it at call time.  ``kind`` "keep" also keeps
#: the return value, "leaf" marks a per-request call that calls nothing
#: wrapped, and "iter" times each step of a generator.
TRACE_TARGETS = {
    "repro.columnar.engine:run_columnar": ("columnar.engine.run", "call", _count_run),
    "repro.columnar.engine:plan_columns": ("columnar.planner.plan_columns", "keep", None),
    "repro.columnar.admission:sweep_kvm_quota": ("columnar.admission.quota", "call", None),
    "repro.columnar.admission:sweep_lease_calendar": ("columnar.admission.lease", "call", None),
    "repro.columnar.engine:plan_cohort": ("core.cohort.plan_cohort", "call", None),
    "repro.faults.plan:FaultSweep.apply": (
        "faults.plan.sweep", "call", lambda r, a: {"events": len(a[0].ledger.events)},
    ),
    "repro.columnar.engine:columns_from_plan": ("columnar.planner.convert", "keep", None),
    "repro.columnar.engine:iter_record_batches": ("columnar.kernels.emit", "iter", None),
    "repro.columnar.merge:CanonicalMerger.add": ("columnar.merge.add", "call", None),
    "repro.columnar.merge:CanonicalMerger.finalize": ("columnar.merge.finalize", "call", None),
    "repro.resilience.sweep:_run_point": ("resilience.sweep.point", "call", None),
    "repro.resilience.sweep:generate_trace": ("loadgen.arrivals.trace", "call", None),
    "repro.loadgen.arrivals:generate_trace": ("loadgen.arrivals.trace", "call", None),
    "repro.resilience.sweep:build_outage_calendar": (
        "resilience.clients.outage_calendar", "call", None,
    ),
    "repro.resilience.sweep:plan_resilience": ("resilience.clients.plan", "call", None),
    "repro.resilience.sweep:simulate_traffic": ("loadgen.sim.simulate", "call", _count_simulate),
    "repro.loadgen.sim:simulate_traffic": ("loadgen.sim.simulate", "call", _count_simulate),
    "repro.resilience.sweep:classify": (
        "resilience.sweep.classify", "call", lambda r, a: {"locked_points": r == "LOCKED"},
    ),
    "repro.resilience.sweep:build_report": ("loadgen.report.price", "call", None),
    "repro.loadgen.report:build_report": ("loadgen.report.price", "call", None),
    "repro.loadgen.sim:TrafficResult.digest": ("loadgen.sim.digest", "call", None),
    "repro.loadgen.autoscaler:ReplicaSet.tick": ("loadgen.autoscaler.tick", "leaf", None),
    "repro.loadgen.queue:RequestQueue.take_batch": ("loadgen.queue.take_batch", "leaf", None),
    "repro.resilience.clients:ClosedLoopRuntime.on_failure": (
        "resilience.clients.on_failure", "leaf", None,
    ),
}


@dataclass
class Job:
    """One batch job's outcome, as the harness times and checks it."""

    work: int
    digest: str
    facts: dict
    seconds: float = 0.0
    #: Host seconds per task (one storm point each); empty when the job
    #: is its own single task.
    tasks: list[float] = field(default_factory=list)


def paper_err_pct(records) -> float:
    """Largest relative error (%) of the headline numbers against the paper."""
    head = headline_summary(records)
    return max(abs(head[k] - v) / v for k, v in PAPER.items()) * 100.0


class Cohort:
    """One semester through ``run_columnar`` (plan -> emit -> merge -> digest)."""

    work_unit = "students"

    def __init__(self, scale: float, faulted: bool) -> None:
        self.scale = scale
        self.faulted = faulted

    def _faults(self, course):
        # FaultSweep.apply is one-shot: every run needs a fresh sweep
        if not self.faulted:
            return None
        return FaultSweep(build_fault_calendar(CHAOS, horizon_hours=course.semester_hours))

    def setup(self, seed: int, check) -> None:
        self.config = CohortConfig(seed=seed)
        self.course = scaled_course(self.scale)
        # oracle gate at paper scale: the columnar engine must reproduce
        # the serial object path's record stream byte for byte
        if self.faulted:
            plan, ledger = plan_faulted_cohort(COURSE, self.config, CHAOS)
            check("gate: the chaos ledger is non-empty", bool(ledger.events))
            reference = CohortSimulation(COURSE, self.config, plan=plan).run()
        else:
            reference = CohortSimulation(COURSE, self.config).run()
            # fidelity is judged on the fault-free semester the paper measured
            self.paper_err_pct = paper_err_pct(reference)
        run = engine.run_columnar(COURSE, self.config, faults=self._faults(COURSE))
        check(
            "gate: paper-scale columnar digest equals the serial digest",
            run.digest == records_digest(reference),
        )

    def job(self, check) -> Job:
        faults = self._faults(self.course)
        run = engine.run_columnar(self.course, self.config, faults=faults)
        facts = {"students": run.students, "records": run.records}
        if faults is not None:
            facts["fault_events"] = len(faults.ledger.events)
            check("job: the chaos ledger is non-empty", facts["fault_events"] > 0)
        return Job(work=run.students, digest=run.digest, facts=facts)

    def digest_split(self, tracer) -> float:
        """Host seconds of the digest: the traced run's finalize minus a
        finalize without digest over the same admitted plan."""
        kept = tracer.kept.get("columnar.planner.plan_columns") or tracer.kept[
            "columnar.planner.convert"
        ]
        plan = kept[-1]
        merger = CanonicalMerger(plan.schema, plan.semester_hours)
        for batch in iter_record_batches(plan.tables, plan.schema, plan.semester_hours):
            merger.add(batch)
        t0 = clock()
        merger.finalize(digest=False)
        bare = clock() - t0
        return tracer.totals()["columnar.merge.finalize"][0] - bare


class StormSweep:
    """The metastable phase map: 12 points of the CLI's ``--quick`` storm grid."""

    work_unit = "attempts"

    def setup(self, seed: int, check) -> None:
        quick = sweep.quick_sweep_config()
        self.config = replace(
            quick,
            base=replace(quick.base, seed=seed),
            # the 90 s outage half of the CLI's --quick grid: the whole grid
            # does not fit the benchmark's time budget
            axes=replace(quick.axes, outage_lengths_s=(90.0,)),
        )
        # oracle gate (the CLI's --verify): flipping every evaluation order
        # the simulation may choose must not move a point's digest
        plain = sweep.build_points(self.config)
        perturbed = sweep.build_points(self.config, perturb=True)
        i = next(k for k, p in enumerate(plain) if p.policy in DEFENDED_POLICIES)
        check(
            "gate: a perturbed storm point keeps its digest",
            sweep._run_point(plain[i]).digest == sweep._run_point(perturbed[i]).digest,
        )

    def job(self, check) -> Job:
        tasks: list[float] = []

        def timed(run_point):
            def point(spec):
                t0 = clock()
                out = run_point(spec)
                tasks.append(clock() - t0)
                return out

            return point

        with patched({"repro.resilience.sweep:_run_point": timed}):
            rep = sweep.run_sweep(self.config, workers=1)
        attempts = sum(round(p.amplification * p.offered) for p in rep.points)
        naive = rep.locked_region("naive-retry")
        defended = [p for p in self.config.axes.policies if p in DEFENDED_POLICIES]
        check("job: the naive client locks somewhere", bool(naive))
        for policy in defended:
            check(f"job: {policy} never locks", not rep.locked_region(policy))
        facts = {
            "points": len(rep.points),
            "attempts": attempts,
            "locked_points": sum(p.phase == "LOCKED" for p in rep.points),
        }
        return Job(work=attempts, digest=rep.digest(), facts=facts, tasks=tasks)


class ServeFlash:
    """EXPERIMENTS' faulted serving row: an open-loop flash-crowd day."""

    work_unit = "attempts"

    def setup(self, seed: int, check) -> None:
        self.engine = InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])
        self.traffic = arrivals.TrafficConfig(
            seed=seed, pattern="flash", requests_per_day=2e6, duration_hours=24.0
        )
        self.kwargs = dict(
            admission=AdmissionConfig(queue_capacity=512, deadline_ms=1000.0),
            batching=BatchingConfig(max_batch=8, max_queue_delay_ms=5.0),
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=8, provisioning_lag_s=60.0),
            calendar=build_serving_calendar(
                duration_hours=24.0, seed=7, outage_rate_per_week=2.0
            ),
        )
        # oracle gate (the CLI's --verify) on the day's first six minutes
        trace = arrivals.generate_trace(replace(self.traffic, duration_hours=0.1))
        first = sim.simulate_traffic(trace, self.engine, **self.kwargs)
        flipped = sim.simulate_traffic(trace, self.engine, perturb=True, **self.kwargs)
        check("gate: a perturbed slice keeps its digest", first.digest() == flipped.digest())
        _check_conservation(first, check)

    def job(self, check) -> Job:
        trace = arrivals.generate_trace(self.traffic)
        result = sim.simulate_traffic(trace, self.engine, **self.kwargs)
        loadgen_report.build_report(result, self.engine)
        digest = result.digest()
        _check_conservation(result, check)
        facts = {"offered": result.offered, "loss_rate": round(result.loss_rate, 6)}
        return Job(work=result.attempts_total, digest=digest, facts=facts)


def _check_conservation(result, check) -> None:
    check(
        "job: terminal statuses sum to offered",
        sum(result.count(code) for code in STATUSES) == result.offered,
    )


WORKLOADS = {
    "cohort-clean": lambda: Cohort(200, faulted=False),
    "cohort-faulted": lambda: Cohort(50, faulted=True),
    "storm-sweep": StormSweep,
    "serve-flash": ServeFlash,
}
