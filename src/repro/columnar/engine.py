"""The columnar front end: plan → emit → merge, in one call.

``run_columnar`` is the array-path counterpart of
:meth:`repro.core.cohort.CohortSimulation.run` — same inputs, same
canonical record stream (by digest), a few hundred times less work per
student.  Fault-model runs plan natively too: the fault sweep rewrites
the raw activity tables before admission (see
:func:`repro.columnar.planner.plan_columns`), so no object plan is ever
built and everything downstream is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cloud.metering import UsageRecord
from repro.columnar.kernels import iter_record_batches
from repro.columnar.merge import CanonicalMerger
# columns_from_plan and plan_cohort are unused here, but perfbench's tracer
# wraps both at this module (workloads.TRACE_TARGETS), so they stay importable
from repro.columnar.planner import columns_from_plan, plan_columns  # noqa: F401
from repro.core.cohort import CohortConfig, plan_cohort  # noqa: F401
from repro.core.course import COURSE, CourseDefinition

if TYPE_CHECKING:
    from repro.columnar.planner import TableFaultModel


@dataclass(frozen=True)
class ColumnarRun:
    """Result of one columnar semester simulation."""

    seed: int
    students: int
    groups: int
    activities: int
    records: int
    unit_hours: float
    digest: str | None
    record_list: list[UsageRecord] | None
    sweep_info: dict[str, bool] = field(default_factory=dict)


def run_columnar(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    *,
    workers: int = 1,
    faults: "TableFaultModel | None" = None,
    include_project: bool = True,
    digest: bool = True,
    collect_records: bool = False,
    n_buckets: int = 64,
    chunk_rows: int = 2_000_000,
    spill_dir: str | Path | None = None,
) -> ColumnarRun:
    """Simulate one semester through the columnar engine.

    ``digest=False`` skips minting ids and rendering the record bytes
    (the merge still sorts, counts and totals), which measures the engine
    without the digest; the digest is about a third of a digested run at
    10⁶ students.  ``spill_dir`` bounds peak memory by spilling merge
    buckets to scratch files.  ``faults`` (a
    :class:`~repro.faults.plan.FaultSweep`) is swept into the plan.
    """
    config = config if config is not None else CohortConfig()
    plan = plan_columns(course, config, workers=workers, faults=faults)
    tables = plan.tables
    if not include_project:
        tables = _labs_only(tables)
    merger = CanonicalMerger(
        plan.schema, plan.semester_hours, n_buckets=n_buckets, spill_dir=spill_dir
    )
    for batch in iter_record_batches(
        tables, plan.schema, plan.semester_hours, chunk_rows=chunk_rows
    ):
        merger.add(batch)
    result = merger.finalize(digest=digest, collect_records=collect_records)
    return ColumnarRun(
        seed=config.seed,
        students=plan.schema.n_students,
        groups=plan.schema.n_groups,
        activities=tables.activity_count,
        records=result.count,
        unit_hours=result.unit_hours,
        digest=result.digest,
        record_list=result.records,
        sweep_info=dict(plan.sweep_info),
    )


def _labs_only(tables):
    """Drop the project-phase families (the serial ``include_project=False``)."""
    from dataclasses import replace as _replace

    def empty_like(arr):
        return arr[:0]

    return _replace(
        tables,
        pvm_group=empty_like(tables.pvm_group),
        pvm_flavor=empty_like(tables.pvm_flavor),
        pvm_start=empty_like(tables.pvm_start),
        pvm_hours=empty_like(tables.pvm_hours),
        pvm_with_fip=empty_like(tables.pvm_with_fip),
        pl_group=empty_like(tables.pl_group),
        pl_node=empty_like(tables.pl_node),
        pl_start=empty_like(tables.pl_start),
        pl_hours=empty_like(tables.pl_hours),
        pl_site=empty_like(tables.pl_site),
        pl_edge=empty_like(tables.pl_edge),
        ps_group=empty_like(tables.ps_group),
        ps_start=empty_like(tables.ps_start),
        ps_hours=empty_like(tables.ps_hours),
        ps_block_gb=empty_like(tables.ps_block_gb),
        ps_object_gb=empty_like(tables.ps_object_gb),
    )
