"""Property tests for the columnar engine's shard structure.

The engine's output must be a pure function of (course, config) — never
of how work was chunked, bucketed, fanned out, or spilled.  Hypothesis
drives the structural knobs through adversarial values (singleton
batches, one bucket, hundreds of mostly-empty buckets, odd worker
counts) and every variation must reproduce the reference digest bit for
bit.  The billing integral is held to *exact* equality with the
record-level fsum, and a null fault plan must be a byte-exact no-op
through the native planner's fault-sweep step.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar import plan_columns, run_columnar
from repro.columnar.planner import columns_from_plan
from repro.core import records_digest, scaled_course
from repro.core.cohort import CohortConfig, CohortSimulation, plan_cohort
from repro.faults.plan import FaultPlanConfig, FaultSweep, build_fault_calendar
from repro.parallel import total_unit_hours

#: 48-student cohort: big enough to populate every activity family.
SMALL = scaled_course(0.25)
#: 1-student cohort: the smallest legal cohort (1 student, 1 group).
ONE = scaled_course(1.0 / 191.0)
SEED = 42

_SLOW = settings(
    deadline=None, max_examples=12, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def reference():
    """Reference digest for the SMALL cohort, default engine knobs."""
    return run_columnar(SMALL, CohortConfig(seed=SEED)).digest


@_SLOW
@given(
    n_buckets=st.integers(min_value=1, max_value=257),
    chunk_rows=st.sampled_from((1, 2, 17, 1_000, 2_000_000)),
)
def test_merge_shard_boundaries_never_leak(reference, n_buckets, chunk_rows):
    """Digest is invariant under bucket count and emission chunking —
    including singleton batches and buckets that stay empty."""
    run = run_columnar(
        SMALL, CohortConfig(seed=SEED), n_buckets=n_buckets, chunk_rows=chunk_rows
    )
    assert run.digest == reference


@settings(deadline=None, max_examples=4, suppress_health_check=[HealthCheck.too_slow])
@given(workers=st.integers(min_value=1, max_value=4))
def test_draw_fanout_boundaries_never_leak(reference, workers):
    """Digest is invariant under the planner's worker fan-out: student
    draws are seeded per student, so range splits cannot matter."""
    run = run_columnar(SMALL, CohortConfig(seed=SEED), workers=workers)
    assert run.digest == reference


@_SLOW
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_buckets=st.sampled_from((1, 3, 64)),
)
def test_unit_hours_conserved_exactly(seed, n_buckets):
    """The streamed per-bucket total equals the record-level fsum with
    zero tolerance, for arbitrary seeds and bucketings."""
    run = run_columnar(
        ONE, CohortConfig(seed=seed), n_buckets=n_buckets, collect_records=True
    )
    assert run.unit_hours == total_unit_hours(run.record_list)
    assert math.isfinite(run.unit_hours) and run.unit_hours >= 0.0


def test_singleton_cohort_matches_serial():
    """The 1-student, 1-group edge: every family near-empty, digest holds."""
    serial = CohortSimulation(ONE, CohortConfig(seed=SEED)).run()
    run = run_columnar(ONE, CohortConfig(seed=SEED))
    assert run.digest == records_digest(serial)
    assert run.students == 1 and run.groups == 1


def test_empty_families_are_well_formed():
    """labs-only zeroes the project families; emission and merge must
    handle zero-length arrays without special-casing."""
    run = run_columnar(ONE, CohortConfig(seed=SEED), include_project=False)
    serial = CohortSimulation(ONE, CohortConfig(seed=SEED)).run(include_project=False)
    assert run.digest == records_digest(serial)


def test_spill_path_is_digest_invariant(tmp_path, reference):
    """Spilling buckets to scratch files (tiny threshold forces it) must
    round-trip every column bit-exactly."""
    run = run_columnar(
        SMALL, CohortConfig(seed=SEED), spill_dir=tmp_path, n_buckets=8
    )
    assert run.digest == reference
    assert not list(tmp_path.glob("*.npz"))  # scratch files consumed


def test_null_fault_plan_is_byte_exact_noop():
    """A null fault calendar passes through the native planner's fault
    sweep untouched, so it must reproduce the fault-free digest."""
    config = CohortConfig(seed=SEED)
    calendar = build_fault_calendar(
        FaultPlanConfig(), horizon_hours=SMALL.semester_hours
    )
    assert calendar.empty
    native = run_columnar(SMALL, config)
    faulted = run_columnar(SMALL, config, faults=FaultSweep(calendar))
    assert faulted.digest == native.digest


def test_converter_matches_native_planner_arrays():
    """``columns_from_plan`` over the object planner's shards produces the
    same activity tables as the native columnar planner, array for array
    — the structural identity underneath the digest equality."""
    config = CohortConfig(seed=SEED)
    native = plan_columns(SMALL, config)
    converted = columns_from_plan(plan_cohort(SMALL, config), SMALL)
    for f in dataclasses.fields(native.tables):
        a = getattr(native.tables, f.name)
        b = getattr(converted.tables, f.name)
        np.testing.assert_array_equal(a, b, err_msg=f.name)
