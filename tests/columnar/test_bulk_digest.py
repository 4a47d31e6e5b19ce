"""Adversarial equivalence tests for the columnar merge's bulk digest.

``CanonicalMerger.finalize`` renders each sorted bucket's digest bytes
from its columns — vocabulary lookup tables, a vectorized id-serial
minter, ``repr`` over distinct floats — and hashes them with one
``sha.update`` per bucket.  Every test here holds those bytes to the
object path's oracle, ``records_digest`` over the materialized
``UsageRecord`` list, on inputs chosen to break a formatter: serials
crossing 999,999 → 1,000,000 (where ``:06d`` widens), negative zero,
subnormals, wide exponents, and bucketings that leave buckets empty.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import plan_columns, run_columnar
from repro.columnar.kernels import iter_record_batches
from repro.columnar.merge import (
    CanonicalMerger,
    _BucketRenderer,
    _bucket_records,
    _float_pieces,
    _mint_serials,
    _serial_digits,
    _user_string_table,
)
from repro.columnar.schema import (
    KIND_NAMES,
    KIND_PREFIXES,
    SITE_NAMES,
    ColumnSchema,
    RecordColumns,
)
from repro.core import records_digest, scaled_course
from repro.core.cohort import CohortConfig
from repro.faults.plan import FaultPlanConfig, FaultSweep, build_fault_calendar

#: 48-student cohort: big enough to populate every activity family.
SMALL = scaled_course(0.25)
#: 1-student cohort: most of its 64 start-time buckets stay empty.
ONE = scaled_course(1.0 / 191.0)
SEED = 42
#: ``benchmarks/bench_faults.py``'s chaos plan: every fault kind fires.
CHAOS = FaultPlanConfig(
    seed=11, outage_rate_per_week=0.3, hazard_rate_per_khour=2.0, burst_rate_per_week=1.0
)
N_PAIRS = len(SITE_NAMES) * len(KIND_NAMES)

SCHEMA = ColumnSchema.for_course(SMALL)
USERS = _user_string_table(SCHEMA)
RENDER = _BucketRenderer(SCHEMA, USERS)

#: Float values a formatter gets wrong first.
EDGE_FLOATS = [
    0.0, -0.0, 1e-5, 1e16, 5e-324, 1.0 / 3.0, 2.5e-308, 1.7976931348623157e308,
    123456789.0, 0.1, 1e22, 2.0**53 + 2.0,
]


def _columns(rng, n, *, start=None, end=None, quantity=None):
    """A random, well-formed bucket of ``n`` rows over ``SCHEMA``."""
    if start is None:
        start = np.sort(rng.uniform(0.0, 100.0, n))
    if end is None:
        end = start + rng.exponential(3.0, n)
    if quantity is None:
        quantity = rng.choice([1.0, 5.0, 40.0, 0.5], n)
    return RecordColumns(
        start=np.asarray(start, dtype=np.float64),
        end=np.asarray(end, dtype=np.float64),
        quantity=np.asarray(quantity, dtype=np.float64),
        kind=rng.integers(0, len(KIND_NAMES), n).astype(np.int8),
        rtype=rng.integers(0, len(SCHEMA.rtype_names), n).astype(np.int16),
        site=rng.integers(0, len(SITE_NAMES), n).astype(np.int8),
        user=rng.integers(0, len(USERS), n).astype(np.int32),
        lab=rng.integers(0, len(SCHEMA.lab_names), n).astype(np.int16),
    )


def _bulk_matches_oracle(cols, digits):
    """The rendered bucket hashes like ``records_digest`` over its records."""
    bulk = hashlib.sha256(RENDER(cols, digits)).hexdigest()
    return bulk == records_digest(_bucket_records(cols, digits, SCHEMA, USERS))


def test_minter_carries_counters_across_the_million_boundary():
    """Serials continue from carried counters, per (site, kind), in row
    order, and ids widen past 999,999 exactly like ``f"{p}-{s:06d}"``."""
    rng = np.random.default_rng(7)
    counters = np.full(N_PAIRS, 999_990, dtype=np.int64)
    counters[::5] = 0  # some pairs still in the 6-digit low range
    expected = counters.copy()
    for n in (40, 1, 97):  # three consecutive buckets
        cols = _columns(rng, n)
        digits = _serial_digits(_mint_serials(cols, counters))
        records = _bucket_records(cols, digits, SCHEMA, USERS)
        for row, rec in enumerate(records):
            pair = int(cols.site[row]) * len(KIND_NAMES) + int(cols.kind[row])
            expected[pair] += 1
            prefix = KIND_PREFIXES[int(cols.kind[row])]
            assert rec.resource_id == f"{prefix}-{expected[pair]:06d}"
        assert _bulk_matches_oracle(cols, digits)
    assert (counters == expected).all()
    assert (expected > 1_000_000).any() and (expected < 1_000).any()


def test_serial_digits_match_format_at_every_width():
    """``_serial_digits`` equals ``:06d`` from 1 to 18 digits, mixed widths
    in one call."""
    serials = np.array(
        [1, 9, 10, 99_999, 100_000, 999_999, 1_000_000, 1_000_001, 9_999_999,
         10_000_000, 123_456_789_012, 10**17, 999_999_999_999_999_999],
        dtype=np.int64,
    )
    assert _serial_digits(serials).tolist() == [f"{s:06d}" for s in serials.tolist()]


def test_float_pieces_match_repr_on_edge_values():
    """Negative zero keeps its own repr; subnormals, huge and tiny
    exponents and non-terminating binary fractions render like ``repr``."""
    rng = np.random.default_rng(3)
    wide = rng.uniform(-1.0, 1.0, 4000) * 10.0 ** rng.integers(-320, 300, 4000)
    values = np.concatenate([EDGE_FLOATS, wide, EDGE_FLOATS[::-1]])
    assert _float_pieces(values).tolist() == [f"{v!r}, " for v in values.tolist()]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
def test_float_pieces_match_repr_on_any_float(values):
    arr = np.array(values, dtype=np.float64)
    assert _float_pieces(arr).tolist() == [f"{v!r}, " for v in values]


def test_bulk_bytes_match_oracle_on_edge_floats():
    """Edge floats and wide-exponent draws through the whole row renderer,
    with duplicates across the start, end and quantity columns."""
    rng = np.random.default_rng(11)
    edge = np.abs(np.array(EDGE_FLOATS))
    wide = rng.uniform(0.0, 1.0, 200) * 10.0 ** rng.integers(-320, 300, 200)
    start = np.concatenate([edge, [-0.0, -0.0], wide])
    end = np.maximum(start, np.roll(start, 1))
    quantity = np.resize(edge[::-1], len(start))
    cols = _columns(rng, len(start), start=start, end=end, quantity=quantity)
    counters = np.zeros(N_PAIRS, dtype=np.int64)
    assert _bulk_matches_oracle(cols, _serial_digits(_mint_serials(cols, counters)))


def _oracle_holds(run):
    return run.digest is not None and run.digest == records_digest(run.record_list)


def test_bulk_digest_matches_oracle_across_bucketings():
    """One bucket, a few, and 257 (most of them empty) all hash like the
    materialized record list — and like each other."""
    config = CohortConfig(seed=SEED)
    digests = set()
    for n_buckets in (1, 3, 257):
        run = run_columnar(SMALL, config, n_buckets=n_buckets, collect_records=True)
        assert _oracle_holds(run)
        digests.add(run.digest)
    assert len(digests) == 1


def test_bulk_digest_matches_oracle_with_spill(tmp_path):
    """A tiny spill threshold forces every bucket through ``.npz`` scratch
    files, several per bucket, before the bulk render."""
    config = CohortConfig(seed=SEED)
    plan = plan_columns(SMALL, config)
    merger = CanonicalMerger(
        plan.schema, plan.semester_hours, n_buckets=8, spill_dir=tmp_path, spill_rows=50
    )
    for batch in iter_record_batches(plan.tables, plan.schema, plan.semester_hours, chunk_rows=97):
        merger.add(batch)
    assert len(list(tmp_path.glob("*.npz"))) > 8
    result = merger.finalize(digest=True, collect_records=True)
    assert not list(tmp_path.glob("*.npz"))
    assert result.digest == records_digest(result.records)
    assert result.digest == run_columnar(SMALL, config).digest


def test_bulk_digest_matches_oracle_labs_only():
    run = run_columnar(
        SMALL, CohortConfig(seed=SEED), include_project=False, collect_records=True
    )
    assert _oracle_holds(run)
    assert all(r.lab != "project" for r in run.record_list)


def test_bulk_digest_matches_oracle_under_chaos_faults():
    faults = FaultSweep(build_fault_calendar(CHAOS, horizon_hours=SMALL.semester_hours))
    run = run_columnar(SMALL, CohortConfig(seed=SEED), faults=faults, collect_records=True)
    assert faults.ledger.events
    assert _oracle_holds(run)


def test_bulk_digest_matches_oracle_with_empty_buckets():
    """The 1-student course leaves interior start-time buckets empty; the
    serial counters must carry over them unchanged."""
    n_buckets = 64
    run = run_columnar(
        ONE, CohortConfig(seed=SEED), n_buckets=n_buckets, collect_records=True
    )
    assert _oracle_holds(run)
    edges = np.linspace(0.0, ONE.semester_hours, n_buckets + 1)[1:-1]
    starts = [r.start for r in run.record_list]
    occupancy = np.bincount(np.searchsorted(edges, starts, side="right"), minlength=n_buckets)
    filled = np.flatnonzero(occupancy)
    assert (occupancy[filled[0] : filled[-1]] == 0).any()  # an empty bucket between full ones
