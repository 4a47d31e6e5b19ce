"""Canonical merge over record columns: sort, mint ids, digest — bucketed.

The object path canonicalizes by sorting the complete record list under
:func:`repro.core.usage.canonical_sort_key` and re-minting resource ids
with per-(site, prefix) counters in first-appearance order.  This module
produces the byte-identical stream from column batches without ever
holding all records sorted at once:

* **Bucketing.** `start` is the primary sort key, so partitioning rows
  by fixed start-time edges (``searchsorted`` — equal starts always land
  in the same bucket) splits the global sort into independent per-bucket
  sorts whose concatenation *is* the global order.  Peak memory is the
  largest bucket, not the cohort.
* **Per-bucket order.** ``np.lexsort`` over (quantity, lab, user-rank,
  rtype, kind, site, end, start) — every vocabulary is rank-encoded
  (codes sort like the strings; see :mod:`repro.columnar.schema`), and
  user codes go through the schema's explicit rank table because user
  strings do NOT sort like user indices ("student1000" < "student999").
  Key ties are only possible between fully identical records (the key
  covers every content field), so tie order cannot change the stream.
* **Id minting.** (site, kind) determines the id prefix, so per-pair
  counters advance by row order within each bucket and carry across
  buckets — exactly the first-appearance order of the serial
  canonicalizer.  One vectorized minter turns counters into serials and
  zero-padded digits (integer arithmetic, widening past 999,999 like
  ``:06d``) for both the digest and the materialized records.
* **Digest.** The object path's bytes — ``repr`` of each record's field
  tuple, concatenated in canonical order — rendered per bucket straight
  from the columns and hashed with one ``sha.update`` per bucket.
  Vocabulary pieces (kind, resource type, the constant project, user,
  lab, site) come from lookup tables built once with ``repr``; floats
  get Python ``repr`` once per distinct bit pattern, scattered back
  through ``np.unique``'s inverse.  No per-row Python loop runs.
* **Totals.** ``quantity * (end - start)`` per row, summed with
  :func:`repro.common.numerics.stable_sum` over the whole multiset —
  exactly equal to ``total_unit_hours`` over the materialized records,
  independent of bucketing.

``spill_dir`` bounds memory further for huge cohorts: full buckets are
flushed to ``.npz`` scratch files and reloaded one bucket at a time
during finalize.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from repro.cloud.metering import UsageRecord
from repro.columnar.schema import (
    KIND_NAMES,
    KIND_PREFIXES,
    SITE_NAMES,
    ColumnSchema,
    RecordColumns,
)
from repro.common.errors import ValidationError
from repro.common.numerics import stable_sum


@dataclass(frozen=True)
class MergeResult:
    """What the canonical merge hands back."""

    count: int
    unit_hours: float
    digest: str | None
    records: list[UsageRecord] | None


class CanonicalMerger:
    """Streaming canonicalizer: feed column batches, finalize once.

    ``n_buckets`` trades peak memory against per-bucket overhead;
    correctness is independent of it (tests sweep it).
    """

    def __init__(
        self,
        schema: ColumnSchema,
        semester_hours: float,
        *,
        n_buckets: int = 64,
        spill_dir: str | Path | None = None,
        spill_rows: int = 4_000_000,
    ) -> None:
        if n_buckets < 1:
            raise ValidationError(f"n_buckets must be positive: {n_buckets!r}")
        self._schema = schema
        # interior edges over [0, H]; starts may exceed H (zero-duration
        # semester-end rows land in the last bucket regardless)
        self._edges = np.linspace(0.0, semester_hours, n_buckets + 1)[1:-1]
        self._n_buckets = n_buckets
        self._chunks: list[list[RecordColumns]] = [[] for _ in range(n_buckets)]
        self._mem_rows = [0] * n_buckets
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._spill_rows = spill_rows
        self._spilled: list[list[Path]] = [[] for _ in range(n_buckets)]
        self._spill_seq = 0
        self._finalized = False

    def add(self, batch: RecordColumns) -> None:
        """Route one column batch into its start-time buckets."""
        if self._finalized:
            raise ValidationError("merger already finalized")
        if not len(batch):
            return
        bucket = np.searchsorted(self._edges, batch.start, side="right")
        for b in np.unique(bucket):
            sel = np.flatnonzero(bucket == b)
            self._chunks[b].append(batch.take(sel))
            self._mem_rows[b] += len(sel)
            if self._spill_dir is not None and self._mem_rows[b] >= self._spill_rows:
                self._flush(int(b))

    def _flush(self, b: int) -> None:
        cols = RecordColumns.concat(self._chunks[b])
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_dir / f"bucket{b:04d}-{self._spill_seq:04d}.npz"
        self._spill_seq += 1
        np.savez(
            path,
            start=cols.start, end=cols.end, quantity=cols.quantity,
            kind=cols.kind, rtype=cols.rtype, site=cols.site,
            user=cols.user, lab=cols.lab,
        )
        self._spilled[b].append(path)
        self._chunks[b] = []
        self._mem_rows[b] = 0

    def _load_bucket(self, b: int) -> RecordColumns:
        parts = []
        for path in self._spilled[b]:
            with np.load(path) as z:
                parts.append(
                    RecordColumns(
                        start=z["start"], end=z["end"], quantity=z["quantity"],
                        kind=z["kind"], rtype=z["rtype"], site=z["site"],
                        user=z["user"], lab=z["lab"],
                    )
                )
            path.unlink()
        parts.extend(self._chunks[b])
        self._chunks[b] = []
        return RecordColumns.concat(parts)

    def finalize(
        self, *, digest: bool = True, collect_records: bool = False
    ) -> MergeResult:
        """Sort each bucket, mint ids across buckets, hash each bucket once."""
        self._finalized = True
        schema = self._schema
        sha = hashlib.sha256() if digest else None
        # last serial per (site, kind), flat at site * len(KIND_NAMES) + kind
        counters = np.zeros(len(SITE_NAMES) * len(KIND_NAMES), dtype=np.int64)
        unit_parts: list[np.ndarray] = []
        records: list[UsageRecord] | None = [] if collect_records else None
        users = _user_string_table(schema) if (digest or collect_records) else None
        render = _BucketRenderer(schema, users) if digest else None
        count = 0
        for b in range(self._n_buckets):
            cols = self._load_bucket(b)
            n = len(cols)
            if not n:
                continue
            count += n
            order = np.lexsort(
                (
                    cols.quantity,
                    cols.lab,
                    schema.user_rank[cols.user],
                    cols.rtype,
                    cols.kind,
                    cols.site,
                    cols.end,
                    cols.start,
                )
            )
            cols = cols.take(order)
            unit_parts.append(cols.quantity * (cols.end - cols.start))
            if sha is None and records is None:
                # nothing reads the serials: no ids to mint
                continue
            digits = _serial_digits(_mint_serials(cols, counters))
            if sha is not None:
                sha.update(render(cols, digits))
            if records is not None:
                records.extend(_bucket_records(cols, digits, schema, users))
        unit_hours = stable_sum(chain.from_iterable(part.tolist() for part in unit_parts))
        return MergeResult(
            count=count,
            unit_hours=unit_hours,
            digest=sha.hexdigest() if sha is not None else None,
            records=records,
        )


def _strings(items) -> np.ndarray:
    """A 1-D object array of str, for fancy-index lookups by code."""
    return np.array(list(items), dtype=object)


def _user_string_table(schema: ColumnSchema) -> np.ndarray:
    from repro.columnar.schema import group_user, student_user

    return _strings(
        [student_user(i) for i in range(schema.n_students)]
        + [group_user(j) for j in range(schema.n_groups)]
    )


def _mint_serials(cols: RecordColumns, counters: np.ndarray) -> np.ndarray:
    """Id serials per row in canonical row order; advances ``counters``.

    Matches ``canonicalize_records``: within the sorted bucket, rows of a
    (site, kind) pair take consecutive serials in row order, carried on
    from the pair's last serial in ``counters``.  Cohort records never
    share a resource id across spans (each span minted its own id), so
    first-appearance order degenerates to row order.
    """
    pair = cols.site.astype(np.intp) * len(KIND_NAMES) + cols.kind
    counts = np.bincount(pair, minlength=len(counters))
    by_pair = np.argsort(pair, kind="stable")
    run_start = np.cumsum(counts) - counts  # each pair's first slot in by_pair
    sorted_pair = pair[by_pair]
    serials = np.empty(len(pair), dtype=np.int64)
    serials[by_pair] = (
        np.arange(1, len(pair) + 1) - run_start[sorted_pair] + counters[sorted_pair]
    )
    counters += counts
    return serials


_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _serial_digits(serials: np.ndarray) -> np.ndarray:
    """``f"{serial:06d}"`` per row, as an object array of str.

    Digits come from integer arithmetic, one digit-count class at a time:
    serials past 999,999 widen to 7+ digits exactly as ``:06d`` does.
    """
    width = np.maximum(6, np.searchsorted(_POW10, serials, side="right"))
    out = np.empty(len(serials), dtype=object)
    for w in np.unique(width).tolist():
        sel = width == w
        codes = serials[sel, None] // _POW10[w - 1 :: -1] % 10 + ord("0")
        out[sel] = codes.astype(np.uint32).view(f"U{w}").ravel()
    return out


def _float_pieces(values: np.ndarray) -> np.ndarray:
    """``repr(v) + ", "`` per value of a 1-D array, as an object array.

    ``repr`` runs once per distinct value.  Values are told apart by bit
    pattern, so ``-0.0`` keeps its own repr rather than ``0.0``'s.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return _strings(f"{v!r}, " for v in bits.view(np.float64).tolist())[inverse]


class _BucketRenderer:
    """Render a sorted bucket's digest bytes straight from its columns.

    The bytes are ``repr(row)`` for each row's record tuple
    ``(rid, kind, rtype, "course", start, end, quantity, user, lab, site)``,
    concatenated in row order — the object path's stream.  Each row is
    assembled from eight str pieces, every piece carrying its own
    ``", "`` or ``")"`` separator:

    ``('vm-`` | ``000042`` | ``', 'server', 'm1.medium', 'course', `` |
    start | end | quantity | ``'student007', `` | ``'lab2', 'kvm@tacc')``

    Vocabulary pieces are looked up from tables built here, once, with
    Python ``repr``; floats go through :func:`_float_pieces`.
    """

    def __init__(self, schema: ColumnSchema, users: np.ndarray) -> None:
        self._id_head = _strings(f"('{prefix}-" for prefix in KIND_PREFIXES)
        self._kind_rtype = _strings(
            f"', {k!r}, {r!r}, 'course', " for k in KIND_NAMES for r in schema.rtype_names
        )
        self._n_rtypes = len(schema.rtype_names)
        self._user = _strings(f"{u!r}, " for u in users.tolist())
        self._lab_site = _strings(
            f"{lab!r}, {site!r})" for lab in schema.lab_names for site in SITE_NAMES
        )

    def __call__(self, cols: RecordColumns, digits: np.ndarray) -> bytes:
        n = len(cols)
        pieces = np.empty((n, 8), dtype=object)
        pieces[:, 0] = self._id_head[cols.kind]
        pieces[:, 1] = digits
        pieces[:, 2] = self._kind_rtype[cols.kind.astype(np.intp) * self._n_rtypes + cols.rtype]
        pieces[:, 3:6] = _float_pieces(
            np.concatenate([cols.start, cols.end, cols.quantity])
        ).reshape(3, n).T
        pieces[:, 6] = self._user[cols.user]
        pieces[:, 7] = self._lab_site[cols.lab.astype(np.intp) * len(SITE_NAMES) + cols.site]
        return "".join(pieces.ravel().tolist()).encode()


def _bucket_records(
    cols: RecordColumns, digits: np.ndarray, schema: ColumnSchema, users: np.ndarray
) -> list[UsageRecord]:
    """Materialize a sorted bucket as ``UsageRecord`` objects."""
    ids = _strings(f"{p}-" for p in KIND_PREFIXES)[cols.kind] + digits
    rows = zip(
        ids.tolist(),
        _strings(KIND_NAMES)[cols.kind].tolist(),
        _strings(schema.rtype_names)[cols.rtype].tolist(),
        cols.start.tolist(), cols.end.tolist(), cols.quantity.tolist(),
        users[cols.user].tolist(),
        _strings(schema.lab_names)[cols.lab].tolist(),
        _strings(SITE_NAMES)[cols.site].tolist(),
    )
    return [
        UsageRecord(
            resource_id=rid, kind=kind, resource_type=rtype, project="course",
            start=start, end=end, quantity=qty, user=user, lab=lab, site=site,
        )
        for rid, kind, rtype, start, end, qty, user, lab, site in rows
    ]
