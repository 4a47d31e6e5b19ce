"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cohort-clean --seed 42 --seconds 15 --trace 0

``--trace 0`` sets the workload up three times (imports once), then runs
whole batch jobs, one at a time in this one process, as many as fit in
``--seconds`` (one at least), and reports the end-to-end metrics of
``BENCHMARK.json``.
``--trace 1`` runs one untraced job and then one job with spans recorded
around each layer's entry points, and reports the per-layer metrics and
the tracing overhead.  Every output is checked; the last line of
standard output is the JSON result.  A run record (commit, host,
versions, seed, per-layer seconds) is appended to
``.bench_build/perfbench/runs.jsonl`` and the spans of a traced run are
written to ``.bench_build/perfbench/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()  # setup_s counts the imports from here on

import numpy as np  # noqa: E402

from tracing import Tracer, clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """SHA-256 over every file under ``src/``: names the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(import_s, setups, jobs, rss_mib) -> dict[str, float]:
    return {
        "setup_s": import_s + statistics.median(setups),
        "work_per_s": statistics.median(job.work / job.seconds for job in jobs),
        "peak_rss_mib": rss_mib,
    }


def point_quantiles(jobs) -> dict[str, float]:
    """Median and 90th percentile host seconds per storm point.

    Printed and recorded, not gated: a run holds 12 points, so its 90th
    percentile rests on the two slowest LOCKED points alone.
    """
    points = [t for job in jobs for t in job.tasks]
    if not points:
        return {}
    p50, p90 = np.percentile(points, [50, 90])
    return {"point_s_p50": float(p50), "point_s_p90": float(p90)}


def per_layer(tracer, workload, untraced, *, traced_s, digest_s) -> dict[str, float]:
    totals = tracer.totals()
    points = point_quantiles([untraced])

    def s(name):
        return totals.get(name, (0.0, 0))[0]

    def n(name):
        return totals.get(name, (0.0, 0))[1]

    count = tracer.counts
    records = count.get("records", 0)
    attempts = count.get("attempts", 0)
    offered = count.get("offered", 0)
    served = count.get("served", 0)
    batches = count.get("batches", 0)
    # the queue, fleet and client calls run inside simulate's event loop
    simulate_s = sum(
        s(name)
        for name in (
            "loadgen.sim.simulate",
            "loadgen.autoscaler.tick",
            "loadgen.queue.take_batch",
            "resilience.clients.on_failure",
        )
    )
    return {
        "columnar.planner.draw_s": s("columnar.planner.plan_columns"),
        "columnar.admission.quota_s": s("columnar.admission.quota"),
        "columnar.admission.lease_s": s("columnar.admission.lease"),
        "columnar.admission.fast_path_frac": count.get("fast_paths", 0) / 2,
        "core.cohort.plan_s": s("core.cohort.plan_cohort"),
        "faults.plan.sweep_s": s("faults.plan.sweep"),
        "faults.plan.events": count.get("events", 0),
        "columnar.planner.convert_s": s("columnar.planner.convert"),
        "columnar.kernels.emit_s": s("columnar.kernels.emit"),
        "columnar.merge.add_s": s("columnar.merge.add"),
        "columnar.merge.finalize_s": s("columnar.merge.finalize"),
        "columnar.merge.digest_s": digest_s,
        "columnar.merge.digest_us_per_record": digest_s / records * 1e6 if records else 0.0,
        "columnar.records": records,
        "core.report.paper_err_pct": getattr(workload, "paper_err_pct", 0.0),
        "loadgen.arrivals.trace_s": s("loadgen.arrivals.trace"),
        "resilience.clients.plan_s": s("resilience.clients.plan")
        + s("resilience.clients.outage_calendar"),
        "resilience.sweep.classify_s": s("resilience.sweep.classify"),
        "loadgen.report.price_s": s("loadgen.report.price"),
        "loadgen.sim.digest_s": s("loadgen.sim.digest"),
        "loadgen.sim.simulate_s": simulate_s,
        "loadgen.sim.loop_s": s("loadgen.sim.simulate"),
        "loadgen.sim.us_per_attempt": simulate_s / attempts * 1e6 if attempts else 0.0,
        "loadgen.sim.attempts": attempts,
        "resilience.clients.on_failure_s": s("resilience.clients.on_failure"),
        "resilience.clients.on_failure_calls": n("resilience.clients.on_failure"),
        "resilience.clients.amplification": attempts / offered if offered else 0.0,
        "resilience.breaker.opens": count.get("breaker_opens", 0),
        "resilience.sweep.locked_points": count.get("locked_points", 0),
        "resilience.sweep.point_s_p50": points.get("point_s_p50", 0.0),
        "resilience.sweep.point_s_p90": points.get("point_s_p90", 0.0),
        "loadgen.autoscaler.tick_s": s("loadgen.autoscaler.tick"),
        "loadgen.autoscaler.ticks": n("loadgen.autoscaler.tick"),
        "loadgen.autoscaler.peak_replicas": count.get("peak_replicas", 0),
        "loadgen.queue.take_batch_s": s("loadgen.queue.take_batch"),
        "loadgen.queue.batches": batches,
        "loadgen.sim.mean_batch": served / batches if batches else 0.0,
        "loadgen.sim.loss_rate": 1.0 - served / offered if offered else 0.0,
        "trace.job_s": traced_s,
        "trace.overhead_frac": (traced_s - untraced.seconds) / untraced.seconds,
        "trace.spans": len(tracer),
    }


def _check_jobs(jobs, pins, seed, default_seed, check) -> None:
    first = jobs[0]
    for job in jobs[1:]:
        check("job: a rerun reproduces the digest", job.digest == first.digest)
    if seed != default_seed:
        return
    for key, want in pins.items():
        got = first.digest if key == "digest" else first.facts.get(key)
        check(f"pin: default-seed {key} is {want}", got == want)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    import_s = clock() - STARTED

    workload = workloads.WORKLOADS[args.workload]()
    check = Checks()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = clock()
        workload.setup(args.seed, check)
        setups.append(clock() - t0)

    jobs = []
    started = clock()
    while True:
        gc.collect()  # no job pays for collecting its predecessor's garbage
        t0 = clock()
        job = workload.job(check)
        job.seconds = clock() - t0
        if not jobs:
            # the high-water mark through setup and one job: later jobs only
            # add allocator fragmentation, and how many fit varies by host
            rss_mib = peak_rss_mib()
        jobs.append(job)
        # stop before a job that would end past --seconds (one job at least)
        if args.trace or clock() - started + job.seconds > args.seconds:
            break

    tracer = traced = None
    if args.trace:
        tracer = Tracer(run_id=args.seed)
        gc.collect()
        with tracer.installed(workloads.TRACE_TARGETS):
            t0 = clock()
            with tracer.span("job"):
                traced = workload.job(check)
            traced.seconds = clock() - t0
        digest_s = workload.digest_split(tracer) if hasattr(workload, "digest_split") else 0.0
        metrics = per_layer(tracer, workload, jobs[0], traced_s=traced.seconds, digest_s=digest_s)
        declared = bench["per_layer"]
    else:
        metrics = end_to_end(import_s, setups, jobs, rss_mib)
        declared = bench["end_to_end"]

    pinned = spec["pins"][args.workload]
    checked = jobs + [traced] if traced else jobs
    _check_jobs(checked, pinned["values"], args.seed, pinned["seed"], check)
    if sorted(metrics) != sorted(m["name"] for m in declared):
        raise SystemExit("perfbench: computed metrics differ from BENCHMARK.json")
    points = point_quantiles(jobs)
    n_points = sum(len(job.tasks) for job in jobs)

    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "workers": 1,
        "setup_s": setups,
        "import_s": import_s,
        "job_s": [job.seconds for job in jobs],
        "traced_job_s": traced.seconds if traced else None,
        "work": jobs[0].work,
        "work_unit": workload.work_unit,
        "point_s": [job.tasks for job in jobs if job.tasks],
        **points,
        "facts": jobs[0].facts,
        "digest": jobs[0].digest,
        "paper_err_pct": getattr(workload, "paper_err_pct", None),
        "checked": check.attempted,
        "failed": check.failed,
        "failed_frac": len(check.failed) / check.attempted,
        "metrics": metrics,
        "predictions": spec["predictions"][args.workload],
    }
    if tracer is not None:
        total = metrics["trace.job_s"]
        record["layer_self_s"] = {k: v[0] for k, v in sorted(tracer.totals().items())}
        record["layer_share"] = {k: v / total for k, v in record["layer_self_s"].items()}
        tracer.write(OUT / f"spans-{args.workload}.npz")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    units = {m["name"]: m["unit"] for m in declared}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  why: {why}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    for name, value in points.items():
        print(f"  {name:<40} {value:>14.6g} s (over {n_points} points)")
    if record["paper_err_pct"] is not None:
        print(f"  {'paper_err_pct':<40} {record['paper_err_pct']:>14.6g} %")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>14.6g} ({check.attempted} checked)")
    result = {
        "correct": not check.failed,
        "attempted": check.attempted,
        "failed": len(check.failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not check.failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
