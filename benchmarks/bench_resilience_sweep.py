"""Benchmark: the phase-map sweep, serial vs fanned out.

The acceptance scenario of the sweep subsystem: the quick campaign (the
same 24-point grid CI verifies) run serially and at four workers, with
the phase-map verdicts asserted — the naive client's LOCKED region must
be non-empty while the defended policies' LOCKED regions stay empty —
and the determinism contract pinned: the campaign digest is
byte-identical across the two worker counts.

Full runs append a record (serial seconds per point, points/s and the
fan-out speedup) to the ``BENCH_resilience_sweep.json`` trajectory at
the repo root; ``--quick`` keeps the same grid but skips the serial
baseline (CI smoke: one parallel run) and records nothing.
"""

import os
import time

from repro.resilience.sweep import quick_sweep_config, run_sweep

WORKERS = 4

#: The acceptance floor when the machine can physically deliver it
#: (single-core boxes pay pool overhead for nothing; the digest half of
#: the contract is asserted regardless).
SPEEDUP_FLOOR = 1.5


def test_phase_map_sweep(benchmark, quick, bench_trajectory):
    config = quick_sweep_config()
    n_points = config.axes.points

    t0 = time.perf_counter()  # repro: noqa DET001 (bench harness wall-clock, not simulation state)
    report = benchmark.pedantic(
        lambda: run_sweep(config, workers=WORKERS), rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - t0  # repro: noqa DET001 (bench harness wall-clock, not simulation state)

    print()
    print(report.render_phase_map())

    # the sweep's verdicts: the metastable region exists, and no
    # defended policy ever enters it
    assert len(report.points) == n_points
    assert report.locked_region("naive-retry")
    for policy in config.axes.policies:
        if policy != "naive-retry":
            assert report.locked_region(policy) == ()

    cpu_count = os.cpu_count() or 1
    results = {
        "points": n_points,
        "workers": WORKERS,
        "cpu_count": cpu_count,
        "parallel_s": round(parallel_s, 3),
        "points_per_s": round(n_points / parallel_s, 3),
        "quick": quick,
    }

    if not quick:
        t0 = time.perf_counter()  # repro: noqa DET001 (bench harness wall-clock, not simulation state)
        serial = run_sweep(config, workers=1)
        serial_s = time.perf_counter() - t0  # repro: noqa DET001 (bench harness wall-clock, not simulation state)
        # determinism contract: the fan-out must not move a single byte
        assert serial.digest() == report.digest()
        speedup = serial_s / parallel_s
        results.update(
            {
                "serial_s": round(serial_s, 3),
                "serial_point_s": round(serial_s / n_points, 3),
                "serial_points_per_s": round(n_points / serial_s, 3),
                "fanout_speedup": round(speedup, 2),
            }
        )
        print(
            f"sweep {n_points} points: serial {serial_s:.1f}s vs "
            f"{WORKERS} workers {parallel_s:.1f}s -> {speedup:.1f}x "
            f"({cpu_count} cores)"
        )
        if cpu_count >= WORKERS:
            assert speedup > SPEEDUP_FLOOR, (
                f"sweep fan-out only {speedup:.2f}x vs serial on "
                f"{cpu_count} cores (floor {SPEEDUP_FLOOR}x)"
            )
        bench_trajectory("resilience_sweep", results)
    else:
        print(
            f"sweep {n_points} points at {WORKERS} workers: {parallel_s:.1f}s "
            f"({n_points / parallel_s:.2f} points/s)"
        )

    benchmark.extra_info.update(results)
