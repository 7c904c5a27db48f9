"""Benchmark: the sweep engine's cache and process-pool executor.

Quantifies the two speedups the engine exists for:

* **cached vs cold** — a second run against the same cache directory must
  report >90% hits and measurably lower wall time;
* **parallel vs serial** — a multi-worker run must match the serial
  results exactly (the timing win depends on core count, so only
  correctness is asserted).
"""

import time

from conftest import publish

from repro.api import config_study
from repro.engine import EvaluationCache, run_jobs
from repro.report import format_table
from repro.systems import AlbireoConfig
from repro.workloads import tiny_cnn

from dataclasses import replace


def _study_jobs(use_mapper=True):
    network = tiny_cnn()
    configs = [
        replace(AlbireoConfig(), clusters=clusters, output_reuse=output_reuse,
                star_ports=star_ports)
        for clusters in (4, 8, 16)
        for output_reuse in (3, 9)
        for star_ports in (9, 27)
    ]
    return config_study(network, configs, use_mapper=use_mapper).compile()


def test_cached_vs_cold_sweep(tmp_path):
    """Second run against the same cache: >90% hits, lower wall time."""
    jobs = _study_jobs(use_mapper=True)

    cold_cache = EvaluationCache(str(tmp_path))
    start = time.perf_counter()
    cold = run_jobs(jobs, workers=1, cache=cold_cache)
    cold_seconds = time.perf_counter() - start

    warm_cache = EvaluationCache(str(tmp_path))
    start = time.perf_counter()
    warm = run_jobs(jobs, workers=1, cache=warm_cache)
    warm_seconds = time.perf_counter() - start

    stats = warm_cache.stats["results"]
    publish("engine_cache", format_table(
        ("metric", "value"),
        [
            ("sweep points", len(jobs)),
            ("cold wall time (s)", f"{cold_seconds:.3f}"),
            ("cached wall time (s)", f"{warm_seconds:.3f}"),
            ("speedup", f"{cold_seconds / warm_seconds:.0f}x"),
            ("cache hit rate", f"{stats.hit_rate:.1%}"),
        ],
    ))
    assert stats.hit_rate > 0.9
    assert warm_seconds < cold_seconds
    for a, b in zip(cold, warm):
        assert a.energy_pj == b.energy_pj


def test_parallel_vs_serial_sweep():
    """workers=4 returns identical numbers; report both wall times."""
    jobs = _study_jobs(use_mapper=False)

    start = time.perf_counter()
    serial = run_jobs(jobs, workers=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_jobs(jobs, workers=4)
    parallel_seconds = time.perf_counter() - start

    publish("engine_parallel", format_table(
        ("metric", "value"),
        [
            ("sweep points", len(jobs)),
            ("serial wall time (s)", f"{serial_seconds:.3f}"),
            ("4-worker wall time (s)", f"{parallel_seconds:.3f}"),
            ("identical results", all(
                a.energy_pj == b.energy_pj
                and a.total_cycles == b.total_cycles
                for a, b in zip(serial, parallel))),
        ],
    ))
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.energy_pj == b.energy_pj
        assert a.total_cycles == b.total_cycles


def test_single_job_cached_latency(benchmark, tmp_path):
    """Steady-state latency of a fully cached job lookup."""
    from repro.engine import make_job, run_job

    job = make_job(tiny_cnn(), AlbireoConfig())
    cache = EvaluationCache(str(tmp_path))
    run_job(job, cache)  # warm

    evaluation = benchmark(lambda: run_job(job, cache))
    assert evaluation.energy_pj > 0
