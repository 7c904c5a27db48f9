"""Benchmark: sweep-scheduler throughput on a cold multi-system grid.

Times the cold (empty-cache) 3-system default-grid ResNet18 sweep —
every registered system's `repro sweep` configuration grid in one batch
— through the executor's one pipeline (plan, run tasks, assemble), with
its tasks run in-process or on a pool:

* **serial** — one process: each job planned, run and assembled in turn;
* **planner, 4 workers** — the whole batch planned first: deduplicated
  sub-tasks in config-affine chunks over a pool, parent-side assembly;
* **planner, 4 workers, warm pool** — the same scheduler dispatching to
  one persistent :class:`~repro.engine.pool.WorkerPool` that survives
  across runs (this PR's headline configuration): pool spawn and fork
  warmup amortize away while every run's caches stay cold.
* **planner, 4 workers, warm pool, fault policy** — identical to the
  warm-pool mode but with a retrying
  :class:`~repro.engine.executor.FailurePolicy` (task watchdog armed,
  failure capture on) and **no faults injected**: the no-fault overhead
  of the supervision/retry machinery, gated within a few percent of the
  unguarded warm-pool baseline by the pytest entry.

Every mode starts from a fresh in-memory cache and must reproduce the
serial results bit-for-bit.  The planner's task counters are recorded,
plus plan-only statistics for the paper's Fig. 4 / Fig. 5 grids (where
every planned task must be a distinct configuration x layer-shape x
flags entry: one task per geometry per configuration).

A final :mod:`repro.obs`-traced planner run attributes the parallel
path's overhead by phase — pool spawn vs dispatch (pickle/submit/wait)
vs worker-side system rebuild vs actual compute vs parent-side assembly
— answering *why* the parallel sweep wins or loses on a given grid
(ROADMAP item 2).  The timed modes themselves run with tracing disabled,
so the medians are untouched by instrumentation.

A workers x grid-size **scaling curve** runs first (in the clean
process, before the mode loop grows the heap that every ephemeral
fork copies): serial vs planner@4 on synthetic config sweeps of
72 / 288 / 1008 jobs over a deep (384-entry) network
(``BENCH_TIER=small`` stops at 288 jobs for CI).  The grid computes a
few entries per configuration and assembles hundreds, so it also
checks that neither path decodes a layer entry while it runs and that
both plan the same tasks.

A **cache-scaling** mode times persistence as the on-disk store grows
1x / 4x / 16x while the per-run dirty delta stays fixed: the sharded
store's delta flush and lazy warm-start open must stay flat (O(dirty) —
the asserted contract of ``repro.engine.store``).

Writes ``BENCH_sweep_throughput.json`` (with provenance metadata) at the
repository root and prints a summary table.  Runnable directly
(``PYTHONPATH=src python benchmarks/bench_sweep_throughput.py``) or via
pytest.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import os
import pathlib
import shutil
import statistics
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_sweep_throughput.json"

WORKERS = 4
#: Odd, so the median is an actual sample (robust to one outlier rep).
REPEATS = 5

#: Workers x grid-size scaling curve: job counts for the synthetic
#: config sweep.  ``BENCH_TIER=small`` (CI) stops at 288 jobs; the full
#: tier adds the 1000+-job point backing the speedup-at-scale claim.
SCALING_SIZES_SMALL = (72, 288)
SCALING_SIZES_FULL = SCALING_SIZES_SMALL + (1008,)
#: Layer entries in the synthetic network.  Deep networks amortize the
#: per-config task cost (two unique layer geometries plus one system
#: build per configuration) over many assembled entries.  Both paths
#: evaluate each geometry once per configuration (layer entries are
#: keyed by shape), so what grows with depth is the per-entry cost,
#: which assembly keeps to embedding the warm entry in the result dict.
SCALING_ENTRIES = 384

#: Cache-scaling mode: persistence cost as the *store* grows while the
#: per-run delta stays fixed.  The store holds ``factor x base`` warm
#: entries; each timed flush adds the same ``CACHE_DIRTY`` new ones.
CACHE_SCALING_FACTORS = (1, 4, 16)
CACHE_BASE_ENTRIES = 200
CACHE_DIRTY = 24
CACHE_REPEATS = 3


def _conftest():
    """The shared benchmark helpers, loaded by path: ``conftest`` is not
    an importable module name (pytest owns it, and tests/ has its own)."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", pathlib.Path(__file__).parent / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fresh_jobs(network):
    """Every registered system's default sweep grid (the ``repro sweep
    --system <name>`` grids) over ``network``, as one job list."""
    from repro.api import config_study
    from repro.systems import system_entries

    # Jobs memoize identity hashes; rebuild per run so every mode pays
    # identical (cold) costs.
    return config_study(network, [
        config for entry in system_entries().values()
        if entry.default_sweep is not None
        for config in entry.default_sweep()]).compile()


def _timed_run(network, reference, **run_kwargs):
    """One cold run: fresh jobs + fresh cache; verified bit-identical."""
    from repro.engine import EvaluationCache, run_jobs
    from repro.engine.codec import network_evaluation_to_dict

    cache = EvaluationCache()
    jobs = _fresh_jobs(network)
    # Collect before, not during: a mid-run gen-2 pass would land on
    # whichever mode happened to trigger it.
    gc.collect()
    start = time.perf_counter()
    results = run_jobs(jobs, cache=cache, **run_kwargs)
    seconds = time.perf_counter() - start
    if reference is not None:
        assert all(
            network_evaluation_to_dict(a) == network_evaluation_to_dict(b)
            for a, b in zip(reference, results)
        ), f"results diverged for {run_kwargs}"
    return seconds, results, cache


def synthetic_network(entries: int = SCALING_ENTRIES):
    """A deep synthetic network: ``entries`` conv layers alternating two
    geometries under distinct names (``conv000``, ``conv001``, ...).

    Distinct names are the point: every path evaluates each geometry
    once and every same-shape entry reads that shape-keyed result under
    its own name — the pattern ResNet18's repeated blocks exhibit,
    exaggerated to benchmark scale.
    """
    from repro.workloads import ConvLayer
    from repro.workloads.network import LayerRepetition, Network

    shapes = (dict(m=64, c=64, p=32, q=32, r=3, s=3),
              dict(m=48, c=32, p=14, q=14, r=3, s=3))
    return Network(
        name=f"synth{entries}",
        entries=tuple(
            LayerRepetition(
                layer=ConvLayer(name=f"conv{index:03d}",
                                **shapes[index % 2]),
                consumes_previous_output=(index > 0))
            for index in range(entries)))


def synthetic_config_jobs(network, count: int):
    """``count`` distinct Albireo configurations over ``network`` — a
    pure config sweep (every configuration is a separate system key, so
    nothing dedups *across* configs; a pool can only win by running
    the configurations' tasks in parallel)."""
    from dataclasses import replace

    from repro.api import config_study
    from repro.systems import AlbireoConfig

    configs = [replace(AlbireoConfig(),
                       clusters=(4, 8, 16, 32)[index % 4],
                       output_reuse=1 + index // 4)
               for index in range(count)]
    return config_study(network, configs).compile()


@contextlib.contextmanager
def _counting_layer_decodes():
    """Count layer-entry decodes (``codec.layer_evaluation_from_dict``,
    under every module name it is bound to) inside the block."""
    from repro.engine import cache, codec

    calls = [0]
    original = codec.layer_evaluation_from_dict

    def counting(spec):
        calls[0] += 1
        return original(spec)

    owners = [module for module in (codec, cache)
              if getattr(module, "layer_evaluation_from_dict", None)
              is original]
    for module in owners:
        module.layer_evaluation_from_dict = counting
    try:
        yield calls
    finally:
        for module in owners:
            module.layer_evaluation_from_dict = original


#: The planner counters both paths must report alike (``batches``
#: counts pool batches only).
PLAN_COUNTERS = ("planned", "deduplicated", "cache_hits", "phase1_tasks")


def _scaling_point(network, count: int, repeats: int) -> dict:
    """Serial vs planner@WORKERS on a ``count``-job synthetic grid.

    Results are spot-checked bit-identical (head and tail of the batch)
    rather than exhaustively — the exhaustive contract lives in the
    equivalence tests; re-encoding 1000+ deep evaluations twice would
    dominate the benchmark itself.  Each mode also reports the layer
    entries it decoded inside ``run_jobs`` (at most, over its repeats)
    and the tasks it planned.
    """
    from repro.engine import EvaluationCache, run_jobs
    from repro.engine.codec import network_evaluation_to_dict

    def sample(results):
        return [network_evaluation_to_dict(result)
                for result in results[:8] + results[-8:]]

    samples = {"serial": [], "planner4": []}
    decodes = {"serial": 0, "planner4": 0}
    plans = {}
    reference = None
    for mode, workers in (("serial", 1), ("planner4", WORKERS)):
        for _ in range(repeats):
            jobs = synthetic_config_jobs(network, count)
            cache = EvaluationCache()
            gc.collect()
            with _counting_layer_decodes() as calls:
                start = time.perf_counter()
                results = run_jobs(jobs, workers=workers, cache=cache)
                samples[mode].append(time.perf_counter() - start)
            decodes[mode] = max(decodes[mode], calls[0])
            plans[mode] = {name: getattr(cache.planner, name)
                           for name in PLAN_COUNTERS}
            if reference is None:
                reference = sample(results)
            assert sample(results) == reference, \
                f"{mode} diverged from serial at {count} jobs"
            # Free the previous rep's result set (hundreds of thousands
            # of objects at 1000 jobs) before the next timed run:
            # keeping it alive would tax the next run's GC passes and —
            # for the planner — every fork, biasing whichever strategy
            # runs later.
            del results, jobs, cache
    serial_s = statistics.median(samples["serial"])
    planner_s = statistics.median(samples["planner4"])
    return {
        "jobs": count,
        "entries": len(network.entries),
        "serial_samples_s": [round(value, 3)
                             for value in samples["serial"]],
        "planner4_samples_s": [round(value, 3)
                               for value in samples["planner4"]],
        "serial_s": round(serial_s, 3),
        "planner4_s": round(planner_s, 3),
        "speedup": round(serial_s / planner_s, 2),
        "serial_layer_decodes": decodes["serial"],
        "planner4_layer_decodes": decodes["planner4"],
        "serial_plan": plans["serial"],
        "planner4_plan": plans["planner4"],
    }


def _scaling_curve(sizes) -> dict:
    """The workers x grid-size scaling curve over the synthetic grids."""
    from repro.engine import EvaluationCache, run_jobs

    network = synthetic_network()
    # Untimed warmups: pay module imports and code-object warmup before
    # the first timed sample, once per strategy, on a tiny grid.
    warmup = synthetic_config_jobs(network, 2)
    run_jobs(warmup, workers=1, cache=EvaluationCache())
    run_jobs(synthetic_config_jobs(network, 2), workers=WORKERS,
             cache=EvaluationCache())
    points = []
    for count in sizes:
        # One repeat at the large sizes: a 1000-job serial run is close
        # to a minute, and the serial/planner gap there is far larger
        # than run-to-run noise.
        repeats = 2 if count <= 300 else 1
        points.append(_scaling_point(network, count, repeats))
    return {
        "network": network.name,
        "entries": len(network.entries),
        "workers": WORKERS,
        "tier": "small" if sizes == SCALING_SIZES_SMALL else "full",
        "points": points,
    }


def _cache_key(tag) -> str:
    return hashlib.sha256(str(tag).encode("utf-8")).hexdigest()


def _cache_entry(index: int) -> dict:
    """A result-sized synthetic entry (~300 bytes encoded)."""
    return {"index": index, "energy_pj": index * 1.5,
            "latency_ns": index * 2.0,
            "pad": "p" * 240}


def _seed_cache(directory: str, entries: int) -> None:
    from repro.engine import EvaluationCache

    cache = EvaluationCache(directory)
    for index in range(entries):
        cache.put("results", _cache_key(("warm", index)),
                  _cache_entry(index))
    cache.save()


def _cache_scaling_point(factor: int) -> dict:
    """Persistence timings at ``factor x CACHE_BASE_ENTRIES`` warm
    entries, fixed ``CACHE_DIRTY`` delta.

    * ``sharded_flush_s`` — delta append of the same dirty set
      (O(dirty): must stay flat as the factor grows).
    * ``sharded_open_s`` — warm-start open: index only, shards lazy
      (must stay flat too).

    Minimum of ``CACHE_REPEATS`` runs: wall-clock noise (and a stray
    slow fsync) is additive, so min is the least-biased estimate.
    """
    from repro.engine import EvaluationCache

    entries = factor * CACHE_BASE_ENTRIES
    point = {"factor": factor, "entries": entries}
    counter = [0]

    def dirty_batch():
        counter[0] += 1
        return [(_cache_key(("dirty", counter[0], i)), _cache_entry(i))
                for i in range(CACHE_DIRTY)]

    directory = tempfile.mkdtemp(prefix="bench-cache-sharded-")
    try:
        _seed_cache(directory, entries)
        opens, saves = [], []
        for _ in range(CACHE_REPEATS):
            gc.collect()
            start = time.perf_counter()
            cache = EvaluationCache(directory)
            opens.append(time.perf_counter() - start)
            for key, value in dirty_batch():
                cache.put("results", key, value)
            gc.collect()
            start = time.perf_counter()
            cache.save()
            saves.append(time.perf_counter() - start)
        point["sharded_open_s"] = round(min(opens), 4)
        point["sharded_flush_s"] = round(min(saves), 4)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return point


def _cache_scaling() -> dict:
    """Open/flush wall time as the store grows 1x -> 4x -> 16x with a
    fixed dirty delta: both must stay flat."""
    points = [_cache_scaling_point(factor)
              for factor in CACHE_SCALING_FACTORS]
    return {
        "base_entries": CACHE_BASE_ENTRIES,
        "dirty_entries": CACHE_DIRTY,
        "repeats": CACHE_REPEATS,
        "points": points,
    }


def _plan_only_stats(jobs):
    """Planner counters for a job list without executing anything."""
    from repro.engine import EvaluationCache, build_plan

    plan = build_plan(jobs, EvaluationCache(), workers=WORKERS)
    return {
        "jobs": len(jobs),
        "planned": plan.planned,
        "deduplicated": plan.deduplicated,
        "cache_hits": plan.cache_hits,
        "phase1_tasks": plan.phase1_tasks,
        "batches": len(plan.batches),
    }


def _traced_breakdown(network, reference) -> dict:
    """One extra planner run under an active tracer: where the parallel
    path's wall-clock goes, by phase.

    ``dispatch_self_s`` is the parent-side pickle/submit/decode
    overhead; ``wait_s`` is the parent blocked on the worker result
    stream (worker compute, not overhead — carved out of dispatch so
    the two are not conflated); ``worker_system_build_s`` is per-worker
    architecture/energy table rebuild (paid once per chunk, not once
    per job); ``coverage`` is the share of the main lane's extent
    attributed to named spans.
    """
    from repro import obs

    with obs.tracing() as tracer:
        seconds, _results, _cache = _timed_run(network, reference,
                                               workers=WORKERS)
    trace = tracer.trace()
    summary = trace.summary()
    spans = summary["spans"]

    def total(name):
        return round(spans.get(name, {}).get("total_s", 0.0), 4)

    def self_time(name):
        return round(spans.get(name, {}).get("self_s", 0.0), 4)

    return {
        "traced_run_s": round(seconds, 4),
        "coverage": round(trace.main_lane_coverage(), 4),
        "plan_s": total("planner.build_plan"),
        "pool_spawn_s": total("executor.pool_spawn"),
        "dispatch_self_s": self_time("executor.dispatch"),
        "wait_s": total("executor.wait"),
        "merge_s": total("executor.merge"),
        "assemble_s": total("run_jobs.assemble"),
        "worker_system_build_s": total("system.build"),
        "worker_compute_s": round(
            total("layer.evaluate") + total("mapper.search"), 4),
        "spans": {
            name: {"count": int(row["count"]),
                   "total_s": round(row["total_s"], 4),
                   "self_s": round(row["self_s"], 4)}
            for name, row in sorted(spans.items())
        },
    }


def run_benchmark(repeats: int = REPEATS) -> dict:
    from repro.api import memory_study, reuse_study
    from repro.energy import AGGRESSIVE, CONSERVATIVE
    from repro.systems import AlbireoConfig
    from repro.workloads import resnet18

    from repro.engine import WorkerPool

    network = resnet18()
    # The scaling curve goes first: its large grids are the cleanest
    # measurement in a fresh process (every later ephemeral fork copies
    # whatever heap the mode loop has grown by then, taxing the planner
    # side only).
    sizes = (SCALING_SIZES_SMALL
             if os.environ.get("BENCH_TIER", "").lower() == "small"
             else SCALING_SIZES_FULL)
    scaling = _scaling_curve(sizes)

    # The reference run doubles as the serial warmup; one untimed
    # parallel run warms the pool/fork path the same way, so neither
    # strategy's first timed sample carries process-cold costs (module
    # imports, code-object warmup, decode memos).  Every timed run is
    # still cache-cold: fresh jobs, fresh EvaluationCache.
    reference = _timed_run(network, None, workers=1)[1]
    _timed_run(network, reference, workers=WORKERS)

    pool = WorkerPool(WORKERS)
    try:
        # Warm the persistent pool once; its workers then survive every
        # ``planner_workers4_warmpool`` sample below — the PR's headline
        # configuration: pool spawn and fork warmup amortized away,
        # caches still cold per run.
        _timed_run(network, reference, workers=WORKERS, pool=pool)
        from repro.engine import FailurePolicy

        modes = {
            "serial": {"workers": 1},
            "planner_workers4": {"workers": WORKERS},
            "planner_workers4_warmpool": {"workers": WORKERS,
                                          "pool": pool},
            # Supervision/retry machinery armed, zero faults injected:
            # measures the no-fault overhead of fault tolerance (the
            # per-sub-task watchdog + failure capture + quarantine
            # lookups), still verified bit-identical to serial.
            "planner_workers4_warmpool_faultpolicy": {
                "workers": WORKERS, "pool": pool,
                "failure_policy": FailurePolicy(
                    on_error="retry", max_retries=2, task_timeout=120.0)},
        }
        samples = {mode: [] for mode in modes}
        planner_stats = None
        # Interleave the modes within each repeat and rotate which mode
        # leads, so slow host drift and neighbor effects (a preceding
        # run's heap growth taxing the next fork) land evenly on every
        # mode instead of penalizing whichever ran last.
        names = list(modes)
        for repeat in range(repeats):
            shift = repeat % len(names)
            for mode in names[shift:] + names[:shift]:
                seconds, _results, cache = _timed_run(network, reference,
                                                      **modes[mode])
                samples[mode].append(seconds)
                if mode == "planner_workers4":
                    planner_stats = cache.planner.to_dict()
        pool_stats = pool.stats.to_dict()
    finally:
        pool.close()
    timings = {}
    for mode in modes:
        timings[mode] = {
            "samples_s": [round(value, 4) for value in samples[mode]],
            "median_s": round(statistics.median(samples[mode]), 4),
            # Wall-clock noise on a shared machine is strictly additive,
            # so the minimum is the least-biased point estimate (the
            # same rationale as ``timeit``'s repeat/min idiom).
            "min_s": round(min(samples[mode]), 4),
        }

    report = {
        "benchmark": "cold 3-system default-grid ResNet18 sweep",
        "jobs": len(_fresh_jobs(network)),
        "workers": WORKERS,
        "repeats": repeats,
        "timings": timings,
        "planner": planner_stats,
        "speedup_planner_vs_serial": round(
            timings["serial"]["min_s"]
            / timings["planner_workers4"]["min_s"], 2),
        "speedup_warmpool_vs_serial": round(
            timings["serial"]["median_s"]
            / timings["planner_workers4_warmpool"]["median_s"], 2),
        "fault_policy_overhead_pct": round(
            100.0 * (timings["planner_workers4_warmpool_faultpolicy"]
                     ["median_s"]
                     / timings["planner_workers4_warmpool"]["median_s"]
                     - 1.0), 2),
        "pool": pool_stats,
        "overhead_breakdown": _traced_breakdown(network, reference),
        "scaling": scaling,
        "cache_scaling": _cache_scaling(),
        "grids": {
            "fig4_memory": _plan_only_stats(memory_study(
                network, AlbireoConfig(),
                scenarios=(CONSERVATIVE, AGGRESSIVE)).compile()),
            "fig5_reuse": _plan_only_stats(reuse_study(
                network, AlbireoConfig()).compile()),
        },
    }
    return report


def _print_report(report: dict) -> None:
    from repro.report import format_table

    rows = [(mode, f"{data['min_s']:.2f}", f"{data['median_s']:.2f}",
             " ".join(f"{value:.2f}" for value in data["samples_s"]))
            for mode, data in report["timings"].items()]
    print(format_table(("mode", "min s", "median s", "samples"), rows,
                       align_right=[False, True, True, False]))
    planner = report["planner"]
    print(f"planner: {planner['planned']} planned, "
          f"{planner['deduplicated']} deduplicated, "
          f"{planner['phase1_tasks']} executed "
          f"({planner['batches']} batches)")
    print(f"speedup (planner vs serial, workers={report['workers']}): "
          f"{report['speedup_planner_vs_serial']:.2f}x")
    pool = report["pool"]
    print(f"speedup (warm-pool planner vs serial, median): "
          f"{report['speedup_warmpool_vs_serial']:.2f}x "
          f"(pool: {pool['spawns']} spawns, {pool['dispatches']} "
          f"dispatches, {pool['dep_entries']} dep entries)")
    print(f"fault-policy overhead (no faults, warm pool, median): "
          f"{report['fault_policy_overhead_pct']:+.1f}%")
    breakdown = report["overhead_breakdown"]
    print(f"overhead (traced {breakdown['traced_run_s']:.2f}s run, "
          f"{breakdown['coverage']:.0%} attributed): "
          f"spawn {breakdown['pool_spawn_s']:.3f}s, "
          f"plan {breakdown['plan_s']:.3f}s, "
          f"dispatch {breakdown['dispatch_self_s']:.3f}s, "
          f"wait {breakdown['wait_s']:.3f}s, "
          f"assemble {breakdown['assemble_s']:.3f}s | workers: "
          f"rebuild {breakdown['worker_system_build_s']:.3f}s, "
          f"compute {breakdown['worker_compute_s']:.3f}s")
    for grid, stats in report["grids"].items():
        print(f"{grid}: {stats['jobs']} jobs -> {stats['phase1_tasks']} "
              f"unique tasks ({stats['deduplicated']} deduplicated)")
    scaling = report["scaling"]
    print(f"scaling ({scaling['tier']} tier, "
          f"{scaling['entries']}-entry {scaling['network']}):")
    for point in scaling["points"]:
        print(f"  {point['jobs']:>5} jobs: serial {point['serial_s']:.2f}s, "
              f"planner@{scaling['workers']} {point['planner4_s']:.2f}s "
              f"-> {point['speedup']:.2f}x")
    cache_scaling = report["cache_scaling"]
    print(f"cache scaling ({cache_scaling['dirty_entries']}-entry dirty "
          f"delta):")
    for point in cache_scaling["points"]:
        print(f"  {point['entries']:>5} warm entries: sharded flush "
              f"{point['sharded_flush_s'] * 1e3:.1f}ms / open "
              f"{point['sharded_open_s'] * 1e3:.1f}ms")


def main() -> dict:
    report = run_benchmark()
    _conftest().write_bench_json(OUTPUT_PATH, report)
    _print_report(report)
    print(f"wrote {OUTPUT_PATH}")
    return report


def test_sweep_throughput_benchmark():
    """Pytest entry: parallel must strictly beat serial on the cold
    default grid, neither path may decode a layer entry on the
    synthetic curve and both must plan the same tasks there, the
    acceptance grids must plan exactly one task per geometry per
    configuration, parent-side dispatch overhead must stay a small
    fraction of the run, and the traced run must attribute (nearly) all
    of the main lane's wall-clock."""
    report = main()
    # Layer entries are keyed by shape, so expansion already yields one
    # task per (configuration, geometry, flags): every planned task runs.
    planner = report["planner"]
    assert planner["phase1_tasks"] == planner["planned"] == 864, planner
    fig4 = report["grids"]["fig4_memory"]
    assert fig4["phase1_tasks"] == fig4["planned"] == 96, fig4
    fig5 = report["grids"]["fig5_reuse"]
    assert fig5["phase1_tasks"] == fig5["planned"] == 216, fig5
    # Strictly-beats-serial, median to median, on the cold default
    # grid.  Asserted on the warm-pool planner mode — the configuration
    # this PR ships (a persistent pool amortizes spawn/fork overhead;
    # the caches are still cold every run).  On a single-core runner
    # the win is purely algorithmic (one message per batch, and assembly that
    # embeds warm entries where serial decodes them), so the margin is
    # a few percent; the warm pool is what keeps it strictly positive.
    timings = report["timings"]
    assert (timings["planner_workers4_warmpool"]["median_s"]
            < timings["serial"]["median_s"]), \
        "warm-pool planner@4 must strictly beat serial on the cold grid"
    # Fault tolerance must be (nearly) free when nothing faults: the
    # policy-armed warm-pool run — watchdog timers, failure capture,
    # quarantine lookups — stays within 3% of
    # the unguarded warm-pool median (plus a small absolute floor for
    # scheduler jitter on sub-second runs).
    guarded = timings["planner_workers4_warmpool_faultpolicy"]["median_s"]
    baseline = timings["planner_workers4_warmpool"]["median_s"]
    assert guarded <= 1.03 * baseline + 0.05, \
        (f"no-fault policy overhead too high: guarded {guarded:.3f}s vs "
         f"baseline {baseline:.3f}s "
         f"({report['fault_policy_overhead_pct']:+.1f}%)")
    # One pipeline: at every scaling point the serial and the pooled run
    # assemble from warm entries without decoding any, and they plan
    # the same tasks (a few per configuration for hundreds of entries).
    for point in report["scaling"]["points"]:
        assert point["serial_layer_decodes"] == 0, point
        assert point["planner4_layer_decodes"] == 0, point
        assert point["serial_plan"] == point["planner4_plan"], point
        assert 0 < point["serial_plan"]["phase1_tasks"] \
            < point["jobs"] * point["entries"], point
    breakdown = report["overhead_breakdown"]
    assert breakdown["coverage"] >= 0.9
    # Parent-side dispatch overhead (pickle/submit/decode, excluding
    # the blocked-on-workers wait) must stay under 30% of the traced
    # run: the parent is not the engine's bottleneck.
    assert (breakdown["dispatch_self_s"]
            < 0.3 * breakdown["traced_run_s"]), breakdown
    # Cache persistence must be O(delta), not O(total): with a fixed
    # dirty set, the sharded flush and the warm-start open at 16x the
    # store size must stay within noise of the 1x cost (generous
    # floors absorb scheduler jitter and a stray slow fsync on shared
    # CI disks).
    points = {point["factor"]: point
              for point in report["cache_scaling"]["points"]}
    one, sixteen = points[1], points[16]
    assert sixteen["sharded_flush_s"] < max(
        0.05, 5.0 * max(one["sharded_flush_s"], 0.002)), points
    assert sixteen["sharded_open_s"] < max(
        0.05, 5.0 * max(one["sharded_open_s"], 0.002)), points


if __name__ == "__main__":
    main()
