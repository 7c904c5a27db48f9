#!/usr/bin/env python3
"""Energy-vs-latency Pareto exploration of Albireo configurations.

Design-space exploration rarely has a single winner.  This example sweeps
cluster counts, reuse settings, and batch sizes, evaluates ResNet18 on
each configuration, and reports the Pareto frontier over (per-inference
energy, request latency):

* more clusters finish a batch sooner at roughly constant energy/MAC;
* more reuse (OR, WR) cuts conversion energy with no latency cost;
* batching amortizes weight DRAM fetches — less energy per inference —
  but a request now waits for the whole batch: the classic trade-off.

The 24 evaluations run through the sweep engine
(:mod:`repro.engine`): each (config, network) pair becomes a declarative
job, the executor fans the batch out over worker processes, and an
in-memory cache shares layer evaluations between jobs.  Point a ``cache``
directory at :func:`repro.engine.run_jobs` and a second run of this
script becomes near-instant.

Run:  python examples/pareto_exploration.py
"""

from dataclasses import replace

from repro import AGGRESSIVE, AlbireoConfig, pareto_frontier, resnet18
from repro.engine import EvaluationCache, make_job, run_jobs
from repro.report import format_table


def main() -> None:
    base = AlbireoConfig(scenario=AGGRESSIVE)
    jobs = []
    for batch in (1, 8):
        network = resnet18(batch=batch)
        for clusters in (8, 16, 32):
            for output_reuse, weight_lanes in ((3, 1), (9, 3)):
                config = replace(base, clusters=clusters,
                                 output_reuse=output_reuse,
                                 weight_lanes=weight_lanes)
                jobs.append(make_job(network, config,
                                     tags={"batch": batch}))

    # workers=2 exercises the process pool; results are identical to
    # workers=1, just faster on multi-core machines.
    evaluations = run_jobs(jobs, workers=2, cache=EvaluationCache())

    points = []
    for job, evaluation in zip(jobs, evaluations):
        batch = job.tag("batch")
        points.append({
            "config": job.config,
            "batch": batch,
            # A request waits for its whole batch.
            "latency_ms": evaluation.latency_ns / 1e6,
            "energy_uj": evaluation.energy_pj / 1e6 / batch,
        })

    frontier = {
        id(p) for p in pareto_frontier(
            points, lambda p: (p["energy_uj"], p["latency_ms"]))
    }
    rows = []
    for point in sorted(points, key=lambda p: p["latency_ms"]):
        config = point["config"]
        rows.append((
            config.clusters, config.output_reuse, config.weight_lanes,
            point["batch"],
            f"{point['latency_ms']:.2f}",
            f"{point['energy_uj']:.1f}",
            "*" if id(point) in frontier else "",
        ))
    print("ResNet18 across 12 Albireo configurations x 2 batch sizes "
          "(aggressive scaling).\nEnergy is per inference; latency is "
          "what one request waits.  * = Pareto-optimal\n")
    print(format_table(
        ("clusters", "OR", "WR", "batch", "latency ms",
         "energy uJ/inf", "Pareto"),
        rows, align_right=[True, True, True, True, True, True, False]))
    frontier_points = [p for p in points if id(p) in frontier]
    print(f"\n{len(frontier_points)} Pareto-optimal points: latency-first "
          f"serving wants the largest batch-1 array; energy-first serving "
          f"accepts ~8x request latency for the batched weight-fetch "
          f"amortization.")


if __name__ == "__main__":
    main()
