"""Command-line interface: ``repro <command>`` or ``python -m repro``.

Commands mirror the paper's evaluation section plus the library's own
analyses, each with its own ``--help``::

    repro fig2         # energy-breakdown validation
    repro fig3         # VGG16 / AlexNet throughput
    repro fig4         # full-system memory exploration
    repro fig5         # reuse-factor exploration
    repro all          # everything + claim summary
    repro compare      # cross-system comparison (every registered system)
    repro sensitivity  # per-device energy sensitivity analysis
    repro roofline     # bandwidth roofline of AlexNet on Albireo
    repro sweep        # parallel/cached configuration sweep (DSE engine)
    repro run          # execute a declarative study spec (repro.api)
    repro serve        # long-lived evaluation daemon (HTTP or stdio)
    repro submit       # send specs to a daemon, stream results back
    repro arch         # print a modeled system's hierarchy
    repro area         # per-component area summary
    repro cache        # inspect / gc a persistent cache dir

The parser is built generically from the library's registries: ``--system``
choices come from :mod:`repro.systems.registry`, ``--network`` choices
from :func:`repro.workloads.network_names`, and ``--scenario`` choices
from :data:`repro.energy.scaling.SCENARIOS`.  Sweep-shaped commands
(``fig4``, ``fig5``, ``sweep``, ``run``, ``compare``, ``all``) accept
``--workers N`` (process-pool evaluation through the two-phase
scheduler) and ``--cache DIR`` (persistent memoization across
invocations); ``--keep-pool`` keeps one warm worker pool across a
multi-spec ``repro run``.  ``sweep``, ``compare``, and ``run`` accept
``--json PATH`` to dump their tagged result records for downstream
tooling.

``repro run spec.json`` executes any study expressible as data — systems
x networks x scenarios x grid overrides x batching x fusion — through
:meth:`repro.api.Study.from_json`, so one-off explorations need no code.

``repro cache {stats,gc} DIR`` maintains the sharded store behind
``--cache DIR``: exact per-namespace/per-shard inventory (``stats``)
and LRU eviction + log compaction under ``--max-entries`` /
``--max-bytes`` budgets (``gc``).

Observability: sweep-shaped commands accept ``--trace PATH`` (write a
Chrome/Perfetto span timeline of the run, worker lanes included) and
``--trace-summary`` (per-phase wall-clock attribution table);
``sweep``/``run`` additionally accept ``--progress`` (per-job done/total
lines on stderr).  See :mod:`repro.obs`.

Fault tolerance: ``sweep``/``run`` accept ``--on-error raise|skip|retry``
(default raise — fail-stop), ``--retries N`` and ``--task-timeout S``
(see :class:`repro.engine.executor.FailurePolicy`), and ``--inject
faults.json`` (a deterministic fault plan, for testing the machinery —
see :mod:`repro.engine.faults`).

Service mode: ``repro serve --cache DIR --workers N`` starts the
long-lived daemon (one warm worker pool + one shared cache for its
lifetime; ``--port 0`` picks an ephemeral port and prints it, ``--stdio``
speaks the same protocol over stdin/stdout), and ``repro submit
spec.json --server URL`` runs specs on it, streaming records as they
complete and rendering the same report/``--json`` output as a local
``repro run``.  See :mod:`repro.service`.

Exit codes: 0 success; 2 a library error surfaced as a one-line
``error: ...`` message (unreachable/draining daemons included — pass
``repro --debug <command>`` for the full traceback); 3 the run
completed but some points failed under ``--on-error skip``/``retry``
(the partial results were still written).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Sequence

from repro.energy.scaling import SCENARIOS, scenario_by_name
from repro.exceptions import ReproError
from repro.report.ascii import format_table
from repro.systems.registry import create_system, get_system, system_names
from repro.workloads.models import network_by_name, network_names

# ---------------------------------------------------------------------------
# Shared flag groups (added to subparsers by name)
# ---------------------------------------------------------------------------


def _flag_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", default="conservative",
        choices=[scenario.name for scenario in SCENARIOS],
        help="optical-device scaling scenario (default conservative)",
    )


def _flag_system(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system", default="albireo", choices=system_names(),
        metavar="NAME",
        help=f"registered system (default albireo; "
             f"options: {', '.join(system_names())})",
    )


def _flag_systems_list(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system", default=None, metavar="NAMES",
        help="comma-separated registered systems "
             "(default: all registered)",
    )


def _flag_mapper(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mapper", action="store_true",
        help="use mapper search instead of reference mappings (slower)",
    )


def _flag_pool(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="evaluate over N worker processes (default 1)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="persist mapper results and evaluations under DIR "
             "(reused and extended by later runs)",
    )


def _flag_network(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--network", default="resnet18", choices=network_names(),
        help="workload to evaluate (default resnet18)",
    )


def _flag_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="also dump the tagged result records (plus cache/planner "
             "statistics) as JSON to PATH ('-' writes JSON to stdout and "
             "the table to stderr, so stdout stays machine-parseable)",
    )


def _flag_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace_path",
        help="record a span timeline of the run and write it to PATH as "
             "Chrome trace JSON (open via ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-summary", action="store_true", dest="trace_summary",
        help="print a per-phase wall-clock attribution table after the "
             "run (implies span collection)",
    )


def _flag_progress(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-job done/total progress lines to stderr "
             "(stdout stays machine-parseable)",
    )


def _flag_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--on-error", default="raise", dest="on_error",
        choices=("raise", "skip", "retry"),
        help="what a failing point does to the run: abort it (raise — "
             "the default), become a failed record while the rest "
             "completes (skip), or be retried with backoff and "
             "quarantined in the cache if it keeps failing (retry); "
             "skip/retry exit with code 3 when failures remain",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="max re-attempts per failing job under --on-error retry "
             "(default 2)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        dest="task_timeout",
        help="per-task wall-clock deadline; a task over it raises "
             "TaskTimeoutError and follows the --on-error route",
    )
    parser.add_argument(
        "--inject", default=None, metavar="PATH",
        help="debug: load a deterministic fault-injection plan (JSON "
             "list of {match, action, attempt} specs) and fire it "
             "inside the run — see repro.engine.faults",
    )


_FLAG_GROUPS = {
    "scenario": _flag_scenario,
    "system": _flag_system,
    "systems-list": _flag_systems_list,
    "mapper": _flag_mapper,
    "pool": _flag_pool,
    "network": _flag_network,
    "json": _flag_json,
    "trace": _flag_trace,
    "progress": _flag_progress,
    "faults": _flag_faults,
}


def _failure_policy(args: argparse.Namespace):
    """The ``--on-error``/``--retries``/``--task-timeout`` flags as a
    :class:`~repro.engine.executor.FailurePolicy` — or ``None`` when
    they are all defaults, preserving fail-stop exactly."""
    from repro.engine import FailurePolicy

    on_error = getattr(args, "on_error", "raise")
    task_timeout = getattr(args, "task_timeout", None)
    if on_error == "raise" and task_timeout is None:
        return None
    return FailurePolicy(on_error=on_error,
                         max_retries=getattr(args, "retries", 2),
                         task_timeout=task_timeout)


def _table_stream(args: argparse.Namespace):
    """Where human-readable output goes: stderr when ``--json -`` claims
    stdout for the record dump, stdout otherwise."""
    return (sys.stderr if getattr(args, "json_path", None) == "-"
            else sys.stdout)


def _dump_json(args: argparse.Namespace, records: List[dict],
               stats: Optional[dict] = None) -> None:
    """Write the ``--json`` payload: ``{"records": [...], "stats": {...}}``
    (``stats`` carries cache/planner/mapper counters, or ``None`` for
    commands that run without an engine cache)."""
    import json

    if not getattr(args, "json_path", None):
        return
    payload = {"records": records, "stats": stats}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json_path == "-":
        print(text)
    else:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(records)} records to {args.json_path}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_fig2(args) -> None:
    from repro.experiments import fig2_validation

    print(fig2_validation.run().table())


def _cmd_fig3(args) -> None:
    from repro.experiments import fig3_throughput

    print(fig3_throughput.run(use_mapper=args.mapper).table())


def _cmd_fig4(args) -> None:
    from repro.experiments import fig4_memory

    print(fig4_memory.run(use_mapper=args.mapper, workers=args.workers,
                          cache=args.cache).table())


def _cmd_fig5(args) -> None:
    from repro.experiments import fig5_reuse

    print(fig5_reuse.run(use_mapper=args.mapper, workers=args.workers,
                         cache=args.cache).table())


def _cmd_all(args) -> None:
    from repro.experiments import run_all

    print(run_all(use_mapper=args.mapper, workers=args.workers,
                  cache=args.cache).report())


def _cmd_compare(args) -> None:
    from repro.engine import EvaluationCache
    from repro.experiments import system_comparison

    systems = ([name.strip() for name in args.system.split(",")
                if name.strip()] if args.system else system_names())
    cache = EvaluationCache(args.cache)
    mapper_stats_before = cache.mapper_search_stats()
    result = system_comparison.run(
        use_mapper=args.mapper, systems=systems,
        workers=args.workers, cache=cache)
    print(result.table(), file=_table_stream(args))
    _dump_json(args, result.to_records(),
               stats=_stats_dict(cache, mapper_stats_before))


def _cmd_sensitivity(args) -> None:
    from repro.experiments import sensitivity

    print(sensitivity.run(scenario_by_name(args.scenario)).table())


def _cmd_roofline(args) -> None:
    from repro.model.roofline import network_roofline
    from repro.systems.albireo import AlbireoConfig, AlbireoSystem
    from repro.workloads import alexnet

    system = AlbireoSystem(AlbireoConfig(
        scenario=scenario_by_name(args.scenario),
        dram_bandwidth_gbps=25.6))
    print(network_roofline(system, alexnet()).table())


def _record_label(record) -> str:
    """A compact one-line coordinate label for a streamed record
    (mirrors the job labels studies generate)."""
    tags = record.tags
    parts = [f"{tags.get('system', '?')}:{tags.get('network', '?')}"]
    if tags.get("scenario"):
        parts.append(str(tags["scenario"]))
    if tags.get("fused"):
        parts.append("fused")
    if tags.get("batch", 1) and tags.get("batch", 1) > 1:
        parts.append(f"N={tags['batch']}")
    skip = {"system", "network", "scenario", "fused", "batch"}
    parts.extend(f"{key}={value}" for key, value in tags.items()
                 if key not in skip)
    if record.failed:
        parts.append(f"FAILED:{record.get('error')}")
    return " ".join(parts)


def _progress_printer(record, done: int, total: int) -> None:
    """The ``--progress`` line printer, fed through the ``on_record``
    streaming seam: one ``[done/total]`` line per completed point, in
    completion order, on stderr."""
    print(f"[{done}/{total}] {_record_label(record)}",
          file=sys.stderr, flush=True)


def _run_study(study, args, cache=None, pool=None):
    """Execute a study with the shared pool flags; returns (ResultSet,
    cache, mapper-stats-before).

    Always runs with an :class:`EvaluationCache` (in-memory when no
    ``--cache DIR``) so cache/planner statistics are available for the
    table and the ``--json`` stats record.  Multi-run commands pass a
    shared ``cache`` (and optionally a persistent ``pool``) so later
    runs stay warm.  Progress lines are opt-in (``--progress``) and go
    to stderr.
    """
    from repro.engine import EvaluationCache

    if cache is None:
        cache = EvaluationCache(args.cache)
    mapper_stats_before = cache.mapper_search_stats()
    on_record = (_progress_printer if getattr(args, "progress", False)
                 else None)
    results = study.run(workers=args.workers, cache=cache,
                        on_record=on_record, pool=pool,
                        failure_policy=_failure_policy(args),
                        inject=getattr(args, "inject", None))
    return results, cache, mapper_stats_before


def _failure_lines(results) -> List[str]:
    """A one-line partial-results summary (empty on a clean run)."""
    failures = results.failures
    if not failures:
        return []
    quarantined = sum(1 for record in failures
                      if record.get("quarantined"))
    line = (f"failures: {len(failures)} of {len(results)} points failed"
            + (f" ({quarantined} quarantined)" if quarantined else ""))
    return [line]


def _stats_lines(cache, mapper_stats_before) -> List[str]:
    """Cache and fresh-search statistics lines for sweep-shaped output."""
    if cache is None:
        return []
    lines = [cache.describe_stats()]
    # Report only this run's fresh searches: entries already in the
    # cache before the run (warm hits, prior runs) are subtracted out.
    mapper_stats = {
        counter: count - mapper_stats_before[counter]
        for counter, count in cache.mapper_search_stats().items()
    }
    if mapper_stats["searches"]:
        lines.append(
            f"mapper: {mapper_stats['searches']} searches, "
            f"{mapper_stats['evaluated']} candidates evaluated "
            f"({mapper_stats['valid']} valid), "
            f"{mapper_stats['deduplicated']} duplicates skipped, "
            f"{mapper_stats['pruned_early']} pruned early"
        )
    return lines


def _stats_dict(cache, mapper_stats_before, pool=None) -> Optional[dict]:
    """The ``--json`` stats record: per-namespace cache hits/misses,
    planner dedup counters, this run's fresh mapper-search totals, and
    (when a persistent pool was used) the pool's counters."""
    if cache is None:
        return None
    mapper_stats = {
        counter: count - mapper_stats_before[counter]
        for counter, count in cache.mapper_search_stats().items()
    }
    stats = {
        "cache": cache.stats_snapshot(),
        "planner": cache.planner.to_dict(),
        "mapper": mapper_stats,
    }
    if pool is not None:
        stats["pool"] = pool.stats.to_dict()
    return stats


def _cmd_sweep(args) -> None:
    """A registered system's default grid through the Study facade."""
    from repro.api.studies import config_study

    entry = get_system(args.system)
    if entry.default_sweep is None:
        raise SystemExit(
            f"system {entry.name!r} registers no default sweep grid")
    network = network_by_name(args.network)
    configs = list(entry.default_sweep())
    study = config_study(network, configs, use_mapper=args.mapper)
    results, cache, mapper_stats_before = _run_study(study, args)

    frontier = {id(record) for record in results.pareto()}
    columns = entry.sweep_columns or (
        ("configuration", lambda config: config.describe()
         if hasattr(config, "describe") else repr(config)),
    )
    rows = []
    for record in results:
        base = tuple(getter(record.config) for _, getter in columns)
        if record.failed:
            rows.append(base + (f"FAILED:{record.get('error')}",
                                "-", "-", ""))
        else:
            rows.append(base + (
                f"{record.value('energy_per_mac_pj'):.4f}",
                f"{record.value('latency_ns') / 1e6:.3f}",
                f"{record.value('utilization'):.1%}",
                "*" if id(record) in frontier else "",
            ))
    headers = tuple(header for header, _ in columns) + (
        "pJ/MAC", "latency ms", "util", "Pareto")
    table = format_table(
        headers, rows,
        align_right=[False] + [True] * (len(headers) - 2) + [False])
    lines = [
        f"Sweep — {network.name} across {len(configs)} {entry.name} "
        f"configurations (workers={args.workers})",
        table,
        f"{len(frontier)} Pareto-optimal points "
        f"(energy/MAC vs request latency)",
    ]
    lines.extend(_failure_lines(results))
    lines.extend(_stats_lines(cache, mapper_stats_before))
    print("\n".join(lines), file=_table_stream(args))
    _dump_json(args, results.to_records(),
               stats=_stats_dict(cache, mapper_stats_before))
    return 3 if results.failures else 0


def _cmd_run(args) -> None:
    """Execute declarative study spec files (``repro run spec.json ...``).

    Multiple specs share one evaluation cache; with ``--keep-pool`` they
    also share one persistent worker pool, so later specs reuse warm
    workers instead of spawning new ones.
    """
    from repro.api import Study, WorkerPool
    from repro.engine import EvaluationCache

    cache = EvaluationCache(args.cache)
    mapper_stats_before = cache.mapper_search_stats()
    pool = WorkerPool(args.workers) if args.keep_pool else None
    lines: List[str] = []
    records: List[dict] = []
    failed_points = 0
    try:
        for spec in args.specs:
            study = Study.from_json(spec)
            results, _, _ = _run_study(study, args, cache=cache, pool=pool)
            lines.append(
                f"Study {study.name!r} — {len(results)} evaluations "
                f"(workers={args.workers})")
            lines.append(results.report(mark_pareto=True))
            lines.extend(_failure_lines(results))
            failed_points += len(results.failures)
            records.extend(results.to_records())
    finally:
        if pool is not None:
            pool.close()
    lines.extend(_stats_lines(cache, mapper_stats_before))
    if pool is not None:
        stats = pool.stats
        lines.append(
            f"pool: {stats.spawns} spawns, {stats.dispatches} dispatches "
            f"({stats.batches} batches), {stats.dep_entries} cached "
            f"mapper entries shipped")
    print("\n".join(lines), file=_table_stream(args))
    _dump_json(args, records,
               stats=_stats_dict(cache, mapper_stats_before, pool=pool))
    return 3 if failed_points else 0


def _cmd_serve(args) -> None:
    """Run the long-lived evaluation daemon (``repro serve``)."""
    from repro.service.server import ReproService, serve, serve_stdio

    service = ReproService(cache=args.cache, workers=args.workers,
                           queue_limit=args.queue_limit)
    if args.stdio:
        return serve_stdio(service)
    return serve(service, host=args.host, port=args.port,
                 heartbeat=args.heartbeat)


def _cmd_submit(args) -> None:
    """Run study specs on a daemon (``repro submit spec.json --server
    URL``), streaming records as they complete and rendering the same
    report as a local ``repro run`` of the same specs."""
    from repro.api import Study
    from repro.api.results import ResultSet
    from repro.exceptions import ServiceError
    from repro.service.client import ServiceClient

    if getattr(args, "remote_trace", None) and len(args.specs) > 1:
        raise ReproError(
            "--trace takes one output path; submit one spec per trace")
    client = ServiceClient(args.server, timeout=args.timeout)
    policy = _failure_policy(args)
    lines: List[str] = []
    records: List[dict] = []
    failed_points = 0
    for spec in args.specs:
        study = Study.from_json(spec)
        handle = client.submit(study, workers=args.workers,
                               failure_policy=policy,
                               trace=bool(args.remote_trace))
        rows: List[dict] = []
        failure = None
        for body in handle.events():
            kind = body.get("event")
            if kind == "record":
                rows.append(body["record"])
                if args.progress:
                    record = next(iter(
                        ResultSet.from_records([body["record"]])))
                    _progress_printer(record, body["done"], body["total"])
            elif kind == "error":
                failure = body
            elif kind == "done" and body.get("status") != "done":
                detail = (f": {failure['error']}: {failure['message']}"
                          if failure else "")
                raise ServiceError(
                    f"job {handle.id} ended {body.get('status')}{detail}")
        results = ResultSet.from_records(rows)
        lines.append(
            f"Study {study.name!r} — {len(results)} evaluations "
            f"(server {args.server}, job {handle.id})")
        lines.append(results.report(mark_pareto=True))
        lines.extend(_failure_lines(results))
        failed_points += len(results.failures)
        records.extend(results.to_records())
        if args.remote_trace:
            with open(args.remote_trace, "w", encoding="utf-8") as out:
                out.write(handle.trace())
            print(f"wrote server-side trace to {args.remote_trace}",
                  file=sys.stderr)
    print("\n".join(lines), file=_table_stream(args))
    # --json stats come from the daemon (its cache/planner/pool counters
    # are service-lifetime cumulative, not per-submission).
    _dump_json(args, records, stats=client.stats())
    return 3 if failed_points else 0


def _scenario_system(args):
    """A registered system instance under the requested scenario (for the
    arch/area commands)."""
    entry = get_system(args.system)
    return create_system(
        entry.name,
        entry.config_type(scenario=scenario_by_name(args.scenario)))


def _cmd_arch(args) -> None:
    print(_scenario_system(args).describe())


def _cmd_cache(args) -> None:
    """Maintain a persistent cache directory (the sharded store behind
    ``--cache DIR``): exact inventory, LRU gc + compaction."""
    import json

    from repro.engine.cache import NAMESPACES
    from repro.engine.store import ShardedStore

    store = ShardedStore(args.directory, NAMESPACES)
    info = {"action": args.action}
    if args.action == "gc":
        info["gc"] = store.gc(max_entries=args.max_entries,
                              max_bytes=args.max_bytes)
    info.update(store.describe())
    if args.json_stdout:
        print(json.dumps(info, indent=2, sort_keys=True))
        return
    lines = [
        f"cache at {info['directory']}: {info['total_entries']} entries, "
        f"{info['bytes']} bytes across {len(info['shards'])} shards"
    ]
    if args.action == "gc":
        summary = info["gc"]
        lines.append(f"gc: evicted {summary['evicted_entries']} entries "
                     f"({summary['evicted_bytes']} bytes), compacted "
                     f"shard logs")
    counts = info["entries"]
    lines.append("  " + " | ".join(f"{ns} {counts[ns]}" for ns in counts))
    rows = [(shard, str(detail["entries"]), str(detail["bytes"]))
            for shard, detail in sorted(info["shards"].items())]
    if rows:
        lines.append(format_table(("shard", "entries", "bytes"), rows,
                                  align_right=[False, True, True]))
    print("\n".join(lines))


def _cmd_area(args) -> None:
    system = _scenario_system(args)
    areas = system.area_summary_um2()
    total = sum(areas.values())
    rows = [(name, f"{area / 1e6:.3f}", f"{area / total:.1%}")
            for name, area in sorted(areas.items(),
                                     key=lambda item: -item[1])]
    rows.append(("TOTAL", f"{total / 1e6:.3f}", "100%"))
    print(format_table(("component", "area mm^2", "share"), rows,
                       align_right=[False, True, True]))


# ---------------------------------------------------------------------------
# Generic parser construction
# ---------------------------------------------------------------------------

#: (name, help, flag-group names, handler).  Subparsers are generated
#: from this table, so adding a command is one row + one handler.
_COMMANDS: Sequence = (
    ("fig2", "energy-breakdown validation (paper Fig. 2)",
     (), _cmd_fig2),
    ("fig3", "VGG16 / AlexNet throughput (paper Fig. 3)",
     ("mapper",), _cmd_fig3),
    ("fig4", "full-system memory exploration (paper Fig. 4)",
     ("mapper", "pool", "trace"), _cmd_fig4),
    ("fig5", "reuse-factor exploration (paper Fig. 5)",
     ("mapper", "pool", "trace"), _cmd_fig5),
    ("all", "every experiment + claim summary",
     ("mapper", "pool", "trace"), _cmd_all),
    ("compare", "cross-system comparison over the workload suite",
     ("systems-list", "mapper", "pool", "json", "trace"), _cmd_compare),
    ("sensitivity", "per-device energy sensitivity analysis",
     ("scenario",), _cmd_sensitivity),
    ("roofline", "bandwidth roofline of AlexNet on Albireo",
     ("scenario",), _cmd_roofline),
    ("sweep", "parallel/cached default-grid sweep of one system",
     ("system", "network", "mapper", "pool", "json", "trace", "progress",
      "faults"),
     _cmd_sweep),
    ("run", "execute a declarative study spec (JSON) via repro.api",
     ("pool", "json", "trace", "progress", "faults"), _cmd_run),
    ("serve", "run the long-lived evaluation daemon (HTTP or stdio)",
     (), _cmd_serve),
    ("submit", "run study specs on a daemon, streaming results back",
     ("json", "progress"), _cmd_submit),
    ("arch", "print a modeled system's hierarchy",
     ("system", "scenario"), _cmd_arch),
    ("area", "per-component area summary",
     ("system", "scenario"), _cmd_area),
    ("cache", "inspect or gc a persistent cache directory",
     (), _cmd_cache),
)


def _args_run(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "specs", metavar="spec.json", nargs="+",
        help="study spec file(s) (see Study.from_json): systems x "
             "networks x scenarios x grid x batches x fusion; "
             "multiple specs share one cache (and, with "
             "--keep-pool, one warm worker pool)",
    )
    sub.add_argument(
        "--keep-pool", action="store_true", dest="keep_pool",
        help="keep one persistent worker pool warm across the specs: "
             "workers are spawned once and keep their architecture "
             "builds and search contexts; each batch carries the few "
             "cached mapper entries it reads",
    )


def _args_cache(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "action", choices=("stats", "gc"),
        help="stats: exact per-namespace/per-shard inventory; gc: evict "
             "LRU entries to budget and compact the shard logs",
    )
    sub.add_argument("directory", metavar="DIR",
                     help="cache directory (as passed to --cache)")
    sub.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        dest="max_entries",
        help="gc: keep at most N entries across all namespaces "
             "(least recently used evicted first)",
    )
    sub.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        dest="max_bytes",
        help="gc: shrink the shard logs to at most N bytes of entries",
    )
    sub.add_argument(
        "--json", action="store_true", dest="json_stdout",
        help="print the inventory (and gc summary) as JSON",
    )


def _args_serve(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache", default=None, metavar="DIR",
        help="shared persistent cache directory for the daemon's "
             "lifetime (every submitted study reads and extends it); "
             "omit for in-memory",
    )
    sub.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="spawn a persistent N-process worker pool, kept warm "
             "across submissions (default 1: in-process serial)",
    )
    sub.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1)",
    )
    sub.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="listen port; 0 (the default) picks an ephemeral port — "
             "the bound URL is printed on stdout once listening",
    )
    sub.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        dest="queue_limit",
        help="max queued studies before submits answer 503 (default 32)",
    )
    sub.add_argument(
        "--heartbeat", type=float, default=10.0, metavar="SECONDS",
        help="idle event-stream heartbeat interval (default 10)",
    )
    sub.add_argument(
        "--stdio", action="store_true",
        help="serve the protocol over stdin/stdout instead of HTTP "
             "(one JSON op per input line, NDJSON events out)",
    )


def _args_submit(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "specs", metavar="spec.json", nargs="+",
        help="study spec file(s) (same format as `repro run`), each "
             "submitted as one daemon job in order",
    )
    sub.add_argument(
        "--server", default="http://127.0.0.1:8100", metavar="URL",
        help="daemon base URL (default http://127.0.0.1:8100; start "
             "one with `repro serve`)",
    )
    sub.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="requested execution width, clamped to the daemon's pool "
             "(default: the daemon's own width)",
    )
    sub.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="socket timeout per request/stream read (default 600)",
    )
    sub.add_argument(
        "--trace", default=None, metavar="PATH", dest="remote_trace",
        help="capture a server-side span timeline of the job and save "
             "it to PATH as Chrome trace JSON (single spec only)",
    )
    sub.add_argument(
        "--on-error", default="raise", dest="on_error",
        choices=("raise", "skip", "retry"),
        help="server-side failure policy for the submitted jobs "
             "(same semantics as `repro run`; skip/retry exit 3 when "
             "failures remain)",
    )
    sub.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="max re-attempts per failing point under --on-error retry "
             "(default 2)",
    )
    sub.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        dest="task_timeout",
        help="per-task wall-clock deadline, enforced daemon-side",
    )


#: Commands with bespoke positionals/options beyond the shared flag
#: groups; applied after the groups in ``_build_parser``.
_EXTRA_ARGS = {"run": _args_run, "cache": _args_cache,
               "serve": _args_serve, "submit": _args_submit}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Architecture-level modeling of photonic DNN accelerators "
            "(ISPASS 2024 reproduction)"
        ),
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="show full tracebacks instead of one-line error messages "
             "(goes before the command: repro --debug run ...)",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command",
                                       required=True)
    for name, help_text, groups, handler in _COMMANDS:
        sub = subparsers.add_parser(name, help=help_text,
                                    description=help_text)
        for group in groups:
            _FLAG_GROUPS[group](sub)
        extra = _EXTRA_ARGS.get(name)
        if extra is not None:
            extra(sub)
        sub.set_defaults(handler=handler)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the command's handler (under a tracer when asked); a handler
    returning ``None`` means exit code 0 (3 = partial failures)."""
    handler: Callable[[argparse.Namespace], Optional[int]] = args.handler
    trace_path = getattr(args, "trace_path", None)
    trace_summary = getattr(args, "trace_summary", False)
    if not (trace_path or trace_summary):
        return handler(args) or 0
    # --trace / --trace-summary: run the whole command under an active
    # tracer (span collection reaches the engine, workers included), then
    # export and/or summarize the timeline.
    from repro import obs
    from repro.report import format_trace_summary

    with obs.tracing() as tracer:
        with obs.span(f"repro.{args.command}"):
            code = handler(args) or 0
    trace = tracer.trace()
    if trace_path:
        trace.save(trace_path)
        print(f"wrote trace ({len(trace)} events) to {trace_path}",
              file=sys.stderr)
    if trace_summary:
        print(format_trace_summary(trace), file=_table_stream(args))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        # Library errors are user-facing: one line, no traceback (the
        # traceback is for bugs; --debug re-raises to get it).
        if getattr(args, "debug", False):
            raise
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
