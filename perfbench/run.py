"""One benchmark over the production cluster: ``python3 perfbench/run.py``.

Usage, from the root of a checkout (the benchmark runs the code in
``src/`` as it is there)::

    python3 perfbench/run.py --workload zipf-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload s2bdd-cold --seed 1 --seconds 10 --trace 1

One run: build a snapshot and boot ``python -m repro.cluster`` on it
several times (each boot ends at the first correct answer; the median is
``setup_s``), warm the caches, drive the workload's seeded operation list
through closed-loop clients, read peak memory, tear the cluster down, then
check every answer against an in-process reference.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A run record (host stamp, every metric,
every failure, the latency histogram) and, when traced, the span file go
to ``.perfbench/out/``.  See ``perfbench/README.md`` for the workloads
and the definition of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: In a traced run, every second read of the stream is traced.
TRACE_EVERY = 2
#: The stream's latency and throughput are taken on this many consecutive
#: parts of it, and the run reports the median part: a burst of host CPU
#: steal that covers fewer than half the parts does not move the figure.
PARTS = 5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="zipf-hot, s2bdd-cold or update-mix")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=int, default=15, help="run length (sizes the operation list)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from perfbench.cluster import refuse_leftovers

    try:
        refuse_leftovers()
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    stamp = host_stamp(args)
    cpu_before = _cpu_times()
    record = run(workloads.WORKLOADS[args.workload], args)
    stamp["loadavg_after"] = _loadavg()
    cpu_after = _cpu_times()
    elapsed = [after - before for before, after in zip(cpu_before, cpu_after)]
    stamp["cpu_steal_frac"] = elapsed[7] / sum(elapsed) if sum(elapsed) else 0.0
    record["host"] = stamp
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "out", f"{name}.json"), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}")
    print("host " + json.dumps(stamp, sort_keys=True))
    wanted = record["per_layer"] if args.trace else record["end_to_end"]
    missing = _manifest_metrics("per_layer" if args.trace else "end_to_end") - set(wanted)
    if missing:
        print(f"error: no figure for {', '.join(sorted(missing))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in wanted.items()},
    }))
    return 0


def _manifest_metrics(section: str) -> set:
    """The metric names ``BENCHMARK.json`` lists under ``section``: every
    run must print each of them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"] for metric in json.load(handle)[section]}


def host_stamp(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_before": _loadavg(),
    }


def _loadavg() -> str:
    with open("/proc/loadavg") as handle:
        return handle.read().strip()


def _cpu_times() -> List[int]:
    """The host's aggregate CPU time counters (``/proc/stat``; 8th is steal)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def run(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    from repro.datasets import load_dataset
    from repro.service.catalog import GraphCatalog

    from perfbench import layers
    from perfbench.check import Checker, Failure, accuracy
    from perfbench.cluster import Cluster, build_snapshot, workload_config
    from perfbench.loadgen import client_for, run_stream, send
    from perfbench.workloads import SETUP_PROBE, Op, build_inputs, reference_queries

    graph = load_dataset("karate")
    inputs = build_inputs(workload, graph, seed=args.seed, seconds=args.seconds)
    reference = reference_queries()
    checker = Checker(workload_config(workload), graph)
    checker.expected(SETUP_PROBE)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    setups: List[Dict[str, float]] = []
    probes = []
    cluster = None
    try:
        # Set-up, several times: snapshot, boot, first correct answer.
        for attempt in range(SETUPS):
            if cluster is not None:
                cluster.stop()
            snapshot_dir = os.path.join(run_dir, f"snapshot-{attempt}")
            started = time.perf_counter()
            build_snapshot(workload, snapshot_dir)
            built = time.perf_counter()
            cluster = Cluster(snapshot_dir, src_dir=SRC)
            probe = send(client_for(cluster.host, cluster.port), Op(-1, query=SETUP_PROBE))
            answered = time.perf_counter()
            probes.append(probe)
            setups.append({"total": answered - started, "snapshot": built - started,
                           "boot": answered - built})
        client = client_for(cluster.host, cluster.port)
        warmup = [send(client, Op(-1, query=query)) for query in inputs.warmup]
        stats_before = client.stats()
        stream = run_stream(
            cluster.host, cluster.port, inputs.stream, clients=workload.clients,
            seed=args.seed, trace_every=TRACE_EVERY if args.trace else 0,
        )
        stats_after = client.stats()
        final = [send(client, Op(-1, query=query)) for query in reference] if workload.update_every else []
        tail = [send(client, op) for op in inputs.tail]
        rss_mb = cluster.peak_rss_mb()
    finally:
        if cluster is not None:
            cluster.stop()

    # Correctness: reads grouped by the version they name, deltas replayed
    # in the order the fleet applied them.
    checked_at = time.perf_counter()
    outcomes = stream["outcomes"]
    failures: List[Failure] = []
    for probe in probes:
        if probe.error is None and probe.checksum != checker.expected(SETUP_PROBE):
            failures.append(Failure(-1, "query", "set-up probe checksum mismatch"))
        elif probe.error is not None:
            failures.append(Failure(-1, "query", probe.error))
    everything = warmup + outcomes + final + tail
    applied = [len(warmup) + position for position in stream["applied"]]
    applied += range(len(everything) - len(tail), len(everything))
    failures += checker.check(everything, applied=applied)
    check_seconds = time.perf_counter() - checked_at
    attempted = len(probes) + len(everything)

    reads = [o for o in outcomes if o.kind == "query" and o.error is None]
    updates = [o for o in outcomes if o.kind == "update" and o.error is None]
    read_ms = [o.seconds * 1000.0 for o in reads]
    parts = [_part_metrics(outcomes[part * len(outcomes) // PARTS:(part + 1) * len(outcomes) // PARTS])
             for part in range(PARTS)]
    reference_keys = {query.canonical_key() for query in reference}
    scored = final if workload.update_every else (warmup if inputs.warmup else outcomes)
    answers = [
        (tuple(o.query.terminals), o.reliability, checker.graph_at(o.fingerprint))
        for o in scored
        if o.error is None and o.query.canonical_key() in reference_keys
        and checker.graph_at(o.fingerprint) is not None
    ]
    end_to_end: Dict[str, Any] = {
        "setup_s": (statistics.median(s["total"] for s in setups), "s"),
        "latency_p50_ms": (statistics.median(part["p50_ms"] for part in parts), "ms"),
        "latency_p90_ms": (statistics.median(part["p90_ms"] for part in parts), "ms"),
        "throughput_rps": (statistics.median(part["ok_per_s"] for part in parts), "1/s"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
    }
    # Stream deltas (update-mix) or, on the read-only workloads, the tail.
    timed_updates = updates or [o for o in tail if o.error is None]
    end_to_end["update_p50_ms"] = (layers.percentile([o.seconds * 1000.0 for o in timed_updates], 50), "ms")
    end_to_end["accuracy"] = (accuracy(answers) if answers else 0.0, "ratio")
    end_to_end["rss_mb"] = (rss_mb, "MiB")

    per_layer: Dict[str, Any] = {}
    if args.trace:
        name = f"{workload.name}-seed{args.seed}"
        spans_path = os.path.join(WORK, "out", f"{name}-spans.jsonl")
        layers.write_spans(spans_path, outcomes)
        found = {**layers.span_metrics(spans_path), **layers.counter_metrics(stats_before, stats_after)}
        traced = [o.seconds * 1000.0 for o in reads if o.trace_id is not None]
        untraced = [o.seconds * 1000.0 for o in reads if o.trace_id is None]
        found["trace.overhead_frac"] = layers.percentile(traced, 50) / layers.percentile(untraced, 50) - 1.0
        found.update(_update_layers(run_dir, updates, stream["applied"], outcomes))
        found["setup.snapshot_build_s"] = statistics.median(s["snapshot"] for s in setups)
        found["setup.cluster_boot_s"] = statistics.median(s["boot"] for s in setups)
        started = time.perf_counter()
        GraphCatalog.load_snapshot(os.path.join(run_dir, f"snapshot-{SETUPS - 1}"), verify=True)
        found["snapshot.load_s"] = time.perf_counter() - started
        per_layer = {key: (found[key], unit) for key, unit in layers.UNITS.items()}
    shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": workload.name,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"{f.kind} #{f.index}: {f.reason}" for f in failures],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "ops": {"warmup": len(warmup), "stream": len(outcomes), "updates": len(updates), "tail": len(tail),
                "wall_seconds": stream["wall_seconds"], "check_seconds": check_seconds},
        "setups": setups,
        "stream_parts": parts,
        "whole_stream": {
            "p50_ms": layers.percentile(read_ms, 50),
            "p90_ms": layers.percentile(read_ms, 90),
            "ok_per_s": sum(1 for o in outcomes if o.error is None) / stream["wall_seconds"],
        },
        "read_histogram_ms": _histogram(read_ms),
    }


def _part_metrics(outcomes: List[Any]) -> Dict[str, float]:
    """Read latency percentiles and successful operations per second of
    one consecutive part of the timed stream."""
    from perfbench.layers import percentile

    read_ms = [o.seconds * 1000.0 for o in outcomes if o.kind == "query" and o.error is None]
    span = max(o.started + o.seconds for o in outcomes) - min(o.started for o in outcomes)
    return {
        "p50_ms": percentile(read_ms, 50),
        "p90_ms": percentile(read_ms, 90),
        "ok_per_s": sum(1 for o in outcomes if o.error is None) / span,
    }


def _update_layers(run_dir, updates, applied, outcomes) -> Dict[str, float]:
    """Update-path layers: the in-process catalog update against the same
    deltas (on a catalog loaded from the same snapshot), and the rest of
    the client's update latency, which is the router broadcast."""
    from repro.service.catalog import GraphCatalog

    from perfbench.layers import percentile
    from perfbench.workloads import GRAPH

    catalog_ms: List[float] = []
    if updates:
        catalog = GraphCatalog.load_snapshot(os.path.join(run_dir, f"snapshot-{SETUPS - 1}"))
        catalog.engine(GRAPH)
        for position in applied:
            if outcomes[position].error is None:
                started = time.perf_counter()
                catalog.update(GRAPH, outcomes[position].delta)
                catalog_ms.append((time.perf_counter() - started) * 1000.0)
    client_p50 = percentile([o.seconds * 1000.0 for o in updates], 50)
    invalidated = sum(o.invalidated for o in updates)
    return {
        "update.count": len(updates),
        "catalog.update_ms.p50": percentile(catalog_ms, 50),
        "router.broadcast_ms.p50": client_p50 - percentile(catalog_ms, 50) if updates else 0.0,
        "update.invalidated_per_update": invalidated / len(updates) if updates else 0.0,
    }


def _histogram(values_ms: List[float]) -> Dict[str, int]:
    """Read latencies in 0.5 ms buckets up to 20 ms, then one overflow bucket."""
    buckets: Dict[str, int] = {}
    for value in values_ms:
        label = f"{int(value * 2) / 2:.1f}" if value < 20 else ">=20"
        buckets[label] = buckets.get(label, 0) + 1
    return dict(sorted(buckets.items(), key=lambda item: float(item[0].lstrip(">="))))


if __name__ == "__main__":
    sys.exit(main())
