#!/usr/bin/env python3
"""MOIST benchmark: one closed-loop client, three workloads, two modes.

    python3 perfbench/run.py --workload leaders_read --seed 1 --seconds 13 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload's short traced replay and reports
per-layer metrics.  Either way the outputs are checked against a reference
computed in the same invocation, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit status is non-zero when a check fails or the program is missing.

Every run is pinned to ``PYTHONHASHSEED=0`` (the process re-executes
itself when it is not), so work counts repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Tuple

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "round_p50_ms": "ms",
    "round_p90_ms": "ms",
    "sim_qps": "req/sim-s",
    "sim_p99_service_ms": "sim-ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _pin_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _percentile(values: List[float], quantile: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(quantile * len(ordered)) - 1, 0)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _context(seed: int, workload: str, **extra) -> dict:
    context = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg": list(os.getloadavg()),
    }
    context.update(extra)
    return context


def _host_cpu_s() -> Tuple[float, float]:
    """Machine-wide (busy, steal) CPU seconds from ``/proc/stat``, or
    zeros where it is unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0.0, 0.0
    tick = os.sysconf("SC_CLK_TCK")
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return (user + nice + system + irq + softirq) / tick, steal / tick


def _drive(workload, drive_round, host=None) -> Tuple[List[Tuple[float, float]], int, dict]:
    """Closed loop over every round: returns (per-round (start, end)
    times, completed requests, CPU use of the section).  With a ``host``
    clock, calibration points run between rounds while the program is
    idle; their time is outside every round."""
    clock = time.perf_counter
    rounds = []
    completed = 0
    cpu_start = time.process_time()
    busy_start, steal_start = _host_cpu_s()
    section_start = clock()
    if host is not None:
        host.calibrate()
    for index in range(workload.rounds):
        started = clock()
        completed += drive_round(index)
        ended = clock()
        rounds.append((started, ended))
        if host is not None and workload.idle_after(index) and host.due(ended):
            host.calibrate()
    section_s = clock() - section_start
    busy_end, steal_end = _host_cpu_s()
    cpu = {
        "section_wall_s": section_s,
        "process_cpu_s": time.process_time() - cpu_start,
        "host_busy_cpu_s": busy_end - busy_start,
        "host_steal_s": steal_end - steal_start,
    }
    return rounds, _completed(workload, completed), cpu


def _completed(workload, counted: int) -> int:
    completed = getattr(workload, "completed", None)
    return completed() if completed is not None else counted


def measure(cls, seed: int, seconds: int, workdir: str) -> dict:
    """The untraced run: end-to-end metrics."""
    started = time.perf_counter()
    workload = cls(seed, cls.rounds_for(seconds), workdir)
    inputs_s = time.perf_counter() - started
    setup_spans = []
    host = hostspeed.HostClock()
    try:
        for attempt in range(cls.setup_repeats):
            if attempt:
                workload.teardown()
            gc.collect()
            host.calibrate()
            started = time.perf_counter()
            workload.setup()
            setup_spans.append((started, time.perf_counter()))
            host.calibrate()
        rounds, completed, cpu = _drive(workload, workload.run_round, host)
        driver_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        state = workload.finish()
    finally:
        workload.teardown()
    worker_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    started = time.perf_counter()
    problems = workload.check()
    check_s = time.perf_counter() - started
    round_s = host.scale(rounds)
    setup_s = host.scale(setup_spans)
    wall_s = sum(round_s)
    raw_round_s = [end - start for start, end in rounds]
    raw_wall_s = sum(raw_round_s)
    attempted = workload.attempted
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_rps": completed / wall_s,
        "round_p50_ms": statistics.median(round_s) * 1000.0,
        "round_p90_ms": _percentile(round_s, 0.90) * 1000.0,
        "sim_qps": completed / state["makespan_s"] if state["makespan_s"] else 0.0,
        "sim_p99_service_ms": state["p99_service_s"] * 1000.0,
        "success_ratio": completed / attempted,
        "peak_rss_mb": max(driver_rss_kb, worker_rss_kb) / 1024.0,
    }
    context = _context(
        seed,
        cls.name,
        rounds=workload.rounds,
        round_samples=len(round_s),
        round_samples_beyond_p90=len(round_s) - math.ceil(0.9 * len(round_s)),
        host_speed=host.host_speed(),
        calibration_points=len(host.times),
        raw_setup_s=statistics.median(end - start for start, end in setup_spans),
        raw_throughput_rps=completed / raw_wall_s,
        raw_round_p50_ms=statistics.median(raw_round_s) * 1000.0,
        raw_round_p90_ms=_percentile(raw_round_s, 0.90) * 1000.0,
        setup_samples=[round(value, 4) for value in setup_s],
        inputs_s=inputs_s,
        check_s=check_s,
        measured_wall_s=raw_wall_s,
        wall_cpu_ratio=_ratio(cpu["section_wall_s"], cpu["process_cpu_s"]),
        driver_peak_rss_mb=driver_rss_kb / 1024.0,
        worker_peak_rss_mb=worker_rss_kb / 1024.0,
        shed_ratio=state["shed_ratio"],
        cache_hit_rate=state["cache_hit_rate"],
        write_amplification=state["write_amplification"],
        **cpu,
    )
    for key in ("schools", "master_actions"):
        if key in state:
            context[key] = state[key]
    if "recovery" in state:
        context["recoveries"] = state["recovery"]["recoveries"]
        context["recovery_s"] = state["recovery"]["recovery_seconds_total"]
    return {
        "metrics": {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
        "attempted": attempted,
        "failed": attempted - completed,
        "problems": problems,
        "context": context,
    }


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------


def _source_digest() -> str:
    """Digest of the program and benchmark sources (count-drift key)."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def trace(cls, seed: int, workdir: str) -> dict:
    """The traced run: per-layer metrics of a short fixed replay."""
    import spans
    from repro.bigtable.cost import OpKind

    rounds = cls.trace_rounds
    untraced = cls(seed, rounds, workdir)
    untraced.setup()
    try:
        untraced_s = sum(end - start for start, end in _drive(untraced, untraced.run_round)[0])
    finally:
        untraced.teardown()

    trace_dir = os.path.join(workdir, "spans")
    os.makedirs(trace_dir)
    recorder = spans.RECORDER
    installation = spans.install(trace_dir)
    try:
        workload = cls(seed, rounds, workdir)
        workload.setup()
        try:
            drive_round = spans.make_wrapper(
                workload.run_round,
                recorder.span_name("bench.driver", "round"),
                "bench.driver",
                "round",
            )
            recorder.clear()
            recorder.active = True
            window_start = time.perf_counter()
            try:
                round_spans, counted, _ = _drive(workload, drive_round)
            finally:
                window_end = time.perf_counter()
                recorder.active = False
            traced_s = sum(end - start for start, end in round_spans)
            parent_chunk = recorder.chunk()
            state = workload.finish()
            cost = workload.counter().snapshot()
        finally:
            workload.teardown()
    finally:
        installation.restore()
    problems = workload.check()

    window = (window_start, window_end)
    breakdown = spans.Breakdown()
    breakdown.add_chunk(
        parent_chunk, list(recorder.names), window, counts_in_window=True
    )
    breakdown.add_worker_files(trace_dir, window)
    counts = breakdown.counts
    attempted = workload.attempted
    updates = counts.get("core.update.updates", 0)

    metrics: Dict[str, Tuple[float, str]] = {}
    layer_totals = breakdown.layer_totals()
    all_self = sum(secs for _, secs in layer_totals.values())
    for layer, (calls, secs) in layer_totals.items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (secs, "s")
        metrics[f"{layer}.self_share"] = (_ratio(secs, all_self), "ratio")
    pipeline = state.get("pipeline", {})
    recovery = state.get("recovery", {})
    actions = state.get("master_actions", (0, 0, 0))
    extras = {
        "server.scaleout.wait_s": (
            breakdown.function_total_s("server.rpc:RpcConnection.wait"), "s"),
        "server.scaleout.blocking_waits_per_round": (
            _ratio(pipeline.get("blocking_waits", 0), rounds), "waits/round"),
        "server.scaleout.barrier_drains": (pipeline.get("barrier_drains", 0), "count"),
        "server.rpc.wire_bytes_per_req": (
            _ratio(counts.get("server.rpc.wire_bytes", 0), attempted), "B/req"),
        "server.rpc.frames": (counts.get("server.rpc.frames", 0), "count"),
        "server.supervisor.recoveries": (recovery.get("recoveries", 0), "count"),
        "server.supervisor.recovery_s": (
            recovery.get("recovery_seconds_total", 0.0), "s"),
        "server.supervisor.lossless_ratio": (
            _ratio(recovery.get("lossless_recoveries", 0),
                   recovery.get("recoveries", 0)), "ratio"),
        "server.master.migrations": (actions[0], "count"),
        "server.master.replications": (actions[1], "count"),
        "core.update.shed_ratio": (
            _ratio(counts.get("core.update.shed", 0), updates), "ratio"),
        "core.nn_search.rows_per_result": (
            _ratio(counts.get("core.nn_search.rows_read", 0),
                   counts.get("core.nn_search.results", 0)), "rows/result"),
        "core.flag.hit_ratio": (
            _ratio(counts.get("core.flag.hits", 0),
                   counts.get("core.flag.lookups", 0)), "ratio"),
        "core.clustering.merges": (counts.get("core.clustering.merges", 0), "count"),
        "bigtable.table.rows_read": (counts.get("bigtable.table.rows_read", 0), "count"),
        "bigtable.scan.cache_hit_rate": (
            _ratio(counts.get("bigtable.scan.hits", 0),
                   counts.get("bigtable.scan.probes", 0)), "ratio"),
        "bigtable.lsm.write_amplification": (state["write_amplification"], "ratio"),
        "bigtable.lsm.runs": (state["runs"], "count"),
        "bigtable.cost.storage_rpcs_per_req": (
            _ratio(cost.storage_rpc_count(), attempted), "rpc/req"),
        "bigtable.cost.sim_storage_s_per_req": (
            _ratio(cost.simulated_seconds, attempted), "sim-s/req"),
        "disk.store.bytes_per_update": (
            _ratio(counts.get("disk.store.bytes", 0), updates), "B/update"),
        "disk.store.state_blob_bytes_per_round": (
            _ratio(counts.get("disk.store.state_blob_bytes", 0), rounds), "B/round"),
    }
    metrics.update(extras)
    for kind in OpKind:
        metrics[f"bigtable.cost.ops.{kind.value}"] = (
            cost.counts.get(kind, 0) + cost.durability_counts.get(kind, 0), "count")

    exact = {
        name: value
        for name, (value, unit) in metrics.items()
        if unit == "count"
    }
    drift = _count_drift(cls.name, seed, exact)
    metrics["trace.count_drift"] = (len(drift), "count")
    metrics["trace.spans"] = (breakdown.spans, "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s), "ratio")

    top = sorted(breakdown.self_s.items(), key=lambda item: -item[1])[:15]
    context = _context(
        seed,
        cls.name,
        rounds=rounds,
        traced_wall_s=traced_s,
        untraced_wall_s=untraced_s,
        worker_processes_traced=len(breakdown.worker_pids),
        count_drift=drift,
        top_functions=[[name, round(secs, 4), breakdown.calls[name]] for name, secs in top],
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": attempted - counted,
        "problems": problems,
        "context": context,
    }


def _count_drift(workload: str, seed: int, counts: Dict[str, float]) -> List[str]:
    """Compare exact work counts with an earlier traced run of the same
    code, workload and seed; the first run records them."""
    record_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, f"counts-{workload}-{seed}-{_source_digest()}.json")
    if not os.path.exists(path):
        with open(path, "w") as handle:
            json.dump(counts, handle, indent=1, sort_keys=True)
        return []
    with open(path) as handle:
        earlier = json.load(handle)
    return sorted(
        f"{name}: {earlier.get(name)} -> {value}"
        for name, value in counts.items()
        if earlier.get(name) != value
    )


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=13)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_hash_seed()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    tempfile.tempdir = workdir
    try:
        if args.trace:
            outcome = trace(cls, args.seed, workdir)
        else:
            outcome = measure(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not outcome["problems"]
    print("context " + json.dumps(outcome["context"], sort_keys=True))
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
