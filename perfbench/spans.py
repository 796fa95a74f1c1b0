"""Span tracing for the benchmark's traced run.

Every layer is timed from outside: :func:`install` replaces public entry
points of the ``repro`` modules with wrappers defined here, and
:meth:`Installation.restore` puts the originals back.  No file of the
program changes.

A wrapper records one span per call -- the function it wraps, start, end
and the span that was open when it was called -- into flat arrays held in
memory.  Spans are analysed when the run ends: a span's self time is its
duration minus the durations of its direct children, and a layer's self
time is the sum over the spans of its functions.

Forked workers inherit the wrappers.  A worker clears the inherited
buffers when it starts, appends its spans to ``<trace dir>/spans-<pid>.bin``
after every frame it serves, and once more when ``worker_main`` returns,
so both sides of the RPC boundary get the same breakdown and a SIGKILLed
worker (chaos kills land while it is idle) loses nothing it finished.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import os
import pickle
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.update import UpdateOutcome

#: Layers in report order.  ``bench.driver`` is the benchmark's own round
#: loop; the rest name the ``repro`` module that owns the wrapped calls.
LAYERS = (
    "bench.driver",
    "server.cluster",
    "server.scaleout",
    "codec",
    "server.rpc",
    "server.worker",
    "server.supervisor",
    "server.master",
    "core.update",
    "core.nn_search",
    "core.flag",
    "core.clustering",
    "tables.location",
    "tables.spatial_index",
    "tables.affiliation",
    "bigtable.table",
    "bigtable.scan",
    "bigtable.lsm",
    "bigtable.cost",
    "disk.store",
)

_PUBLIC = object()  # marker: every public plain method of the class

#: ``(layer, module, [qualified names])`` of the wrapped entry points.
TARGETS = (
    ("server.cluster", "repro.server.cluster", [
        "ServerCluster.submit_update",
        "ServerCluster.submit_update_batch",
        "ServerCluster.submit_query_batch",
        "ServerCluster.submit_nn_query",
    ]),
    ("server.cluster", "repro.server.frontend", [
        "FrontendServer.handle_update",
        "FrontendServer.handle_update_batch",
        "FrontendServer.handle_nn_query",
        "FrontendServer.handle_query_batch",
    ]),
    ("server.scaleout", "repro.server.scaleout", [
        "ScaleOutCluster.enqueue_update_batch",
        "ScaleOutCluster.drain_update_window",
        "ScaleOutCluster.submit_query_batch",
        "ScaleOutCluster.rebalance",
        "ScaleOutCluster.apply_chaos_event",
        "ScaleOutCluster.heal_dead_workers",
    ]),
    ("codec", "repro.codec.wire", [
        "encode_update_batch_columnar",
        "decode_update_batch_columnar",
        "encode_query_batch_columnar",
        "decode_query_batch_columnar",
        "encode_result_compact",
        "decode_result_compact",
        "NeighborStreamEncoder.encode",
        "NeighborStreamDecoder.decode",
    ]),
    ("server.rpc", "repro.server.rpc", [
        "encode_frame",
        "RpcConnection.send_request",
        "RpcConnection.send_requests",
        "RpcConnection.queue_request",
        "RpcConnection.flush_queued",
        "RpcConnection.wait",
    ]),
    ("server.worker", "repro.server.worker", [
        "dispatch_request",
        ("ShardService", _PUBLIC),
    ]),
    ("server.supervisor", "repro.server.supervisor", [
        "Supervisor.handle_worker_failure",
    ]),
    ("server.master", "repro.server.master", [
        "TabletMaster.rebalance",
        "TabletMaster.migrate_tablet",
        "TabletMaster.replicate_tablet",
        "TabletMaster.fail_over",
    ]),
    ("core.update", "repro.core.update", [
        "UpdateProcessor.process",
        "UpdateProcessor.process_batch",
    ]),
    ("core.nn_search", "repro.core.nn_search", [
        "NearestNeighborSearcher.query",
        "NearestNeighborSearcher.query_many",
    ]),
    ("core.flag", "repro.core.flag", ["FlagTuner.best_level"]),
    ("core.clustering", "repro.core.clustering", [
        "SchoolClusterer.cluster_due",
        "SchoolClusterer.cluster_all",
    ]),
    ("tables.location", "repro.tables.location_table", [
        ("LocationTable", _PUBLIC),
    ]),
    ("tables.spatial_index", "repro.tables.spatial_index_table", [
        ("SpatialIndexTable", _PUBLIC),
    ]),
    ("tables.affiliation", "repro.tables.affiliation_table", [
        ("AffiliationTable", _PUBLIC),
    ]),
    ("bigtable.table", "repro.bigtable.table", [
        "Table.batch_read",
        "Table.scan",
        "Table.execute_plan",
        "Table.write",
        "Table.batch_write",
        "Table.read_latest",
    ]),
    ("bigtable.scan", "repro.bigtable.scan", [
        "BlockCache.probe",
        "Scanner.execute",
        "Scanner.execute_range",
    ]),
    ("bigtable.lsm", "repro.bigtable.tablet", ["Tablet.flush", "Tablet.compact"]),
    ("bigtable.cost", "repro.bigtable.cost", [
        "OpCounter.record",
        "OpCounter.record_many",
        "OpCounter.record_durability",
    ]),
    ("disk.store", "repro.disk.store", [
        "DiskTableStore.journal_append",
        "DiskTableStore.journal_sync",
        "DiskTableStore.checkpoint",
        "write_state_blob",
    ]),
)


class Recorder:
    """Flat in-memory span buffers plus named work counters."""

    def __init__(self) -> None:
        self.active = False
        self.trace_dir: Optional[str] = None
        self.root_pid = os.getpid()
        #: Span name table: ``"<layer>:<qualified name>"`` per id.
        self.names: List[str] = []
        #: Whether this process's span file already holds the name table.
        self.names_written = False
        self.clear()

    def clear(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []
        #: Open-span depth per layer, so a counter can tell whether it
        #: fires underneath a given layer (rows read for NN results).
        self.open_depth: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span_name(self, layer: str, qualname: str) -> int:
        self.names.append(f"{layer}:{qualname}")
        return len(self.names) - 1

    def chunk(self) -> dict:
        """The buffered spans and counters as one picklable record."""
        return {
            "pid": os.getpid(),
            "flushed_at": time.perf_counter(),
            "names": None if self.names_written else list(self.names),
            "name_ids": self.name_ids.tobytes(),
            "parents": self.parents.tobytes(),
            "starts": self.starts.tobytes(),
            "ends": self.ends.tobytes(),
            "counts": dict(self.counts),
        }

    def flush_to_file(self) -> None:
        """Append the buffer to this process's span file and clear it."""
        if self.trace_dir is None or (not self.starts and not self.counts):
            return
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.bin")
        with open(path, "ab") as handle:
            pickle.dump(self.chunk(), handle, pickle.HIGHEST_PROTOCOL)
        self.names_written = True
        self.clear()


RECORDER = Recorder()

#: Per-function post-call hooks: ``hook(recorder, args, result, before)``
#: where ``before`` is what the matching pre-call hook returned.
Hook = Tuple[Optional[Callable], Callable]


def _flag_pre(args):
    return args[0].stats.cache_hits


def _flag_post(rec, args, result, before):
    rec.count("core.flag.lookups")
    if args[0].stats.cache_hits > before:
        rec.count("core.flag.hits")


def _update_post(rec, args, result, before):
    results = result if isinstance(result, list) else [result]
    rec.count("core.update.updates", len(results))
    rec.count(
        "core.update.shed",
        sum(1 for item in results if item.outcome is UpdateOutcome.SHED),
    )


def _nn_post(rec, args, result, before):
    # query_many calls query per request; count each result list once.
    if rec.open_depth["core.nn_search"] == 0:
        if result and isinstance(result[0], list):
            rec.count("core.nn_search.results", sum(len(item) for item in result))
        else:
            rec.count("core.nn_search.results", len(result))


def _rows_post(rec, args, result, before):
    rows = 0 if result is None else len(result)
    rec.count("bigtable.table.rows_read", rows)
    if rec.open_depth["core.nn_search"] > 0:
        rec.count("core.nn_search.rows_read", rows)


def _read_latest_post(rec, args, result, before):
    _rows_post(rec, args, None if result is None else [result], before)


def _probe_post(rec, args, result, before):
    rec.count("bigtable.scan.probes")
    if result:
        rec.count("bigtable.scan.hits")


def _clustering_post(rec, args, result, before):
    if rec.open_depth["core.clustering"] == 0:
        rec.count("core.clustering.merges", result.merges)


def _journal_pre(args):
    return args[0].journal_bytes


def _journal_post(rec, args, result, before):
    rec.count("disk.store.bytes", args[0].journal_bytes - before)


def _checkpoint_pre(args):
    return args[0].run_bytes + args[0].manifest_bytes


def _checkpoint_post(rec, args, result, before):
    store = args[0]
    rec.count("disk.store.bytes", store.run_bytes + store.manifest_bytes - before)


def _state_blob_post(rec, args, result, before):
    rec.count("disk.store.state_blob_bytes", result)


def _frame_post(rec, args, result, before):
    rec.count("server.rpc.frames")
    rec.count("server.rpc.wire_bytes", len(result))


HOOKS: Dict[str, Hook] = {
    "FlagTuner.best_level": (_flag_pre, _flag_post),
    "UpdateProcessor.process": (None, _update_post),
    "UpdateProcessor.process_batch": (None, _update_post),
    "NearestNeighborSearcher.query": (None, _nn_post),
    "NearestNeighborSearcher.query_many": (None, _nn_post),
    "Table.batch_read": (None, _rows_post),
    "Table.scan": (None, _rows_post),
    "Table.execute_plan": (None, _rows_post),
    "Table.read_latest": (None, _read_latest_post),
    "BlockCache.probe": (None, _probe_post),
    "SchoolClusterer.cluster_due": (None, _clustering_post),
    "SchoolClusterer.cluster_all": (None, _clustering_post),
    "DiskTableStore.journal_append": (_journal_pre, _journal_post),
    "DiskTableStore.checkpoint": (_checkpoint_pre, _checkpoint_post),
    "write_state_blob": (None, _state_blob_post),
    "encode_frame": (None, _frame_post),
}


def make_wrapper(fn, name_id: int, layer: str, qualname: str):
    """A span-recording stand-in for ``fn`` (a no-op pass-through while
    the recorder is inactive)."""
    rec = RECORDER
    clock = time.perf_counter
    pre, post = HOOKS.get(qualname, (None, None))
    is_dispatch = qualname == "dispatch_request"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        before = pre(args) if pre is not None else None
        stack = rec.stack
        index = len(rec.starts)
        rec.name_ids.append(name_id)
        rec.parents.append(stack[-1] if stack else -1)
        rec.starts.append(clock())
        rec.ends.append(0.0)
        stack.append(index)
        depth = rec.open_depth
        depth[layer] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.ends[index] = clock()
            stack.pop()
            depth[layer] -= 1
        if post is not None:
            post(rec, args, result, before)
        if is_dispatch and not stack and os.getpid() != rec.root_pid:
            rec.flush_to_file()
        return result

    return traced


def _public_methods(cls) -> List[str]:
    names = []
    for attr, value in vars(cls).items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        names.append(attr)
    return names


class Installation:
    """The replaced attributes, so :meth:`restore` can put them back."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced = []


def install(trace_dir: str) -> Installation:
    """Wrap every target, including worker entry so forks trace too."""
    rec = RECORDER
    rec.trace_dir = trace_dir
    rec.root_pid = os.getpid()
    installation = Installation()
    for layer, module_name, entries in TARGETS:
        module = importlib.import_module(module_name)
        qualnames: List[str] = []
        for entry in entries:
            if isinstance(entry, tuple):
                class_name, _ = entry
                qualnames.extend(
                    f"{class_name}.{attr}"
                    for attr in _public_methods(getattr(module, class_name))
                )
            else:
                qualnames.append(entry)
        for qualname in qualnames:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr] if owner_name else getattr(module, attr)
            if inspect.isgeneratorfunction(original):
                raise TypeError(f"cannot time generator {module_name}.{qualname}")
            wrapper = make_wrapper(
                original, rec.span_name(layer, qualname), layer, qualname
            )
            installation.replace(owner, attr, wrapper)
            if not owner_name:
                # ``from module import name`` copies elsewhere in the program.
                for other_name, other in list(sys.modules.items()):
                    if (
                        other is not module
                        and other_name.startswith("repro")
                        and getattr(other, attr, None) is original
                    ):
                        installation.replace(other, attr, wrapper)
    process_backend = importlib.import_module("repro.bigtable.process_backend")
    original_main = process_backend.worker_main

    def traced_worker_main(sock):
        rec.clear()
        rec.names_written = False
        rec.active = True
        try:
            original_main(sock)
        finally:
            rec.flush_to_file()

    installation.replace(process_backend, "worker_main", traced_worker_main)
    return installation


# --------------------------------------------------------------------------
# Analysis
# --------------------------------------------------------------------------


def _self_times(
    name_ids: Sequence[int],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> List[float]:
    durations = [end - start for start, end in zip(starts, ends)]
    child_time = [0.0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[index]
    return [total - inner for total, inner in zip(durations, child_time)]


class Breakdown:
    """Per-function and per-layer totals merged over every process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.spans = 0
        self.worker_pids: set = set()

    def add_chunk(
        self,
        chunk: dict,
        names: List[str],
        window: Tuple[float, float],
        counts_in_window: bool = False,
    ) -> None:
        """Fold one span chunk in, keeping only trees rooted inside the
        measured window (worker set-up and teardown fall outside).  A
        worker chunk's counters count when it was flushed inside the
        window; ``counts_in_window`` says the caller recorded them there."""
        name_ids = array("i")
        name_ids.frombytes(chunk["name_ids"])
        parents = array("i")
        parents.frombytes(chunk["parents"])
        starts = array("d")
        starts.frombytes(chunk["starts"])
        ends = array("d")
        ends.frombytes(chunk["ends"])
        low, high = window
        inside = [False] * len(starts)
        for index, parent in enumerate(parents):
            inside[index] = (
                inside[parent] if parent >= 0 else low <= starts[index] <= high
            )
        selfs = _self_times(name_ids, parents, starts, ends)
        for index, name_id in enumerate(name_ids):
            if not inside[index]:
                continue
            name = names[name_id]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[index]
            self.total_s[name] = (
                self.total_s.get(name, 0.0) + ends[index] - starts[index]
            )
            self.spans += 1
        if counts_in_window or low <= chunk["flushed_at"] <= high:
            for name, amount in chunk["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + amount

    def add_worker_files(self, trace_dir: str, window: Tuple[float, float]) -> None:
        for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.bin"))):
            names: List[str] = []
            with open(path, "rb") as handle:
                while True:
                    try:
                        chunk = pickle.load(handle)
                    except EOFError:
                        break
                    names = chunk["names"] or names
                    self.worker_pids.add(chunk["pid"])
                    self.add_chunk(chunk, names, window)

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for name, calls in self.calls.items():
            layer = name.split(":", 1)[0]
            totals[layer][0] += calls
            totals[layer][1] += self.self_s[name]
        return {layer: (calls, secs) for layer, (calls, secs) in totals.items()}

    def function_total_s(self, name: str) -> float:
        return self.total_s.get(name, 0.0)
