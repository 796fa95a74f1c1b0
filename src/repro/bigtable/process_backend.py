"""Shared-nothing multiprocess storage backends.

:class:`ProcessShardedBackend` satisfies the existing
:class:`~repro.bigtable.backend.ShardedBackend` /
:class:`~repro.bigtable.backend.CacheAwareBackend` protocols by federating
a fixed set of shard groups, each a complete MOIST stack running inside a
worker process behind the :mod:`repro.server.rpc` framing.
:class:`LocalShardedBackend` runs the *same* shard services in-process with
zero RPC — the baseline every scale-out run must match bit for bit.

Determinism model: the shard count is the unit of determinism, the worker
count is the unit of parallelism.  Shard contents and every per-shard
computation depend only on the :class:`~repro.server.worker.ShardRecipe`;
the parent merges per-shard ledgers, tablet stats and cache tallies in
fixed shard order, so merged simulated seconds, RPC counts and skew
reports are identical at every worker count — and identical between the
process and in-process backends.

Worker lifecycle: :class:`WorkerPool` spawns forked daemon workers over
``socket.socketpair``, health-checks them (ping + liveness), drains
pipelined work and shuts down gracefully (shutdown frame → join →
terminate).  Pools are context managers and register an ``atexit`` hook,
so pytest and ``repro bench`` never leak zombie workers.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import os
import signal
import socket
import struct
import tempfile
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from contextlib import contextmanager

from repro.bigtable.backend import TabletSkew
from repro.bigtable.cost import CostModel, OpCounter, OpCounterSnapshot
from repro.bigtable.lsm import RecoveryReport
from repro.codec.wire import NeighborStreamDecoder
from repro.errors import ConfigurationError, TableNotFoundError, WorkerDiedError
from repro.server import rpc
from repro.server.worker import ShardRecipe, ShardService, worker_main

_UPDATE_RESULT = struct.Struct("!Id")
_MAKESPAN = struct.Struct("!d")


def _child_main(child_sock: socket.socket, parent_sock: socket.socket) -> None:
    # The fork duplicated the parent's end into this process; close it so
    # the pair delivers EOF when either side goes away.
    parent_sock.close()
    worker_main(child_sock)


class WorkerPool:
    """A fixed set of forked worker processes with framed connections.

    Workers are daemons (the OS reaps them if the parent dies hard), and
    the pool registers an ``atexit`` shutdown besides being usable as a
    context manager — belt and braces against zombie processes.
    """

    def __init__(self, num_workers: int, timeout_s: float = 120.0) -> None:
        if num_workers < 1:
            raise ConfigurationError("a worker pool needs at least one worker")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "the process backend needs POSIX fork; use the in-process "
                "backend on this platform"
            )
        self._context = multiprocessing.get_context("fork")
        self.timeout_s = timeout_s
        self.connections: List[rpc.RpcConnection] = []
        self.processes: List[multiprocessing.process.BaseProcess] = []
        self._closed = False
        for _ in range(num_workers):
            process, connection = self._spawn_worker()
            self.connections.append(connection)
            self.processes.append(process)
        atexit.register(self.shutdown)

    def _spawn_worker(
        self, initial_request_id: int = 0
    ) -> Tuple[multiprocessing.process.BaseProcess, rpc.RpcConnection]:
        parent_sock, child_sock = socket.socketpair()
        process = self._context.Process(
            target=_child_main, args=(child_sock, parent_sock), daemon=True
        )
        process.start()
        child_sock.close()
        connection = rpc.RpcConnection(
            parent_sock, self.timeout_s, initial_request_id=initial_request_id
        )
        return process, connection

    @property
    def num_workers(self) -> int:
        return len(self.processes)

    # ------------------------------------------------------------------
    # Supervision hooks
    # ------------------------------------------------------------------
    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Deliver a signal to one worker (chaos injection / supervisor)."""
        process = self.processes[index]
        if process.pid is not None and process.is_alive():
            try:
                os.kill(process.pid, sig)
            except ProcessLookupError:
                pass

    def pause_worker(self, index: int) -> None:
        """SIGSTOP one worker: it stays alive but stops answering, the
        failure mode a ping deadline (not waitpid) has to catch."""
        self.kill_worker(index, signal.SIGSTOP)

    def respawn_worker(self, index: int) -> rpc.RpcConnection:
        """Replace a dead/hung worker with a fresh fork.

        The old process is SIGKILLed first (SIGKILL also fells SIGSTOPped
        workers, which would shrug off SIGTERM) and the replacement's
        connection *continues the old request-id counter*, so retried
        requests keep their original ids for the worker-side dedup window
        and fresh ids never collide with one it already recorded.
        """
        if self._closed:
            raise ConfigurationError("the worker pool is shut down")
        old_process = self.processes[index]
        old_connection = self.connections[index]
        if old_process.is_alive():
            old_process.kill()
        old_process.join(timeout=5.0)
        next_request_id = old_connection.next_request_id
        old_connection.close()
        process, connection = self._spawn_worker(
            initial_request_id=next_request_id
        )
        self.processes[index] = process
        self.connections[index] = connection
        return connection

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Health / drain
    # ------------------------------------------------------------------
    def alive_workers(self) -> List[bool]:
        return [process.is_alive() for process in self.processes]

    def health_check(self) -> None:
        """Ping every worker; raises :class:`WorkerDiedError` on dead or
        unresponsive ones.

        All dead workers are reported in **one** exception — correlated
        failures (an OOM killer sweeping the pool, a crashing shared
        library) would otherwise surface one worker at a time, each
        discovery costing the caller another failed recovery round."""
        if self._closed:
            raise ConfigurationError("the worker pool is shut down")
        dead = [
            index
            for index, process in enumerate(self.processes)
            if not process.is_alive()
        ]
        if dead:
            noun = "worker" if len(dead) == 1 else "workers"
            raise WorkerDiedError(
                f"{noun} {', '.join(str(index) for index in dead)} "
                "not running"
            )
        for connection in self.connections:
            request_id = connection.send_request(0, rpc.OP_PING, b"")
            connection.wait(request_id)

    def drain(self) -> None:
        """Wait until every worker has processed all pipelined requests.

        Workers serve frames FIFO, so a ping answered means everything
        sent before it was already executed.
        """
        self.health_check()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        """Graceful stop: shutdown frame → join → terminate → kill.

        Idempotent under double invocation (``atexit`` + context manager
        both call it; the first run flips ``_closed`` and unregisters the
        atexit hook, the second returns immediately).  The final SIGKILL
        pass reaps SIGSTOPped workers, which ignore both the shutdown
        frame and SIGTERM."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.shutdown)
        for connection in self.connections:
            try:
                connection.send_request(0, rpc.OP_SHUTDOWN, b"")
            except Exception:
                pass
        for process in self.processes:
            process.join(timeout=join_timeout_s)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=join_timeout_s)
        for process in self.processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=join_timeout_s)
        for connection in self.connections:
            connection.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Transport accounting (the bench's serialized-bytes column)
    # ------------------------------------------------------------------
    def bytes_sent(self) -> int:
        return sum(connection.bytes_sent for connection in self.connections)

    def bytes_received(self) -> int:
        return sum(connection.bytes_received for connection in self.connections)

    def frames_sent(self) -> int:
        return sum(connection.frames_sent for connection in self.connections)


class _ReadyResult:
    """Pending-result shim for the in-process client (already computed)."""

    __slots__ = ("_value",)

    def __init__(self, value: Any) -> None:
        self._value = value

    def result(self) -> Any:
        return self._value


class _RemoteResult:
    """One in-flight pipelined request on a worker connection."""

    __slots__ = ("_connection", "_request_id", "_decode")

    def __init__(
        self,
        connection: rpc.RpcConnection,
        request_id: int,
        decode: Callable[[bytes], Any],
    ) -> None:
        self._connection = connection
        self._request_id = request_id
        self._decode = decode

    def result(self) -> Any:
        _opcode, body = self._connection.wait(self._request_id)
        return self._decode(body)


def _decode_update_result(body: bytes) -> Tuple[int, float]:
    return _UPDATE_RESULT.unpack(body)


def _query_decoder(
    decoder: NeighborStreamDecoder, queries: Sequence[object]
) -> Callable[[bytes], Tuple[list, float]]:
    """Decode one query response through the shard's stateful stream
    decoder.  The probe set rides along because the stream never transmits
    distances — the decoder recomputes each one from the query location."""

    def decode(body: bytes) -> Tuple[list, float]:
        (makespan,) = _MAKESPAN.unpack_from(body)
        results = decoder.decode(memoryview(body)[_MAKESPAN.size:], queries)
        return results, makespan

    return decode


class LocalShardClient:
    """In-process shard client: the service runs right here, no RPC.

    The comparison baseline: identical shard computations, zero transport.
    """

    def __init__(self) -> None:
        self.service = ShardService()

    def call(self, method: str, *args, **kwargs) -> Any:
        return getattr(self.service, method)(*args, **kwargs)

    def begin_call(self, method: str, *args, **kwargs) -> _ReadyResult:
        return _ReadyResult(self.call(method, *args, **kwargs))

    def begin_update_batch(self, messages) -> _ReadyResult:
        return _ReadyResult(self.service.update_batch(messages))

    def begin_query_batch(self, queries) -> _ReadyResult:
        return _ReadyResult(self.service.query_batch(queries))

    def close(self) -> None:
        pass


class ProcessShardClient:
    """RPC shard client: requests frame onto one worker's connection.

    ``begin_*`` methods only *send*; collecting the :class:`_RemoteResult`
    later is what gives a scatter round its pipelining — every shard's
    request is on the wire before the first response is read.
    """

    def __init__(self, connection: rpc.RpcConnection, shard_id: int) -> None:
        self.connection = connection
        self.shard_id = shard_id
        #: Client-side twin of the shard service's stateful neighbour
        #: stream encoder.  The pair's dictionaries live per *shard* (one
        #: client object per shard id), so stream state — and therefore
        #: wire bytes — is invariant across worker counts.
        self.neighbor_decoder = NeighborStreamDecoder()

    def call(self, method: str, *args, **kwargs) -> Any:
        return self.begin_call(method, *args, **kwargs).result()

    def begin_call(self, method: str, *args, **kwargs) -> _RemoteResult:
        request_id = self.connection.send_request(
            self.shard_id, rpc.OP_CALL, rpc.encode_call(method, args, kwargs)
        )
        return _RemoteResult(self.connection, request_id, rpc.decode_result)

    def begin_update_batch(self, messages) -> _RemoteResult:
        request_id = self.connection.send_request(
            self.shard_id, rpc.OP_UPDATE_BATCH, rpc.encode_update_batch(messages)
        )
        return _RemoteResult(self.connection, request_id, _decode_update_result)

    def begin_query_batch(self, queries) -> _RemoteResult:
        queries = list(queries)
        request_id = self.connection.send_request(
            self.shard_id, rpc.OP_QUERY_BATCH, rpc.encode_query_batch(queries)
        )
        return _RemoteResult(
            self.connection,
            request_id,
            _query_decoder(self.neighbor_decoder, queries),
        )

    def rebind(self, connection: rpc.RpcConnection) -> None:
        """Point this shard at a respawned worker's connection and reset
        the stateful stream decoder — the fresh worker's service starts a
        fresh encoder, so the decoder must forget the dead one's state."""
        self.connection = connection
        self.neighbor_decoder = NeighborStreamDecoder()

    def close(self) -> None:
        pass


class FederatedTable:
    """Lightweight cross-shard table handle.

    The federation's :meth:`FederatedShardedBackend.table` returns these;
    they answer the aggregate questions callers ask of a table without
    proxying the whole data-plane API (per-row access belongs to the shard
    that owns the row, through its own stack).
    """

    def __init__(self, backend: "FederatedShardedBackend", name: str) -> None:
        self.backend = backend
        self.name = name

    def all_keys(self) -> List[str]:
        merged: List[str] = []
        for keys in self.backend.scatter("table_keys", self.name):
            merged.extend(keys)
        merged.sort()
        return merged

    def row_count(self) -> int:
        return sum(self.backend.scatter("table_row_count", self.name))


class FederatedShardedBackend:
    """``ShardedBackend``/``CacheAwareBackend`` over a set of shard clients.

    Every aggregate is merged in fixed shard order (ledger absorption,
    tablet-stat concatenation, strict-``>`` hottest scans), mirroring the
    single-emulator semantics — the reason merged accounting is
    bit-identical between backends and across worker counts.
    """

    def __init__(self, clients: Sequence[object], recipes: Sequence[ShardRecipe]) -> None:
        if not clients:
            raise ConfigurationError("a federation needs at least one shard")
        if len(clients) != len(recipes):
            raise ConfigurationError("one recipe per shard client required")
        self.clients = list(clients)
        self.recipes = list(recipes)

    @property
    def num_shards(self) -> int:
        return len(self.clients)

    # ------------------------------------------------------------------
    # Scatter helpers
    # ------------------------------------------------------------------
    def scatter(self, method: str, *args, **kwargs) -> List[Any]:
        """Pipelined broadcast of one call; results in shard order."""
        pending = [
            client.begin_call(method, *args, **kwargs) for client in self.clients
        ]
        return [entry.result() for entry in pending]

    def build_all(self) -> List[Dict[str, int]]:
        """Build every shard's indexer from its recipe (pipelined, so a
        multi-worker pool preloads shards in parallel)."""
        pending = [
            client.begin_call("build_indexer", recipe)
            for client, recipe in zip(self.clients, self.recipes)
        ]
        return [entry.result() for entry in pending]

    # ------------------------------------------------------------------
    # StorageBackend protocol
    # ------------------------------------------------------------------
    @property
    def counter(self) -> OpCounter:
        """Merged cluster-wide ledger (snapshot merge in shard order)."""
        merged = OpCounter(model=CostModel())
        for snapshot in self.counter_snapshots():
            merged.absorb_snapshot(snapshot)
        return merged

    def counter_snapshots(self) -> List[OpCounterSnapshot]:
        return self.scatter("counter_snapshot")

    def create_table(self, name: str, families) -> FederatedTable:
        self.scatter("create_table", name, families)
        return FederatedTable(self, name)

    def table(self, name: str) -> FederatedTable:
        if not self.has_table(name):
            raise TableNotFoundError(f"table {name!r} does not exist")
        return FederatedTable(self, name)

    def has_table(self, name: str) -> bool:
        return self.clients[0].call("has_table", name)

    def drop_table(self, name: str) -> None:
        self.scatter("drop_table", name)

    def table_names(self) -> List[str]:
        return self.clients[0].call("table_names")

    def reset_counters(self) -> None:
        self.scatter("reset_counters")

    @property
    def simulated_seconds(self) -> float:
        return sum(self.scatter("simulated_seconds"))

    @property
    def durability_seconds(self) -> float:
        return sum(
            snapshot.durability_seconds for snapshot in self.counter_snapshots()
        )

    def flush(self) -> int:
        return sum(self.scatter("flush"))

    def compact(self, major: bool = False) -> int:
        return sum(self.scatter("compact", major=major))

    def recover(self) -> RecoveryReport:
        tables: List[Any] = []
        for report in self.scatter("recover"):
            tables.extend(report.tables)
        return RecoveryReport(tables=tuple(tables))

    def run_count(self) -> int:
        return sum(self.scatter("run_count"))

    def log_record_count(self) -> int:
        return sum(self.scatter("log_record_count"))

    def write_amplification(self) -> float:
        return self.counter.write_amplification()

    # ------------------------------------------------------------------
    # ShardedBackend protocol
    # ------------------------------------------------------------------
    def tablet_stats(self) -> list:
        stats: List[Any] = []
        for shard_stats in self.scatter("tablet_stats"):
            stats.extend(shard_stats)
        return stats

    def tablet_count(self) -> int:
        return sum(self.scatter("tablet_count"))

    def hot_tablet_share(self) -> float:
        hottest = 0.0
        total = 0.0
        for entry in self.tablet_stats():
            seconds = entry.simulated_seconds
            total += seconds
            if seconds > hottest:
                hottest = seconds
        if total <= 0.0:
            return 1.0
        return hottest / total

    # ------------------------------------------------------------------
    # CacheAwareBackend protocol
    # ------------------------------------------------------------------
    def tablet_skew(self) -> TabletSkew:
        hot_read = 0.0
        hot_write = 0.0
        read_total = 0.0
        write_total = 0.0
        hot_read_tablet: Optional[str] = None
        hot_write_tablet: Optional[str] = None
        for entry in self.tablet_stats():
            read = entry.read_seconds
            write = entry.write_seconds
            read_total += read
            write_total += write
            if read > hot_read:
                hot_read = read
                hot_read_tablet = entry.tablet_id
            if write > hot_write:
                hot_write = write
                hot_write_tablet = entry.tablet_id
        return TabletSkew(
            read_share=hot_read / read_total if read_total > 0.0 else 1.0,
            write_share=hot_write / write_total if write_total > 0.0 else 1.0,
            read_seconds=read_total,
            write_seconds=write_total,
            hot_read_tablet=hot_read_tablet,
            hot_write_tablet=hot_write_tablet,
        )

    def block_cache_stats(self) -> list:
        stats: List[Any] = []
        for shard_stats in self.scatter("block_cache_stats"):
            stats.extend(shard_stats)
        return stats

    def cache_hit_rate(self) -> float:
        hits = 0
        lookups = 0
        for shard_hits, shard_lookups in self.scatter("cache_totals"):
            hits += shard_hits
            lookups += shard_lookups
        if lookups == 0:
            return 0.0
        return hits / lookups

    # ------------------------------------------------------------------
    # Lifecycle / transport
    # ------------------------------------------------------------------
    def serialized_bytes(self) -> int:
        """Bytes moved over the RPC transport (0 for the in-process
        federation — there is no transport)."""
        return 0

    def rpc_frame_count(self) -> int:
        """Request frames sent over the transport (0 in-process)."""
        return 0

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def __enter__(self) -> "FederatedShardedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalShardedBackend(FederatedShardedBackend):
    """The same shard federation executed in-process with zero RPC."""

    def __init__(self, recipes: Sequence[ShardRecipe], build: bool = True) -> None:
        super().__init__([LocalShardClient() for _ in recipes], recipes)
        if build:
            self.build_all()


class ProcessShardedBackend(FederatedShardedBackend):
    """The shard federation with each shard in a forked worker process."""

    def __init__(
        self,
        recipes: Sequence[ShardRecipe],
        num_workers: int = 1,
        timeout_s: float = 120.0,
        build: bool = True,
    ) -> None:
        if num_workers > len(recipes):
            num_workers = len(recipes)
        #: Temporary storage root owned by this backend (the ``disk``
        #: flavour with no caller-provided directory); cleaned on close.
        self._owned_tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self.pool = WorkerPool(num_workers, timeout_s=timeout_s)
        clients = [
            ProcessShardClient(
                self.pool.connections[shard_id % num_workers], shard_id
            )
            for shard_id in range(len(recipes))
        ]
        super().__init__(clients, recipes)
        if build:
            self.build_all()

    @property
    def num_workers(self) -> int:
        return self.pool.num_workers

    def serialized_bytes(self) -> int:
        return self.pool.bytes_sent() + self.pool.bytes_received()

    def rpc_frame_count(self) -> int:
        return self.pool.frames_sent()

    def health_check(self) -> None:
        self.pool.health_check()

    def drain(self) -> None:
        self.pool.drain()

    def worker_of(self, shard_id: int) -> int:
        """The worker index currently hosting one shard."""
        return shard_id % self.pool.num_workers

    def shards_of_worker(self, index: int) -> List[int]:
        """Shard ids hosted by one worker, in shard order."""
        return [
            shard_id
            for shard_id in range(len(self.clients))
            if shard_id % self.pool.num_workers == index
        ]

    def respawn_worker(self, index: int) -> rpc.RpcConnection:
        """Replace one worker process and rebind its shard clients (new
        connection, reset stream decoders).  The caller re-issues
        ``build_indexer`` per shard to restore state — that is the
        supervisor's job, not the transport's."""
        connection = self.pool.respawn_worker(index)
        for shard_id in self.shards_of_worker(index):
            self.clients[shard_id].rebind(connection)
        return connection

    def close(self) -> None:
        self.pool.shutdown()
        if self._owned_tmpdir is not None:
            self._owned_tmpdir.cleanup()
            self._owned_tmpdir = None


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------


def build_recipes(num_shards: int, **recipe_kwargs) -> List[ShardRecipe]:
    """One :class:`ShardRecipe` per shard group, shard ids assigned."""
    if num_shards < 1:
        raise ConfigurationError("num_shards must be >= 1")
    base = ShardRecipe(num_shards=num_shards, shard_id=0, **recipe_kwargs)
    return [base.sibling(shard_id) for shard_id in range(num_shards)]


def make_scaleout_backend(
    backend: str,
    num_shards: int,
    num_workers: int = 1,
    timeout_s: float = 120.0,
    **recipe_kwargs,
) -> FederatedShardedBackend:
    """Build a preloaded shard federation.

    ``backend="inprocess"`` runs every shard in the parent (zero RPC);
    ``backend="process"`` spreads the shards over ``num_workers`` forked
    workers; ``backend="disk"`` is the process backend with every shard
    additionally persisting its tables to real files (under
    ``recipe_kwargs["storage_dir"]``, or a temporary directory owned and
    cleaned up by the backend when none is given).  Same recipes every
    way, so simulated results match bit for bit.
    """
    owned_tmpdir: Optional[tempfile.TemporaryDirectory] = None
    if backend == "disk" and recipe_kwargs.get("storage_dir") is None:
        owned_tmpdir = tempfile.TemporaryDirectory(prefix="moist-disk-")
        recipe_kwargs["storage_dir"] = owned_tmpdir.name
    recipes = build_recipes(num_shards, **recipe_kwargs)
    if backend == "inprocess":
        return LocalShardedBackend(recipes)
    if backend in ("process", "disk"):
        built = ProcessShardedBackend(
            recipes, num_workers=num_workers, timeout_s=timeout_s
        )
        built._owned_tmpdir = owned_tmpdir
        return built
    raise ConfigurationError(
        f"unknown backend {backend!r} "
        "(expected 'inprocess', 'process' or 'disk')"
    )


class _StorageInjectingClient:
    """Shard-client proxy that transparently persists the shard to disk.

    Wraps any shard client and rewrites the two build verbs so the shard's
    state lands in real files under ``storage_dir`` — letting every
    backend-parametrised property suite run its unmodified op vocabulary
    against the ``disk`` flavour.
    """

    def __init__(self, inner: object, storage_dir: str) -> None:
        self._inner = inner
        self.storage_dir = storage_dir

    def _rewrite(self, method: str, args: tuple, kwargs: dict):
        if method == "build_indexer" and args:
            recipe = args[0]
            if recipe.storage_dir is None:
                recipe = dataclasses.replace(
                    recipe, storage_dir=self.storage_dir
                )
            args = (recipe,) + args[1:]
        elif method == "build_table" and "storage_dir" not in kwargs:
            if len(args) < 2:
                kwargs = dict(
                    kwargs,
                    storage_dir=os.path.join(self.storage_dir, "bare-table"),
                )
        return args, kwargs

    def call(self, method: str, *args, **kwargs) -> Any:
        return self.begin_call(method, *args, **kwargs).result()

    def begin_call(self, method: str, *args, **kwargs):
        args, kwargs = self._rewrite(method, args, kwargs)
        return self._inner.begin_call(method, *args, **kwargs)

    def begin_update_batch(self, messages):
        return self._inner.begin_update_batch(messages)

    def begin_query_batch(self, queries):
        return self._inner.begin_query_batch(queries)

    def close(self) -> None:
        self._inner.close()


@contextmanager
def single_shard_client(
    backend: str, recipe: Optional[ShardRecipe] = None, timeout_s: float = 120.0
) -> Iterator[object]:
    """One shard client for the cross-backend property suites.

    Yields a :class:`LocalShardClient`, a :class:`ProcessShardClient`
    backed by a freshly spawned (and reliably shut down) single worker, or
    — for ``backend="disk"`` — that process client wrapped in a
    :class:`_StorageInjectingClient` over a temporary storage directory,
    so the shard persists real bytes; when ``recipe`` is given the shard's
    indexer is built before yielding.
    """
    if backend == "inprocess":
        client: object = LocalShardClient()
        if recipe is not None:
            client.call("build_indexer", recipe)
        yield client
    elif backend == "process":
        with WorkerPool(1, timeout_s=timeout_s) as pool:
            client = ProcessShardClient(pool.connections[0], 0)
            if recipe is not None:
                client.call("build_indexer", recipe)
            yield client
    elif backend == "disk":
        with tempfile.TemporaryDirectory(prefix="moist-disk-") as tmpdir:
            with WorkerPool(1, timeout_s=timeout_s) as pool:
                client = _StorageInjectingClient(
                    ProcessShardClient(pool.connections[0], 0), tmpdir
                )
                if recipe is not None:
                    client.call("build_indexer", recipe)
                yield client
    else:
        raise ConfigurationError(
            f"unknown backend {backend!r} "
            "(expected 'inprocess', 'process' or 'disk')"
        )
