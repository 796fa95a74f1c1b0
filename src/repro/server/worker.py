"""Shard workers: one complete MOIST stack per shard group.

The scale-out execution model is shared-nothing over a *fixed* number of
logical shard groups.  Each shard group hosts a full, unmodified stack —
a :class:`~repro.bigtable.emulator.BigtableEmulator`, a
:class:`~repro.core.moist.MoistIndexer`, a
:class:`~repro.server.cluster.ServerCluster` of front-ends and (optionally)
a :class:`~repro.server.master.TabletMaster` — built deterministically from
a :class:`ShardRecipe`.  Updates route to the single shard owning the
object id; NN query batches broadcast to every shard and merge top-k on
the client side.

Worker *processes* are mere execution vehicles: ``shard → worker`` is
``shard_id % num_workers``, and no per-shard computation depends on which
worker ran it, so results are worker-count-independent by construction —
the determinism the acceptance criteria demand.  The same
:class:`ShardService` runs in-process (zero RPC) for the baseline backend.

``ShardService`` is the complete worker-side verb set: the data plane
(batched updates/queries via the compact opcodes), the control plane
(migration, replication, failover, rebalance, fault injection), storage
durability (flush/compact/recover), ledger and metrics extraction, the
state/NN signatures the losslessness property suites compare, and a bare
:class:`~repro.bigtable.table.Table` scenario used by the cross-process
crash-recovery property tests.
"""

from __future__ import annotations

import os
import socket
import struct
from collections import OrderedDict
from dataclasses import dataclass
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.codec.wire import NeighborStreamEncoder
from repro.core.config import MoistConfig
from repro.errors import ConfigurationError, RpcError, StaleRequestError
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.cluster import ServerCluster
from repro.server.master import MasterOptions, TabletMaster

_UPDATE_RESULT = struct.Struct("!Id")  # processed, makespan
_MAKESPAN = struct.Struct("!d")

#: Accounting-checkpoint filename inside a shard's storage directory.
STATE_BLOB_NAME = "SHARD_STATE.bin"

#: ``CALL`` verbs that cannot change shard state.  Every other verb (and
#: every data-plane batch) runs through the exactly-once dedup path, which
#: re-checkpoints the accounting soft state when the recipe asks for
#: durable accounting.
_READ_ONLY_VERBS = frozenset(
    {
        "ping",
        "accounting_state",
        "metrics",
        "makespan",
        "counter_snapshot",
        "simulated_seconds",
        "run_count",
        "log_record_count",
        "tablet_stats",
        "tablet_count",
        "block_cache_stats",
        "cache_totals",
        "server_index_for_tablet",
        "alive_server_indices",
        "servers_alive",
        "server_requests",
        "service_time_samples",
        "state_signature",
        "full_row_signature",
        "has_table",
        "table_names",
        "table_keys",
        "table_row_count",
        "table_state",
    }
)


def shard_of(object_id: str, num_shards: int) -> int:
    """The shard group owning one object id (stable hash affinity)."""
    if num_shards <= 1:
        return 0
    return crc32(object_id.encode("utf-8")) % num_shards


@dataclass(frozen=True)
class ShardRecipe:
    """Deterministic build instructions for one shard group's stack.

    A recipe fully determines the shard's preloaded state: the preload
    consumes the seeded rng identically for *every* object index (matching
    :func:`repro.experiments.common.uniform_leader_indexer` draw for draw)
    and applies only the updates whose id hashes to this shard — so shard
    contents depend on ``(seed, num_objects, num_shards, shard_id)`` and on
    nothing else, least of all the worker count.  With ``num_shards=1`` the
    shard is exactly the plain single-process indexer.
    """

    num_objects: int
    num_shards: int = 1
    shard_id: int = 0
    seed: int = 17
    region_size: float = 1000.0
    storage_level: int = 12
    num_servers: int = 1
    request_overhead_s: float = 12e-6
    contention_alpha: float = 0.025
    record_service_times: bool = False
    with_master: bool = False
    master_options: Optional[MasterOptions] = None
    tablet_options: Optional[object] = None
    #: Base directory for real-bytes persistence; each shard stores its
    #: tables under ``<storage_dir>/shard-<id>``.  When the directory holds
    #: a checkpoint from a previous process, ``build_indexer`` *restores*
    #: the shard instead of preloading it.
    storage_dir: Optional[str] = None
    #: Checkpoint the shard's *accounting* soft state (ledgers, caches,
    #: server metrics, the exactly-once dedup window) to
    #: ``SHARD_STATE.bin`` after every mutating verb.  The durable LSM
    #: state already survives SIGKILL bit-identically (PR 7); with this on,
    #: a supervised respawn also restores every simulated tally, so a
    #: killed-and-healed run reports byte-identically to a fault-free one.
    durable_accounting: bool = False
    #: Depth of the exactly-once dedup window.  The pipelined engine may
    #: have up to ``W`` update batches in flight per worker; a heal-then-
    #: resend replays the *whole* window with original pinned ids, so the
    #: window must remember at least ``W`` applied requests per shard.
    dedup_window: int = 8
    #: Opt-in idle-window maintenance: after each applied update batch —
    #: while the pipelined parent is busy encoding the next one — flush any
    #: memtable already at this fraction of its flush threshold, so the
    #: *next* foreground batch stops paying the minor-flush stall mid-
    #: apply.  Deterministic (a pure function of the per-shard batch
    #: stream), hence identical across window sizes, worker counts and
    #: backends.  ``None`` disables the hint entirely.
    idle_flush_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_objects < 0:
            raise ConfigurationError("num_objects must be >= 0")
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if not 0 <= self.shard_id < self.num_shards:
            raise ConfigurationError(
                f"shard_id {self.shard_id} outside [0, {self.num_shards})"
            )
        if self.num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")
        if self.dedup_window < 1:
            raise ConfigurationError("dedup_window must be >= 1")
        if self.idle_flush_fraction is not None and not (
            0.0 < self.idle_flush_fraction <= 1.0
        ):
            raise ConfigurationError(
                "idle_flush_fraction must be in (0.0, 1.0]"
            )

    def sibling(self, shard_id: int) -> "ShardRecipe":
        """The same recipe for another shard id."""
        return ShardRecipe(
            num_objects=self.num_objects,
            num_shards=self.num_shards,
            shard_id=shard_id,
            seed=self.seed,
            region_size=self.region_size,
            storage_level=self.storage_level,
            num_servers=self.num_servers,
            request_overhead_s=self.request_overhead_s,
            contention_alpha=self.contention_alpha,
            record_service_times=self.record_service_times,
            with_master=self.with_master,
            master_options=self.master_options,
            tablet_options=self.tablet_options,
            storage_dir=self.storage_dir,
            durable_accounting=self.durable_accounting,
            dedup_window=self.dedup_window,
            idle_flush_fraction=self.idle_flush_fraction,
        )

    @property
    def shard_storage_dir(self) -> Optional[str]:
        """This shard's private storage directory, or ``None``."""
        if self.storage_dir is None:
            return None
        return os.path.join(self.storage_dir, f"shard-{self.shard_id:02d}")


def _has_disk_checkpoint(storage_dir: str) -> bool:
    """True when a previous process left at least one table checkpoint
    under this shard directory (restore instead of preload)."""
    if not os.path.isdir(storage_dir):
        return False
    for entry in os.listdir(storage_dir):
        if os.path.exists(os.path.join(storage_dir, entry, "MANIFEST.bin")):
            return True
    return False


def full_row_signature(indexer) -> tuple:
    """State fingerprint down to full row contents — the strongest
    comparator the losslessness suites use (canonical definition; the
    property tests import this one)."""
    emulator = indexer.emulator
    out = []
    for name in emulator.table_names():
        table = emulator.table(name)
        for key in table.all_keys():
            out.append((name, key, repr(table.read_row(key, _charge=False))))
    return tuple(out)


class ShardService:
    """The worker-side verb set for one shard group.

    Every public method is remotely callable through the generic ``CALL``
    opcode; ``update_batch``/``query_batch`` additionally serve the compact
    binary opcodes.  One instance runs per shard id, inside a worker
    process (RPC) or inside the parent (the in-process baseline) — same
    code either way, which is what makes the two backends bit-identical.
    """

    def __init__(self) -> None:
        self.recipe: Optional[ShardRecipe] = None
        self.indexer = None
        self.cluster: Optional[ServerCluster] = None
        self.master: Optional[TabletMaster] = None
        self._bare_table = None
        #: Per-shard stateful neighbour stream encoder (its client-side
        #: decoder twin lives in the shard client).  Keeping the state per
        #: *shard* — never per connection or worker — is what makes wire
        #: bytes invariant across worker counts.
        self.neighbor_encoder = NeighborStreamEncoder()
        #: Exactly-once dedup window: ``request_id -> (opcode, recorded
        #: result)`` for the most recent state-changing requests, in
        #: application order.  The pipelined parent keeps up to ``W``
        #: batches in flight per worker and a heal-then-resend replays the
        #: *whole* window with original pinned ids, so the window holds
        #: ``recipe.dedup_window >= W`` entries — a replayed id anywhere in
        #: the window returns its recorded result without touching state.
        self._applied_window: "OrderedDict[int, Tuple[int, Any]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def ping(self) -> str:
        return "pong"

    def build_indexer(self, recipe: ShardRecipe) -> Dict[str, int]:
        """Build this shard's stack from a recipe (idempotence guard)."""
        if self.indexer is not None:
            raise ConfigurationError("this shard already built its indexer")
        from repro.baselines.no_school import build_no_school_indexer

        config = MoistConfig(
            world=BoundingBox(0.0, 0.0, recipe.region_size, recipe.region_size),
            storage_level=recipe.storage_level,
        )
        storage_dir = recipe.shard_storage_dir
        restoring = storage_dir is not None and _has_disk_checkpoint(storage_dir)
        accounting = None
        restore_seq_bounds = None
        if restoring and recipe.durable_accounting:
            from repro.disk.store import read_state_blob

            accounting = read_state_blob(
                os.path.join(storage_dir, STATE_BLOB_NAME)
            )
            if accounting is not None:
                # Cap journal replay at the last *acked* sequence per table:
                # anything past it was never acknowledged to the parent, so
                # the supervisor's retry re-sends it exactly once.
                restore_seq_bounds = dict(accounting["table_seqs"])
        indexer = build_no_school_indexer(
            config,
            tablet_options=recipe.tablet_options,
            storage_dir=storage_dir,
            restore_seq_bounds=restore_seq_bounds,
        )
        if restoring:
            # The emulator already restored every table bit-identically from
            # its disk store; rebuild the facade tallies instead of
            # re-preloading (which would double-apply every update).
            loaded = indexer.restore_facade_state()
        else:
            rng = Random(recipe.seed)
            loaded = 0
            for index in range(recipe.num_objects):
                # Consume the rng for every index — owned or not — so shard
                # contents are independent of how many shards exist.
                location = Point(
                    rng.uniform(0.0, recipe.region_size),
                    rng.uniform(0.0, recipe.region_size),
                )
                velocity = Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                object_id = format_object_id(index)
                if shard_of(object_id, recipe.num_shards) != recipe.shard_id:
                    continue
                indexer.update(
                    UpdateMessage(
                        object_id=object_id,
                        location=location,
                        velocity=velocity,
                        timestamp=0.0,
                    )
                )
                loaded += 1
        indexer.emulator.reset_counters()
        cluster = ServerCluster(
            indexer,
            num_servers=recipe.num_servers,
            request_overhead_s=recipe.request_overhead_s,
            contention_alpha=recipe.contention_alpha,
            record_service_times=recipe.record_service_times,
        )
        master = (
            TabletMaster(cluster, recipe.master_options)
            if recipe.with_master
            else None
        )
        self.recipe = recipe
        self.indexer = indexer
        self.cluster = cluster
        self.master = master
        if accounting is not None:
            self._install_accounting(accounting)
        return {"objects_loaded": loaded, "tablets": indexer.tablet_count()}

    def _require_cluster(self) -> ServerCluster:
        if self.cluster is None:
            raise ConfigurationError("this shard has no indexer yet (build_indexer)")
        return self.cluster

    # ------------------------------------------------------------------
    # Accounting soft state (supervised respawn)
    # ------------------------------------------------------------------
    def accounting_state(self) -> Dict[str, Any]:
        """Everything simulated-but-not-durable, as one plain-data dict.

        The LSM state under the shard already survives SIGKILL exactly
        (manifest + runs + journal tail); this snapshot covers the rest of
        what :meth:`metrics`/``to_report`` can observe — op ledgers, cache
        residency and tallies, FLAG levels, per-server metrics, routing
        (primary pins *and* replica placement), contention scalars, the
        tablet master's decision history — plus the exactly-once dedup
        window and the per-table acked journal watermarks that bound the
        restore."""
        cluster = self._require_cluster()
        emulator = self.indexer.emulator
        tablet_counters: Dict[Tuple[str, str], Any] = {}
        block_caches: Dict[str, dict] = {}
        table_seqs: Dict[str, int] = {}
        for name in emulator.table_names():
            table = emulator.table(name)
            table_seqs[name] = table._seq
            block_caches[name] = table.cache.export_state()
            for tablet in table.tablets():
                tablet_counters[(name, tablet.tablet_id)] = (
                    tablet.counter.snapshot()
                )
        contention = None
        if cluster.contention is not None:
            contention = (
                cluster.contention._requests_since_refresh,
                cluster.contention._cached_factor,
            )
        return {
            "dedup": tuple(
                (request_id, entry[0], entry[1])
                for request_id, entry in self._applied_window.items()
            ),
            "counter": emulator.counter.snapshot(),
            "tablet_counters": tablet_counters,
            "block_caches": block_caches,
            "flag": (
                self.indexer.flag.export_state()
                if self.indexer.flag is not None
                else None
            ),
            "servers": [
                (
                    server.updates_handled,
                    server.queries_handled,
                    server.update_busy_seconds,
                    server.query_busy_seconds,
                    server.alive,
                    list(server.service_time_samples),
                )
                for server in cluster.servers
            ],
            "cluster_next": cluster._next,
            "routing": (
                dict(cluster.routing._primary),
                dict(cluster.routing._replicas),
            ),
            "contention": contention,
            "table_seqs": table_seqs,
            # Tablet-master decision state: the migration / replication /
            # failover histories (plain frozen dataclasses, the same
            # objects the control verbs already ship over RPC).  Routing
            # overrides and replica placement ride the "routing" key above;
            # together they let a respawned shard's master continue
            # byte-identically instead of forgetting every decision.
            "master": (
                None
                if self.master is None
                else (
                    list(self.master.migrations),
                    list(self.master.replications),
                    list(self.master.failovers),
                )
            ),
        }

    def _install_accounting(self, state: Dict[str, Any]) -> None:
        """Apply a snapshot from :meth:`accounting_state` onto a freshly
        restored stack (counters are all zero, so absorbing is installing)."""
        cluster = self.cluster
        emulator = self.indexer.emulator
        emulator.reset_counters()
        emulator.counter.absorb_snapshot(state["counter"])
        for name in emulator.table_names():
            table = emulator.table(name)
            cache_state = state["block_caches"].get(name)
            if cache_state is not None:
                table.cache.install_state(cache_state)
            for tablet in table.tablets():
                snapshot = state["tablet_counters"].get((name, tablet.tablet_id))
                if snapshot is not None:
                    tablet.counter.absorb_snapshot(snapshot)
        if self.indexer.flag is not None and state["flag"] is not None:
            self.indexer.flag.install_state(state["flag"])
        for server, fields in zip(cluster.servers, state["servers"]):
            (
                server.updates_handled,
                server.queries_handled,
                server.update_busy_seconds,
                server.query_busy_seconds,
                server.alive,
            ) = fields[:5]
            server.service_time_samples = list(fields[5])
        cluster._next = state["cluster_next"]
        primary, replicas = state["routing"]
        cluster.routing._primary = dict(primary)
        cluster.routing._replicas = {
            tablet_id: tuple(indices) for tablet_id, indices in replicas.items()
        }
        if cluster.contention is not None and state["contention"] is not None:
            requests_since, factor = state["contention"]
            cluster.contention._requests_since_refresh = requests_since
            cluster.contention._cached_factor = factor
        if self.master is not None:
            migrations, replications, failovers = state["master"]
            self.master.migrations = list(migrations)
            self.master.replications = list(replications)
            self.master.failovers = list(failovers)
        self._applied_window = OrderedDict(
            (request_id, (opcode, result))
            for request_id, opcode, result in state["dedup"]
        )

    def _write_accounting_checkpoint(self) -> None:
        """Persist :meth:`accounting_state` atomically (when the recipe asks
        for it) — called after every state-changing verb, so the blob on
        disk always describes the last *completed* request."""
        recipe = self.recipe
        if recipe is None or not recipe.durable_accounting:
            return
        storage_dir = recipe.shard_storage_dir
        if storage_dir is None or self.cluster is None:
            return
        from repro.disk.store import write_state_blob

        write_state_blob(
            os.path.join(storage_dir, STATE_BLOB_NAME), self.accounting_state()
        )

    def _apply_once(self, request_id: int, opcode: int, apply) -> Any:
        """The one exactly-once path: recall, reject-stale, apply, record,
        checkpoint.

        A request id still inside the window returns its recorded result
        without touching state (the parent resent its in-flight requests
        after a respawn); a window hit with a *different* opcode is a
        protocol violation (the parent never reuses ids across opcodes)
        and raises :class:`StaleRequestError` rather than replaying the
        wrong result shape.  An id older than the newest applied request
        that has fallen out of the window is rejected the same way.  A
        fresh id applies, records its result, then re-checkpoints the
        accounting soft state — *before* the response frame goes out, so
        a kill at any point leaves the shard either unaware of the request
        (the resend applies it) or able to replay its result (the resend
        is suppressed).
        """
        window = self._applied_window
        entry = window.get(request_id)
        if entry is not None:
            if entry[0] != opcode:
                raise StaleRequestError(
                    f"request id {request_id} was applied with opcode "
                    f"{entry[0]}, retried as {opcode}"
                )
            return entry[1]
        if window and request_id < next(reversed(window)):
            raise StaleRequestError(
                f"request id {request_id} is older than the newest applied "
                f"request {next(reversed(window))} and has fallen out of "
                f"the dedup window"
            )
        result = apply()
        window[request_id] = (opcode, result)
        depth = self.recipe.dedup_window if self.recipe is not None else 8
        while len(window) > depth:
            window.popitem(last=False)
        self._write_accounting_checkpoint()
        return result

    def _require_master(self) -> TabletMaster:
        if self.master is None:
            raise ConfigurationError("this shard was built without a tablet master")
        return self.master

    # ------------------------------------------------------------------
    # Data plane (compact opcodes ride these)
    # ------------------------------------------------------------------
    def update_batch(
        self, messages: Sequence[UpdateMessage]
    ) -> Tuple[int, float]:
        """Apply one owned slice of a group-commit buffer; returns
        ``(processed, shard makespan)`` so the parent tracks the cluster
        makespan without an extra round trip."""
        cluster = self._require_cluster()
        processed = cluster.submit_update_batch(messages)
        makespan = cluster.makespan_seconds()
        self._idle_flush_hint()
        return processed, makespan

    def _idle_flush_hint(self) -> int:
        """Opt-in maintenance between applies: flush memtables already near
        their threshold while the parent is busy encoding the next window
        step, so the next foreground batch does not stall mid-apply on a
        minor flush.  Runs after the makespan is read — the flush cost
        rides the separate durability ledger either way — and evolves as a
        pure function of the per-shard batch stream, so every window size,
        worker count and backend flushes identically."""
        recipe = self.recipe
        if recipe is None or recipe.idle_flush_fraction is None:
            return 0
        emulator = self.indexer.emulator
        flushed = 0
        for name in emulator.table_names():
            table = emulator.table(name)
            threshold = table.options.memtable_flush_rows
            if threshold is None:
                continue
            hint_rows = max(1, int(threshold * recipe.idle_flush_fraction))
            for tablet in list(table.tablets()):
                if len(tablet.rows) >= hint_rows or len(tablet.log) >= hint_rows:
                    flushed += table.flush_tablet(tablet)
        return flushed

    def query_batch(self, queries: Sequence[object]) -> Tuple[list, float]:
        """Run one broadcast probe set against this shard's objects."""
        cluster = self._require_cluster()
        results = cluster.submit_query_batch(queries)
        return results, cluster.makespan_seconds()

    def nn_query(
        self, location: Point, k: int, range_limit: Optional[float] = None
    ) -> list:
        cluster = self._require_cluster()
        return cluster.submit_nn_query(location, k, range_limit=range_limit)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def migrate_tablet(
        self,
        table_name: str,
        tablet_id: str,
        target_server: int,
        crash_point: Optional[str] = None,
    ):
        return self._require_master().migrate_tablet(
            table_name, tablet_id, target_server, crash_point=crash_point
        )

    def replicate_tablet(
        self, table_name: str, tablet_id: str, replica_server: int
    ):
        return self._require_master().replicate_tablet(
            table_name, tablet_id, replica_server
        )

    def fail_over(self, server_id: int, rebalance: bool = True):
        return self._require_master().fail_over(server_id, rebalance=rebalance)

    def fail_server(self, server_id: int):
        return self._require_cluster().fail_server(server_id)

    def revive_server(self, server_id: int) -> None:
        self._require_cluster().revive_server(server_id)

    def rebalance(self):
        return self._require_master().rebalance()

    def inject_migration_crash(self, crash_point: str):
        return self._require_master().inject_migration_crash(crash_point)

    def apply_fault(
        self,
        kind: str,
        server_id: Optional[int] = None,
        crash_point: Optional[str] = None,
        describe_prefix: str = "",
    ) -> str:
        """One scheduled fault with load-test skip semantics: unfireable
        events (crashing the last alive server, reviving an alive one, a
        migration with nowhere to go) are recorded as skipped, never
        raised — a seeded plan cannot know shard state at schedule time."""
        from repro.server.loadtest import CRASH_SERVER, REVIVE_SERVER

        master = self._require_master()
        cluster = self._require_cluster()
        if server_id is not None and server_id >= cluster.num_servers:
            return f"{describe_prefix}[skipped]"
        if kind == CRASH_SERVER:
            server = cluster.servers[server_id]
            if not server.alive or len(cluster.alive_server_indices()) <= 1:
                return f"{describe_prefix}[skipped]"
            report = master.fail_over(server_id)
            return (
                f"{describe_prefix}[{report.tablets_recovered} tablets "
                f"recovered, {report.log_records_replayed} records replayed]"
            )
        if kind == REVIVE_SERVER:
            if cluster.servers[server_id].alive:
                return f"{describe_prefix}[skipped]"
            cluster.revive_server(server_id)
            return f"{describe_prefix}[applied]"
        record = master.inject_migration_crash(crash_point or "after_handoff")
        if record is None:
            return f"{describe_prefix}[skipped]"
        return (
            f"{describe_prefix}[{record.tablet_id} "
            f"{record.source}->{record.target} aborted]"
        )

    # ------------------------------------------------------------------
    # Storage durability
    # ------------------------------------------------------------------
    def flush(self) -> int:
        return self._require_cluster().indexer.emulator.flush()

    def compact(self, major: bool = False) -> int:
        return self._require_cluster().indexer.emulator.compact(major=major)

    def recover(self):
        return self._require_cluster().indexer.emulator.recover()

    def crash_and_recover(self):
        return self._require_cluster().crash_and_recover()

    # ------------------------------------------------------------------
    # Table management (federation protocol surface)
    # ------------------------------------------------------------------
    def create_table(self, name: str, families) -> None:
        self._require_cluster().indexer.emulator.create_table(name, families)

    def has_table(self, name: str) -> bool:
        return self._require_cluster().indexer.emulator.has_table(name)

    def drop_table(self, name: str) -> None:
        self._require_cluster().indexer.emulator.drop_table(name)

    def table_names(self) -> List[str]:
        return self._require_cluster().indexer.emulator.table_names()

    def table_keys(self, name: str) -> List[str]:
        return list(self._require_cluster().indexer.emulator.table(name).all_keys())

    def table_row_count(self, name: str) -> int:
        return len(self._require_cluster().indexer.emulator.table(name).all_keys())

    # ------------------------------------------------------------------
    # Ledgers & metrics
    # ------------------------------------------------------------------
    def counter_snapshot(self):
        return self._require_cluster().indexer.emulator.counter.snapshot()

    def reset_counters(self) -> None:
        self._require_cluster().indexer.emulator.reset_counters()

    def simulated_seconds(self) -> float:
        return self._require_cluster().indexer.emulator.simulated_seconds

    def run_count(self) -> int:
        return self._require_cluster().indexer.emulator.run_count()

    def log_record_count(self) -> int:
        return self._require_cluster().indexer.emulator.log_record_count()

    def tablet_stats(self) -> list:
        return self._require_cluster().indexer.emulator.tablet_stats()

    def tablet_count(self) -> int:
        return self._require_cluster().indexer.emulator.tablet_count()

    def block_cache_stats(self) -> list:
        return self._require_cluster().indexer.emulator.block_cache_stats()

    def cache_totals(self) -> Tuple[int, int]:
        """(hits, lookups) over every table's block cache."""
        hits = 0
        lookups = 0
        for entry in self.block_cache_stats():
            hits += entry.hits
            lookups += entry.lookups
        return hits, lookups

    def metrics(self) -> Dict[str, Any]:
        """Everything the parent needs to merge per-shard accounting."""
        cluster = self._require_cluster()
        master = self.master
        snapshot = cluster.metrics_snapshot()
        snapshot["master_actions"] = (
            master.action_counts() if master is not None else (0, 0, 0)
        )
        snapshot["has_master"] = master is not None
        return snapshot

    def reset_metrics(self) -> None:
        self._require_cluster().reset_metrics()

    def makespan(self) -> float:
        return self._require_cluster().makespan_seconds()

    def server_index_for_tablet(self, tablet_id: str) -> int:
        return self._require_cluster().server_index_for_tablet(tablet_id)

    def alive_server_indices(self) -> List[int]:
        return self._require_cluster().alive_server_indices()

    def servers_alive(self) -> List[bool]:
        return [server.alive for server in self._require_cluster().servers]

    def server_requests(self) -> List[Tuple[int, int]]:
        return [
            (server.updates_handled, server.queries_handled)
            for server in self._require_cluster().servers
        ]

    def service_time_samples(self) -> List[float]:
        """Per-request simulated service-time samples, flattened in server
        order (empty unless the recipe set ``record_service_times``).  The
        parent merges every shard's samples in fixed shard order and sorts,
        so the scale-out percentile is identical for every worker count."""
        samples: List[float] = []
        for server in self._require_cluster().servers:
            samples.extend(server.service_time_samples)
        return samples

    # ------------------------------------------------------------------
    # Losslessness signatures
    # ------------------------------------------------------------------
    def state_signature(self):
        from repro.experiments.recovery import _state_signature

        return _state_signature(self._require_cluster().indexer)

    def full_row_signature(self):
        return full_row_signature(self._require_cluster().indexer)

    def nn_signature(self, queries):
        from repro.experiments.recovery import _nn_signature

        return _nn_signature(self._require_cluster().indexer, queries)

    # ------------------------------------------------------------------
    # Bare-table scenario (cross-process crash-recovery property tests)
    # ------------------------------------------------------------------
    def build_table(
        self, knobs: Dict[str, Any], storage_dir: Optional[str] = None
    ) -> None:
        from repro.bigtable.cost import OpCounter
        from repro.bigtable.table import ColumnFamily, Table
        from repro.bigtable.tablet import TabletOptions

        if self._bare_table is not None:
            raise ConfigurationError("this shard already built its bare table")
        families = [
            ColumnFamily("mem", max_versions=3),
            ColumnFamily("disk", max_versions=5),
        ]
        if storage_dir is not None:
            from repro.disk.store import DiskTableStore, restore_table

            store = DiskTableStore(storage_dir)
            restored = restore_table(store, "t", families, OpCounter())
            if restored is not None:
                self._bare_table = restored
                return
            self._bare_table = Table(
                "t", families, options=TabletOptions(**knobs), store=store
            )
            return
        self._bare_table = Table("t", families, options=TabletOptions(**knobs))

    def _require_table(self):
        if self._bare_table is None:
            raise ConfigurationError("this shard has no bare table (build_table)")
        return self._bare_table

    def table_apply(self, ops: Sequence[tuple]) -> int:
        """Apply a mutation program (the property-test op vocabulary)."""
        table = self._require_table()
        for op in ops:
            kind = op[0]
            if kind == "write":
                _, key, value, ts = op
                table.write(key, "mem", "q", value, ts)
            elif kind == "delete_cell":
                table.delete_cell(op[1], "mem", "q")
            elif kind == "delete_row":
                table.delete_row(op[1])
            elif kind == "batch_write":
                table.batch_write(
                    [(key, "mem", "q", value, ts) for key, value, ts in op[1]]
                )
            elif kind == "group_commit":
                with table.group_commit():
                    for key, value, ts in op[1]:
                        table.write(key, "mem", "q", value, ts)
            elif kind == "age_out":
                table.age_out("mem", "disk", op[1])
            elif kind == "flush":
                table.flush_memtables()
            elif kind == "compact":
                table.compact_runs(major=op[1])
            else:
                raise ConfigurationError(f"unknown table op {kind!r}")
        return len(ops)

    def table_recover(self) -> float:
        return self._require_table().recover().simulated_seconds

    def table_state(self):
        table = self._require_table()
        boundaries = tuple(
            (tablet.tablet_id, tablet.start_key, tablet.row_count)
            for tablet in table.tablets()
        )
        keys = tuple(table.all_keys())
        rows = tuple(repr(table.read_row(key, _charge=False)) for key in keys)
        return boundaries, keys, rows


# --------------------------------------------------------------------------
# Worker process entry point
# --------------------------------------------------------------------------


def dispatch_request(
    services: Dict[int, ShardService],
    shard_id: int,
    opcode: int,
    body: bytes,
    request_id: int = 0,
) -> bytes:
    """Decode one request frame, run it, encode the response body.

    Every state-changing request — update and query batches, and each
    ``CALL`` verb outside :data:`_READ_ONLY_VERBS` — runs through the
    shard's exactly-once path (:meth:`ShardService._apply_once`), so the
    parent may resend any of them after a respawn.  ``build_indexer`` is
    the one exception: it is the restore step itself, sent by the
    supervisor on a fresh, higher id, and recording it would make the
    resent lower ids look stale.
    """
    service = services.get(shard_id)
    if service is None:
        service = ShardService()
        services[shard_id] = service
    if opcode == rpc.OP_PING:
        return b""
    if opcode == rpc.OP_UPDATE_BATCH:
        processed, makespan = service._apply_once(
            request_id,
            opcode,
            lambda: service.update_batch(rpc.decode_update_batch(body)),
        )
        return _UPDATE_RESULT.pack(processed, makespan)
    if opcode == rpc.OP_QUERY_BATCH:
        queries = rpc.decode_query_batch(body)
        # A replay re-encodes the recorded *results* with the current
        # stream encoder: a respawned worker starts a fresh encoder and the
        # parent resets its decoder twin, so recorded raw bytes from the
        # previous process would not decode.
        results, makespan = service._apply_once(
            request_id, opcode, lambda: service.query_batch(queries)
        )
        # Stateful per-shard stream encoding: only what changed since this
        # shard's previous response frame actually rides the wire.
        return _MAKESPAN.pack(makespan) + service.neighbor_encoder.encode(
            results, queries
        )
    if opcode == rpc.OP_CALL:
        method, args, kwargs = rpc.decode_call(body)
        if method.startswith("_") or not hasattr(ShardService, method):
            raise RpcError(f"unknown shard service method {method!r}")
        verb = getattr(service, method)
        if method in _READ_ONLY_VERBS:
            return rpc.encode_result(verb(*args, **kwargs))
        if method == "build_indexer":
            result = verb(*args, **kwargs)
            service._write_accounting_checkpoint()
            return rpc.encode_result(result)
        return rpc.encode_result(
            service._apply_once(
                request_id, opcode, lambda: verb(*args, **kwargs)
            )
        )
    raise RpcError(f"unknown opcode {opcode}")


def worker_main(sock: socket.socket) -> None:
    """Main loop of one worker process: serve frames until shutdown/EOF.

    A worker hosts every shard whose id maps to it; services are created
    lazily on the first frame addressed to their shard id.
    """
    services: Dict[int, ShardService] = {}

    def _dispatch(
        shard_id: int, opcode: int, body: bytes, request_id: int
    ) -> bytes:
        return dispatch_request(services, shard_id, opcode, body, request_id)

    try:
        rpc.serve(sock, _dispatch)
    finally:
        sock.close()
