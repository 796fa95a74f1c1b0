"""Load tests producing the QPS figures of Section 4.3, plus the
deterministic fault injector driving the control-plane experiments.

The batched load-test loops double as the cluster's "wall clock": between
request batches they give the tablet master its rebalance ticks and apply
the :class:`FaultPlan`'s scheduled faults (server crashes, revivals and
migrations crashed mid-flight).  Everything is seeded and simulated, so two
identical plans produce byte-identical :meth:`LoadTestResult.to_report`
renderings — the determinism guard the test suite enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.model import UpdateMessage
from repro.server.client import ClientSimulator, build_client_fleet
from repro.server.cluster import ServerCluster
from repro.server.master import CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF, TabletMaster

#: Fault kinds a :class:`FaultPlan` can schedule.
CRASH_SERVER = "crash_server"
REVIVE_SERVER = "revive_server"
MIGRATION_CRASH = "migration_crash"
_FAULT_KINDS = (CRASH_SERVER, REVIVE_SERVER, MIGRATION_CRASH)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fires before the batch round ``at_batch``."""

    at_batch: int
    kind: str
    server_id: Optional[int] = None
    crash_point: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if self.at_batch < 0:
            raise ConfigurationError("at_batch must be >= 0")
        if self.kind in (CRASH_SERVER, REVIVE_SERVER):
            if self.server_id is None:
                raise ConfigurationError(f"{self.kind} needs a server_id")
            if self.server_id < 0:
                raise ConfigurationError("server_id must be >= 0")
        if self.crash_point is not None and self.crash_point not in (
            CRASH_AFTER_FLUSH,
            CRASH_AFTER_HANDOFF,
        ):
            raise ConfigurationError(
                f"unknown migration crash point {self.crash_point!r}"
            )

    def describe(self) -> str:
        if self.kind == MIGRATION_CRASH:
            return f"batch {self.at_batch}: {self.kind} ({self.crash_point})"
        return f"batch {self.at_batch}: {self.kind} server {self.server_id}"


class FaultPlan:
    """A deterministic fault schedule for one load test.

    Events are sorted and applied at batch-round boundaries; the same plan
    against the same workload replays bit-identically.  Build one
    explicitly from :class:`FaultEvent` tuples, or let :meth:`seeded`
    derive a reproducible plan from a seed.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = sorted(
            events,
            key=lambda event: (
                event.at_batch,
                event.kind,
                -1 if event.server_id is None else event.server_id,
            ),
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_batches: int,
        num_servers: int,
        crashes: int = 1,
        migration_crashes: int = 1,
        revive: bool = True,
    ) -> "FaultPlan":
        """A reproducible random plan: ``crashes`` server crashes (each
        followed by a revival a few rounds later when ``revive``) and
        ``migration_crashes`` migrations aborted mid-flight."""
        if num_batches < 1:
            raise ConfigurationError("num_batches must be >= 1")
        if num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        for _ in range(crashes):
            at_batch = rng.randrange(num_batches)
            server_id = rng.randrange(num_servers)
            events.append(
                FaultEvent(at_batch=at_batch, kind=CRASH_SERVER, server_id=server_id)
            )
            if revive:
                events.append(
                    FaultEvent(
                        # Clamp to the last fireable round: rounds are
                        # 0-indexed, so num_batches itself never fires.
                        at_batch=min(
                            at_batch + 1 + rng.randrange(3), num_batches - 1
                        ),
                        kind=REVIVE_SERVER,
                        server_id=server_id,
                    )
                )
        for _ in range(migration_crashes):
            events.append(
                FaultEvent(
                    at_batch=rng.randrange(num_batches),
                    kind=MIGRATION_CRASH,
                    crash_point=rng.choice(
                        (CRASH_AFTER_FLUSH, CRASH_AFTER_HANDOFF)
                    ),
                )
            )
        return cls(events)

    def events_at(self, batch_index: int) -> List[FaultEvent]:
        """Events scheduled to fire before batch round ``batch_index``
        (events beyond the last processed round never fire)."""
        return [event for event in self.events if event.at_batch == batch_index]

    def describe(self) -> str:
        """One-line-per-event rendering (part of the load-test report)."""
        if not self.events:
            return "(no faults scheduled)"
        return "\n".join(event.describe() for event in self.events)


@dataclass(frozen=True)
class TimelinePoint:
    """One point of a QPS-over-time plot (Figures 13b/13c)."""

    time_s: float
    qps: float
    failed_qps: float


@dataclass
class LoadTestResult:
    """Outcome of one load test."""

    total_requests: int
    failed_requests: int
    simulated_seconds: float
    qps: float
    per_server_qps: List[float] = field(default_factory=list)
    timeline: List[TimelinePoint] = field(default_factory=list)
    #: Tablets across the backend's tables when the test ended (0 when the
    #: backend does not shard).
    tablet_count: int = 0
    #: Fraction of storage time served by the hottest tablet (1.0 for
    #: non-sharding backends).
    hot_tablet_share: float = 1.0
    #: Block-cache hit rate of the backend's scans over the test (0.0 for
    #: backends without a block cache, and for write-only tests that never
    #: scanned).
    cache_hit_rate: float = 0.0
    #: Simulated p99 per-request service time (0.0 unless the cluster was
    #: built with ``record_service_times``).
    p99_service_time_s: float = 0.0
    #: Control-plane activity over the test (0 without a tablet master).
    migrations: int = 0
    replications: int = 0
    failovers: int = 0
    #: Human-readable log of the faults the plan actually applied (events
    #: that could not fire — e.g. crashing the last alive server — are
    #: recorded as skipped).
    faults_applied: List[str] = field(default_factory=list)

    @property
    def mean_latency_s(self) -> float:
        """Mean simulated service time per request."""
        if self.total_requests == 0:
            return 0.0
        return self.simulated_seconds / self.total_requests

    def to_report(self) -> str:
        """Deterministic plain-text rendering of the whole result.

        Every number is simulated (no wall clock enters), so two identical
        seeded runs — same workload, same :class:`FaultPlan` — render
        byte-identical reports; the determinism test locks this in.
        """
        lines = [
            "load test report",
            f"requests: {self.total_requests} completed, "
            f"{self.failed_requests} failed",
            f"simulated seconds: {self.simulated_seconds:.12g}",
            f"qps: {self.qps:.12g}",
            f"mean latency s: {self.mean_latency_s:.12g}",
            f"p99 service time s: {self.p99_service_time_s:.12g}",
            f"tablets: {self.tablet_count}, hot share: "
            f"{self.hot_tablet_share:.12g}",
            f"cache hit rate: {self.cache_hit_rate:.12g}",
            f"control plane: {self.migrations} migrations, "
            f"{self.replications} replications, {self.failovers} failovers",
        ]
        lines.append("per-server qps:")
        for index, qps in enumerate(self.per_server_qps):
            lines.append(f"  server {index}: {qps:.12g}")
        lines.append("faults applied:")
        if self.faults_applied:
            lines.extend(f"  {entry}" for entry in self.faults_applied)
        else:
            lines.append("  (none)")
        lines.append("timeline:")
        for point in self.timeline:
            lines.append(
                f"  t={point.time_s:.12g} qps={point.qps:.12g} "
                f"failed={point.failed_qps:.12g}"
            )
        return "\n".join(lines) + "\n"


class _TimelineBucket:
    """Accumulates one bucket of a QPS timeline and emits points.

    Shared by every load-test loop: callers report completed/failed
    requests as they happen and count *units* (requests, batches or mixed
    rounds — whatever the loop's bucket resolution is) toward the flush
    threshold; each flush converts the bucket into one
    :class:`TimelinePoint` using the simulated makespan growth since the
    previous flush.

    The *deferred* variant (:meth:`defer` / :meth:`finish_deferred` /
    :meth:`resolve`) supports the windowed scale-out engine: makespans are
    unknowable mid-window without a barrier, so the flush *decision* is
    taken eagerly (same thresholds, same order) while the makespan lookup
    is parked behind a round marker and resolved after the final drain —
    the arithmetic is identical to the eager path, point for point.
    """

    __slots__ = (
        "threshold",
        "points",
        "_start_makespan",
        "_completed",
        "_failed",
        "_units",
        "_pending",
    )

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.points: List[TimelinePoint] = []
        self._start_makespan = 0.0
        self._completed = 0
        self._failed = 0
        self._units = 0
        self._pending: List[Tuple[int, int, int]] = []

    def add(self, completed: int, failed: int) -> None:
        self._completed += completed
        self._failed += failed

    def advance(self, makespan_fn: Callable[[], float]) -> None:
        """Count one unit toward the threshold, flushing when reached."""
        self._units += 1
        if self._units >= self.threshold:
            self._flush(makespan_fn())

    def finish(self, makespan: float) -> None:
        """Flush the trailing partial bucket (if it completed anything)."""
        if self._completed > 0:
            self._flush(makespan)

    def defer(self, marker: int) -> None:
        """Count one unit; at the threshold, record a flush pending at
        ``marker`` instead of reading a makespan now."""
        self._units += 1
        if self._units >= self.threshold:
            self._pending.append((self._completed, self._failed, marker))
            self._completed = 0
            self._failed = 0
            self._units = 0

    def finish_deferred(self, marker: int) -> None:
        """Deferred twin of :meth:`finish`: park the trailing partial
        bucket behind ``marker`` (if it completed anything)."""
        if self._completed > 0:
            self._pending.append((self._completed, self._failed, marker))
            self._completed = 0
            self._failed = 0
            self._units = 0

    def resolve(self, makespan_of: Callable[[int], float]) -> None:
        """Turn every pending flush into a timeline point, in order,
        using ``makespan_of(marker)`` — the cluster makespan *as of* that
        round.  Exactly the eager :meth:`_flush` arithmetic."""
        pending, self._pending = self._pending, []
        for completed, failed, marker in pending:
            makespan = makespan_of(marker)
            elapsed = max(makespan - self._start_makespan, 1e-12)
            self.points.append(
                TimelinePoint(
                    time_s=makespan,
                    qps=completed / elapsed,
                    failed_qps=failed / elapsed,
                )
            )
            self._start_makespan = makespan

    def _flush(self, makespan: float) -> None:
        elapsed = max(makespan - self._start_makespan, 1e-12)
        self.points.append(
            TimelinePoint(
                time_s=makespan,
                qps=self._completed / elapsed,
                failed_qps=self._failed / elapsed,
            )
        )
        self._start_makespan = makespan
        self._completed = 0
        self._failed = 0
        self._units = 0


class LoadTest:
    """Drives a server cluster with client-simulator traffic."""

    def __init__(
        self,
        cluster: ServerCluster,
        clients: Optional[Sequence[ClientSimulator]] = None,
        failure_probability: float = 0.002,
        seed: int = 404,
        master: Optional[TabletMaster] = None,
        rebalance_every: int = 0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not 0.0 <= failure_probability < 1.0:
            raise ConfigurationError("failure_probability must be in [0, 1)")
        if rebalance_every < 0:
            raise ConfigurationError("rebalance_every must be >= 0")
        if rebalance_every > 0 and master is None:
            raise ConfigurationError("rebalance_every needs a tablet master")
        if fault_plan is not None and master is None:
            raise ConfigurationError("a fault plan needs a tablet master")
        self.cluster = cluster
        self.clients = list(clients) if clients is not None else []
        self.failure_probability = failure_probability
        self.rng = random.Random(seed)
        #: Optional control plane: the batched load-test loops give the
        #: master a rebalance tick every ``rebalance_every`` batches (0 =
        #: never) and apply the fault plan's scheduled events at batch
        #: boundaries.
        self.master = master
        self.rebalance_every = rebalance_every
        self.fault_plan = fault_plan
        self._faults_applied: List[str] = []
        self._master_baseline = (0, 0, 0)

    def _begin_run(self) -> None:
        """Per-run bookkeeping reset: cluster metrics, the applied-fault
        log, and a snapshot of the master's cumulative action counts so
        each result reports only the actions of *its* run."""
        self.cluster.reset_metrics()
        self._faults_applied = []
        master = self.master
        self._master_baseline = (
            (len(master.migrations), len(master.replications), len(master.failovers))
            if master is not None
            else (0, 0, 0)
        )

    # ------------------------------------------------------------------
    # Control plane ticks
    # ------------------------------------------------------------------
    def _apply_fault(self, event: FaultEvent) -> None:
        """Apply one scheduled fault, recording what actually happened.

        Unfireable events (crashing the last alive server, reviving an
        alive one, a migration crash with nowhere to migrate) are recorded
        as skipped instead of failing the run: a seeded plan cannot know
        the cluster's state at schedule time.
        """
        master = self.master
        assert master is not None  # guarded by the constructor
        cluster = self.cluster
        if (
            event.server_id is not None
            and event.server_id >= cluster.num_servers
        ):
            # A seeded plan built for a bigger cluster: nothing to do.
            self._faults_applied.append(f"{event.describe()} [skipped]")
            return
        if event.kind == CRASH_SERVER:
            server = cluster.servers[event.server_id]
            if not server.alive or len(cluster.alive_server_indices()) <= 1:
                self._faults_applied.append(f"{event.describe()} [skipped]")
                return
            report = master.fail_over(event.server_id)
            self._faults_applied.append(
                f"{event.describe()} [{report.tablets_recovered} tablets "
                f"recovered, {report.log_records_replayed} records replayed]"
            )
        elif event.kind == REVIVE_SERVER:
            if cluster.servers[event.server_id].alive:
                self._faults_applied.append(f"{event.describe()} [skipped]")
                return
            cluster.revive_server(event.server_id)
            self._faults_applied.append(event.describe())
        else:  # MIGRATION_CRASH
            record = master.inject_migration_crash(
                event.crash_point or CRASH_AFTER_HANDOFF
            )
            if record is None:
                self._faults_applied.append(f"{event.describe()} [skipped]")
            else:
                self._faults_applied.append(
                    f"{event.describe()} [{record.tablet_id} "
                    f"{record.source}->{record.target} aborted]"
                )

    def _control_step(self, batch_index: int) -> None:
        """One batch-boundary tick: scheduled faults, then the rebalance
        cadence."""
        if self.master is None:
            return
        if self.fault_plan is not None:
            for event in self.fault_plan.events_at(batch_index):
                self._apply_fault(event)
        if (
            self.rebalance_every > 0
            and batch_index > 0
            and batch_index % self.rebalance_every == 0
        ):
            self.master.rebalance()

    def _admit(self, items: Sequence) -> Tuple[list, int]:
        """Split one request slice into ``(admitted, dropped)``.

        Dropped requests model client RPCs failing before reaching a
        server (overload/timeouts in the paper's plots): they consume no
        simulated time and are excluded from the QPS numerator, matching
        the dashed series of Figures 13b/13c.
        """
        admitted = []
        dropped = 0
        for item in items:
            if self.failure_probability and self.rng.random() < self.failure_probability:
                dropped += 1
            else:
                admitted.append(item)
        return admitted, dropped

    # ------------------------------------------------------------------
    # Update load tests
    # ------------------------------------------------------------------
    def run_updates(
        self,
        messages: Sequence[UpdateMessage],
        bucket_requests: int = 1000,
    ) -> LoadTestResult:
        """Feed a fixed update stream through the cluster.

        ``bucket_requests`` controls the resolution of the QPS timeline: one
        timeline point is emitted per that many requests, using the
        simulated makespan growth within the bucket.
        """
        if bucket_requests <= 0:
            raise ConfigurationError("bucket_requests must be positive")
        self._begin_run()
        bucket = _TimelineBucket(bucket_requests)
        failed = 0
        completed = 0
        # On the single-request path one control round == one timeline
        # bucket of requests, so fault plans and rebalance ticks work here
        # too (at bucket granularity rather than batch granularity).
        control_round = -1
        for index, message in enumerate(messages):
            round_index = index // bucket_requests
            if round_index != control_round:
                control_round = round_index
                self._control_step(round_index)
            # Failures are checked per message (not pre-filtered) so each
            # one lands in the timeline bucket where it occurred.
            if self.failure_probability and self.rng.random() < self.failure_probability:
                failed += 1
                bucket.add(0, 1)
                continue
            self.cluster.submit_update(message)
            completed += 1
            bucket.add(1, 0)
            bucket.advance(self.cluster.makespan_seconds)
        makespan = self.cluster.makespan_seconds()
        bucket.finish(makespan)
        return self._build_result(completed, failed, makespan, bucket.points)

    def run_update_batches(
        self,
        messages: Sequence[UpdateMessage],
        batch_size: int = 256,
        bucket_batches: int = 4,
    ) -> LoadTestResult:
        """Feed the update stream through the tablet-routed batched path.

        The stream is cut into client-side batches of ``batch_size``
        messages; each batch is partitioned by owning tablet and dispatched
        to the tablet's pinned server (``ServerCluster.submit_update_batch``),
        exercising the group-commit write path end to end.  One timeline
        point is emitted every ``bucket_batches`` batches.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if bucket_batches <= 0:
            raise ConfigurationError("bucket_batches must be positive")
        self._begin_run()
        bucket = _TimelineBucket(bucket_batches)
        failed = 0
        completed = 0
        for batch_index, start in enumerate(range(0, len(messages), batch_size)):
            self._control_step(batch_index)
            batch, dropped = self._admit(messages[start : start + batch_size])
            failed += dropped
            completed += self.cluster.submit_update_batch(batch)
            bucket.add(len(batch), dropped)
            bucket.advance(self.cluster.makespan_seconds)
        makespan = self.cluster.makespan_seconds()
        bucket.finish(makespan)
        return self._build_result(completed, failed, makespan, bucket.points)

    def run_mixed_batches(
        self,
        messages: Sequence[UpdateMessage],
        queries: Sequence[object],
        batch_size: int = 256,
        bucket_batches: int = 4,
    ) -> LoadTestResult:
        """Drive interleaved update and query batches through the cluster.

        Each round sends one update batch through the tablet-routed
        group-commit path and one query batch through the tablet-pinned
        shared-read path, until both streams are exhausted — the read/write
        mix is therefore set by the relative lengths of ``messages`` and
        ``queries``.  ``queries`` carry ``location``/``k``/``range_limit``
        attributes (:class:`repro.workload.queries.NNQuery` fits).  Client
        RPC failures hit updates and queries alike.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if bucket_batches <= 0:
            raise ConfigurationError("bucket_batches must be positive")
        self._begin_run()
        bucket = _TimelineBucket(bucket_batches)
        failed = 0
        completed = 0
        update_offset = 0
        query_offset = 0
        batch_index = 0
        while update_offset < len(messages) or query_offset < len(queries):
            self._control_step(batch_index)
            batch_index += 1
            update_batch, dropped_updates = self._admit(
                messages[update_offset : update_offset + batch_size]
            )
            update_offset += batch_size
            query_batch, dropped_queries = self._admit(
                queries[query_offset : query_offset + batch_size]
            )
            query_offset += batch_size
            failed += dropped_updates + dropped_queries
            completed += self.cluster.submit_update_batch(update_batch)
            completed += len(self.cluster.submit_query_batch(query_batch))
            bucket.add(
                len(update_batch) + len(query_batch),
                dropped_updates + dropped_queries,
            )
            bucket.advance(self.cluster.makespan_seconds)
        makespan = self.cluster.makespan_seconds()
        bucket.finish(makespan)
        return self._build_result(completed, failed, makespan, bucket.points)

    def _build_result(
        self,
        completed: int,
        failed: int,
        makespan: float,
        timeline: List[TimelinePoint],
    ) -> LoadTestResult:
        per_server = [
            (server.requests_handled / server.busy_seconds)
            if server.busy_seconds > 0
            else 0.0
            for server in self.cluster.servers
        ]
        indexer = self.cluster.indexer
        master = self.master
        return LoadTestResult(
            total_requests=completed,
            failed_requests=failed,
            simulated_seconds=makespan,
            qps=completed / makespan if makespan > 0 else 0.0,
            per_server_qps=per_server,
            timeline=timeline,
            tablet_count=indexer.tablet_count(),
            hot_tablet_share=indexer.hot_tablet_share(),
            cache_hit_rate=indexer.cache_hit_rate(),
            p99_service_time_s=self.cluster.service_time_percentile(0.99),
            migrations=(
                len(master.migrations) - self._master_baseline[0]
                if master is not None
                else 0
            ),
            replications=(
                len(master.replications) - self._master_baseline[1]
                if master is not None
                else 0
            ),
            failovers=(
                len(master.failovers) - self._master_baseline[2]
                if master is not None
                else 0
            ),
            faults_applied=list(self._faults_applied),
        )

    def run_client_bursts(
        self,
        duration_s: float,
        requests_per_burst: int = 100,
        burst_interval_s: float = 1.0,
    ) -> LoadTestResult:
        """Drive the cluster with bursts from every client simulator.

        Each burst models the client's concurrent in-flight RPCs (the
        paper's "100 concurrent RPC for each client").
        """
        if not self.clients:
            raise ConfigurationError("run_client_bursts needs client simulators")
        if duration_s <= 0 or burst_interval_s <= 0:
            raise ConfigurationError("duration and burst interval must be positive")
        messages: List[UpdateMessage] = []
        now = 0.0
        while now < duration_s:
            for client in self.clients:
                messages.extend(client.burst(now, requests_per_burst))
            now += burst_interval_s
        return self.run_updates(messages)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_fleet(
        cls,
        cluster: ServerCluster,
        num_clients: int,
        total_objects: int,
        threads: int = 100,
        failure_probability: float = 0.002,
        seed: int = 404,
    ) -> "LoadTest":
        """Build a load test with an evenly partitioned client fleet."""
        clients = build_client_fleet(
            num_clients=num_clients,
            total_objects=total_objects,
            region=cluster.indexer.config.world,
            threads=threads,
            seed=seed,
        )
        return cls(
            cluster,
            clients=clients,
            failure_probability=failure_probability,
            seed=seed,
        )


class ScaleOutLoadTest(LoadTest):
    """The load-test loops, pointed at a shared-nothing shard federation.

    Takes a :class:`repro.server.scaleout.ScaleOutCluster` (duck-typed —
    anything with the batched submit surface plus the scale-out control
    hooks fits) and reuses the parent's batch loops verbatim: the admit
    RNG, the timeline buckets and the control-step cadence consume state
    in *exactly* the same order as the single-cluster
    :class:`LoadTest`, so reports are byte-comparable across backends and
    bit-identical across worker counts.

    Differences from the single-cluster build are confined to the result
    assembly: per-server QPS flattens the shard clusters in
    ``(shard, server)`` order, control-plane counts sum over the shard
    masters, and ``p99_service_time_s`` merges every shard's samples in
    fixed shard order through one read-only scatter at result time (0.0
    unless the recipes set ``record_service_times``, exactly like the
    single-cluster build).
    """

    def __init__(
        self,
        cluster,
        failure_probability: float = 0.002,
        seed: int = 404,
        rebalance_every: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        chaos_plan=None,
        window: Optional[int] = None,
    ) -> None:
        if not 0.0 <= failure_probability < 1.0:
            raise ConfigurationError("failure_probability must be in [0, 1)")
        if rebalance_every < 0:
            raise ConfigurationError("rebalance_every must be >= 0")
        if rebalance_every > 0 and not cluster.has_master:
            raise ConfigurationError("rebalance_every needs shard tablet masters")
        # A chaos plan may fold simulated control-plane faults into its
        # timeline; adopt them so one plan object describes the whole
        # composed schedule (the fault half also drives the reference run).
        chaos_faults = getattr(chaos_plan, "fault_plan", None)
        if chaos_faults is not None and chaos_faults.events:
            if fault_plan is not None and fault_plan.events:
                raise ConfigurationError(
                    "pass simulated faults either as fault_plan or folded "
                    "into the chaos plan, not both"
                )
            fault_plan = chaos_faults
        if fault_plan is not None and not cluster.has_master:
            raise ConfigurationError("a fault plan needs shard tablet masters")
        if chaos_plan is not None and getattr(cluster, "supervisor", None) is None:
            raise ConfigurationError(
                "a chaos plan needs a supervised scale-out cluster"
            )
        self.cluster = cluster
        self.clients = []
        self.failure_probability = failure_probability
        self.rng = random.Random(seed)
        self.master = None
        self.rebalance_every = rebalance_every
        self.fault_plan = fault_plan
        #: Process-level chaos (:class:`repro.server.chaos.ChaosPlan`):
        #: SIGKILL/SIGSTOP/corrupt-frame events fired at batch boundaries,
        #: healed by the cluster's supervisor.  Kept out of the simulated
        #: fault log — ``to_report()`` must stay byte-identical between
        #: chaos and fault-free runs.
        self.chaos_plan = chaos_plan
        self.chaos_applied: List[str] = []
        self._faults_applied: List[str] = []
        self._master_baseline = (0, 0, 0)
        if window is not None:
            cluster.set_window(window)

    def _begin_run(self) -> None:
        self.cluster.reset_metrics()
        self._faults_applied = []
        self.chaos_applied = []
        self._master_baseline = self.cluster.master_action_counts()

    def _apply_fault(self, event: FaultEvent) -> None:
        """Broadcast the fault to every shard; each shard applies its own
        skip semantics and reports what actually happened there."""
        self._faults_applied.extend(
            self.cluster.apply_fault(
                event.kind,
                server_id=event.server_id,
                crash_point=event.crash_point,
                describe_prefix=f"{event.describe()} ",
            )
        )

    def _control_step(self, batch_index: int) -> None:
        # Simulated control-plane events fire first: they are part of the
        # deterministic workload (visible in ``faults_applied``, replayed
        # identically by the reference run), and each verb barriers and
        # checkpoints shard-side.  Chaos fires *last* at the same boundary
        # — every worker idle again — so a SIGKILL paired with a
        # MIGRATION_CRASH lands mid-migration, right after the aborted
        # hand-off (master record, untouched routing) hit the checkpoint,
        # and the kill's effect stays a pure function of the schedule.
        if self.cluster.has_master:
            if self.fault_plan is not None:
                for event in self.fault_plan.events_at(batch_index):
                    self._apply_fault(event)
            if (
                self.rebalance_every > 0
                and batch_index > 0
                and batch_index % self.rebalance_every == 0
            ):
                self.cluster.rebalance()
        if self.chaos_plan is not None:
            for event in self.chaos_plan.events_at(batch_index):
                self.chaos_applied.append(self.cluster.apply_chaos_event(event))

    # ------------------------------------------------------------------
    # Windowed batch loops
    # ------------------------------------------------------------------
    # Same admit RNG order, same control-step cadence, same timeline
    # thresholds as the base loops — but batches go in flight through
    # ``enqueue_update_batch`` and timeline flushes are deferred behind
    # round markers, resolved from the per-round makespan history after
    # the final drain.  At window=1 the schedule degenerates to the base
    # loop's (one enqueue, one drain, per round), which is why reports
    # stay byte-identical across window sizes.

    def run_update_batches(
        self,
        messages: Sequence[UpdateMessage],
        batch_size: int = 256,
        bucket_batches: int = 4,
    ) -> LoadTestResult:
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if bucket_batches <= 0:
            raise ConfigurationError("bucket_batches must be positive")
        self._begin_run()
        cluster = self.cluster
        bucket = _TimelineBucket(bucket_batches)
        failed = 0
        last_index = 0
        for batch_index, start in enumerate(range(0, len(messages), batch_size)):
            last_index = batch_index
            # Control-plane and chaos ticks barrier internally, so every
            # event still observes fully settled shards.
            self._control_step(batch_index)
            batch, dropped = self._admit(messages[start : start + batch_size])
            failed += dropped
            cluster.enqueue_update_batch(batch, round_index=batch_index)
            bucket.add(len(batch), dropped)
            bucket.defer(batch_index)
        cluster.drain_update_window()
        completed = cluster.pipeline_processed
        makespan = cluster.makespan_seconds()
        bucket.finish_deferred(last_index)
        bucket.resolve(cluster.makespan_at_round)
        return self._build_result(completed, failed, makespan, bucket.points)

    def run_mixed_batches(
        self,
        messages: Sequence[UpdateMessage],
        queries: Sequence[object],
        batch_size: int = 256,
        bucket_batches: int = 4,
    ) -> LoadTestResult:
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if bucket_batches <= 0:
            raise ConfigurationError("bucket_batches must be positive")
        self._begin_run()
        cluster = self.cluster
        bucket = _TimelineBucket(bucket_batches)
        failed = 0
        completed_queries = 0
        update_offset = 0
        query_offset = 0
        batch_index = 0
        while update_offset < len(messages) or query_offset < len(queries):
            self._control_step(batch_index)
            update_batch, dropped_updates = self._admit(
                messages[update_offset : update_offset + batch_size]
            )
            update_offset += batch_size
            query_batch, dropped_queries = self._admit(
                queries[query_offset : query_offset + batch_size]
            )
            query_offset += batch_size
            failed += dropped_updates + dropped_queries
            cluster.enqueue_update_batch(update_batch, round_index=batch_index)
            if query_batch:
                # The broadcast drains the window (explicit barrier), then
                # the settled makespan — update *and* query growth — is
                # pinned to this round for the deferred timeline.
                completed_queries += len(cluster.submit_query_batch(query_batch))
                cluster.record_round_makespan(batch_index)
            bucket.add(
                len(update_batch) + len(query_batch),
                dropped_updates + dropped_queries,
            )
            bucket.defer(batch_index)
            batch_index += 1
        cluster.drain_update_window()
        completed = completed_queries + cluster.pipeline_processed
        makespan = cluster.makespan_seconds()
        bucket.finish_deferred(max(batch_index - 1, 0))
        bucket.resolve(cluster.makespan_at_round)
        return self._build_result(completed, failed, makespan, bucket.points)

    def _build_result(
        self,
        completed: int,
        failed: int,
        makespan: float,
        timeline: List[TimelinePoint],
    ) -> LoadTestResult:
        per_server: List[float] = []
        for entry in self.cluster.metrics():
            for updates, queries, update_busy, query_busy, _alive in entry["servers"]:
                busy = update_busy + query_busy
                requests = updates + queries
                per_server.append(requests / busy if busy > 0 else 0.0)
        backend = self.cluster.backend
        migrations, replications, failovers = self.cluster.master_action_counts()
        return LoadTestResult(
            total_requests=completed,
            failed_requests=failed,
            simulated_seconds=makespan,
            qps=completed / makespan if makespan > 0 else 0.0,
            per_server_qps=per_server,
            timeline=timeline,
            tablet_count=backend.tablet_count(),
            hot_tablet_share=backend.hot_tablet_share(),
            cache_hit_rate=backend.cache_hit_rate(),
            p99_service_time_s=self.cluster.service_time_percentile(0.99),
            migrations=migrations - self._master_baseline[0],
            replications=replications - self._master_baseline[1],
            failovers=failovers - self._master_baseline[2],
            faults_applied=list(self._faults_applied),
        )

    def run_client_bursts(self, *args, **kwargs) -> LoadTestResult:
        raise ConfigurationError(
            "client-burst tests are single-cluster only; use the batched runs"
        )
