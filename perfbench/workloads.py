"""The three benchmark workloads: inputs, set-up, rounds, checks.

Each workload makes every input from the seed it is given and feeds the
program only those inputs, through the public batch surface that
``LoadTest`` drives.  A round is one closed-loop step of a single client:
the next round starts only after the previous one returned.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import heapq
import random
import shutil
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.bigtable.tablet import TabletOptions
from repro.core.config import MoistConfig
from repro.core.moist import MoistIndexer
from repro.baselines.no_school import build_no_school_indexer
from repro.experiments.common import dense_road_config, school_config
from repro.experiments.rebalance import (
    REBALANCE_MASTER_OPTIONS,
    hot_school_streams,
)
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server.chaos import KILL_WORKER, ChaosPlan
from repro.server.cluster import ServerCluster
from repro.server.scaleout import ScaleOutCluster
from repro.workload.generator import RoadNetworkWorkload
from repro.workload.queries import NNQuery

ROUND_REQUESTS = 256


def _result_key(results) -> List[tuple]:
    """Exact, comparable form of one query's neighbour list."""
    return [
        (
            item.object_id,
            item.distance,
            item.location.x,
            item.location.y,
            item.is_leader,
            item.leader_id,
        )
        for item in results
    ]


class Workload:
    """Shared shape: ``setup`` builds, ``run_round`` drives one round,
    ``finish`` reads end-of-run state, ``check`` compares outputs against
    a reference computed in the same invocation."""

    name = ""
    #: Rounds per second of ``--seconds`` on the 2-core calibration host;
    #: the round count is fixed by ``--seconds`` so both sides of an A/B
    #: comparison do identical work.
    round_rate = 1.0
    min_rounds = 100
    trace_rounds = 16
    #: Builds per untraced run; ``setup_s`` is their median.  The first
    #: build of a process is the slowest (lazy imports, codec memo
    #: caches), so the median lands on a warm build.
    setup_repeats = 3

    def __init__(self, seed: int, rounds: int, workdir: str) -> None:
        self.seed = seed
        self.rounds = rounds
        self.workdir = workdir
        self.attempted = 0

    @classmethod
    def rounds_for(cls, seconds: int) -> int:
        return max(cls.min_rounds, int(round(seconds * cls.round_rate)))

    def teardown(self) -> None:
        pass

    def idle_after(self, index: int) -> bool:
        """Whether the program is idle once round ``index`` returned, so a
        host-speed calibration point may run (see ``hostspeed.py``)."""
        return True

    def counter(self):
        """The storage op counter whose work the run is charged to."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# leaders_read
# --------------------------------------------------------------------------


class LeadersRead(Workload):
    """Read path with a working set larger than the block cache."""

    name = "leaders_read"
    #: Rounds are slow (~0.35 s), so the 100-round floor sets the length.
    round_rate = 3.0
    trace_rounds = 16
    num_objects = 20_000
    region = 1000.0
    updates_per_round = 26
    k = 10
    #: Queries checked against brute force: the first few of every fifth
    #: round.
    check_every = 5
    check_per_round = 4

    def __init__(self, seed: int, rounds: int, workdir: str) -> None:
        super().__init__(seed, rounds, workdir)
        rng = random.Random(seed)
        size = self.region
        self.preload = [
            UpdateMessage(
                object_id=format_object_id(index),
                location=Point(rng.uniform(0.0, size), rng.uniform(0.0, size)),
                velocity=Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                timestamp=0.0,
            )
            for index in range(self.num_objects)
        ]
        queries_per_round = ROUND_REQUESTS - self.updates_per_round
        self.round_inputs = []
        for round_index in range(rounds):
            updates = [
                UpdateMessage(
                    object_id=format_object_id(rng.randrange(self.num_objects)),
                    location=Point(rng.uniform(0.0, size), rng.uniform(0.0, size)),
                    velocity=Vector(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
                    timestamp=float(round_index + 1),
                )
                for _ in range(self.updates_per_round)
            ]
            queries = [
                NNQuery(
                    location=Point(rng.uniform(0.0, size), rng.uniform(0.0, size)),
                    k=self.k,
                )
                for _ in range(queries_per_round)
            ]
            self.round_inputs.append((updates, queries))
        self.attempted = rounds * ROUND_REQUESTS
        self.sampled: Dict[int, list] = {}
        self.indexer: Optional[MoistIndexer] = None
        self.cluster: Optional[ServerCluster] = None

    def setup(self) -> None:
        config = MoistConfig(
            world=BoundingBox(0.0, 0.0, self.region, self.region),
            storage_level=12,
        )
        indexer = build_no_school_indexer(config)
        indexer.update_many(self.preload)
        indexer.emulator.reset_counters()
        self.indexer = indexer
        self.cluster = ServerCluster(indexer, num_servers=5, record_service_times=True)

    def teardown(self) -> None:
        self.indexer = None
        self.cluster = None

    def run_round(self, index: int) -> int:
        updates, queries = self.round_inputs[index]
        done = self.cluster.submit_update_batch(updates)
        results = self.cluster.submit_query_batch(queries)
        if index % self.check_every == 0:
            self.sampled[index] = results[: self.check_per_round]
        return done + sum(1 for item in results if item is not None)

    def counter(self):
        return self.indexer.emulator.counter

    def finish(self) -> dict:
        indexer = self.indexer
        return {
            "makespan_s": self.cluster.makespan_seconds(),
            "p99_service_s": self.cluster.service_time_percentile(0.99),
            "cache_hit_rate": indexer.cache_hit_rate(),
            "write_amplification": indexer.write_amplification(),
            "runs": indexer.emulator.run_count(),
            "shed_ratio": 0.0,
        }

    def check(self) -> List[str]:
        """Sampled NN results against brute-force k-NN over the positions
        this benchmark generated."""
        positions = {m.object_id: m.location for m in self.preload}
        problems = []
        for round_index in range(self.rounds):
            updates, queries = self.round_inputs[round_index]
            for message in updates:
                positions[message.object_id] = message.location
            if round_index not in self.sampled:
                continue
            for query, got in zip(queries, self.sampled[round_index]):
                nearest = heapq.nsmallest(
                    query.k,
                    (
                        (position.distance_to(query.location), object_id)
                        for object_id, position in positions.items()
                    ),
                )
                want = [(object_id, distance) for distance, object_id in nearest]
                have = [(item.object_id, item.distance) for item in got]
                if have != want:
                    problems.append(
                        f"round {round_index}: query at {query.location} "
                        f"returned {have[:3]}... expected {want[:3]}..."
                    )
        if not self.sampled:
            problems.append("no query results were sampled")
        return problems


# --------------------------------------------------------------------------
# schools_ingest
# --------------------------------------------------------------------------


class SchoolsIngest(Workload):
    """The paper's write path: road-network objects forming schools."""

    name = "schools_ingest"
    round_rate = 30.0
    trace_rounds = 96
    #: A build takes ~0.25 s, so more builds cost little and steady the
    #: median.
    setup_repeats = 7
    num_objects = 2000
    queries_per_round = 8
    k = 10
    #: Simulated seconds replayed through the single-request API by the
    #: check: the preload second plus ten more, so the second clustering
    #: pass (due at t=11) is inside the prefix.
    check_until_s = 12.0

    def __init__(self, seed: int, rounds: int, workdir: str) -> None:
        super().__init__(seed, rounds, workdir)
        self.config = school_config()
        size = self.config.world.width
        road = RoadNetworkWorkload(dense_road_config(self.num_objects, seed=seed))
        rng = random.Random(seed * 7919 + 1)
        self.preload = road.advance_to(1.0)
        self.round_inputs: List[Tuple[list, list, float, bool]] = []
        second = 1
        while len(self.round_inputs) < rounds:
            second += 1
            now = float(second)
            messages = road.advance_to(now)
            starts = list(range(0, len(messages), ROUND_REQUESTS))
            for position, start in enumerate(starts):
                queries = [
                    NNQuery(
                        location=Point(rng.uniform(0.0, size), rng.uniform(0.0, size)),
                        k=self.k,
                    )
                    for _ in range(self.queries_per_round)
                ]
                self.round_inputs.append(
                    (
                        messages[start : start + ROUND_REQUESTS],
                        queries,
                        now,
                        position == len(starts) - 1,
                    )
                )
        # Whole simulated seconds only, so every second ends with clustering.
        self.rounds = len(self.round_inputs)
        self.attempted = sum(
            len(messages) + len(queries)
            for messages, queries, _, _ in self.round_inputs
        )
        self.recorded: Dict[int, list] = {}
        self.indexer: Optional[MoistIndexer] = None
        self.cluster: Optional[ServerCluster] = None

    def _build(self) -> Tuple[MoistIndexer, ServerCluster]:
        indexer = MoistIndexer(
            self.config,
            tablet_options=TabletOptions(memtable_flush_rows=128, compaction_max_runs=4),
        )
        cluster = ServerCluster(indexer, num_servers=1, record_service_times=True)
        return indexer, cluster

    def setup(self) -> None:
        indexer, cluster = self._build()
        for start in range(0, len(self.preload), ROUND_REQUESTS):
            cluster.submit_update_batch(self.preload[start : start + ROUND_REQUESTS])
        indexer.run_due_clustering(1.0)
        indexer.emulator.reset_counters()
        cluster.reset_metrics()
        self.stats_before = (indexer.update_stats.total, indexer.update_stats.shed)
        self.indexer, self.cluster = indexer, cluster

    def teardown(self) -> None:
        self.indexer = None
        self.cluster = None

    def run_round(self, index: int) -> int:
        messages, queries, now, last_of_second = self.round_inputs[index]
        done = self.cluster.submit_update_batch(messages)
        results = self.cluster.submit_query_batch(queries, at_time=now)
        if last_of_second:
            self.indexer.run_due_clustering(now)
        if now <= self.check_until_s:
            self.recorded[index] = results
        return done + sum(1 for item in results if item is not None)

    def counter(self):
        return self.indexer.emulator.counter

    def finish(self) -> dict:
        indexer = self.indexer
        stats = indexer.update_stats
        total = stats.total - self.stats_before[0]
        return {
            "makespan_s": self.cluster.makespan_seconds(),
            "p99_service_s": self.cluster.service_time_percentile(0.99),
            "cache_hit_rate": indexer.cache_hit_rate(),
            "write_amplification": indexer.write_amplification(),
            "runs": indexer.emulator.run_count(),
            "shed_ratio": (stats.shed - self.stats_before[1]) / total if total else 0.0,
            "schools": indexer.school_count,
        }

    @staticmethod
    def _apply_order(indexer: MoistIndexer, messages) -> list:
        """The order in which ``submit_update_batch`` applies a batch: one
        Location-table tablet group at a time, in tablet-id order, so a
        follower and its leader in different tablets are not applied in
        arrival order.  The batch == sequential equivalence holds for that
        order.  Groups come from ``indexer``'s tablet layout, which must be
        the batched side's: the batch path defers tablet splits to the end
        of each group commit, so a sequential replay splits at other
        moments and its own layout would group differently."""
        table = indexer.location_table.table
        groups: Dict[str, list] = {}
        for message in messages:
            groups.setdefault(table.tablet_for_key(message.object_id).tablet_id, []).append(message)
        return [message for tablet_id in sorted(groups) for message in groups[tablet_id]]

    def check(self) -> List[str]:
        """Batched NN results against a sequential replay of the prefix
        through the single-request API (batch == sequential).  A batched
        twin is rebuilt alongside the replay only to supply each batch's
        apply order."""
        twin, twin_cluster = self._build()
        indexer, cluster = self._build()

        def apply(messages) -> None:
            for message in self._apply_order(twin, messages):
                cluster.submit_update(message)
            twin_cluster.submit_update_batch(messages)

        def cluster_due(now: float) -> None:
            twin.run_due_clustering(now)
            indexer.run_due_clustering(now)

        for start in range(0, len(self.preload), ROUND_REQUESTS):
            apply(self.preload[start : start + ROUND_REQUESTS])
        cluster_due(1.0)
        problems = []
        for index, (messages, queries, now, last_of_second) in enumerate(
            self.round_inputs
        ):
            if index not in self.recorded:
                break
            apply(messages)
            for query, got in zip(queries, self.recorded[index]):
                want = indexer.nearest_neighbors(
                    query.location, query.k, at_time=now, include_followers=True
                )
                if _result_key(got) != _result_key(want):
                    problems.append(
                        f"round {index} (t={now}): batched NN result differs "
                        f"from the sequential replay at {query.location}"
                    )
            if last_of_second:
                cluster_due(now)
        if not self.recorded:
            problems.append("no query results were recorded for the check")
        return problems


# --------------------------------------------------------------------------
# federation_skew
# --------------------------------------------------------------------------


class FederationSkew(Workload):
    """Forked, disk-backed, supervised scale-out under hot-school skew."""

    name = "federation_skew"
    round_rate = 8.0
    trace_rounds = 40
    #: A build forks workers and fsyncs every shard's store, and its time
    #: varies 1.4-4.7 s within one run, so the median needs more builds.
    setup_repeats = 5
    num_objects = 5000
    num_shards = 8
    num_workers = 2
    window = 8
    query_every = 4
    queries_per_barrier = 64
    rebalance_every = 4

    def __init__(self, seed: int, rounds: int, workdir: str) -> None:
        super().__init__(seed, rounds, workdir)
        messages, queries = hot_school_streams(
            self.num_objects, 2 * rounds * ROUND_REQUESTS, 0.9, seed=seed
        )
        self.updates = [
            messages[index * ROUND_REQUESTS : (index + 1) * ROUND_REQUESTS]
            for index in range(rounds)
        ]
        self.queries: Dict[int, list] = {}
        offset = 0
        for index in range(rounds):
            if index % self.query_every == self.query_every - 1:
                self.queries[index] = queries[offset : offset + self.queries_per_barrier]
                offset += self.queries_per_barrier
        self.chaos = ChaosPlan.seeded(
            seed + 1, num_batches=rounds, num_workers=self.num_workers,
            kills=self.num_workers,
        )
        self.attempted = rounds * ROUND_REQUESTS + offset
        self.results: List[list] = []
        self.cluster: Optional[ScaleOutCluster] = None

    def _recipe(self) -> dict:
        return dict(
            window=self.window,
            with_master=True,
            record_service_times=True,
            num_objects=self.num_objects,
            seed=self.seed,
            num_servers=2,
            master_options=REBALANCE_MASTER_OPTIONS,
        )

    def setup(self) -> None:
        self.storage_dir = tempfile.mkdtemp(prefix="federation-", dir=self.workdir)
        self.cluster = ScaleOutCluster.build(
            self.num_shards,
            backend="disk",
            num_workers=self.num_workers,
            supervision_policy="respawn",
            storage_dir=self.storage_dir,
            **self._recipe(),
        )
        self.results = []

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None
        shutil.rmtree(self.storage_dir, ignore_errors=True)

    def _drive(
        self, cluster: ScaleOutCluster, index: int, chaos: bool, results: list
    ) -> None:
        if chaos:
            for event in self.chaos.events_at(index):
                cluster.apply_chaos_event(event)
                if event.kind == KILL_WORKER:
                    # Let the victim exit before the next send, so the
                    # failure is always detected the same way and the
                    # per-layer call counts repeat from run to run.
                    cluster.backend.pool.processes[event.worker_index].join(10.0)
        cluster.enqueue_update_batch(self.updates[index], round_index=index)
        queries = self.queries.get(index)
        if queries:
            results.append(cluster.submit_query_batch(queries))
        if index == self.rounds - 1:
            cluster.drain_update_window()
        elif (index + 1) % self.rebalance_every == 0:
            # The master tick rides the query round, right after its
            # barrier, so three rounds in four only encode and send.
            cluster.rebalance()

    def run_round(self, index: int) -> int:
        self._drive(self.cluster, index, True, self.results)
        return 0  # updates complete at drain time; see ``completed``

    def idle_after(self, index: int) -> bool:
        # Workers are idle only after a barrier; between barriers they
        # apply the window while the driver encodes the next round.
        return (index + 1) % self.query_every == 0 or index == self.rounds - 1

    def completed(self) -> int:
        answered = sum(
            sum(1 for item in batch if item is not None) for batch in self.results
        )
        return self.cluster.pipeline_processed + answered

    def counter(self):
        return self.cluster.backend.counter

    @staticmethod
    def _outcome(cluster: ScaleOutCluster, results: list) -> tuple:
        return (
            [[_result_key(item) for item in batch] for batch in results],
            cluster.makespan_seconds(),
            cluster.service_time_percentile(0.99),
            cluster.master_action_counts(),
        )

    def finish(self) -> dict:
        cluster = self.cluster
        self.outcome = self._outcome(cluster, self.results)
        backend = cluster.backend
        return {
            "makespan_s": self.outcome[1],
            "p99_service_s": self.outcome[2],
            "cache_hit_rate": backend.cache_hit_rate(),
            "write_amplification": backend.write_amplification(),
            "runs": backend.run_count(),
            "shed_ratio": 0.0,
            "master_actions": self.outcome[3],
            "recovery": cluster.recovery_snapshot(),
            "pipeline": cluster.metrics_snapshot(),
        }

    def check(self) -> List[str]:
        """The same stream on ``backend="inprocess"`` without chaos must
        give the same NN results, makespan, p99 and master actions."""
        measured = self.outcome
        reference = ScaleOutCluster.build(
            self.num_shards, backend="inprocess", **self._recipe()
        )
        results: list = []
        try:
            for index in range(self.rounds):
                self._drive(reference, index, False, results)
            expected = self._outcome(reference, results)
        finally:
            reference.close()
        problems = []
        labels = ("NN results", "simulated makespan", "p99 service time",
                  "master action counts")
        for label, have, want in zip(labels, measured, expected):
            if have != want:
                problems.append(f"{label} differ from the in-process reference")
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (LeadersRead, SchoolsIngest, FederationSkew)
}
