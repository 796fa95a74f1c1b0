"""Shared-nothing scale-out: route requests across shard groups.

:class:`ScaleOutCluster` is the parent-side view of a sharded MOIST
deployment.  Each shard hosts a complete, unmodified stack (emulator,
indexer, server cluster, optional tablet master) behind a shard client —
either in-process (:class:`repro.bigtable.process_backend.LocalShardClient`)
or a worker process reached over the batched RPC framing
(:class:`repro.bigtable.process_backend.ProcessShardClient`).  The cluster
partitions update batches by owning shard, broadcasts query batches, and
merges results in fixed shard order, so its outputs are bit-identical for
every worker count — including the degenerate one-shard in-process case.

Determinism model: the *shard count* is the unit of determinism (it decides
object placement and per-shard RNG consumption); the *worker count* is the
unit of parallelism (it only decides which OS process executes a shard).
Nothing the parent merges depends on worker count.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bigtable.process_backend import (
    FederatedShardedBackend,
    ProcessShardedBackend,
    _decode_update_result,
    _query_decoder,
    make_scaleout_backend,
)
from repro.errors import (
    ConfigurationError,
    FrameCorruptionError,
    WorkerDiedError,
)
from repro.model import NeighborResult, UpdateMessage
from repro.server import chaos as chaos_mod
from repro.server import rpc
from repro.server.supervisor import Supervisor
from repro.server.worker import shard_of


class _Entry(NamedTuple):
    """One per-shard request in flight through the engine."""

    shard_id: int
    opcode: int
    #: Update batch, probe set or ``(method, args, kwargs)`` call.
    payload: Any
    #: Owning worker, or ``None`` in-process.
    worker: Optional[int]
    #: Pinned request id, or the already-resolved result in-process.
    token: Any
    #: Encoded request body (kept for the heal-and-resend path).
    body: Optional[bytes]
    round_index: Optional[int]


_ENCODERS = {
    rpc.OP_UPDATE_BATCH: rpc.encode_update_batch,
    rpc.OP_QUERY_BATCH: rpc.encode_query_batch,
    rpc.OP_CALL: lambda call: rpc.encode_call(*call),
}


def _run_local(client, opcode: int, payload: Any) -> Any:
    """Run one request on an in-process shard client."""
    if opcode == rpc.OP_CALL:
        method, args, kwargs = payload
        return client.call(method, *args, **kwargs)
    if opcode == rpc.OP_UPDATE_BATCH:
        return client.service.update_batch(payload)
    return client.service.query_batch(payload)


class ScaleOutCluster:
    """Scatter/gather request router over a federation of shard groups.

    Mirrors the :class:`repro.server.cluster.ServerCluster` surface the
    load tests drive (``submit_update_batch`` / ``submit_query_batch`` /
    ``makespan_seconds`` / ``reset_metrics``), plus the control-plane
    hooks (:meth:`apply_fault`, :meth:`rebalance`) the fault injector
    needs.

    Every verb — update rounds, query broadcasts, control verbs and
    metric reads — goes through one scatter-gather engine with two steps.
    The send step (:meth:`_send`) allocates pinned request ids and puts
    each worker's frames on the wire in one ``sendall``, so one round
    costs one round-trip regardless of shard count.  The collect step
    (:meth:`_collect`) reads responses in send order and, under a
    supervisor, heals a failed worker and resends its uncollected
    requests with their original ids; the worker-side dedup window makes
    the resend exactly-once for every state-changing verb.

    Update rounds use the two steps apart: the parent may keep up to
    ``window`` whole rounds in flight before blocking
    (:meth:`enqueue_update_batch` / :meth:`drain_update_window`),
    overlapping parent-side columnar encode of round *k+1* and decode of
    round *k−1* with worker-side apply of round *k*.  Per-connection FIFO
    order is untouched — a worker applies its frames in send order — so
    every shard sees exactly the batch stream it would have seen at
    ``window=1`` and the simulated results stay byte-identical for every
    window size.  Every other verb drains the window first (an explicit
    barrier), so nothing can observe a shard mid-window.
    """

    def __init__(
        self,
        backend: FederatedShardedBackend,
        supervision_policy: Optional[str] = None,
        retry_policy: Optional[rpc.RetryPolicy] = None,
        max_consecutive_failures: int = 5,
        window: int = 1,
    ) -> None:
        if backend.num_shards < 1:
            raise ConfigurationError("a scale-out cluster needs >= 1 shard")
        self.backend = backend
        self.clients = backend.clients
        self.recipes = backend.recipes
        self.num_shards = backend.num_shards
        # Shard 0 speaks for the federation's shape below, so a mixed
        # fleet must be rejected here — otherwise e.g. a master on shard 0
        # only would silently misroute every rebalance tick at the shards
        # without one.
        base = backend.recipes[0]
        for shard_id, recipe in enumerate(backend.recipes):
            for field_name in (
                "with_master",
                "num_servers",
                "record_service_times",
                "durable_accounting",
                "dedup_window",
            ):
                if getattr(recipe, field_name) != getattr(base, field_name):
                    raise ConfigurationError(
                        f"mixed fleet: shard {shard_id} disagrees with "
                        f"shard 0 on {field_name} "
                        f"({getattr(recipe, field_name)!r} != "
                        f"{getattr(base, field_name)!r}); every recipe must "
                        "agree on the fields the parent reads from the "
                        "first recipe"
                    )
        self.has_master = base.with_master
        self.num_servers_per_shard = base.num_servers
        #: Last reported simulated makespan per shard; the cluster-wide
        #: makespan is their max (shards run concurrently in wall-clock
        #: but their simulated clocks are independent).
        self._makespans = [0.0] * self.num_shards
        self.retry_policy = retry_policy or rpc.RetryPolicy()
        #: Windowed in-flight state: one engine entry per outstanding
        #: per-shard update request, in send order.  In-process entries
        #: are already resolved — there is no wire to overlap — but they
        #: walk the identical enqueue/drain schedule, so the pipeline
        #: counters and reports match the process backend exactly.
        self.window = 1
        self._inflight: List[_Entry] = []
        self._inflight_rounds = 0
        self._pipeline_processed = 0
        #: Workers whose send failed; the next collect step heals them
        #: (supervised) or raises (unsupervised).
        self._send_failed: Dict[int, str] = {}
        #: ``(round_index, shard makespan)`` per committed in-flight entry;
        #: :meth:`makespan_at_round` resolves the cluster makespan *as of*
        #: any past round from this, which is what lets the load test
        #: defer its timeline arithmetic instead of barriering per bucket.
        self._makespan_history: List[Tuple[int, float]] = []
        self._phase = self._zero_phase()
        #: With a supervisor the collect step heals failed workers and
        #: resends; without one the first failure raises.
        self.supervisor: Optional[Supervisor] = None
        if supervision_policy is not None:
            if not isinstance(backend, ProcessShardedBackend):
                raise ConfigurationError(
                    "supervision needs the process backend — the in-process "
                    "federation has no worker processes to supervise"
                )
            self.supervisor = Supervisor(
                backend,
                policy=supervision_policy,
                retry_policy=self.retry_policy,
                max_consecutive_failures=max_consecutive_failures,
            )
        self.set_window(window)

    @classmethod
    def build(
        cls,
        num_shards: int,
        backend: str = "inprocess",
        num_workers: int = 1,
        timeout_s: float = 120.0,
        supervision_policy: Optional[str] = None,
        retry_policy: Optional[rpc.RetryPolicy] = None,
        max_consecutive_failures: int = 5,
        window: int = 1,
        **recipe_kwargs,
    ) -> "ScaleOutCluster":
        """Build a fully loaded cluster from recipe knobs.

        ``backend`` selects the execution vehicle (``"inprocess"``,
        ``"process"`` or ``"disk"``); every other knob feeds the per-shard
        :class:`repro.server.worker.ShardRecipe`.  A ``supervision_policy``
        lets the engine heal failed workers; ``"respawn"`` (lossless)
        additionally turns on durable accounting checkpoints so a respawned
        shard restores its simulated tallies and dedup window.  ``window``
        bounds the in-flight update rounds per worker; the worker-side
        dedup window is sized to at least ``window`` so a heal-then-resend
        of the whole in-flight window stays exactly-once.
        """
        if supervision_policy == "respawn":
            recipe_kwargs.setdefault("durable_accounting", True)
        recipe_kwargs.setdefault("dedup_window", max(8, window))
        return cls(
            make_scaleout_backend(
                backend,
                num_shards,
                num_workers=num_workers,
                timeout_s=timeout_s,
                **recipe_kwargs,
            ),
            supervision_policy=supervision_policy,
            retry_policy=retry_policy,
            max_consecutive_failures=max_consecutive_failures,
            window=window,
        )

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def shard_for(self, object_id: str) -> int:
        """Owning shard of ``object_id`` (stable, worker-count independent)."""
        return shard_of(object_id, self.num_shards)

    def submit_update(self, message: UpdateMessage) -> int:
        """Route one update to its owning shard (single-request path)."""
        return self.submit_update_batch([message])

    def submit_update_batch(self, messages: Sequence[UpdateMessage]) -> int:
        """Partition a batch by owning shard, dispatch, and wait for it.

        The synchronous legacy surface: one call is one enqueued round
        followed by a full window drain, so callers that never touch the
        windowed API keep exact ``window=1`` semantics.  Returns the
        number of messages processed across everything the drain
        collected.
        """
        if not messages:
            return 0
        before = self._pipeline_processed
        self.enqueue_update_batch(messages)
        self.drain_update_window()
        return self._pipeline_processed - before

    # ------------------------------------------------------------------
    # Windowed pipelined engine
    # ------------------------------------------------------------------
    @staticmethod
    def _zero_phase() -> Dict[str, float]:
        return {
            "encode_seconds": 0.0,
            "send_seconds": 0.0,
            "blocked_wait_seconds": 0.0,
            "decode_seconds": 0.0,
            "blocking_waits": 0,
            "barrier_drains": 0,
            "rounds_enqueued": 0,
            "drains": 0,
        }

    def set_window(self, window: int) -> None:
        """Bound the in-flight update rounds per worker.

        The window cannot exceed the worker-side dedup depth: a heal must
        be able to resend the *whole* in-flight window with original ids
        and have every already-applied batch replayed, not re-applied.
        """
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        dedup_depth = getattr(self.recipes[0], "dedup_window", window)
        if window > dedup_depth:
            raise ConfigurationError(
                f"window {window} exceeds the worker-side dedup depth "
                f"{dedup_depth}; rebuild with dedup_window >= window"
            )
        self.drain_update_window()
        self.window = window

    @property
    def pipeline_processed(self) -> int:
        """Messages processed through the windowed engine since the last
        metrics reset (committed at drain time, in send order)."""
        return self._pipeline_processed

    def enqueue_update_batch(
        self,
        messages: Sequence[UpdateMessage],
        round_index: Optional[int] = None,
    ) -> None:
        """Put one update round in flight without waiting for it.

        This is the engine's send step on its own: parent-side encode
        happens here — while workers are still applying previously
        enqueued rounds — and each worker's frames for this round coalesce
        into a single ``sendall``.  When the window is full the call
        drains it first, so at most ``self.window`` rounds are ever
        outstanding.  ``round_index`` tags the round for
        :meth:`makespan_at_round` (the load test's deferred timeline).
        """
        if not messages:
            return
        if self._inflight_rounds >= self.window:
            self.drain_update_window()
        buckets: List[List[UpdateMessage]] = [[] for _ in range(self.num_shards)]
        for message in messages:
            buckets[shard_of(message.object_id, self.num_shards)].append(message)
        self._inflight.extend(
            self._send(
                [
                    (shard_id, rpc.OP_UPDATE_BATCH, batch)
                    for shard_id, batch in enumerate(buckets)
                    if batch
                ],
                round_index,
            )
        )
        self._inflight_rounds += 1
        self._phase["rounds_enqueued"] += 1

    def drain_update_window(self) -> int:
        """Collect every in-flight update round (the explicit barrier).

        This is the engine's collect step over the in-flight list.
        Responses are committed in send order, so makespans, ack
        accounting and the per-round makespan history are independent of
        arrival order.  Returns the messages processed by this drain.
        """
        entries, self._inflight = self._inflight, []
        self._inflight_rounds = 0
        if not entries:
            return 0
        self._phase["drains"] += 1
        self._phase["blocking_waits"] += 1
        processed = 0
        for entry, (count, makespan) in zip(entries, self._collect(entries)):
            processed += count
            self._makespans[entry.shard_id] = makespan
            if entry.round_index is not None:
                self._makespan_history.append((entry.round_index, makespan))
            if self.supervisor is not None:
                self.supervisor.note_acked_updates(entry.shard_id, count)
        self._pipeline_processed += processed
        return processed

    def _barrier(self) -> int:
        """Drain before anything that must observe settled shards (query
        broadcasts, control-plane verbs, chaos events, metric reads)."""
        if self._inflight:
            self._phase["barrier_drains"] += 1
        return self.drain_update_window()

    def record_round_makespan(self, round_index: int) -> None:
        """Pin the current *settled* makespan to a round marker.

        The mixed load-test loop calls this right after a barriered query
        broadcast: queries advance shard clocks outside the windowed
        update path, and the deferred timeline still needs
        :meth:`makespan_at_round` to see that growth."""
        self._makespan_history.append((round_index, self.makespan_seconds()))

    def makespan_at_round(self, round_index: int) -> float:
        """The cluster-wide simulated makespan *as of* a past round.

        Valid because per-shard makespans are monotonically nondecreasing:
        the max over every committed entry tagged with a round at or
        before ``round_index`` equals the makespan a ``window=1`` engine
        would have reported right after that round."""
        best = 0.0
        for committed_round, makespan in self._makespan_history:
            if committed_round <= round_index and makespan > best:
                best = makespan
        return best

    def metrics_snapshot(self) -> Dict[str, object]:
        """Engine-side pipeline counters and phase timing breakdown.

        Phase seconds are wall-clock (parent-side, every verb the engine
        carries) and deliberately live *outside* ``to_report()``; the
        counter fields (``blocking_waits``, ``rounds_enqueued``, ...) are
        machine-independent — functions of the batch schedule only —
        which is what the CI overlap guard pins."""
        snapshot: Dict[str, object] = dict(self._phase)
        snapshot["window"] = self.window
        snapshot["inflight_rounds"] = self._inflight_rounds
        return snapshot

    def submit_query_batch(
        self, queries: Sequence[object]
    ) -> List[List[NeighborResult]]:
        """Broadcast a query batch to every shard and merge top-k results.

        Objects are spread across shards, so each NN query must probe all
        of them; per query the shard answers are concatenated, sorted by
        ``(distance, object_id)`` and truncated to the query's ``k`` —
        exactly the order a single-shard indexer produces.
        """
        queries = list(queries)
        if not queries:
            return []
        per_shard = self._dispatch(
            [
                (shard_id, rpc.OP_QUERY_BATCH, queries)
                for shard_id in range(self.num_shards)
            ]
        )
        for shard_id, (_results, makespan) in enumerate(per_shard):
            self._makespans[shard_id] = makespan
        merged: List[List[NeighborResult]] = []
        for query_index, query in enumerate(queries):
            combined: List[NeighborResult] = []
            for shard_results, _makespan in per_shard:
                combined.extend(shard_results[query_index])
            combined.sort(key=lambda result: (result.distance, result.object_id))
            merged.append(combined[: query.k])
        return merged

    # ------------------------------------------------------------------
    # Scatter-gather engine: one send step, one collect step
    # ------------------------------------------------------------------
    def _send(
        self,
        requests: Sequence[Tuple[int, int, Any]],
        round_index: Optional[int] = None,
    ) -> List[_Entry]:
        """Send step: put ``(shard_id, opcode, payload)`` requests in flight.

        Returns one entry per request, in request order.  Each worker gets
        one pass: pinned request ids are allocated first, then its frames
        are queued and flushed with a single ``sendall``.  A payload shared
        by several shards (a broadcast) is encoded once.  A failed send
        marks the worker for the collect step; a worker already marked
        gets its ids but no frames, and the collect step resends them.

        The in-process federation has no wire: each request runs on the
        spot and its entry comes back resolved.
        """
        backend = self.backend
        if not isinstance(backend, ProcessShardedBackend):
            return [
                _Entry(shard_id, opcode, payload, None, _run_local(
                    self.clients[shard_id], opcode, payload
                ), None, round_index)
                for shard_id, opcode, payload in requests
            ]
        clock = time.perf_counter
        started = clock()
        bodies: Dict[int, bytes] = {}
        by_worker: Dict[int, List[int]] = {}
        for index, (shard_id, opcode, payload) in enumerate(requests):
            if id(payload) not in bodies:
                bodies[id(payload)] = _ENCODERS[opcode](payload)
            by_worker.setdefault(backend.worker_of(shard_id), []).append(index)
        self._phase["encode_seconds"] += clock() - started
        started = clock()
        entries: List[Any] = [None] * len(requests)
        for worker, indices in by_worker.items():
            ids = backend.pool.connections[worker].allocate_request_ids(
                len(indices)
            )
            for index, request_id in zip(indices, ids):
                shard_id, opcode, payload = requests[index]
                entries[index] = _Entry(
                    shard_id, opcode, payload, worker, request_id,
                    bodies[id(payload)], round_index,
                )
            if worker not in self._send_failed:
                error = self._transmit(worker, [entries[i] for i in indices])
                if error is not None:
                    self._send_failed[worker] = error
        self._phase["send_seconds"] += clock() - started
        return entries

    def _transmit(self, worker: int, entries: Sequence[_Entry]) -> Optional[str]:
        """Queue ``entries`` on one worker's connection with their pinned
        ids and flush them in one ``sendall``; returns the failure reason
        instead of raising."""
        connection = self.backend.pool.connections[worker]
        for entry in entries:
            connection.queue_request(
                entry.shard_id, entry.opcode, entry.body, request_id=entry.token
            )
        try:
            connection.flush_queued()
        except WorkerDiedError as exc:
            # The raise site already wrapped the OS error ("send failed:
            # ..."): record it verbatim, don't wrap again.
            return str(exc)
        return None

    def _collect(self, entries: Sequence[_Entry]) -> List[Any]:
        """Collect step: every entry's result, in entry order.

        Responses are read in send order.  A dead worker, an expired
        per-call deadline or a corrupt response frame marks the owning
        worker.  After each sweep the supervisor heals every marked worker
        and its uncollected entries are resent with their original request
        ids, so the worker-side dedup window replays whatever the dead
        worker had already applied and applies the rest exactly once.
        Attempts stop at ``retry_policy.max_attempts``, with exponential
        backoff between them; without a supervisor the first failure
        raises :class:`WorkerDiedError`.
        """
        policy = self.retry_policy
        max_attempts = policy.max_attempts if self.supervisor is not None else 1
        clock = time.perf_counter
        results: Dict[int, Any] = {}
        failed, self._send_failed = self._send_failed, {}
        attempts = 1
        while True:
            for index, entry in enumerate(entries):
                if index in results or entry.worker in failed:
                    continue
                if entry.worker is None:
                    results[index] = entry.token
                    continue
                connection = self.backend.pool.connections[entry.worker]
                try:
                    started = clock()
                    _opcode, body = connection.wait(
                        entry.token, deadline_s=policy.call_deadline_s
                    )
                    self._phase["blocked_wait_seconds"] += clock() - started
                    started = clock()
                    results[index] = self._decode(entry, body)
                    self._phase["decode_seconds"] += clock() - started
                except (WorkerDiedError, FrameCorruptionError) as exc:
                    failed[entry.worker] = f"shard {entry.shard_id}: {exc}"
            if not failed:
                break
            if attempts >= max_attempts:
                reasons = "; ".join(
                    f"worker {worker}: {reason}"
                    for worker, reason in sorted(failed.items())
                )
                raise WorkerDiedError(
                    f"dispatch failed after {attempts} attempt(s) ({reasons})"
                )
            time.sleep(policy.backoff_s(attempts))
            attempts += 1
            healing, failed = failed, {}
            for worker in sorted(healing):
                self.supervisor.handle_worker_failure(worker, healing[worker])
                error = self._transmit(
                    worker,
                    [
                        entry
                        for index, entry in enumerate(entries)
                        if entry.worker == worker and index not in results
                    ],
                )
                if error is not None:
                    failed[worker] = error
        if self.supervisor is not None:
            for worker in {entry.worker for entry in entries}:
                self.supervisor.notify_success(worker)
        return [results[index] for index in range(len(entries))]

    def _decode(self, entry: _Entry, body: bytes) -> Any:
        if entry.opcode == rpc.OP_UPDATE_BATCH:
            return _decode_update_result(body)
        if entry.opcode == rpc.OP_QUERY_BATCH:
            # Look the stream decoder up at decode time: a heal rebinds the
            # shard client with a fresh decoder mid-round, and one fetched
            # at send time would keep decoding with the dead one.
            decoder = self.clients[entry.shard_id].neighbor_decoder
            return _query_decoder(decoder, entry.payload)(body)
        return rpc.decode_result(body)

    def _dispatch(self, requests: Sequence[Tuple[int, int, Any]]) -> List[Any]:
        """Barrier, then one send step and one collect step; results in
        request order."""
        self._barrier()
        return self._collect(self._send(requests))

    def _broadcast(self, method: str, *args, **kwargs) -> List[Any]:
        """One ``CALL`` verb on every shard; results in shard order."""
        call = (method, args, kwargs)
        return self._dispatch(
            [(shard_id, rpc.OP_CALL, call) for shard_id in range(self.num_shards)]
        )

    # ------------------------------------------------------------------
    # Chaos and recovery
    # ------------------------------------------------------------------
    def _require_supervision(self) -> Supervisor:
        if self.supervisor is None:
            raise ConfigurationError(
                "this scale-out cluster was built without a supervision "
                "policy"
            )
        return self.supervisor

    def apply_chaos_event(self, event: chaos_mod.ChaosEvent) -> str:
        """Apply one process-level chaos event; returns a description.

        Kills and stops are left for the engine's next dispatch, whatever
        the verb (send failure, EOF, response deadline) — that is the
        machinery under test.  Frame corruption is burned on a ping and healed on the
        spot: the worker either exits on the crc mismatch (bitflip → EOF)
        or blocks mid-frame (truncate → deadline), and either way the
        stream is unusable until the worker is replaced.
        """
        supervisor = self._require_supervision()
        self._barrier()
        pool = self.backend.pool
        worker = event.worker_index
        if worker >= pool.num_workers:
            return f"{event.describe()} [skipped: no such worker]"
        if event.kind == chaos_mod.KILL_WORKER:
            pool.kill_worker(worker)
            return event.describe()
        if event.kind == chaos_mod.STOP_WORKER:
            pool.pause_worker(worker)
            return event.describe()
        mode = (
            "bitflip" if event.kind == chaos_mod.CORRUPT_BITFLIP else "truncate"
        )
        connection = pool.connections[worker]
        connection.inject_fault(mode)
        try:
            request_id = connection.send_request(0, rpc.OP_PING, b"")
            connection.wait(
                request_id,
                deadline_s=min(self.retry_policy.call_deadline_s, 1.0),
            )
        except (WorkerDiedError, FrameCorruptionError):
            pass
        record = supervisor.handle_worker_failure(
            worker, f"injected {mode} frame"
        )
        return f"{event.describe()} [healed in {record.duration_s:.3f}s]"

    def heal_dead_workers(self) -> int:
        """Sweep-and-heal: probe every worker and respawn the failed ones.

        The engine already heals any worker it finds dead while
        dispatching; this sweep is for callers that want a healthy pool
        before sending anything (tests that kill a worker and then read
        shard state through the bare clients).  Returns the number of
        workers healed.
        """
        if self.supervisor is None:
            return 0
        self._barrier()
        healed = 0
        for worker in range(self.backend.pool.num_workers):
            try:
                self.supervisor.check_worker(worker)
            except (WorkerDiedError, FrameCorruptionError) as exc:
                self.supervisor.handle_worker_failure(worker, f"sweep: {exc}")
                healed += 1
        return healed

    def recovery_snapshot(self) -> Dict[str, object]:
        """Supervisor recovery metrics — counts, durations, loss ledger.

        Deliberately separate from the load-test report: recovery durations
        are wall-clock, and ``to_report()`` must stay byte-identical
        between chaos and fault-free runs."""
        return self._require_supervision().metrics_snapshot()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def makespan_seconds(self) -> float:
        """Cluster-wide simulated makespan: the slowest shard's clock."""
        return max(self._makespans)

    def reset_metrics(self) -> None:
        """Zero every shard's server accounting, the local makespans and
        the pipeline counters (draining any leftover window first)."""
        self._broadcast("reset_metrics")
        self._makespans = [0.0] * self.num_shards
        self._makespan_history = []
        self._pipeline_processed = 0
        self._phase = self._zero_phase()

    def metrics(self) -> List[Dict[str, object]]:
        """Per-shard metrics dicts, in shard order."""
        return self._broadcast("metrics")

    def service_time_percentile(self, quantile: float) -> float:
        """Simulated per-request service-time percentile over every shard.

        One read-only broadcast collects each shard's samples (flattened
        in server order worker-side); the parent concatenates them in fixed
        shard order and applies exactly
        :meth:`repro.server.cluster.ServerCluster.service_time_percentile`'s
        arithmetic, so the result is identical for every worker count,
        backend and window size — and 0.0 unless the recipes set
        ``record_service_times``, matching the single-cluster build.
        """
        if not 0.0 < quantile <= 1.0:
            raise ConfigurationError("quantile must be in (0, 1]")
        if not self.recipes[0].record_service_times:
            # No shard has samples; skip the broadcast so non-recording
            # runs keep their exact pre-p99 wire-frame counts.
            return 0.0
        samples: List[float] = []
        for shard_samples in self._broadcast("service_time_samples"):
            samples.extend(shard_samples)
        if not samples:
            return 0.0
        samples.sort()
        rank = max(int(len(samples) * quantile) - 1, 0)
        return samples[rank]

    def master_action_counts(self) -> Tuple[int, int, int]:
        """Cumulative ``(migrations, replications, failovers)`` summed
        across shards (all zero without masters)."""
        migrations = replications = failovers = 0
        for entry in self.metrics():
            actions = entry["master_actions"]
            migrations += actions[0]
            replications += actions[1]
            failovers += actions[2]
        return migrations, replications, failovers

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _require_master(self) -> None:
        if not self.has_master:
            raise ConfigurationError(
                "this scale-out cluster was built without tablet masters"
            )

    def rebalance(self) -> None:
        """Give every shard's master one rebalance tick."""
        self._require_master()
        self._broadcast("rebalance")

    def apply_fault(
        self,
        kind: str,
        server_id: Optional[int] = None,
        crash_point: Optional[str] = None,
        describe_prefix: str = "",
    ) -> List[str]:
        """Broadcast one fault to every shard, with load-test skip
        semantics applied shard-side.  Returns one description per shard
        (shard order), each tagged with the shard it fired on."""
        self._require_master()
        return self._dispatch(
            [
                (shard_id, rpc.OP_CALL, ("apply_fault", (kind,), {
                    "server_id": server_id,
                    "crash_point": crash_point,
                    "describe_prefix": f"{describe_prefix}shard {shard_id} ",
                }))
                for shard_id in range(self.num_shards)
            ]
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        # Discard (never drain) the in-flight window: close must not block
        # on workers that may already be gone.
        self._inflight = []
        self._inflight_rounds = 0
        self._send_failed = {}
        self.backend.close()

    def __enter__(self) -> "ScaleOutCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
