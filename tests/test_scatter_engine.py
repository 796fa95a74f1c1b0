"""The scatter-gather engine: one heal-and-resend path for every verb.

Two properties of :class:`~repro.server.scaleout.ScaleOutCluster`'s
send/collect engine that only the shared path gives:

1. **Control verbs are exactly-once under supervision.**  A worker that
   applies a ``rebalance`` (or ``apply_fault``), writes its accounting
   checkpoint and dies before replying is healed, the verb is resent with
   its original request id, and the worker-side dedup window replays the
   recorded result instead of applying the verb a second time.  The
   cluster ends where an uninterrupted run ends.

2. **Unsupervised failures are uniform.**  Without a supervisor, a dead
   worker surfaces as one :class:`~repro.errors.WorkerDiedError` naming
   the worker, whichever verb kind finds it.
"""

import os
import random

import pytest

from repro.errors import WorkerDiedError
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.model import UpdateMessage, format_object_id
from repro.server import rpc
from repro.server.loadtest import CRASH_SERVER
from repro.server.master import MasterOptions
from repro.server.scaleout import ScaleOutCluster
from repro.server.worker import ShardService
from repro.workload.queries import NNQuery

NUM_OBJECTS = 200


def make_messages(count, seed=99):
    rng = random.Random(seed)
    return [
        UpdateMessage(
            object_id=format_object_id(rng.randrange(NUM_OBJECTS)),
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            velocity=Vector(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            timestamp=float(index),
        )
        for index in range(count)
    ]


def make_queries(count, seed=7):
    rng = random.Random(seed)
    return [
        NNQuery(
            location=Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)),
            k=5,
        )
        for _ in range(count)
    ]


MESSAGES = make_messages(400)
QUERIES = make_queries(60)

#: The control verb under test and how to drive it: returns what the verb
#: reports, so the healed run can be compared with an uninterrupted one.
VERBS = {
    "rebalance": lambda cluster: cluster.rebalance(),
    "apply_fault": lambda cluster: cluster.apply_fault(
        CRASH_SERVER, server_id=0, describe_prefix="crash server 0 "
    ),
}


def _master_cluster(backend, workers, policy=None, storage_dir=None):
    kwargs = {} if storage_dir is None else {"storage_dir": storage_dir}
    return ScaleOutCluster.build(
        2,
        backend=backend,
        num_workers=workers,
        supervision_policy=policy,
        retry_policy=rpc.RetryPolicy(call_deadline_s=15.0),
        num_objects=NUM_OBJECTS,
        seed=17,
        num_servers=2,
        with_master=True,
        # One migration per tick and no replication: this load needs more
        # than one migration on every shard, so a rebalance applied twice
        # shows in the action counts.
        master_options=MasterOptions(
            max_migrations_per_round=1, replicate_read_share=0.5
        ),
        **kwargs,
    )


def _drive(cluster, verb):
    """Load the shards so the master has something to act on, then run
    the control verb once."""
    cluster.submit_update_batch(MESSAGES)
    cluster.submit_query_batch(QUERIES)
    reported = VERBS[verb](cluster)
    return reported, cluster.master_action_counts()


def _dies_after_checkpoint(original, marker):
    """Wrap a :class:`ShardService` verb so the first worker to run it
    applies it, writes the accounting checkpoint and exits before the
    reply frame goes out.  The dispatch path's own checkpoint call is the
    one that exits, so the checkpoint is exactly what a real worker would
    have left on disk.  The marker file keeps the respawned worker from
    dying again."""

    def verb(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if not os.path.exists(marker):
            open(marker, "w").close()
            write_checkpoint = self._write_accounting_checkpoint

            def checkpoint_then_die():
                write_checkpoint()
                os._exit(1)

            self._write_accounting_checkpoint = checkpoint_then_die
        return result

    return verb


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_control_verb_is_exactly_once_when_the_worker_dies_before_replying(
    verb, tmp_path, monkeypatch
):
    reference = _master_cluster(
        "disk", 1, policy="respawn", storage_dir=str(tmp_path / "reference")
    )
    try:
        expected = _drive(reference, verb)
    finally:
        reference.close()
    # Patch before the fork: the worker (and its replacement) inherit it.
    monkeypatch.setattr(
        ShardService,
        verb,
        _dies_after_checkpoint(
            getattr(ShardService, verb), str(tmp_path / "died")
        ),
    )
    cluster = _master_cluster(
        "disk", 1, policy="respawn", storage_dir=str(tmp_path / "healed")
    )
    try:
        assert _drive(cluster, verb) == expected
        assert os.path.exists(tmp_path / "died"), "the worker never died"
        assert cluster.recovery_snapshot()["recoveries"] == 1
    finally:
        cluster.close()


#: One verb of each kind the engine carries.
VERB_KINDS = {
    "update_drain": lambda cluster: cluster.submit_update_batch(MESSAGES),
    "query_broadcast": lambda cluster: cluster.submit_query_batch(QUERIES),
    "control_verb": lambda cluster: cluster.rebalance(),
    "metric_read": lambda cluster: cluster.metrics(),
}


@pytest.mark.parametrize("kind", sorted(VERB_KINDS))
def test_unsupervised_dead_worker_raises_one_named_error(kind):
    cluster = _master_cluster("process", 2)
    try:
        cluster.backend.pool.kill_worker(1)
        cluster.backend.pool.processes[1].join(10.0)
        with pytest.raises(WorkerDiedError, match=r"worker 1\b"):
            VERB_KINDS[kind](cluster)
    finally:
        cluster.close()
