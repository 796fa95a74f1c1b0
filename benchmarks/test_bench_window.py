"""Machine-independent guards for the pipelined window engine (PR 9).

Wall-clock overlap from in-flight windows depends on the host (cores,
scheduler, disk), so — like the other scale-out guards — nothing here
asserts on elapsed time.  What *is* asserted holds on any machine:

1. **Window invariance** — the quick update-only workload driven through
   a :class:`~repro.server.scaleout.ScaleOutCluster` must produce exactly
   equal reports at in-flight windows 1, 2 and 8, because per-connection
   FIFO order and round-resolved makespans make the window a pure
   wall-clock knob.

2. **Overlap actually happens** — the engine counts one blocking wait per
   window drain, a pure function of the batch stream and ``W``:
   ``ceil(rounds / W)``.  At ``W=8`` over 8 rounds that is 1 wait versus
   8 at ``W=1`` — the guard pins the ≤ 1/4 ratio the acceptance criteria
   name, without touching a clock.

3. **Committed record shape** — the repository's ``BENCH_PR9.json`` must
   carry the ``scaleout_window`` section with every window variant
   present, byte-identical reports and the same falling wait ratio, so
   the committed trajectory record itself proves the overlap claim.

4. **The CI window-axis gate** — guards 1 and 2 on the larger CI shape
   (8 shards, 1000 objects), once per worker count.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.scaleout import multiproc_window_run

from conftest import run_once

BENCH_PATH = Path(__file__).parent.parent / "BENCH_PR9.json"

#: Quick shape: 8 rounds so the W=8 window drains exactly once while the
#: W=1 engine blocks on every round.
NUM_SHARDS = 4
NUM_OBJECTS = 600
NUM_UPDATES = 1024
BATCH_SIZE = 128
NUM_ROUNDS = NUM_UPDATES // BATCH_SIZE
WINDOW_SIZES = (1, 2, 8)


def _fingerprints():
    results = {}
    for window in WINDOW_SIZES:
        _outcome, _wall, pipeline, report = multiproc_window_run(
            backend="process",
            num_workers=2,
            num_shards=NUM_SHARDS,
            num_objects=NUM_OBJECTS,
            num_updates=NUM_UPDATES,
            batch_size=BATCH_SIZE,
            window=window,
        )
        results[window] = (pipeline, report)
    return results


def test_window_is_invisible_and_overlap_scales(benchmark):
    results = run_once(benchmark, _fingerprints)
    _, reference_report = results[1]
    for window, (pipeline, report) in results.items():
        assert report == reference_report, (
            f"window={window} changed the byte-deterministic report"
        )
        assert pipeline["rounds_enqueued"] == NUM_ROUNDS
        assert pipeline["blocking_waits"] == -(-NUM_ROUNDS // window)
    waits_w1 = results[1][0]["blocking_waits"]
    waits_w8 = results[8][0]["blocking_waits"]
    # The acceptance ratio: at W=8 the engine blocks at most a quarter as
    # often per batch as the unpipelined engine.
    assert waits_w8 * 4 <= waits_w1


def test_committed_bench_record_proves_the_claim():
    payload = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    window = payload["scaleout_window"]
    variants = window["variants"]
    expected = [f"window_{size}" for size in window["window_sizes"]]
    assert sorted(variants) == sorted(expected)
    assert window["host_cpu_count"] >= 1
    reference = variants["window_1"]
    assert reference["blocking_waits"] == reference["rounds_enqueued"]
    for name, row in variants.items():
        assert row["wall_seconds"] > 0.0
        assert row["requests"] == reference["requests"]
        for phase in (
            "encode_seconds",
            "send_seconds",
            "blocked_wait_seconds",
            "decode_seconds",
        ):
            assert row[phase] >= 0.0
        if name != "window_1":
            assert row["report_matches_window1"] is True
            assert row["speedup_vs_window1"] > 0.0
    # The committed record must show the blocking-wait drop itself.
    assert (
        variants["window_8"]["blocking_waits"] * 4
        <= variants["window_1"]["blocking_waits"]
    )


@pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda w: f"workers{w}")
def test_window_axis_gate(workers):
    """The CI window-axis gate, one worker count per CI matrix job
    (``-k workers<N>``): at this worker count an 8-deep in-flight window
    must leave the report byte-identical to the unpipelined engine while
    blocking at most a quarter as often per batch.  Both counters are pure
    functions of the stream and W — no clocks."""
    results = {}
    for window in (1, 8):
        _outcome, _wall, pipeline, report = multiproc_window_run(
            backend="process",
            num_workers=workers,
            num_shards=8,
            num_objects=1000,
            num_updates=1024,
            batch_size=128,
            window=window,
        )
        results[window] = (pipeline, report)
        print(
            f"window={window} rounds={pipeline['rounds_enqueued']} "
            f"blocking_waits={pipeline['blocking_waits']}"
        )
    assert results[1][1] == results[8][1], "window changed the report"
    waits_w1 = results[1][0]["blocking_waits"]
    waits_w8 = results[8][0]["blocking_waits"]
    assert waits_w8 * 4 <= waits_w1, (waits_w1, waits_w8)
