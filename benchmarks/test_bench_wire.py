"""Machine-independent wire-bytes regression guards (PR 7).

The columnar codec layer made the multiprocess wire content-deterministic:
for a seeded workload the byte stream depends only on the request content
and the shard count, never on the worker count, the host's speed or its
core count.  That turns wire volume into something CI can pin:

1. **Live guard** — the quick mixed workload is driven through one forked
   worker and must (a) produce exactly the expected number of RPC frames
   (framing is structural: one frame per batched scatter/broadcast leg)
   and (b) spend no more serialized bytes per request than the committed
   full-profile ``BENCH_PR7.json`` record, whose neighbour traffic is
   denser.  A codec regression that re-fattens the wire fails (b); a
   batching regression that splinters scatters fails (a).

2. **Committed reduction** — the committed ``BENCH_PR7.json`` must show
   ≥3x fewer serialized bytes than ``BENCH_PR6.json`` on the identical
   full-profile workload (the PR's headline acceptance criterion), proven
   from the two committed records alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.scaleout import multiproc_load_run

from conftest import run_once

_REPO = Path(__file__).parent.parent
BENCH_PR7 = _REPO / "BENCH_PR7.json"
BENCH_PR6 = _REPO / "BENCH_PR6.json"

#: Quick shape (mirrors test_bench_multiproc): 4 shards, 600 requests.
NUM_SHARDS = 4
NUM_OBJECTS = 600
NUM_REQUESTS = 600

#: One frame per batched scatter leg: deterministic for the seeded stream.
#: 600 requests split 300/300 into update and query halves, interleaved in
#: 256-request mixed rounds; every update round scatters to all 4 shards,
#: every query round broadcasts to all 4, plus the build/accounting calls
#: (one ``metrics`` read per shard at result time).
EXPECTED_FRAMES = 48


def _variant_rows(payload):
    return payload["scaleout_multiproc"]["variants"]


def _quick_run():
    _outcome, _wall, transport, _report = multiproc_load_run(
        backend="process",
        num_workers=1,
        num_shards=NUM_SHARDS,
        num_objects=NUM_OBJECTS,
        num_requests=NUM_REQUESTS,
    )
    return transport


def test_wire_bytes_per_request_guard(benchmark):
    transport = run_once(benchmark, _quick_run)
    assert transport["rpc_frames"] == EXPECTED_FRAMES, (
        f"RPC frame count moved: {transport['rpc_frames']} != {EXPECTED_FRAMES}"
    )
    committed = _variant_rows(json.loads(BENCH_PR7.read_text(encoding="utf-8")))
    baseline_row = committed["workers_1"]
    baseline_bytes_per_request = (
        baseline_row["serialized_bytes"] / baseline_row["requests"]
    )
    measured = transport["serialized_bytes"] / NUM_REQUESTS
    assert measured <= baseline_bytes_per_request, (
        f"wire density regressed: {measured:.1f} B/request measured vs "
        f"{baseline_bytes_per_request:.1f} committed"
    )


def test_committed_record_shows_3x_reduction():
    pr7 = _variant_rows(json.loads(BENCH_PR7.read_text(encoding="utf-8")))
    pr6 = _variant_rows(json.loads(BENCH_PR6.read_text(encoding="utf-8")))
    for name in ("workers_1", "workers_2", "workers_4"):
        before = pr6[name]["serialized_bytes"]
        after = pr7[name]["serialized_bytes"]
        assert pr7[name]["requests"] == pr6[name]["requests"]
        assert after * 3 <= before, (
            f"{name}: {after} bytes is less than a 3x reduction from {before}"
        )
    # The forked variants' wire accounting is worker-count-invariant.
    reference = (pr7["workers_1"]["serialized_bytes"], pr7["workers_1"]["rpc_frames"])
    for name in ("workers_2", "workers_4"):
        assert (pr7[name]["serialized_bytes"], pr7[name]["rpc_frames"]) == reference
    # And the disk variant sends the same frames over the same wire.
    assert pr7["disk"]["rpc_frames"] == reference[1]
