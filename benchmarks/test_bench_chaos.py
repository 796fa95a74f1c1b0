"""The SIGKILL chaos gate: every worker killed mid-workload heals losslessly.

Seeded chaos SIGKILLs each forked worker of the disk-backed federation at
a batch boundary under ``respawn`` supervision.  The healed run's
deterministic report must equal the fault-free one, with at least one
recovery per worker and no lost update.  Nothing here reads a clock, so
the gate holds on any machine.  Each CI matrix job runs one worker count
(``-k workers<N>``).
"""

from __future__ import annotations

import pytest

from repro.experiments.bench import run_chaos_workload


@pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda w: f"workers{w}")
def test_sigkill_chaos_gate(workers):
    row = run_chaos_workload(
        num_objects=1000,
        num_requests=800,
        repeats=1,
        num_workers=workers,
    )
    recovery = row["recovery"]
    print(
        f"recoveries={recovery['recoveries']} "
        f"lossless={recovery['lossless_recoveries']} "
        f"lost_updates={recovery['lost_updates']} "
        f"match={row['report_matches_fault_free']}"
    )
    assert row["report_matches_fault_free"], "report diverged after healing"
    assert recovery["recoveries"] >= workers
    assert recovery["lost_updates"] == 0
