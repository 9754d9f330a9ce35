"""Golden outcomes of three small cells shaped like the benchmark workloads.

Each cell builds a session, fills the device, drives a fixed op stream
through ``submit()`` and reads the whole logical space back. The golden
pins what a change to the mapping layer's internals must not move:

* the IOStats ledger by kind and purpose, and the host counters;
* ``ram_bytes``;
* every ``RecoveryReport``'s counters (crash cell only);
* a digest of the final read-back payloads.

The cells:

``gecko_uniform``
    GeckoFTL under uniform random writes, long enough for steady-state GC
    and many checkpoints.
``dftl_trace_readmix``
    DFTL replaying a read-heavy, skewed MSR-format trace through
    :class:`~repro.workloads.StreamingTraceWorkload` on a small cache.
``gecko_crash_trim``
    GeckoFTL on the timing tap under hot/cold writes, reads and trims,
    with ``crash()`` + ``recover()`` every few batches.

The 500-op goldens elsewhere cover neither steady-state GC nor a crash
after trims. Regenerate only when a change is *meant* to move these
outcomes, and say which counters moved and why::

    PYTHONPATH=src python tests/test_cell_outcome_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import (Operation, OpKind, SimulationSession,
                   StreamingTraceWorkload, UniformRandomWrites,
                   simulation_configuration)

GOLDEN_PATH = Path(__file__).parent / "data" / "cell_outcome_golden.json"

BATCH_OPS = 256


def _config():
    return simulation_configuration(num_blocks=96, pages_per_block=32,
                                    page_size=512)


def _hot_cold_mix(logical_pages, seed):
    """60% writes, 25% reads, 15% trims; 80% of accesses hit 20% of pages."""
    rng = random.Random(seed)
    hot = logical_pages // 5
    version = 0
    while True:
        if rng.random() < 0.8:
            logical = rng.randrange(hot)
        else:
            logical = hot + rng.randrange(logical_pages - hot)
        draw = rng.random()
        if draw < 0.60:
            version += 1
            yield Operation(OpKind.WRITE, logical, version)
        elif draw < 0.85:
            yield Operation(OpKind.READ, logical)
        else:
            yield Operation(OpKind.TRIM, logical)


def _write_msr_trace(path, logical_pages, seed, lines):
    """MSR-Cambridge CSV: 80% reads, 80% of accesses to 20% of the space."""
    rng = random.Random(seed)
    hot = logical_pages // 5
    with open(path, "w") as handle:
        for index in range(lines):
            kind = "Read" if rng.random() < 0.8 else "Write"
            if rng.random() < 0.8:
                logical = rng.randrange(hot)
            else:
                logical = hot + rng.randrange(logical_pages - hot)
            handle.write(f"{128166372000000 + index},golden,0,{kind},"
                         f"{logical * 4096},4096,0\n")


def _batches(operations, count):
    for _ in range(count):
        yield [next(operations) for _ in range(BATCH_OPS)]


def _outcome(session, recoveries, trims):
    pages = session.config.logical_pages
    digest = hashlib.sha256()
    for start in range(0, pages, BATCH_OPS):
        batch = [Operation(OpKind.READ, logical)
                 for logical in range(start, min(start + BATCH_OPS, pages))]
        payloads = session.submit(batch, collect_payloads=True).payloads
        digest.update(repr(payloads).encode())
    stats = session.stats
    return {
        "flash": stats.breakdown(),
        "host_writes": stats.host_writes,
        "host_reads": stats.host_reads,
        "host_trims": trims,
        "ram_bytes": session.ftl.ram_bytes(),
        "recoveries": recoveries,
        "readback_sha256": digest.hexdigest(),
    }


def _recovery_counters(report):
    summary = report.as_dict()
    summary.pop("total_duration_us")
    for step in summary["steps"]:
        step.pop("duration_us")
    return summary


def cell_gecko_uniform(tmp_dir):
    session = SimulationSession("GeckoFTL(cache_capacity=96)",
                                device=_config())
    session.warmup()
    workload = UniformRandomWrites(session.config.logical_pages, seed=11)
    for batch in workload.batches(24 * BATCH_OPS, BATCH_OPS):
        session.submit(batch)
    return _outcome(session, [], 0)


def cell_dftl_trace_readmix(tmp_dir):
    config = _config()
    trace = Path(tmp_dir) / "readmix.csv"
    _write_msr_trace(trace, config.logical_pages, seed=23,
                     lines=20 * BATCH_OPS)
    session = SimulationSession("DFTL(cache_capacity=32)", device=config)
    session.warmup()
    workload = StreamingTraceWorkload(trace, config.logical_pages,
                                      format="msr")
    for batch in workload.batches(20 * BATCH_OPS, BATCH_OPS):
        session.submit(batch, collect_payloads=True)
    return _outcome(session, [], 0)


def cell_gecko_crash_trim(tmp_dir):
    session = SimulationSession("GeckoFTL(cache_capacity=64)",
                                device=_config(), timing="slc")
    session.warmup()
    operations = _hot_cold_mix(session.config.logical_pages, seed=31)
    recoveries = []
    trims = 0
    for index, batch in enumerate(_batches(operations, 20), start=1):
        trims += session.submit(batch, collect_payloads=True).host_trims
        if index % 4 == 0:
            session.crash()
            recoveries.append(_recovery_counters(session.recover()))
    return _outcome(session, recoveries, trims)


CELLS = {
    "gecko_uniform": cell_gecko_uniform,
    "dftl_trace_readmix": cell_dftl_trace_readmix,
    "gecko_crash_trim": cell_gecko_crash_trim,
}


def compute_outcomes(tmp_dir):
    return {name: cell(tmp_dir) for name, cell in CELLS.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_outcome_matches_golden(name, golden, tmp_path):
    assert CELLS[name](tmp_path) == golden[name]


if __name__ == "__main__":
    import sys
    import tempfile

    if "--regen" not in sys.argv:
        sys.exit("run with --regen to (re)write the golden file; only do so "
                 "for a change meant to move these outcomes")
    with tempfile.TemporaryDirectory() as scratch:
        outcomes = compute_outcomes(scratch)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(outcomes, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
