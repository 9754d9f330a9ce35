"""Golden tap streams: what the timing and obs taps see, op for op.

Each cell runs one FTL on a small device with the ``slc`` virtual clock
and full observability capture, and pins everything the two taps derive
from the flash-operation stream:

* the sha256 of the event trace's JSONL export (every flash op with its
  block and purpose, interleaved with GC, Gecko, eviction, crash and
  recovery events);
* the sha256 of the metrics recorder's JSONL export. ``sample_every`` is
  odd, so samples land mid-request, including inside garbage collection;
  they read the IO ledger, cache, allocation and GC state at that exact
  point;
* ``timing.summary()`` and the cumulative latency sketch;
* the IOStats breakdown and host counters.

A tap called one operation early or late, with the wrong block or
purpose, or after state the sampler reads has changed moves one of these
digests. Each run covers the warm-up fill, ``submit()`` batches mixing
writes, reads and trims under steady-state GC, per-op ``write()``/
``read()``/``trim()`` calls, and two ``crash()`` + ``recover()`` cycles.

Regenerate only for a change *meant* to move the tap stream, and say
which digest moved and why::

    PYTHONPATH=src python tests/test_tap_stream_golden.py --regen
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from repro import Operation, OpKind, SimulationSession, simulation_configuration

GOLDEN_PATH = Path(__file__).parent / "data" / "tap_stream_golden.json"

FTLS = {
    "gecko": "GeckoFTL(cache_capacity=48)",
    "dftl": "DFTL(cache_capacity=48)",
    "lazyftl": "LazyFTL(cache_capacity=48)",
}

#: Large enough that the ring buffer never drops an event.
TRACE_CAPACITY = 400_000
OBS = f"full(trace_capacity={TRACE_CAPACITY}, sample_every=7)"

BATCHES = 16
BATCH_OPS = 160
CRASH_AFTER = (5, 11)


def _config():
    return simulation_configuration(num_blocks=64, pages_per_block=16,
                                    page_size=256)


def _mixed_ops(logical_pages, rng):
    """55% writes, 30% reads, 15% trims over a uniform address range."""
    version = 0
    while True:
        logical = rng.randrange(logical_pages)
        draw = rng.random()
        if draw < 0.55:
            version += 1
            yield Operation(OpKind.WRITE, logical, ("v", version))
        elif draw < 0.85:
            yield Operation(OpKind.READ, logical)
        else:
            yield Operation(OpKind.TRIM, logical)


def _sha256_of(export):
    buffer = io.StringIO()
    export(buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def run_cell(ftl):
    session = SimulationSession(ftl, device=_config(), timing="slc", obs=OBS)
    pages = session.config.logical_pages
    rng = random.Random(f"tap-stream/{ftl}")
    # Keep the warm-up in the capture: the fill runs the batched write path.
    session.warmup(reset_stats=False)
    operations = _mixed_ops(pages, rng)
    for index in range(1, BATCHES + 1):
        session.submit([next(operations) for _ in range(BATCH_OPS)],
                       collect_payloads=True)
        for step in range(12):
            logical = rng.randrange(pages)
            if step % 3 == 0:
                session.write(logical, ("op", index, step))
            elif step % 3 == 1:
                session.read(logical)
            else:
                session.trim(logical)
        if index in CRASH_AFTER:
            session.crash()
            session.recover()
    obs = session.obs
    assert obs.trace.dropped == 0, "trace capacity too small for the cell"
    stats = session.stats
    timing = session.timing
    return {
        "trace_events": obs.trace.seq,
        "trace_sha256": _sha256_of(obs.trace.export_jsonl),
        "metrics_rows": len(obs.metrics.rows),
        "metrics_sha256": _sha256_of(obs.metrics.export_jsonl),
        "timing_summary": timing.summary(),
        "timing_sketch": timing.sketch.to_dict(),
        "flash": stats.breakdown(),
        "host_writes": stats.host_writes,
        "host_reads": stats.host_reads,
    }


def _canonical(value):
    """JSON round trip, so tuples and float keys compare like the file."""
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(FTLS))
def test_tap_stream_matches_golden(name, golden):
    assert _canonical(run_cell(FTLS[name])) == golden[name]


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("run with --regen to (re)write the golden file; only do so "
                 "for a change meant to move the tap stream")
    outcomes = {name: _canonical(run_cell(spec))
                for name, spec in FTLS.items()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(outcomes, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
