#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the repository root::

    python3 perfbench/selftest.py

1. Injected slowdown. ``LogarithmicGecko.flush_buffer`` is wrapped so every
   call busy-waits for as long as the real call took: twice the layer's
   time, with the simulation unchanged. The traced comparison of
   ``paper_uniform`` must name ``gecko.flush_s`` as the layer that grew,
   and ``dftl_trace_readmix``, which has no Gecko, must show no change.
2. Determinism across processes. Untraced runs of one seed under two
   ``PYTHONHASHSEED`` values, and a traced run of the same seed, must print
   the same ``sim_digest``.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from repro import LogarithmicGecko  # noqa: E402

#: Self-time metrics, one per layer span.
LAYER_TIMES = ("workloads.gen_s", "ftl.submit_self_s", "translation.sync_s",
               "translation.lookup_s", "gecko.flush_s", "gecko.query_s",
               "gc.collect_s", "gc.victim_select_s", "recovery.host_s")
SEED = 5
SECONDS = 2


def layer_times(workload: str) -> dict:
    result = run.run(workload, SEED, SECONDS, trace=True)["result"]
    return {name: result["metrics"][name]["value"] for name in LAYER_TIMES}


def growth(base: dict, slowed: dict) -> dict:
    """Slowed/base ratio of every layer above 1% of the base's span time."""
    floor = 0.01 * sum(base.values())
    return {name: slowed[name] / base[name]
            for name in LAYER_TIMES if base[name] > floor}


def injected_slowdown() -> bool:
    real = LogarithmicGecko.flush_buffer
    calls = [0]

    def doubled(self):
        start = perf_counter()
        result = real(self)
        until = 2 * perf_counter() - start
        while perf_counter() < until:
            pass
        calls[0] += 1
        return result

    ok = True
    for workload in ("paper_uniform", "dftl_trace_readmix"):
        base = layer_times(workload)
        LogarithmicGecko.flush_buffer = doubled
        try:
            calls[0] = 0
            slowed = layer_times(workload)
        finally:
            LogarithmicGecko.flush_buffer = real
        ratios = growth(base, slowed)
        named = max(ratios, key=ratios.get)
        print(f"{workload}: slowed-call count {calls[0]}, layer growth "
              + ", ".join(f"{name} x{ratio:.2f}"
                          for name, ratio in sorted(ratios.items())))
        if workload == "paper_uniform":
            passed = named == "gecko.flush_s" and ratios[named] > 1.5
            print(f"  named layer {named}: {'PASS' if passed else 'FAIL'}")
        else:
            passed = calls[0] == 0 and max(ratios.values()) < 1.5
            print(f"  no layer changed: {'PASS' if passed else 'FAIL'}")
        ok &= passed
    return ok


def sim_digest(workload: str, trace: int, hash_seed: str) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    if done.returncode != 0:
        print(done.stderr)
        return f"exit {done.returncode}"
    for line in done.stdout.splitlines():
        if line.startswith("sim_digest "):
            return line.split()[1]
    return "missing"


def cross_process_determinism() -> bool:
    ok = True
    for workload in sorted(run.CELLS):
        digests = {sim_digest(workload, 0, "1"), sim_digest(workload, 0, "2"),
                   sim_digest(workload, 1, "3")}
        passed = len(digests) == 1
        print(f"{workload}: sim_digest {sorted(digests)} "
              f"{'PASS' if passed else 'FAIL'}")
        ok &= passed
    return ok


def main() -> int:
    ok = injected_slowdown()
    ok &= cross_process_determinism()
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
