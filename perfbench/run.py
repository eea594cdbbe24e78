"""Host-time benchmark of the simulator: recording, compilation, runtime
and serving, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-compile --seed 0 \
        --seconds 10 --trace 0

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):
``train-compile``, ``multicard-exec``, ``serve-knee``, ``serve-kvbound``.
Load comes from one process and one caller: the loop is closed, each
operation starts when the previous one returns.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (imports plus
set-up, the median of three fresh processes), ``throughput_per_s``
(training steps, simulated events or served requests, divided by the
summed operation time), ``op_ms_p50`` (host latency of one
operation) and ``peak_rss_mb``. Host times are scaled to a reference
host by a calibration loop timed beside every operation (see
``worker.py``); the lines before the result also print them as
measured.

``--trace 1`` runs the workload twice, each time in a fresh process:
once untraced, once with a span around every call into a layer. It
reports the per-layer metrics reduced from the spans, the tracing
overhead, and the share of wall time no layer span covers. The layer
self times plus that share must add up to the traced wall time, which
holds only if the spans stay inside the timed intervals and do not
overlap. The spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name and unit for a reader, beside a
digest of the simulated results that a change to the simulator's speed
must leave unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import unit_of

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("train-compile", "multicard-exec", "serve-knee", "serve-kvbound")
#: set-up is timed in this many fresh processes; ``setup_s`` is the median
SETUP_SAMPLES = 3
#: the whole command must finish within this many seconds
DEADLINE_S = 170.0
#: p90 is reported only when at least this many operations ran, so that
#: ten samples lie beyond it
MIN_OPS_FOR_P90 = 100

UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    """A worker process exited non-zero, timed out or printed no result."""


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    # a fixed string-hash seed keeps set and dict layouts, and the host
    # time that depends on them, the same from run to run
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerFailed(f"{mode} worker timed out") from err
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _print_run(name: str, run: dict) -> None:
    ops = run["ops"]
    print(f"[{name}] {run['cycles']} cycles, {ops} operations, "
          f"{run['wall_s']:.3f} s of operation time "
          f"({run['wall_ref_s']:.3f} s on the reference host)")
    print(f"  {run['throughput_name']:<24} {run['throughput_per_s']:.6g} 1/s"
          f"  (as measured: {run['throughput_raw_per_s']:.6g} 1/s)")
    print(f"  {'op_ms_p50':<24} {run['op_ms_p50']:.6g} ms  (n={ops})")
    if ops >= MIN_OPS_FOR_P90:
        print(f"  {'op_ms_p90':<24} {run['op_ms_p90']:.6g} ms  (n={ops})")
    print(f"  {'peak_rss_mb':<24} {run['peak_rss_mb']:.6g} MB")
    rate = run["failed"] / run["attempted"]
    print(f"  {'error_rate':<24} {rate:.6g}  "
          f"({run['failed']}/{run['attempted']})")
    for key, value in sorted(run["sim"].items()):
        print(f"  {key:<24} {value:.10g}")
    print(f"  {'sim_digest':<24} {run['digest']}")


def _untraced(args, deadline: float) -> tuple[dict, dict]:
    setups = [_worker(args, "setup", deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(args, "run", deadline)
    setups.append(run)
    _print_run(args.workload, run)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "throughput_per_s": run["throughput_per_s"],
        "op_ms_p50": run["op_ms_p50"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
    print(f"  {'setup_s':<24} {metrics['setup_s']:.6g} s  (median of "
          f"{len(setups)} processes; as measured: {raw_setup:.6g} s)")
    return run, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def _traced(args, deadline: float) -> tuple[dict, dict, bool]:
    plain = _worker(args, "run", deadline)
    traced = _worker(args, "traced", deadline)
    _print_run(args.workload, traced)
    layers = traced["per_layer"]
    layers["trace.overhead_frac"] = (
        traced["wall_ref_s"] / plain["wall_ref_s"] - 1.0)
    wall = traced["traced_wall_s"]
    total = sum(traced["self_s"].values()) + traced["unattributed_s"]
    adds_up = (traced["nested"] and traced["unattributed_s"] >= 0
               and abs(total - wall) <= 1e-6 * wall)
    print(f"  self time by layer over {wall:.4f} s of traced wall time "
          "(as measured):")
    for layer, secs in traced["self_s"].items():
        print(f"    {layer:<20} {secs:10.4f} s  {secs / wall:6.1%}")
    print(f"    {'(unattributed)':<20} {traced['unattributed_s']:10.4f} s  "
          f"{traced['unattributed_s'] / wall:6.1%}")
    print(f"    sum = {total:.4f} s; layers add up to the wall time: "
          f"{adds_up}")
    same = plain["digest"] == traced["digest"]
    print(f"  traced and untraced simulated results agree: {same}")
    print("  per-layer metrics (host times on the reference host):")
    for name, value in layers.items():
        print(f"  {name:<40} {value:.6g} {unit_of(name)}")
    run = dict(traced, attempted=plain["attempted"] + traced["attempted"],
               failed=plain["failed"] + traced["failed"])
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    return run, metrics, adds_up and same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            run, metrics, consistent = _traced(args, deadline)
        else:
            run, metrics = _untraced(args, deadline)
            consistent = True
    except WorkerFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run["failed"] == 0 and consistent,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
