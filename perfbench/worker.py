"""One workload in one fresh process; prints its result as one JSON line.

``run.py`` starts this script once per measurement so that the
process-wide caches (the compiler's pass cache, the runtime's schedule
prep) start cold in every run. Modes:

* ``setup``  -- import and set up, report the set-up time, exit;
* ``run``    -- set up, then run the workload's operations for as many
  whole cycles as take ``--seconds`` on the reference host (tracing
  off);
* ``traced`` -- the same with every layer call recorded as a span;
  writes the spans as a Chrome trace under ``.perfbench/``.

A fixed number of cycles, rather than a time limit, keeps every run's
operations the same, so the garbage collector's pattern over a run
repeats from run to run.

Every operation is checked outside its timed interval. A check that
fails, an operation that raises, and a repeat whose simulated results
differ from the operation's first run all count as failed operations.

Host times are reported twice: as measured, and scaled to a reference
host. The speed of a shared machine swings by up to a factor of two
within seconds, so a fixed pure-Python loop (:func:`calibrate`) is
timed before, during and after every timed interval (:class:`Probe`),
and the interval's time is multiplied by ``REF_CAL_S`` over the loop's
mean time. The scaled times stay within a few percent of each other
while the measured ones wander.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: iterations of the calibration loop
CAL_ITERATIONS = 2000
#: seconds the calibration loop takes on the reference host: a 2.1 GHz
#: x86 core running CPython 3.11 with no other load on its core
REF_CAL_S = 330e-6
#: the calibration loop also runs this often while an interval is timed
CAL_EVERY_S = 0.02


def calibrate() -> float:
    """Host seconds a fixed pure-Python loop takes right now.

    The loop indexes a dict and does float arithmetic, the interpreter
    work the simulator's hot loops are made of. It allocates nothing
    the garbage collector tracks, so it never triggers a collection,
    and it uses nothing from the simulator, so no change to the
    simulator moves it.
    """
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        table[i & 255] = acc
        acc += (i * 0.5) % 7.0 + table[i & 127] * 1e-9
    return time.perf_counter() - t0


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the top and bottom tenth (interrupted samples)."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class Probe:
    """Times an interval and samples the host's speed during it.

    The calibration loop runs twice before and twice after the interval
    and, from a ``SIGALRM`` handler, every ``CAL_EVERY_S`` inside it.
    The handler's own time is left out of ``raw_s``. ``ref_s`` is
    ``raw_s`` scaled to the reference host by the loop's mean time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self._spent += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self.samples = [calibrate(), calibrate()]
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        spent = self._spent
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples += [calibrate(), calibrate()]
        #: wall time of the interval, calibration ticks included
        self.elapsed_s = end - self._t0
        #: the interval on the ``perf_counter`` clock
        self.window = (self._t0, end)
        self.raw_s = self.elapsed_s - spent
        self.ref_s = self.raw_s * REF_CAL_S / _trimmed_mean(self.samples)
        return False


def _percentile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive quantiles)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    with Probe() as setup_probe:
        # imports are part of set-up: every fresh run pays them
        import tracing
        import workloads
        from repro.synapse.recipe import set_default_recipe_cache_dir

        # the disk recipe tier stays off: every run compiles from cold
        set_default_recipe_cache_dir(None)
        tracer = (tracing.Tracer() if args.mode == "traced"
                  else tracing.NullTracer())
        workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
        t_setup = time.perf_counter()
        setup_outputs = workload.setup()
        setup_window = (t_setup, time.perf_counter())
    out = {"setup_raw_s": setup_probe.raw_s, "setup_s": setup_probe.ref_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    attempted = failed = 0
    firsts: dict[str, workloads.Outcome] = {}

    def fail(key: str, why: str) -> None:
        nonlocal failed
        failed += 1
        print(f"FAILED {args.workload} {key}: {why}", file=sys.stderr)

    def check(op, output) -> None:
        try:
            outcome = op.check(output)
        except workloads.CheckFailed as err:
            fail(op.key, str(err))
            return
        first = firsts.setdefault(op.key, outcome)
        if first.digest != outcome.digest:
            fail(op.key, "simulated results differ from the first run")

    for op, output in setup_outputs:
        attempted += 1
        check(op, output)
    del setup_outputs

    tracer.phase = "timed"
    cycles = max(2, round(args.seconds / workload.cycle_s))
    work = raw_s = ref_s = elapsed_s = 0.0
    op_ref_s: list[float] = []
    windows: list[tuple[float, float]] = []
    speed: list[float] = list(setup_probe.samples)
    for _ in range(cycles):
        for op in workload.cycle():
            attempted += 1
            try:
                with Probe() as probe:
                    output = op.run()
            except Exception:  # any raise is a failed operation
                fail(op.key, traceback.format_exc())
                continue
            raw_s += probe.raw_s
            ref_s += probe.ref_s
            elapsed_s += probe.elapsed_s
            windows.append(probe.window)
            op_ref_s.append(probe.ref_s)
            speed += probe.samples
            check(op, output)
            del output
            if op.key in firsts:
                work += firsts[op.key].work

    if not op_ref_s:
        print(f"every {args.workload} operation failed", file=sys.stderr)
        return 1
    digest = hashlib.sha256("\n".join(
        f"{k}:{o.digest}" for k, o in sorted(firsts.items())).encode())
    out.update(
        throughput_name=workload.throughput_name,
        cycles=cycles, ops=len(op_ref_s), wall_s=raw_s, wall_ref_s=ref_s,
        attempted=attempted, failed=failed,
        throughput_per_s=work / ref_s, throughput_raw_per_s=work / raw_s,
        op_ms_p50=1e3 * statistics.median(op_ref_s),
        op_ms_p90=1e3 * (_percentile(op_ref_s, 90) if len(op_ref_s) > 1
                         else op_ref_s[0]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        digest=digest.hexdigest()[:16],
        sim=workload.summarize(firsts),
    )
    if args.mode == "traced":
        # span times include the calibration ticks, so the layer sums
        # are checked against the wall time that includes them too
        spans = tracer.spans
        layers = tracing.per_layer_metrics(spans, windows)
        layers.update(tracing.setup_layer_metrics(spans, [setup_window]))
        tracing.to_reference_host(layers, REF_CAL_S / _trimmed_mean(speed))
        out.update(
            traced_wall_s=elapsed_s,
            per_layer=layers,
            self_s=tracing.layer_self_times(spans, "timed"),
            unattributed_s=tracing.unattributed_s(spans, "timed", windows),
            nested=all(v >= -1e-9
                       for v in tracing.self_times(spans).values()),
        )
        tracer.write_chrome_trace(
            ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
