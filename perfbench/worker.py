"""Runs one workload in a fresh process; started by run.py, never by hand.

    worker.py --probe  --workload W --seed S
        import katzlab and build the op list; print the seconds that took as JSON
    worker.py --workload W --seed S --seconds T --trace 0|1 --result PATH --workdir DIR --trace-dir DIR
        run the workload and write its measurements to PATH as JSON

One client, one op at a time (a closed loop).  Untraced: a warm-up pass,
then a fixed number of timed passes derived from T.  Traced: a warm-up
pass, one pass without the tracer, one traced pass, then the ops that
called ``agreement`` once more under tracemalloc.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

# Timed passes per 10 s of --seconds, fixed rather than timed, so that two
# commits time the same work.  With an odd op count and an odd number of
# passes, the median and the tail (11th-slowest sample) fall inside one
# op's samples rather than between two ops.
PASSES_PER_10S = {"scatter": 7, "ranking": 7, "pointwise": 100, "verify": 5}
# Within a pass, an op cheaper than REPEAT_S runs back to back, up to the
# count that gives it MIN_RUNS runs in all, so that the cheap ops which set
# the median have enough runs for a steady median.  The runs of an op still
# count once per pass in the percentiles.
REPEAT_S = 0.25
MIN_RUNS = 20
# The shared reference host switches within seconds between a fast and a
# slow state (1.4x to 2x, depending on the code).  A fixed calibration loop
# measures the state between op runs, and times are reported in
# reference-machine seconds: scaled to a host that runs the loop in
# CALIBRATION_NOMINAL_S, its time on the reference machine in the fast state.
CALIBRATION_NOMINAL_S = 0.009
CALIBRATE_EVERY_S = 0.05
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work, tiny numpy calls, bulk numpy ops and float formatting.

    The slow state slows these four kinds of work by different factors,
    and the workloads mix them differently (ranking leans on bulk numpy,
    scatter and verify on small calls and formatting); the mix, in shares
    of about 3 : 3 : 5 : 7, tracked every workload's ops best among the
    mixes tried on the reference host.  The collector is off so that the
    loop's cost does not depend on how many objects the program under test
    keeps alive.
    """
    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(10000):
            acc += i * i
            table[i & 1023] = acc
        m = np.full((12, 12), 0.1) + 0.4 * np.eye(12)
        x = np.ones(12)
        for _ in range(350):
            y = m @ x
            x = y / math.sqrt(float(y @ y))
        a = np.arange(1000.0)
        for _ in range(15):
            a = a * 1.0000001 + 0.5
            int((a[:, None] < a[None, :100]).sum())
        buf = io.StringIO()
        for i in range(1500):
            buf.write("%.16e,%d,%.16e\n" % (0.1234567 * i, i, 0.1234567 / (i + 1)))
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Runner:
    """Executes ops, checks each op's first output and compares later ones to it."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = [None] * len(ops)
        self.errors: dict[int, str] = {}
        self.digests: dict[int, str] = {}
        self.last = [None] * len(ops)

    def execute(self, index: int) -> float:
        op = self.ops[index]
        t0 = time.perf_counter()
        try:
            out = op.run()
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - t0
            self.errors.setdefault(index, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        self.settle(index, out)
        return elapsed

    def settle(self, index: int, out) -> None:
        op = self.ops[index]
        self.last[index] = out
        try:
            fingerprint = op.fingerprint(out)
            if self.reference[index] is None:
                self.reference[index] = fingerprint
                error = op.check(out)
                if error:
                    self.errors.setdefault(index, error)
                if op.out_path:
                    self.digests[index] = fingerprint.split(":", 1)[1]
            elif fingerprint != self.reference[index]:
                self.errors.setdefault(index, "output differs from the first run of this op")
        except Exception as exc:  # a malformed output is a failed op, not a crash
            self.errors.setdefault(index, f"check raised {type(exc).__name__}: {exc}")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile, up to p99, with >= 10 samples beyond it."""
    ordered = sorted(samples)
    k = min(len(ordered) - 11, math.ceil(0.99 * len(ordered)) - 1)
    if k < 0:
        raise ValueError(f"{len(ordered)} samples are too few for a tail percentile")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def environment(args) -> dict:
    import numpy as np

    import katzlab

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "katzlab": katzlab.__file__,
    }


def csv_totals(paths) -> tuple[int, int]:
    """(data rows, bytes) of the CSV files at paths."""
    rows = size = 0
    for path in paths:
        size += os.path.getsize(path)
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows, size


def measure(args, runner, warmup: list[float]) -> dict:
    """Timed passes, with the calibration loop after every CALIBRATE_EVERY_S of op time.

    Each run of an op is scaled by the mean of the calibrations just before
    and just after it; an op's latency is the median of its scaled runs.
    The percentiles are over one sample per op and pass, at the op's latency.
    """
    ops = runner.ops
    passes = max(1, round(PASSES_PER_10S[args.workload] * args.seconds / 10))
    cap = math.ceil(MIN_RUNS / passes)
    repeats = [max(1, min(cap, round(REPEAT_S / max(w, 1e-9)))) for w in warmup]
    runs = [[] for _ in ops]
    calibration = []
    since = CALIBRATE_EVERY_S
    pending = []  # (op index, raw seconds, index of the calibration before it)

    def timed(index):
        nonlocal since
        if since >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            since = 0.0
        elapsed = runner.execute(index)
        since += elapsed
        pending.append((index, elapsed, len(calibration) - 1))

    for _ in range(passes):
        for index in range(len(ops)):
            for _ in range(repeats[index]):
                timed(index)
    calibration.append(calibrate())
    for index, elapsed, k in pending:
        speed = 0.5 * (calibration[k] + calibration[k + 1]) / CALIBRATION_NOMINAL_S
        runs[index].append(elapsed / speed)

    latency = [statistics.median(times) for times in runs]
    samples = [lat for lat in latency for _ in range(passes)]
    tail_s, tail_pct = tail(samples)
    return {
        "wall_s": sum(latency),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_s,
        "op_tail_pct": tail_pct,
        "passes": passes,
        "samples": len(samples),
        "runs": sum(len(times) for times in runs),
        "calibrations": len(calibration),
        "speed_median": statistics.median(calibration) / CALIBRATION_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_latency_s": {op.label: lat for op, lat in zip(ops, latency)},
    }


def trace(args, runner) -> dict:
    """One pass without and one with the tracer, then agreement's memory pass."""
    from katzlab.verify import SuiteResult
    from tracer import Tracer

    ops = runner.ops
    untraced = sum(runner.execute(index) for index in range(len(ops)))
    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for index in range(len(ops)):
            tracer.op_id = index
            traced += runner.execute(index)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()

    agreement_ops = sorted(
        {tracer.op[i] for i in range(len(tracer.name)) if tracer.qualnames[tracer.name[i]] == "ordering.agreement"}
    )
    memory = Tracer(measure_memory=True)
    tracemalloc.start()
    memory.install()
    try:
        for index in agreement_ops:
            runner.execute(index)
    finally:
        memory.uninstall()
        tracemalloc.stop()
    layers["ordering.agreement_peak_mb"] = memory.agreement_peak_bytes / 2**20
    written = [op.out_path for i, op in enumerate(ops) if op.out_path and i not in runner.errors]
    layers["cli.rows"], layers["cli.bytes"] = csv_totals(written)
    layers["verify.checks"] = sum(out.checks for out in runner.last if isinstance(out, SuiteResult))
    layers["trace.overhead"] = traced / untraced

    spans_file = os.path.join(args.trace_dir, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    tracer.write_spans(spans_file)
    return {
        "layers": layers,
        "spans": len(tracer.name),
        "spans_file": spans_file,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
    }


def run(args) -> dict:
    import workloads

    ops = workloads.build(args.workload, args.seed, args.workdir)
    runner = Runner(ops)
    result = {"workload": args.workload, "ops": len(ops), "env": environment(args)}
    warmup = [runner.execute(index) for index in range(len(ops))]  # also checks every op
    result.update(trace(args, runner) if args.trace else measure(args, runner, warmup))
    probe = Runner(workloads.build_range_probe(args.workload))
    for index in range(len(probe.ops)):
        probe.execute(index)
    result["range_probe"] = [{"op": op.label, "error": probe.errors.get(i)} for i, op in enumerate(probe.ops)]
    result["failures"] = [{"op": ops[i].label, "error": e} for i, e in sorted(runner.errors.items())]
    result["sha256"] = {ops[i].label: d for i, d in sorted(runner.digests.items())}
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result")
    parser.add_argument("--workdir")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    if args.probe:
        import katzlab  # noqa: F401  (the import is what is being timed)
        import workloads

        workloads.build(args.workload, args.seed, "unused")
        setup = time.perf_counter() - T0
        speed = statistics.median(calibrate() for _ in range(5)) / CALIBRATION_NOMINAL_S
        print(json.dumps({"setup_s": setup / speed, "raw_setup_s": setup, "speed": speed}))
        return 0
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
