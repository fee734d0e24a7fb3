"""katzlab benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 10 --trace 0

Run from the root of a katzlab checkout; the package is imported from its
``src`` directory and from nowhere else.  The workload runs in a fresh
process (so ``peak_rss_mb`` is that workload's alone) with BLAS pinned to
one thread.  ``setup_s`` is the median of several fresh interpreters that
import katzlab and build the workload's inputs.  The last line of standard
output is one JSON object: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  Everything the
run writes goes under ``perfbench/out``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("scatter", "ranking", "pointwise", "verify")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; on timeout the child is killed and reaped."""
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(workload: str, seed: int) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        proc = worker(["--probe", "--workload", workload, "--seed", str(seed)], timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def end_to_end(result: dict, setup_s: float) -> dict:
    attempted = result["ops"]
    failed = len(result["failures"])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (result["wall_s"], "s"),
        "op_p50_ms": (result["op_p50_s"] * 1e3, "ms"),
        "op_tail_ms": (result["op_tail_s"] * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "1"),
    }


def per_layer(result: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = result["layers"]
    missing = sorted(set(units) - set(layers))
    if missing:
        raise RuntimeError(f"traced run did not produce {missing}")
    return {name: (layers[name], unit) for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "katzlab" / "__init__.py").is_file():
        return fail(f"no katzlab sources at {SRC}; run from the root of a katzlab checkout")
    OUT.mkdir(exist_ok=True)
    try:
        probes = measure_setup(args.workload, args.seed)
        setup_s = statistics.median(p["setup_s"] for p in probes)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
            result_path = Path(workdir) / "result.json"
            proc = worker(
                [
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", str(result_path), "--workdir", workdir, "--trace-dir", str(OUT),
                ],
                timeout=RUN_TIMEOUT_S,
            )
            if proc.returncode != 0:
                return fail(f"workload process exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(result_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if not Path(result["env"]["katzlab"]).resolve().is_relative_to(SRC.resolve()):
        return fail(f"imported katzlab from {result['env']['katzlab']}, not from {SRC}")

    result["setup_s"], result["setup_probes"] = setup_s, probes
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1))

    attempted, failed = result["ops"], len(result["failures"])
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  "
          f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"threads {env['blas_threads']}  nproc {env['nproc']}")
    try:
        metrics = per_layer(result) if args.trace else end_to_end(result, setup_s)
    except RuntimeError as exc:
        return fail(str(exc))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if args.trace:
        print(f"  traced {result['traced_wall_s']:.3f} s vs untraced {result['untraced_wall_s']:.3f} s; "
              f"{result['spans']} spans in {result['spans_file']}")
    else:
        print(f"  op_tail_ms is the p{result['op_tail_pct']:.2f} latency over {result['samples']} samples "
              f"({result['passes']} passes of {attempted} ops; {result['runs']} timed op runs)")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for f in result["failures"]:
        print(f"  FAILED {f['op']}: {f['error']}")
    if result["range_probe"]:
        probe_failed = sum(1 for p in result["range_probe"] if p["error"])
        print(f"  beyond the float64 range (run once, untimed, not counted above): "
              f"{probe_failed} of {len(result['range_probe'])} probe ops failed")
        for p in result["range_probe"]:
            print(f"  {'FAILED' if p['error'] else 'passed'} {p['op']}{': ' + p['error'] if p['error'] else ''}")
    print(f"  record: {record}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
