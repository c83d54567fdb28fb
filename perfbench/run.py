"""Benchmark of the tdfenc pipeline.

    python3 perfbench/run.py --workload emotion-avg --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The inputs are generated from ``--seed`` in
this process; the workload then runs as one closed-loop caller in its own
worker process, which imports the program from ``src/``. With ``--trace 0``
the end-to-end metrics are printed, with ``--trace 1`` the per-layer metrics
of a separate traced run. ``--workload all`` runs every workload in turn.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import write_dataset
from tracing import LAYER_METRICS, MODULES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

END_TO_END = (
    ("experiment_s", "s"),
    ("fit_s", "s"),
    ("encode_videos_per_s", "videos/s"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# processes timed for setup_s; the median is reported
SETUP_SAMPLES = 9
# one thread keeps timings steady on a shared machine; never more than nproc
BLAS_THREADS = 1
# a run must end within 180 s; the worker gets what is left of this
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args: list[str], deadline: float) -> dict:
    """Run the worker with ``args`` and return the JSON object it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    command = [sys.executable, str(HERE / "worker.py"), "--spawned-at", repr(time.monotonic())]
    command += args
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Generate the inputs, time set-up, and run the worker; returns the worker's result."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        write_dataset(workload.recipe, seed, work / "data")
        (work / "run.cfg").write_text(workload.config_text, encoding="utf-8")
        common = ["--workload", name, "--work", str(work), "--src", str(SRC)]
        setups = []
        if not trace:
            # the first import in a fresh checkout also compiles bytecode; not timed
            _spawn(common + ["--setup-only"], deadline)
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(common + ["--setup-only"], deadline)["setup_s"])
        spans = WORK / "traces" / f"{name}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        options = ["--seconds", str(seconds), "--trace", str(int(trace)), "--spans-out", str(spans)]
        result = _spawn(common + options, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    units = LAYER_METRICS if trace else END_TO_END
    if any(metric not in result["metrics"] for metric, _ in units):
        raise BenchError(f"no operation completed, so nothing was measured: {result['errors'][:3]}")
    return result


def _report(name: str, result: dict, metric_units) -> None:
    phases = " ".join(f"{phase}={seconds:.1f}s" for phase, seconds in result["phases"].items())
    print(
        f"# {name}: rounds={result['rounds']} attempted={result['attempted']} "
        f"failed={result['failed']} correct={not result['failures']} {phases}"
    )
    for metric, unit in metric_units:
        value = result["metrics"][metric]
        marker = "  (absent)" if metric in result.get("absent", ()) else ""
        print(f"#   {metric:42s} {value:14.6g} {unit}{marker}")
    if "absent" in result:
        selfs = {m: result["metrics"][f"{m}.self_s"] for m in MODULES}
        total = sum(selfs.values()) or 1.0
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
        print("#   self-time shares: " + ", ".join(f"{m} {v / total:.0%}" for m, v in ranked))
    for line in result["errors"]:
        print(f"#   error: {line}")
    for line in result["failures"]:
        print(f"#   check failed: {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tdfenc" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'tdfenc'}; run from a checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metric_units = LAYER_METRICS if args.trace else END_TO_END
    started = time.monotonic()
    results = {}
    for i, name in enumerate(names, 1):
        try:
            deadline = started + DEADLINE_S * i
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    numpy_version = next(iter(results.values()))["numpy"]
    print(
        f"# perfbench seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"git={_git_sha()} numpy={numpy_version} cpus={os.cpu_count()} "
        f"blas_threads={BLAS_THREADS} python={sys.version.split()[0]}"
    )
    for name, result in results.items():
        _report(name, result, metric_units)
    prefix = len(results) > 1
    summary = {
        "correct": all(not r["failures"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {
                "value": r["metrics"][metric],
                "unit": unit,
            }
            for name, r in results.items()
            for metric, unit in metric_units
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
