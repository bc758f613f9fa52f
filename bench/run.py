"""oatgraph benchmark: one workload, one seed, one line of JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Workloads are `chain`, `dense`, `reuse` and `cli` (see BENCHMARK.json and
bench/README.md).  The run happens in a fresh child process (`worker.py`)
that imports the library from the checkout's `src`; its peak RSS is read
from the child's own rusage when it exits.  With `--trace 0` the result
carries the end-to-end metrics, with `--trace 1` the per-layer ones.

A table of the metrics and the run's provenance is printed first; the last
line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`.  The full record (tail
percentiles, sample counts, provenance and, when traced, every span) is
also written to bench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
# One job runs at a time, so BLAS gets one thread: the A@A product is a few
# milliseconds per graph, and idle BLAS threads spinning on a shared two-core
# machine only add noise.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if it cannot say."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path) -> dict:
    """What the figures were measured on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "oatgraph").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, numpy; sys.path.insert(0, sys.argv[1]);"
            " import run; print(json.dumps([numpy.__version__, run.blas_threads()]))",
            str(BENCH_DIR),
        ],
        env={**os.environ, **CHILD_ENV},
        capture_output=True,
        text=True,
        check=True,
    )
    numpy_version, threads = json.loads(probe.stdout)
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def run_child(cmd: list[str], env: dict) -> tuple[int, str, float]:
    """Run the worker in its own session; return exit code, stdout and peak RSS in MB.

    The session is killed whole if the worker overruns, so no command it
    started outlives the run.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="oatgraph benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    src = root / "src" / "oatgraph"
    if not (src / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from the root of an oatgraph checkout; {src} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # The "build": byte-compile once, so no run pays for compiling.
    compileall.compile_dir(src.parent, quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1)

    results = BENCH_DIR / "results"
    out_dir = BENCH_DIR / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(root / "src")}
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--out-dir={out_dir}",
    ]
    try:
        code, out, peak_mb = run_child(cmd, env)
    finally:
        for path in sorted(out_dir.iterdir()):
            path.unlink()
        out_dir.rmdir()
    if code != 0:
        print(f"error: worker exited with {code}", file=sys.stderr)
        return 1
    record = json.loads(out.strip().splitlines()[-1])
    if record["attempted"] == 0:
        print("error: the run checked no output", file=sys.stderr)
        return 1
    values = record["metrics"]
    if not args.trace:
        values["peak_rss_mb"] = peak_mb
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        print(f"error: metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        metrics=metrics,
        provenance=provenance(root),
    )
    record["failed_frac"] = record["failed"] / record["attempted"]
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, m in metrics.items():
        extra = record["info"].get("tails", {}).get(key)
        note = f"  (p{extra['percentile']:g} of {extra['samples']})" if extra else ""
        print(f"{key:45s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'failed_frac':45s} {record['failed_frac']:.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} checks)")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
