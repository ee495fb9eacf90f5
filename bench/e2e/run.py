#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 bench/e2e/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--out DIR] [--smoke]

Run from the repository root. It configures and builds bench/e2e (and the
mcsmr library it links) with CMake under .bench_build/e2e, runs bench_e2e
with the given arguments and passes its output through, so the last line
printed is the result JSON. Build output goes to stderr. Scratch files go
under .bench_build/e2e-data and are removed by the benchmark.

With --out DIR it also writes DIR/<workload>-seed<N>-trace<T>.json: the
result, the run's details and its environment, as compare.py reads them.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "e2e"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: the mcsmr sources are missing under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(SOURCE), "-B", str(BUILD), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "bench_e2e"


def environment():
    spec = ROOT / "BENCHMARK.json"
    digest = hashlib.sha256(spec.read_bytes()).hexdigest() if spec.is_file() else None
    return {"nproc": os.cpu_count(), "build_type": BUILD_TYPE, "benchmark_sha256": digest}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="write a run record into this directory")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"run.py: build failed: {error}")

    data = ROOT / ".bench_build" / "e2e-data"
    detail = data / f"detail-{os.getpid()}.json"
    data.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(data), "--detail", str(detail)]
    if args.smoke:
        cmd.append("--smoke")

    last = ""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                sys.stdout.write(line)
                sys.stdout.flush()
                if line.strip():
                    last = line
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    code = proc.returncode

    if args.out is not None and last.startswith("{") and detail.is_file():
        args.out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "env": environment(),
            "result": json.loads(last), "detail": json.loads(detail.read_text()),
        }
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
    detail.unlink(missing_ok=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
