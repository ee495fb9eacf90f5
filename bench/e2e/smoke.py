#!/usr/bin/env python3
"""Smoke test of bench_e2e (registered as the bench_e2e_smoke CTest).

    python3 bench/e2e/smoke.py BENCH_E2E BENCHMARK_JSON DATA_DIR

Runs every workload at --smoke lengths (0.3 s warm-up, 1 s windows, half
rates), once untraced and once traced. Passes when both runs' correctness
checks pass and their result lines carry, for every workload, every
end-to-end (untraced) or per-layer (traced) metric BENCHMARK.json names,
with the unit it names.
"""
import json
import subprocess
import sys


def check(binary, spec, data, trace):
    kind = "per_layer" if trace else "end_to_end"
    cmd = [binary, "--workload", "all", "--smoke", "--seed", "1", "--seconds", "2",
           "--trace", str(trace), "--data-dir", data]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=110)
    sys.stdout.write(proc.stdout)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"trace {trace}: no result line (exit {proc.returncode})"]
    problems = []
    if proc.returncode != 0 or result.get("correct") is not True:
        problems.append(f"trace {trace}: correctness checks failed (exit {proc.returncode})")
    metrics = result.get("metrics", {})
    for workload in spec["workloads"]:
        for metric in spec[kind]:
            name = f"{workload['name']}.{metric['name']}"
            if name not in metrics:
                problems.append(f"trace {trace}: missing {name}")
            elif metrics[name]["unit"] != metric["unit"]:
                problems.append(f"trace {trace}: {name} in {metrics[name]['unit']}, "
                                f"BENCHMARK.json says {metric['unit']}")
    return problems


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    binary, spec_path, data = sys.argv[1:]
    with open(spec_path) as f:
        spec = json.load(f)
    problems = check(binary, spec, data, 0) + check(binary, spec, data, 1)
    for problem in problems:
        print(f"bench_e2e_smoke: {problem}", file=sys.stderr)
    print("bench_e2e_smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
