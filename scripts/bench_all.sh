#!/usr/bin/env bash
# Run the full benchmark suite and collect one BENCH_<figure>.json per
# driver (the machine-readable figure trajectory tracked across PRs).
#
#   scripts/bench_all.sh [--out DIR] [--build DIR] [--only REGEX]
#                        [--no-validate] [DRIVER FLAG ...]
#
#   --out DIR      where BENCH_*.json land (default: the repo root)
#   --build DIR    build tree holding the bench_* binaries (default: build)
#   --only REGEX   run only drivers whose name matches (grep -E)
#   --no-validate  skip the scripts/validate_bench_json.py pass
#
# Every other argument goes to every driver unchanged: the shared flags
# (`--smoke`, `--repeat N`, `--set key=value`, ...) are listed by any
# driver's --help and documented in docs/BENCHMARKS.md. A flag no shared
# parser knows reaches the driver's own: the gbench ablations fail on it,
# the other drivers ignore it.
#
# Exits non-zero if any driver fails, emits nothing, or emits JSON that
# does not validate against docs/BENCH_SCHEMA.md.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=build
out_dir=$PWD
only=""
validate=1
forward=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out) out_dir=$2; shift 2 ;;
    --build) build_dir=$2; shift 2 ;;
    --only) only=$2; shift 2 ;;
    --no-validate) validate=0; shift ;;
    *) forward+=("$1"); shift ;;
  esac
done

if ! compgen -G "$build_dir/bench_*" >/dev/null; then
  echo "no bench_* binaries under '$build_dir' — build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 2
fi

mkdir -p "$out_dir"
failures=0
ran=0
for bin in "$build_dir"/bench_*; do
  [[ -x $bin && ! -d $bin ]] || continue
  name=$(basename "$bin")
  if [[ -n $only ]] && ! grep -qE "$only" <<<"$name"; then continue; fi
  echo "=== $name ==="
  if ! "$bin" --json --out "$out_dir/" ${forward[@]+"${forward[@]}"}; then
    echo "FAILED: $name" >&2
    failures=$((failures + 1))
    continue
  fi
  ran=$((ran + 1))
done

echo
echo "ran $ran drivers, $failures failures; BENCH_*.json in $out_dir"
if [[ $failures -gt 0 ]]; then exit 1; fi

if [[ $validate -eq 1 ]]; then
  python3 scripts/validate_bench_json.py -q "$out_dir"/BENCH_*.json
  echo "all emitted files validate against docs/BENCH_SCHEMA.md"
fi
