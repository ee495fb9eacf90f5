#!/usr/bin/env python3
"""Validate BENCH_*.json files against the schema in docs/BENCH_SCHEMA.md.

Standard library only (runs in CI and as a CTest). Exit code 0 when every
file conforms; 1 with one "file: problem" line per violation otherwise.

Usage: validate_bench_json.py [-q] FILE [FILE ...]
"""

import json
import sys

SCHEMA_VERSION = 1
SERIES_KINDS = {"real", "model"}
REQUIRED_TOP = {"schema_version", "figure", "title", "series", "env"}
REQUIRED_SERIES = {"name", "kind", "metric", "unit", "x_axis", "config", "points"}
REQUIRED_ENV = {
    "host",
    "os",
    "cores",
    "compiler",
    "build",
    "timestamp_utc",
    "argv",
    "seed",
    "repeat",
    "smoke",
    "budget_pps",
}


def is_num(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_point(point, where, errors):
    if not isinstance(point, dict):
        errors.append(f"{where}: point is not an object")
        return
    if not is_num(point.get("x")):
        errors.append(f"{where}: 'x' must be a number")
    # y is null when the measurement produced NaN/inf — allowed, but the
    # key must be present.
    if "y" not in point:
        errors.append(f"{where}: missing 'y'")
    elif point["y"] is not None and not is_num(point["y"]):
        errors.append(f"{where}: 'y' must be a number or null")
    if "stderr" in point and not is_num(point["stderr"]):
        errors.append(f"{where}: 'stderr' must be a number")
    if "label" in point and not isinstance(point["label"], str):
        errors.append(f"{where}: 'label' must be a string")
    if "repeat" in point and not isinstance(point["repeat"], int):
        errors.append(f"{where}: 'repeat' must be an integer")


def check_series(series, index, errors):
    where = f"series[{index}]"
    if not isinstance(series, dict):
        errors.append(f"{where}: not an object")
        return
    missing = REQUIRED_SERIES - series.keys()
    if missing:
        errors.append(f"{where}: missing {sorted(missing)}")
        return
    for key in ("name", "metric", "unit", "x_axis"):
        if not isinstance(series[key], str) or not series[key]:
            errors.append(f"{where}: '{key}' must be a non-empty string")
    if series["kind"] not in SERIES_KINDS:
        errors.append(f"{where}: 'kind' must be one of {sorted(SERIES_KINDS)}")
    if not isinstance(series["config"], dict):
        errors.append(f"{where}: 'config' must be an object")
    if not isinstance(series["points"], list):
        errors.append(f"{where}: 'points' must be an array")
        return
    if not series["points"]:
        errors.append(f"{where}: 'points' is empty")
    for j, point in enumerate(series["points"]):
        check_point(point, f"{where}.points[{j}]", errors)


def check_env(env, errors):
    if not isinstance(env, dict):
        errors.append("env: not an object")
        return
    missing = REQUIRED_ENV - env.keys()
    if missing:
        errors.append(f"env: missing {sorted(missing)}")
    if "cores" in env and (not isinstance(env["cores"], int) or env["cores"] < 1):
        errors.append("env: 'cores' must be a positive integer")
    if "seed" in env and not isinstance(env["seed"], int):
        errors.append("env: 'seed' must be an integer")
    if "repeat" in env and (not isinstance(env["repeat"], int) or env["repeat"] < 1):
        errors.append("env: 'repeat' must be a positive integer")
    if "smoke" in env and not isinstance(env["smoke"], bool):
        errors.append("env: 'smoke' must be a boolean")
    # Workload flags and the --set pairs are optional (recorded only when
    # passed) but must be well-typed when present, so bench_all.sh-forwarded
    # runs are attributable. The pairs' keys and values are Config's to
    # check: drivers reject bad ones before writing anything.
    pairs = env.get("set", {})
    if not isinstance(pairs, dict) or not all(
        k and isinstance(v, str) and v for k, v in pairs.items()
    ):
        errors.append("env: 'set' must be an object of non-empty strings")
    if "kv_keys" in env and (not isinstance(env["kv_keys"], int) or env["kv_keys"] < 1):
        errors.append("env: 'kv_keys' must be a positive integer")
    if "kv_conflict_pct" in env and (
        not isinstance(env["kv_conflict_pct"], int)
        or not 0 <= env["kv_conflict_pct"] <= 100
    ):
        errors.append("env: 'kv_conflict_pct' must be an integer in [0, 100]")
    if "workload" in env and env["workload"] not in ("null", "kv"):
        errors.append("env: 'workload' must be 'null' or 'kv'")
    if "read_pct" in env and (
        not isinstance(env["read_pct"], int) or not 0 <= env["read_pct"] <= 100
    ):
        errors.append("env: 'read_pct' must be an integer in [0, 100]")


def validate(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [str(exc)]
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    missing = REQUIRED_TOP - doc.keys()
    if missing:
        errors.append(f"missing top-level {sorted(missing)}")
        return errors
    if doc["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc['schema_version']!r} != supported {SCHEMA_VERSION}"
        )
    if not isinstance(doc["figure"], str) or not doc["figure"]:
        errors.append("'figure' must be a non-empty string")
    if not isinstance(doc["title"], str) or not doc["title"]:
        errors.append("'title' must be a non-empty string")
    if not isinstance(doc["series"], list) or not doc["series"]:
        errors.append("'series' must be a non-empty array")
    else:
        names = [s.get("name") for s in doc["series"] if isinstance(s, dict)]
        if len(names) != len(set(names)):
            errors.append("series names must be unique")
        for i, series in enumerate(doc["series"]):
            check_series(series, i, errors)
    check_env(doc["env"], errors)
    return errors


def main(argv):
    quiet = "-q" in argv
    paths = [a for a in argv if a != "-q"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        errors = validate(path)
        if errors:
            failed += 1
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        elif not quiet:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
