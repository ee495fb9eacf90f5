#!/usr/bin/env python3
"""Repo-specific invariant lints that clang-tidy cannot know.

Three machine-checked rules, each born from a real bug or a standing
architectural contract of this codebase (docs/ARCHITECTURE.md "Correctness
tooling"):

config-ref   No class may store a `Config&` / `Config*` (or a
             reference_wrapper over one) as a member. Components receive a
             `const Config&` at construction; storing the reference ties
             the object's lifetime to the caller's argument — the PR-6
             dangling-Config bug (Sim/TcpClientIo outlived a temporary
             Config). Store an owned copy instead. Annotate the member
             line (or the line above) with
             `lint:allow(config-ref): <reason>` for a justified exception.

raw-sync     Cross-thread hand-off edges in src/smr and src/paxos must use
             BoundedBlockingQueue / Signal (src/common/queue.hpp), which
             carry the backpressure, close and wait-attribution semantics
             the pipeline relies on — not ad-hoc
             `std::mutex` + `std::condition_variable` member pairs. A class
             that legitimately needs a raw pair (timed periodic sleep, a
             rendezvous barrier) annotates it with
             `lint:allow(raw-sync): <reason>`.

fuzz-registry  Every untrusted-byte decode entry point declared in
             src/**/*.hpp (free functions `decode_*`, plus the named
             codec methods in KNOWN_METHOD_SURFACES) must appear in
             fuzz/REGISTRY.md, and each harness listed there must exist
             and actually reference the entry point — new codecs cannot
             ship unfuzzed.

Exit status: 0 clean, 1 violations (printed one per line as
`path:line: rule: message`), 2 bad usage. `--self-test` seeds one
violation of each rule into a temp tree and asserts the linter catches
it (wired as a tier-1 CTest so the linter itself cannot rot).
"""

import argparse
import os
import re
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOW_RE = re.compile(r"lint:allow\((?P<rule>[a-z-]+)\)\s*:\s*\S")

# --- rule: config-ref -------------------------------------------------------

# Member declarations end in `name_;` per repo style; references/pointers to
# Config (optionally const, optionally namespace-qualified) are the target.
CONFIG_REF_MEMBER_RE = re.compile(
    r"^\s*(?:const\s+)?(?:mcsmr::)?Config\s*(?:const\s*)?[&*]\s*\w+_\s*(?:=[^;]*)?;"
)
CONFIG_REFWRAP_MEMBER_RE = re.compile(
    r"^\s*std::reference_wrapper<\s*(?:const\s+)?(?:mcsmr::)?Config\s*>\s*\w+_\s*(?:=[^;]*)?;"
)

# --- rule: raw-sync ---------------------------------------------------------

MUTEX_MEMBER_RE = re.compile(r"^\s*(?:mutable\s+)?std::(?:recursive_)?mutex\s+\w+_?\s*;")
CV_MEMBER_RE = re.compile(r"^\s*std::condition_variable(?:_any)?\s+\w+_?\s*;")
RAW_SYNC_DIRS = ("src/smr", "src/paxos")

# --- rule: fuzz-registry ----------------------------------------------------

DECODE_FREE_FN_RE = re.compile(r"\b(decode_\w+)\s*\(")
# Codec-shaped methods that take raw bytes from the wire/disk but are not
# named decode_*: map of header path suffix -> (ClassName::method, needle).
KNOWN_METHOD_SURFACES = {
    "src/net/frame.hpp": "FrameParser::feed",
    "src/smr/reply_cache.hpp": "ReplyCache::install",
    "src/paxos/storage.hpp": "SegmentStorage::recover",
    "src/paxos/types.hpp": "Request::decode",
}
REGISTRY_PATH = "fuzz/REGISTRY.md"
REGISTRY_ROW_RE = re.compile(r"^\|\s*`(?P<entry>[^`]+)`\s*\|[^|]*\|(?P<harnesses>[^|]*)\|")


def allowed(lines, idx, rule):
    """True if line idx or a nearby line above carries the allow tag.

    The window is 4 lines so one annotation covers an adjacent
    mutex + condition_variable member pair.
    """
    for j in range(idx, max(-1, idx - 5), -1):
        m = ALLOW_RE.search(lines[j])
        if m and m.group("rule") == rule:
            return True
    return False


def iter_source_files(root, subdirs, exts=(".hpp", ".cpp")):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def lint_config_ref(root, violations):
    for path in iter_source_files(root, ("src",)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if CONFIG_REF_MEMBER_RE.match(line) or CONFIG_REFWRAP_MEMBER_RE.match(line):
                if not allowed(lines, i, "config-ref"):
                    violations.append(
                        f"{rel}:{i + 1}: config-ref: class stores a Config "
                        "reference/pointer member — store an owned copy (a stored "
                        "Config& dies with the constructor argument; PR-6 bug class) "
                        "or annotate `lint:allow(config-ref): <reason>`"
                    )


def lint_raw_sync(root, violations):
    for path in iter_source_files(root, RAW_SYNC_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        mutex_lines = [i for i, l in enumerate(lines) if MUTEX_MEMBER_RE.match(l)]
        cv_lines = [i for i, l in enumerate(lines) if CV_MEMBER_RE.match(l)]
        if not mutex_lines or not cv_lines:
            continue
        for i in cv_lines:
            if not allowed(lines, i, "raw-sync"):
                violations.append(
                    f"{rel}:{i + 1}: raw-sync: raw std::mutex + std::condition_variable "
                    "pair in the SMR/Paxos pipeline — cross-thread hand-offs must use "
                    "BoundedBlockingQueue/Signal (src/common/queue.hpp), or "
                    "annotate `lint:allow(raw-sync): <reason>`"
                )


def parse_registry(root, violations):
    path = os.path.join(root, REGISTRY_PATH)
    if not os.path.exists(path):
        violations.append(f"{REGISTRY_PATH}:1: fuzz-registry: registry file missing")
        return {}
    entries = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            m = REGISTRY_ROW_RE.match(line.strip())
            if not m:
                continue
            entry = m.group("entry").strip()
            if entry in ("Entry point",):  # header row
                continue
            harnesses = [h.strip().strip("`") for h in m.group("harnesses").split(",")]
            harnesses = [h for h in harnesses if h.endswith(".cpp")]
            entries[entry] = (lineno, harnesses)
    return entries


def lint_fuzz_registry(root, violations):
    registry = parse_registry(root, violations)

    # Collect declared decode surfaces from public headers.
    declared = {}  # entry-point name -> first "path:line"
    for path in iter_source_files(root, ("src",), exts=(".hpp",)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            code = line.split("//")[0]
            for m in DECODE_FREE_FN_RE.finditer(code):
                declared.setdefault(m.group(1), f"{rel}:{i + 1}")
        if rel in KNOWN_METHOD_SURFACES:
            declared.setdefault(KNOWN_METHOD_SURFACES[rel], f"{rel}:1")

    for entry, where in sorted(declared.items()):
        row = registry.get(entry)
        if row is None:
            # Method-style rows may be registered under Class::method while
            # the bare name was found, or vice versa; try suffix match.
            row = next(
                (v for k, v in registry.items() if k.endswith("::" + entry)), None
            )
        if row is None:
            violations.append(
                f"{where}: fuzz-registry: decode entry point `{entry}` is not in "
                f"{REGISTRY_PATH} — add a fuzz harness (or an allowlist row with "
                "rationale) before shipping a new codec"
            )
            continue
        lineno, harnesses = row
        if not harnesses:
            continue  # explicit allowlist row with rationale, no harness
        for harness in harnesses:
            hpath = os.path.join(root, "fuzz", harness)
            if not os.path.exists(hpath):
                violations.append(
                    f"{REGISTRY_PATH}:{lineno}: fuzz-registry: harness `{harness}` "
                    f"for `{entry}` does not exist under fuzz/"
                )
                continue
            needle = entry.split("::")[-1]
            with open(hpath, encoding="utf-8") as f:
                if needle not in f.read():
                    violations.append(
                        f"{REGISTRY_PATH}:{lineno}: fuzz-registry: harness "
                        f"`{harness}` never references `{needle}` — registry row "
                        f"for `{entry}` is stale"
                    )


def run_lints(root):
    violations = []
    lint_config_ref(root, violations)
    lint_raw_sync(root, violations)
    lint_fuzz_registry(root, violations)
    return violations


# --- self-test --------------------------------------------------------------

SEED_CONFIG_REF = """#pragma once
struct Widget {
  const Config& config_;
};
"""

SEED_RAW_SYNC = """#pragma once
#include <condition_variable>
#include <mutex>
class Edge {
  std::mutex mu_;
  std::condition_variable cv_;
};
"""

SEED_NEW_DECODER = """#pragma once
Thing decode_unregistered_thing(const Bytes& data);
"""


def expect(violations, rule, what):
    hits = [v for v in violations if f" {rule}: " in v]
    if not hits:
        print(f"self-test FAILED: seeded {what} not flagged by rule {rule}")
        return False
    print(f"self-test ok: {rule} flagged the seeded {what}: {hits[0][:100]}...")
    return True


def self_test():
    ok = True
    with tempfile.TemporaryDirectory(prefix="lint-selftest-") as tmp:
        os.makedirs(os.path.join(tmp, "src/smr"))
        os.makedirs(os.path.join(tmp, "fuzz"))
        with open(os.path.join(tmp, "src/smr/widget.hpp"), "w") as f:
            f.write(SEED_CONFIG_REF)
        with open(os.path.join(tmp, "src/smr/edge.hpp"), "w") as f:
            f.write(SEED_RAW_SYNC)
        with open(os.path.join(tmp, "src/smr/codec.hpp"), "w") as f:
            f.write(SEED_NEW_DECODER)
        with open(os.path.join(tmp, "fuzz/REGISTRY.md"), "w") as f:
            f.write("| Entry point | Declared in | Harness |\n|---|---|---|\n")
        violations = run_lints(tmp)
        ok &= expect(violations, "config-ref", "stored Config&")
        ok &= expect(violations, "raw-sync", "raw mutex+cv edge")
        ok &= expect(violations, "fuzz-registry", "unregistered decoder")

        # A stale-harness row (registered but the file never calls it) must
        # also fail.
        with open(os.path.join(tmp, "fuzz/REGISTRY.md"), "a") as f:
            f.write("| `decode_unregistered_thing` | `src/smr/codec.hpp` "
                    "| `missing_fuzz.cpp` |\n")
        violations = run_lints(tmp)
        ok &= expect(violations, "fuzz-registry", "missing harness file")

        # And the annotated/clean forms must pass.
        with open(os.path.join(tmp, "src/smr/widget.hpp"), "w") as f:
            f.write("#pragma once\nstruct Widget {\n"
                    "  // lint:allow(config-ref): test fixture\n"
                    "  const Config& config_;\n};\n")
        with open(os.path.join(tmp, "src/smr/edge.hpp"), "w") as f:
            f.write("#pragma once\n#include <condition_variable>\n#include <mutex>\n"
                    "class Edge {\n  // lint:allow(raw-sync): test fixture\n"
                    "  std::mutex mu_;\n  std::condition_variable cv_;\n};\n")
        with open(os.path.join(tmp, "fuzz/harness.cpp"), "w") as f:
            f.write("// calls decode_unregistered_thing\n")
        with open(os.path.join(tmp, "fuzz/REGISTRY.md"), "w") as f:
            f.write("| Entry point | Declared in | Harness |\n|---|---|---|\n"
                    "| `decode_unregistered_thing` | `src/smr/codec.hpp` "
                    "| `harness.cpp` |\n")
        violations = run_lints(tmp)
        if violations:
            print("self-test FAILED: clean tree still flagged:")
            for v in violations:
                print(" ", v)
            ok = False
        else:
            print("self-test ok: annotated/registered tree is clean")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO, help="repo root (default: script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter catches seeded violations of every rule")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())

    violations = run_lints(args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        sys.exit(1)
    print("lint_invariants: clean")


if __name__ == "__main__":
    main()
