#!/usr/bin/env python3
"""Per-thread CPU time and context switches of a command, from /proc.

    scripts/thread_cpu.py [--skip S] [--seconds S] [--interval S] -- CMD...

Runs CMD (its stdout goes to this script's stderr) and samples every
thread of CMD and of its descendant processes from /proc/<pid>/task/*:
user and system CPU time and voluntary and involuntary context switches.
Only the window that starts --skip seconds after launch and lasts
--seconds (default: until CMD exits) counts. When CMD exits, it prints
one row per thread name and one per replica and module, as rates over the
window: user and system cores, and switches per second.

Threads are grouped by OS name. mcsmr threads name themselves
"r<id>/<Module>[-<index>]" (see metrics::os_thread_name); "r0/IORcv-2" is
replica 0's receiver from replica 2. A thread that exits between two
samples loses its last interval, so keep --interval short when threads
come and go (bench_e2e builds a fresh cluster every round). The process
totals of CPU time come from /proc/<pid>/stat and include exited threads.

Example, the paper workload on the end-to-end benchmark's binary:

    scripts/thread_cpu.py --skip 2 -- .bench_build/e2e/bench_e2e \\
        --workload paper-null --seed 1 --seconds 20 --trace 0
"""
import argparse
import os
import re
import subprocess
import sys
import time
from collections import defaultdict

TICK = os.sysconf("SC_CLK_TCK")
FIELDS = ("utime", "stime", "vol", "invol")


def read_stat(path):
    """(comm, utime ticks, stime ticks) from a /proc stat file, or None."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError:
        return None
    close = text.rfind(")")
    comm = text[text.find("(") + 1:close]
    rest = text[close + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return comm, int(rest[11]), int(rest[12])


def read_switches(path):
    vol = invol = 0
    try:
        with open(path) as f:
            for line in f:
                if line.startswith("voluntary_ctxt_switches:"):
                    vol = int(line.split()[1])
                elif line.startswith("nonvoluntary_ctxt_switches:"):
                    invol = int(line.split()[1])
    except OSError:
        return None
    return vol, invol


def tasks(pid):
    try:
        return os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []


def process_tree(root):
    """root and every live descendant process."""
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        for tid in tasks(pid):
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
            except OSError:
                pass
    return pids


def sample(root):
    """({(pid, tid): (name, utime, stime, vol, invol)}, {pid: (utime, stime)})."""
    threads, processes = {}, {}
    for pid in process_tree(root):
        stat = read_stat(f"/proc/{pid}/stat")
        if stat is not None:
            processes[pid] = stat[1:]
        for tid in tasks(pid):
            base = f"/proc/{pid}/task/{tid}"
            stat = read_stat(f"{base}/stat")
            switches = read_switches(f"{base}/status")
            if stat is not None and switches is not None:
                threads[(pid, tid)] = (stat[0], stat[1], stat[2]) + switches
    return threads, processes


def group_of(name):
    """(replica, module): "r1/p0/IORcv-2" -> ("r1", "p0/IORcv")."""
    match = re.match(r"(r\d+)/(.*)", name)
    replica, rest = (match.group(1), match.group(2)) if match else ("-", name)
    return replica, re.sub(r"-\d+$", "", rest)


def table(title, totals, seconds):
    lines = [f"{title:<20} {'user':>7} {'sys':>7} {'vol/s':>9} {'invol/s':>9}"]
    for key in sorted(totals):
        t = totals[key]
        lines.append(f"{key:<20} {t['utime'] / TICK / seconds:7.3f} "
                     f"{t['stime'] / TICK / seconds:7.3f} {t['vol'] / seconds:9.0f} "
                     f"{t['invol'] / seconds:9.0f}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip", type=float, default=0.0,
                        help="seconds after launch before the window opens")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="window length (0: until the command exits)")
    parser.add_argument("--interval", type=float, default=0.1, help="sampling period")
    parser.add_argument("cmd", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        parser.error("no command given (put it after --)")

    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    launched = time.monotonic()
    opens = launched + args.skip
    closes = opens + args.seconds if args.seconds > 0 else float("inf")

    per_thread = defaultdict(lambda: dict.fromkeys(FIELDS, 0))
    last_threads = {}
    proc_first, proc_last = {}, {}
    window_start = window_end = None
    while proc.poll() is None:
        now = time.monotonic()
        if now >= closes:
            break
        threads, procs = sample(proc.pid)
        if now >= opens and window_start is None:
            window_start, proc_first = now, dict(procs)  # baseline only
        elif window_start is not None:
            for key, (name, *cur) in threads.items():
                prev = last_threads.get(key, (name, 0, 0, 0, 0))[1:]
                if any(c < p for c, p in zip(cur, prev)):
                    prev = (0, 0, 0, 0)  # tid reused by a new thread
                for field, c, p in zip(FIELDS, cur, prev):
                    per_thread[name][field] += c - p
            for pid, cpu in procs.items():
                proc_first.setdefault(pid, (0, 0))  # born inside the window
                proc_last[pid] = cpu
            window_end = now
        last_threads = threads
        time.sleep(args.interval)
    if proc.poll() is None:
        proc.terminate()
    proc.wait()

    if window_end is None:
        sys.exit("thread_cpu.py: the command exited before the window had two samples")
    seconds = window_end - window_start
    per_group = defaultdict(lambda: dict.fromkeys(FIELDS, 0))
    for name, t in per_thread.items():
        replica, module = group_of(name)
        for field in FIELDS:
            per_group[f"{replica} {module}"][field] += t[field]
    vol = sum(t["vol"] for t in per_thread.values())
    invol = sum(t["invol"] for t in per_thread.values())
    proc_user = sum(u - proc_first[pid][0] for pid, (u, _) in proc_last.items())
    proc_sys = sum(s - proc_first[pid][1] for pid, (_, s) in proc_last.items())

    print(f"window {seconds:.1f} s, {len(per_thread)} thread names; rates per second of window")
    print(table("thread", per_thread, seconds))
    print()
    print(table("replica module", per_group, seconds))
    print()
    print(f"process user {proc_user / TICK / seconds:.3f} cores, "
          f"sys {proc_sys / TICK / seconds:.3f} cores; threads vol/s {vol / seconds:.0f}, "
          f"invol/s {invol / seconds:.0f}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
