#!/usr/bin/env python3
"""Host-runtime benchmark runner: build perfbench, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

A run builds the benchmark (perfbench/CMakeLists.txt, which compiles the
host-runtime sources under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one workload
and prints two lines on stdout:

  * a report object: run metadata (nproc, affinity mask, loadavg at start
    and end, clock source, hugepages, build type, commit or source digest),
    every metric the run produced with its unit, stream hashes and sample
    counts;
  * the result object, last: {"correct", "attempted", "failed", "metrics"}
    where metrics holds every end_to_end metric of BENCHMARK.json (trace 0)
    or every per_layer metric (trace 1).

--smoke runs every workload briefly with and without tracing and checks
that every named metric is printed with its unit, that error_rate is 0,
and, when tools/trace2chrome.py is present, that the span dump passes its
--check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BINARY_TIMEOUT_S = 150
SMOKE_SECONDS = 1


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build; returns the binary path. Build output
    goes to stderr so stdout carries only results."""
    if not os.path.exists(os.path.join(ROOT, "src", "rt", "runtime.h")):
        raise RuntimeError("host runtime sources (src/) not found next to perfbench/")
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=840)
    return os.path.join(bdir, "perfbench")


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def source_identity():
    """The commit when run from a git work tree, else a digest of the
    sources the benchmark builds from (a checkout need not be a git repo)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return {"commit": out.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"commit": None, "source_sha256": h.hexdigest()}


def hugepage_info():
    info = {}
    meminfo = read_text("/proc/meminfo") or ""
    for line in meminfo.splitlines():
        key, _, rest = line.partition(":")
        if key in ("HugePages_Total", "HugePages_Free", "Hugepagesize"):
            info[key] = rest.strip()
    info["transparent_hugepage"] = read_text(
        "/sys/kernel/mm/transparent_hugepage/enabled")
    return info


def steal_ticks():
    """Host steal time so far (clock ticks, all CPUs), from /proc/stat."""
    stat = read_text("/proc/stat") or ""
    fields = stat.splitlines()[0].split() if stat else []
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def metadata():
    affinity = sorted(os.sched_getaffinity(0))
    meta = {
        "nproc": len(affinity),
        "affinity": affinity,
        "loadavg_start": list(os.getloadavg()),
        "clocksource": read_text(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        "hugepages": hugepage_info(),
    }
    meta.update(source_identity())
    return meta


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace):
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=BINARY_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{workload}: no output (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def result_metrics(spec, run, trace):
    """The contract's metric set for this mode, checked against the run.
    Per-layer metrics a workload does not exercise are reported as 0 and
    listed in the report as not_measured."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = run["metrics"]
    metrics, not_measured = {}, []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not trace:
                raise RuntimeError(f"{run['workload']}: metric {name} missing")
            not_measured.append(name)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got[name]["unit"] != unit:
            raise RuntimeError(f"{name}: unit {got[name]['unit']} != {unit}")
        if got[name]["value"] is None:
            raise RuntimeError(f"{name}: not a finite number")
        metrics[name] = {"value": got[name]["value"], "unit": unit}
    return metrics, not_measured


def run_once(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload}; one of {names}")
    meta = metadata()
    binary = build()
    steal0 = steal_ticks()
    rc, run = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    steal1 = steal_ticks()
    meta["loadavg_end"] = list(os.getloadavg())
    meta["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    metrics, not_measured = result_metrics(spec, run, args.trace)
    report = {k: v for k, v in run.items() if k not in ("correct", "attempted", "failed")}
    report["meta"] = meta
    report["not_measured"] = not_measured
    print(json.dumps({"report": report}))
    result = {"correct": bool(run["correct"]) and rc == 0,
              "attempted": int(run["attempted"]), "failed": int(run["failed"]),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def trace_check(path):
    """Validate a span dump with tools/trace2chrome.py --check, when present."""
    tool = os.path.join(ROOT, "tools", "trace2chrome.py")
    if not os.path.exists(tool):
        return "skipped (tools/trace2chrome.py not present)"
    out = subprocess.run([sys.executable, tool, "--check", path],
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"span check failed for {path}: {out.stderr.strip()}")
    return out.stdout.strip()


def smoke(args):
    spec = load_spec()
    binary = build()
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            rc, run = run_binary(binary, name, args.seed, SMOKE_SECONDS, trace)
            if rc != 0 or not run["correct"]:
                raise RuntimeError(f"{name} trace={int(trace)}: incorrect run: "
                                   f"{run.get('first_error')}")
            metrics, not_measured = result_metrics(spec, run, trace)
            if not trace and run["metrics"]["error_rate"]["value"] != 0:
                raise RuntimeError(f"{name}: error_rate is not 0")
            for extra in ("error_rate", "bulk_mb_per_s"):
                if not trace and extra not in run["metrics"]:
                    raise RuntimeError(f"{name}: {extra} missing")
            line = f"{name} trace={int(trace)}: {len(metrics)} metrics with units"
            if trace:
                line += f", not exercised: {len(not_measured)}, "
                line += trace_check(run["info"]["trace_file"])
            else:
                line += ", error_rate 0"
            log(line)
    log("smoke OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke(args)
        if not args.workload:
            ap.error("--workload is required")
        return run_once(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
