#!/usr/bin/env python3
"""The repo benchmark: runs one named workload with a seed and prints its
metrics.

    python3 perfbench/run.py --workload hot-wire --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first call builds the library and the
driver from source (cmake, Release) into $CARGO_TARGET_DIR or .bench_build.
Every answer is checked; the last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics computed from the span
file the traced run writes.  Earlier lines carry the run's settings, sample
counts, I/O-bound ratios and raw counters (store and pool sizes).  The exit status is non-zero on any wrong answer or failed
request, and on any build or setup error (then no result line is printed).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

DRIVER_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once and builds the driver; returns its path or None."""
    out = build_dir()
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.exists(src):
        log("library sources not found (%s); cannot build" % src)
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    os.makedirs(out, exist_ok=True)
    logf = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_driver"])
    with open(logf, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                log("build failed; see %s" % logf)
                return None
    return os.path.join(out, "perfbench_driver")


def source_digest():
    """SHA-256 over the library and benchmark sources, so two runs can be
    shown to measure the same code even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def run(args):
    driver = build()
    if driver is None:
        return 2
    work = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    trace_path = os.path.join(work, "trace.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--out", raw_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    if args.tiny:
        cmd.append("--tiny")
    try:
        rc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
        if rc not in (0, 3) or not os.path.exists(raw_path):
            log("driver exited with status %d" % rc)
            return rc or 2
        with open(raw_path) as f:
            raw = json.load(f)
        if args.trace:
            trace = metrics.Trace.load(trace_path)
            if args.keep_trace:
                shutil.copy(trace_path, args.keep_trace)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = dict(raw["meta"])
    meta.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "nproc": os.cpu_count(), "git_commit": git_commit(),
                 "source_sha256": source_digest()})
    if args.trace:
        values = metrics.per_layer(raw, trace)
        units = metrics.PER_LAYER
        samples = {"spans": len(trace.spans)}
    else:
        values, samples = metrics.end_to_end(raw)
        units = metrics.END_TO_END
    c = raw["counters"]
    print("settings: " + json.dumps(meta, sort_keys=True))
    print("samples: " + json.dumps(samples, sort_keys=True))
    print("bound: " + json.dumps({
        "reads_over_bound_max": c.get("bound_max", 0.0),
        "reads_over_bound_mean": c.get("bound_mean", 0.0)}))
    print("counters: " + json.dumps(c, sort_keys=True))
    if raw["first_error"]:
        print("first error: " + raw["first_error"])
    failed = raw["failed"] + raw["wrong"]
    print(json.dumps({
        "correct": raw["wrong"] == 0,
        "attempted": max(1, raw["attempted"]),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the self-tests")
    p.add_argument("--keep-trace", metavar="FILE",
                   help="copy the traced run's span file here")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
