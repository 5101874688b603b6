#!/usr/bin/env python3
"""The maxev benchmark: build, run one workload, verify, report.

Usage (from the root of a checkout):

  python3 maxevbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark program from source (Release) into
$CARGO_TARGET_DIR/maxevbench, or .bench_build/maxevbench when unset, runs
the workload for S seconds on inputs generated from seed N, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Refuses to report numbers from a debug,
sanitizer or fault-injection build. Every result, with its provenance (git
sha or source digest, CPU, nproc, compiler, build settings), is also kept
under the build directory in results/; the traced run's Chrome trace_event
document goes to traces/. See maxevbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dse_sweep", "fig5_padded", "lte_composed", "serve_stream")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"maxevbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group."""
    stderr = subprocess.STDOUT if kw.pop("merge", False) else subprocess.PIPE
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=stderr, text=True,
                            **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} timed out after {timeout} s")
    return proc.returncode, out, err


def build(build_dir):
    """Configure (once) and build; returns the benchmark binary's path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DMAXEV_SANITIZE=",
                      "-DMAXEV_FAULTS=OFF", "-DMAXEV_SIMD=OFF"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "maxevbench"])
    for cmd in steps:
        code, out, _ = run(cmd, BUILD_TIMEOUT_S, merge=True)
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail("build failed")
    return os.path.join(build_dir, "maxevbench")


def source_digest():
    """SHA-256 over the library sources, the root build file and this
    benchmark: the identity of what was measured."""
    root = os.path.dirname(HERE)
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def provenance(build_info, digest):
    prov = {"git_sha": None, "source_digest": digest}
    try:
        # The ceiling keeps git from reading repositories above the checkout.
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        code, out, _ = run(["git", "rev-parse", "HEAD"], 30, env=env)
        if code == 0:
            prov["git_sha"] = out.strip()
    except OSError:
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    prov.update(cpu_model=cpu, nproc=os.cpu_count(), **build_info)
    return prov


def refuse_unfit_build(b):
    if b["build_type"] not in ("Release", "RelWithDebInfo") or not b["ndebug"]:
        fail(f"refusing numbers from a {b['build_type']} build")
    if b["sanitize"]:
        fail(f"refusing numbers from a sanitizer build ({b['sanitize']})")
    if b["faults"]:
        fail("refusing numbers from a fault-injection build")


def check_counts(out_dir, key, counts):
    """Counts of one seed must repeat exactly across runs of the same
    sources (key names both): the first run's are kept, later runs are
    compared with them. Returns a failure or None."""
    path = os.path.join(out_dir, "counts", key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            first = json.load(f)
        diff = sorted(k for k in set(first) | set(counts)
                      if first.get(k) != counts.get(k))
        if diff:
            return f"counts differ from the first run of this seed: {diff[:5]}"
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else
                                      "end_to_end"]]

    out_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "maxevbench")
    binary = build(out_dir)
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out_dir, "traces", key + ".trace.json")]
    code, out, err = run(cmd, RUN_TIMEOUT_S)
    sys.stderr.write(err)
    if code != 0 or not out.strip():
        fail(f"{args.workload} exited with code {code}")
    lines = out.rstrip("\n").split("\n")
    raw = json.loads(lines[-1])
    refuse_unfit_build(raw["build"])

    attempted, failed = raw["attempted"] + 1, raw["failed"]
    failures = list(raw["failures"])
    digest = source_digest()
    count_failure = check_counts(out_dir, f"{key}-{digest[:16]}",
                                 raw["counts"])
    if count_failure:
        failed += 1
        failures.append(count_failure)
    missing = [n for n in wanted if n not in raw["metrics"]]
    if missing:
        fail(f"{args.workload} did not report {missing}")
    metrics = {n: raw["metrics"][n] for n in wanted}

    prov = provenance(raw["build"], digest)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", key + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "provenance": prov, "attempted": attempted,
                   "failed": failed, "failures": failures,
                   "metrics": raw["metrics"], "counts": raw["counts"]},
                  f, indent=1, sort_keys=True)

    for line in lines[:-1]:
        print(line)
    for msg in failures:
        print(f"FAILED: {msg}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
