#!/usr/bin/env python3
"""Treadmill benchmark runner.

Run from the root of a checkout:

    python3 treadbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--window-ms MS]
    python3 treadbench/run.py --selftest
    python3 treadbench/run.py --spread [--workload NAME] [--seeds 1,2,3] [--heldout N]

The first form builds the `treadbench` and `treadmill-serve` binaries
from source (into $CARGO_TARGET_DIR, default `.bench_build`), records the
environment, runs one workload and relays its report; the last line of
standard output is the result object. `--selftest` runs every workload at
smoke scale and checks the metric names and units against BENCHMARK.json,
plus a negative control that must count a corrupted digest as a failure.
`--spread` runs full-scale workloads over several seeds and prints each
end-to-end metric's quartile spread as a share of its median, and, with
`--heldout`, how far one more seed lands from that median.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
# One run ends well inside the 180 s a run may take; a hung child is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"treadbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds both binaries; returns (treadbench, treadmill-serve) paths."""
    for needed in ("Cargo.toml", "crates", os.path.join("treadbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "treadbench", "-p", "treadmill-server", "--bins",
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "treadbench"), os.path.join(release, "treadmill-serve")


def source_digest():
    """SHA-256 over the program and benchmark sources: the commit stand-in
    for checkouts that are not git repositories."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", os.path.join("treadbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.relpath(os.path.join(dirpath, f), ROOT)
                      for f in sorted(filenames) if f.endswith((".rs", ".toml"))]
    for rel in files:
        path = os.path.join(ROOT, rel)
        if os.path.exists(path):
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def environment():
    os.makedirs(OUT, exist_ok=True)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "source_digest": source_digest(),
        "state_dir_fs": command_output(["stat", "-f", "-c", "%T", OUT]),
    }


def run_workload(binary, serve, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (report lines, result object)."""
    out_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir, "--serve-bin", serve, *extra]
    # Its own process group, so the server it spawns goes down with it
    # even if it is killed before it can stop that server itself.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if stdout is None:
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result object")
    return lines[:-1], result


def single(args):
    binary, serve = build()
    env = environment()
    for key, value in env.items():
        print(f"env {key}={value}")
    extra = ["--window-ms", str(args.window_ms)] if args.window_ms else []
    lines, result = run_workload(binary, serve, args.workload, args.seed,
                                 args.seconds, args.trace, extra)
    for line in lines:
        print(line)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "report": lines, "result": result}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}", "result.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest():
    """Smoke-scale check of the benchmark itself."""
    binary, serve = build()
    bench = spec()
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_workload(binary, serve, name, 7, 1, trace, ["--smoke"])
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in bench[key]}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {got} != {want}")
            for m, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{name}: {m} is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: checks failed: {result}")
            if key == "end_to_end" and any(v["value"] <= 0 for v in result["metrics"].values()):
                problems.append(f"{name}: an end-to-end metric is not positive")
        # Negative control: a corrupted reference digest must be caught.
        _, result = run_workload(binary, serve, name, 7, 1, 0, ["--smoke", "--corrupt-digest"])
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{name}: corrupted digest was not counted as failed")
        print(f"selftest {name}: checked", flush=True)
    for p in problems:
        print(f"selftest FAIL: {p}")
    print("selftest", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


def spread(args):
    """Quartile spread of every end-to-end metric over several seeds, the
    way the acceptance check computes it."""
    binary, serve = build()
    bench = spec()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in workloads:
        values = {m: [] for m in bounds}
        start = time.time()
        for seed in seeds:
            _, result = run_workload(binary, serve, name, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                print(f"{name} seed {seed}: checks failed: {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        per_run = (time.time() - start) / len(seeds)
        held = None
        if args.heldout is not None:
            _, held = run_workload(binary, serve, name, args.heldout, bench["run_seconds"], 0)
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            line = (f"{name:17s} {m:20s} median {med:14.4f} spread {share:7.4f} "
                    f"(bound {bounds[m]}, {share / bounds[m]:.2f} of it) "
                    f"[{' '.join(f'{v:.4g}' for v in vs)}]")
            if held is not None:
                hv = held["metrics"][m]["value"]
                line += f" heldout seed {args.heldout}: {(hv - med) / med:+.4f} of median"
            print(line, flush=True)
        print(f"{name:17s} {len(seeds)} runs, {per_run:.1f} s per run", flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--spread", action="store_true")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--heldout", type=int)
    p.add_argument("--window-ms", type=int,
                   help="simulated duration of loadtest_high/sharded_1m runs")
    args = p.parse_args()
    if args.selftest:
        selftest()
    elif args.spread:
        spread(args)
    elif args.workload:
        single(args)
    else:
        fail("--workload, --selftest or --spread is required")


if __name__ == "__main__":
    main()
