#!/usr/bin/env python3
"""Repository benchmark: build the perfbench program and run a workload.

    python3 perfbench/run.py --workload hpc-stencil --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --selfcheck               # determinism self-check

Each workload runs in its own process. The program prints every metric by
name and unit; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1). The build goes to
.bench_build/perfbench under the repository root; progress goes to
standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["hpc-stencil", "dl-train", "service-fleet"]
RUN_TIMEOUT_S = 170
# Sim metrics that legitimately depend on the shard count.
SHARD_DEPENDENT = {"core.metadata.hit_rate", "engine.shards_per_batch"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the program (both no-ops when up to date);
    exit 1 on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(SOURCE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    # Keep the compiler's temporary files inside the build directory.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                                 stderr=subprocess.STDOUT, text=True)
        except OSError as exc:
            log(f"build failed: {exc}")
            sys.exit(1)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def declared_metrics():
    """End-to-end and per-layer metrics declared in BENCHMARK.json, each
    as a map from name to unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(workload, seed, seconds, trace, extra=(), echo=True):
    """Run the program once. Returns (exit code, result, detail)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                str(BUILD / f"spans-{workload}-{seed}.json")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT))
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo and not line.startswith(("{", "detail ")):
                print(line, end="", flush=True)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if code < 0:
        log(f"{workload}: killed (signal {-code})")
        return 1, None, None
    result = detail = None
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return code, result, detail


def validate(result, trace):
    """The result must carry exactly the declared metrics, each in its
    declared unit."""
    e2e, layer = declared_metrics()
    want = layer if trace else e2e
    have = {name: m["unit"] for name, m in result["metrics"].items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(f"{n} ({have[n]}, declared {want[n]})"
                       for n in set(have) & set(want) if have[n] != want[n])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, unit mismatch {units}")
        return False
    return True


def sim_metrics(detail):
    out = {}
    for group in ("end_to_end", "per_layer"):
        for name, m in detail[group].items():
            if m["clock"] == "sim":
                out[name] = m["value"]
    return out


def selfcheck(seed, seconds):
    """Sim metrics repeat bit for bit; hpc-stencil also across shard
    counts; a held-out seed runs clean. Returns an exit code."""
    ok = True

    def note(passed, what):
        nonlocal ok
        ok = ok and passed
        print(f"selfcheck {'PASS' if passed else 'FAIL'}: {what}", flush=True)

    for w in WORKLOADS:
        runs = [run_workload(w, seed, seconds, 1, echo=False)
                for _ in range(2)]
        if any(code != 0 or d is None for code, _, d in runs):
            note(False, f"{w}: a run failed")
            continue
        a, b = (sim_metrics(d) for _, _, d in runs)
        diff = sorted(k for k in a if a[k] != b.get(k))
        note(not diff and len(a) == len(b),
             f"{w}: {len(a)} sim metrics bit-identical across two runs"
             + (f" (differ: {diff})" if diff else ""))
        if w == "hpc-stencil":
            code, _, d1 = run_workload(w, seed, seconds, 1, ["--shards", "1"],
                                       echo=False)
            if code != 0 or d1 is None:
                note(False, f"{w}: 1-shard run failed")
            else:
                one = sim_metrics(d1)
                diff = sorted(k for k in a if k not in SHARD_DEPENDENT
                              and a[k] != one.get(k))
                note(not diff, f"{w}: sim metrics equal at 1 and 2 shards "
                     f"(excluding {sorted(SHARD_DEPENDENT)})"
                     + (f" (differ: {diff})" if diff else ""))
        held_out = seed + 7919
        code, res, _ = run_workload(w, held_out, seconds, 0, echo=False)
        note(code == 0 and res is not None and res["correct"]
             and res["failed"] == 0, f"{w}: held-out seed {held_out} clean")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="determinism self-check over every workload")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload or --selfcheck is required")

    build()
    if args.selfcheck:
        return selfcheck(args.seed, min(args.seconds, 2))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        code, result, _ = run_workload(w, args.seed, args.seconds, args.trace)
        if code != 0 or result is None or not validate(result, args.trace):
            log(f"{w}: failed (exit code {code})")
            return 1
        results[w] = result
    if args.workload == "all":
        print("\nsummary")
        for w, res in results.items():
            for name, m in res["metrics"].items():
                print(f"  {w:14s} {name:36s} {m['value']:>20.10g} {m['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
