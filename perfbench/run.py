"""Benchmark of the hopfgalois counting pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-a5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --self-check

Each workload runs in fresh worker processes (worker.py): one that sets
up and then runs passes of the workload's fixed op list, one op at a time,
for about ``--seconds`` seconds, and six that only set up, for the median
set-up time.  Every op's answer is checked.  Times are scaled by the
host's speed to reference seconds (see hostspeed.py).  The last line of
standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics from a traced
pass.  Lines before it give every metric with its unit and sample count.
A record with the environment is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PACKAGE = ROOT / "src" / "hopfgalois" / "__init__.py"
WORKLOADS = ("census-a5", "census-s3cube", "holomorph-zoo")
SETUP_SAMPLES = 7            # set-ups per untraced run; the median is reported
RUN_DEADLINE_S = 170         # a workload's workers are all stopped by then
# One interpreter thread per worker; keep numpy's BLAS pool to one thread.
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

sys.path.insert(0, str(HERE))
from hostspeed import REFERENCE_S, Sampler  # noqa: E402
from stats import tail_percentile  # noqa: E402


class BenchError(RuntimeError):
    pass


def worker(args, deadline):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=CHILD_ENV, timeout=remaining, text=True)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"worker did not finish in time: {' '.join(map(str, args))}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(map(str, args))}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed, numpy_version):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", name, "--seed", seed]
    # Set-up samples are taken before and after the measuring worker, so
    # that they see the same stretch of machine time as the passes.
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = [worker(base + ["--setup-only"], deadline) for _ in range(extra // 2)]
    res = worker(base + ["--seconds", seconds, "--trace", trace], deadline)
    setups.append(res)
    setups += [worker(base + ["--setup-only"], deadline) for _ in range(extra - extra // 2)]
    setup_wall_s = [r["setup_wall_s"] for r in setups]
    setups = [r["setup_s"] for r in setups]
    attempted = res["attempted"]
    failed = len(res["failures"])
    for msg in res["failures"][:20]:
        print(f"FAIL {name}: {msg}", file=sys.stderr)
    if trace:
        metrics = {k: (v, unit, 1) for k, (v, unit) in res["layers"].items()}
    else:
        # op_s holds one list of op times per untraced pass, all over the
        # same op list, in reference seconds (see hostspeed.py).  An op's
        # latency is its median over the passes, so that one disturbed
        # pass cannot move the tail percentile of a run of three or four.
        passes = len(res["op_s"])
        op_ms = [median(col) * 1e3 for col in zip(*res["op_s"])]
        p90 = tail_percentile(op_ms, 90)
        if p90 is None:
            raise BenchError(f"{name}: {len(op_ms)} ops a pass are too few for op_p90_ms")
        per_op = f"{len(op_ms)} ops, median of {passes} passes"
        metrics = {
            "setup_s": (median(setups), "s", len(setups)),
            "run_s": (median(sum(ops) for ops in res["op_s"]), "s", passes),
            "op_p50_ms": (median(op_ms), "ms", per_op),
            "op_p90_ms": (p90, "ms", per_op),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB", 1),
        }
    record = {
        "workload": name,
        "trace": trace,
        "env": environment(seed, res["numpy"]),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "ops_per_pass": res["ops_per_pass"],
        # The clock's own readings and the host speed they were taken at.
        "wall": {
            "setup_s": median(setup_wall_s),
            "pass_s": median(res["wall_s"]),
            "probe_ms": res["probe_s"] * 1e3,
            "reference_probe_ms": REFERENCE_S * 1e3,
        },
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "failures": res["failures"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print(f"{name}: {attempted} ops, {failed} failed, fail_ratio {failed / attempted:.6g} "
          f"(seed {seed}, commit {record['env']['commit']})")
    for k, (v, unit, n) in metrics.items():
        print(f"  {k:40s} {v:14.6g} {unit:15s} samples={n}")
    wall = record["wall"]
    print(f"  wall clock: set-up {wall['setup_s']:.4g} s, pass {wall['pass_s']:.4g} s; "
          f"host probe {wall['probe_ms']:.4g} ms (reference {wall['reference_probe_ms']:.4g} ms)")
    return record


def self_check():
    """A wrong reference must count as a failed op, and op_p90_ms must be
    withheld when fewer than 10 samples lie beyond it."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    ok = True
    p99 = tail_percentile(list(range(99)), 90)
    p100 = tail_percentile(list(range(100)), 90)
    print(f"op_p90 over 99 samples: {p99} (want None); over 100: {p100} (want 89)")
    ok &= p99 is None and p100 == 89

    wl = workloads.census_a5(Tracer(), seed=0)
    wl.plan = [op for op in wl.plan if op[0] == "row"][:19] + [
        op for op in wl.plan if op[0] == "census.brute_tree"
    ]
    wl.expected["census.brute_tree"] += 1  # deliberately wrong
    with Sampler() as sampler:
        lat, _, failures = workloads.run_pass(wl, Tracer(), sampler)
    print(f"wrong brute_tree reference: {len(failures)} of {len(lat)} ops failed, "
          f"fail_ratio {len(failures) / len(lat)}: {failures}")
    ok &= len(failures) == 1 and "census.brute_tree" in failures[0]
    print("self-check", "passed" if ok else "FAILED")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not PACKAGE.is_file():
        print(f"no package source at {PACKAGE.relative_to(ROOT)}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return 0 if self_check() else 1
    if args.workload is None:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "/"
        for k, m in r["metrics"].items():
            metrics[prefix + k] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
