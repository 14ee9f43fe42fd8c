"""One workload process: set up, then run passes of the op list.

Started by run.py as a fresh interpreter, so that set-up time and peak
memory belong to this workload alone.  The clock starts before
``import hopfgalois``.  The last line of standard output is one JSON
object with the measurements; op and set-up times are in reference
seconds (see hostspeed.py), wall times are as the clock read them.

    python3 perfbench/worker.py --workload census-a5 --seed 1 --seconds 40 --trace 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
from hostspeed import probe  # noqa: E402
from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402  (imports hopfgalois and numpy)

SETUP_PROBES = 5  # probes timed after set-up; their median scales setup_s


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # In a traced run the set-up and pass 1 are traced; the other passes
    # run untraced, and their median is the base of the tracing overhead.
    tracer = Tracer(active=bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](tracer, args.seed)
    setup_wall_s = time.perf_counter() - T0
    setup_probe_s = median(probe() for _ in range(SETUP_PROBES))
    setup_s = setup_wall_s * hostspeed.REFERENCE_S / setup_probe_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return

    start = time.perf_counter()
    min_passes = 2 if args.trace else 1
    walls = []
    passes = []  # (op reference seconds, probe seconds, traced)
    failures = []
    attempted = 0
    with hostspeed.Sampler() as sampler:
        while True:
            traced = bool(args.trace) and len(passes) == 1
            tracer.active = traced
            t = time.perf_counter()
            lat, probes, fails = workloads.run_pass(wl, tracer, sampler)
            walls.append(time.perf_counter() - t)
            passes.append((lat, probes, traced))
            attempted += len(lat)
            failures += fails
            if len(passes) == 1:
                # Set-up plus one pass: later passes repeat the same op
                # list, and their number depends on the machine's speed.
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # Start another pass only if it should end within the time given.
            done = time.perf_counter() - start
            if len(passes) >= min_passes and done + median(walls) > args.seconds:
                break
    tracer.active = False

    untraced = [p for p in passes if not p[2]]
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "op_s": [ops for ops, _, _ in untraced],
        "wall_s": [w for w, p in zip(walls, passes) if not p[2]],
        "probe_s": median(x for _, probes, _ in untraced for x in probes),
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb,
        "ops_per_pass": len(lat),
        "numpy": workloads.np.__version__,
    }
    if args.trace:
        ops, probes, _ = next(p for p in passes if p[2])
        overhead = sum(ops) - median(sum(u) for u in out["op_s"])
        layers = workloads.layer_metrics(tracer, wl, overhead)
        layers["bench.probe_ms"] = (median(probes) * 1e3, "ms")
        out["layers"] = {k: list(v) for k, v in layers.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
