"""Benchmark of the gldpcsim workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src.  One process runs one workload as a closed loop: set-up once, then
rounds of the same operations, one after another, until ``--seconds`` have
passed, then verification against the oracles.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Results and trace spans are also written
under ./.bench_out.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


def _since_process_start() -> float:
    """Seconds from this process's creation to now, read from /proc in
    clock ticks; 0 where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


STARTUP = _since_process_start() - (time.perf_counter() - T0)

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "gldpcsim" / "__init__.py").is_file():
    sys.exit(f"error: no gldpcsim sources under {ROOT / 'src'}; run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer, increment, layer_metrics  # noqa: E402


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _peak_rss_mb() -> float:
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def main(argv=None) -> int:
    args = _args(argv)
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    rounds, op_times, per_round = [], [], []
    with tracer.installed() if tracer else nullcontext():
        state = workload.setup(args.seed)
        setup_s = STARTUP + time.perf_counter() - T0
        setup_snapshot = tracer.snapshot() if tracer else None
        ops = workload.ops(state)
        begin = time.perf_counter()
        while True:
            if tracer:
                tracer.round = len(rounds)
                before = tracer.snapshot()
            outcomes, took = [], []
            for op in ops:
                start = time.perf_counter()
                try:
                    outcomes.append(op())
                except Exception as exc:  # a failing operation is counted, not fatal
                    traceback.print_exc()
                    outcomes.append(exc)
                took.append(time.perf_counter() - start)
            rounds.append(outcomes)
            op_times.append(took)
            if tracer:
                per_round.append(increment(before, tracer.snapshot()))
            if time.perf_counter() - begin >= args.seconds:
                break
    peak_rss_mb = _peak_rss_mb()

    failed, problems = workload.verify(state, rounds)
    for line in sorted(set(failed)) + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)

    # each operation's fastest round: slowdowns from other load on the host
    # only ever add time, and every round repeats the same work
    solve_s = sum(min(took[i] for took in op_times) for i in range(len(ops)))
    if tracer:
        metrics = layer_metrics(setup_snapshot, per_round)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems,
              "attempted": sum(len(outcomes) for outcomes in rounds),
              "failed": len(failed),
              "metrics": metrics}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "result": result, "setup_s": setup_s, "solve_s": solve_s,
              "round_s": [sum(took) for took in op_times], "op_s": op_times,
              "problems": problems, "failed": failed}
    if tracer:
        record["spans"] = ["span parent layer round start end".split()] + tracer.spans
    (out_dir / f"{stem}.json").write_text(json.dumps(record))

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
