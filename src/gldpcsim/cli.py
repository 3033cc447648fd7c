"""Command-line workbench tying construction, placement, and simulation together."""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from gldpcsim import formats, gf2
from gldpcsim.de import rate_threshold_sweep
from gldpcsim.graph import PlacementEval, TannerGraph, placement_search
from gldpcsim.qc import (
    QcProfile,
    expand,
    girth_of,
    scan_error_structures,
    search_shifts,
)
from gldpcsim.sim import SimConfig, build_stack, result_sidecar, run_bler


def _girth_str(g) -> str:
    return "inf" if g == math.inf else str(int(g))


def _parse_shift_rows(text: str):
    rows = []
    for chunk in text.split(";"):
        rows.append(tuple(int(t) for t in chunk.split(",") if t.strip()))
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("shift rows must be comma lists of equal length, ';'-separated")
    return tuple(rows)


def _cmd_construct(args) -> int:
    if args.shifts:
        rows = _parse_shift_rows(args.shifts)
        profile = QcProfile(J=len(rows), K=len(rows[0]), s=args.s, shifts=rows)
    else:
        profile = search_shifts(args.s, args.J, args.K, args.target_girth,
                                strategy=args.strategy, seed=args.seed)
    h = expand(profile)
    g = girth_of(h)
    print(f"profile J={profile.J} K={profile.K} s={profile.s}")
    print("shifts " + "; ".join(" ".join(str(v) for v in row) for row in profile.shifts))
    print(f"girth {_girth_str(g)}")
    formats.write_profile(profile, args.out_profile)
    formats.write_alist(h, args.out_alist)
    print(f"wrote {args.out_profile} and {args.out_alist}")
    return 0


def _cmd_place(args) -> int:
    profile = formats.read_profile(args.profile)
    graph = TannerGraph(expand(profile))
    cfg = PlacementEval(sigma=args.sigma, trials=args.trials, i_max=args.i_max,
                        seed=args.seed)
    placement = placement_search(graph, Fraction(args.nu), args.samples, cfg,
                                 seed=args.seed)
    formats.write_placement(placement, args.out)
    print(f"nu_actual {placement.nu_actual} ({placement.n_gc} of "
          f"{placement.n_checks} checks generalized)")
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    config = SimConfig.from_dict(formats.read_config(args.config))
    stack = build_stack(config)
    results = run_bler(config, stack)
    formats.write_result_csv([r.as_row() for r in results], args.out)
    sidecar_path = args.sidecar or str(Path(args.out).with_suffix(".json"))
    formats.write_sidecar(result_sidecar(config, stack, results), sidecar_path)
    for r in results:
        print(f"param={r.param:g} trials={r.trials} bler={r.bler:.4g} "
              f"ci=[{r.ci_lo:.4g},{r.ci_hi:.4g}] mean_iters={r.mean_iters:.2f}")
    print(f"wrote {args.out} and {sidecar_path}")
    return 0


def _cmd_de_sweep(args) -> int:
    grid = [float(t) for t in args.grid.split(",") if t.strip()]
    if not grid:
        raise ValueError("empty nu grid")
    rows = rate_threshold_sweep(grid, tol=args.tol)
    lines = ["# gldpcsim de sweep v1", "nu,design_rate,threshold,gap"]
    for r in rows:
        lines.append(f"{r['nu']!r},{r['design_rate']},{r['threshold']!r},{r['gap']!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    best = min(rows, key=lambda r: r["gap"])
    for r in rows:
        print(f"nu={r['nu']:g} rate={r['design_rate']} eps*={r['threshold']:.4f} "
              f"gap={r['gap']:+.4f}")
    print(f"minimum capacity gap at nu={best['nu']:g}")
    print(f"wrote {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    if args.alist:
        h = formats.read_alist(args.alist)
        source = args.alist
    else:
        h = expand(formats.read_profile(args.profile))
        source = args.profile
    gc_checks = None
    if args.placement:
        gc_checks = np.array(formats.read_placement(args.placement).gc_indices,
                             dtype=np.int64)
    m, n = h.shape
    rank = gf2.rank(h)
    print(f"source {source}")
    print(f"size {m} x {n}")
    print(f"rank {rank}")
    print(f"code rate {Fraction(n - rank, n)}")
    print(f"girth {_girth_str(girth_of(h))}")
    scan = scan_error_structures(h, gc_checks=gc_checks, max_len=args.max_len)
    print(f"cycles_le_{args.max_len} {scan['cycles_total']}")
    print(f"structure_1 {scan['structure_1']}")
    print(f"structure_2 {scan['structure_2']}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldpcsim",
        description="Construction and simulation workbench for generalized "
                    "LDPC codes with shortened-Hamming constraint nodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a QC lift and report its girth")
    p.add_argument("--s", type=int, required=True, help="circulant size")
    p.add_argument("--J", type=int, default=2)
    p.add_argument("--K", type=int, default=6)
    p.add_argument("--target-girth", type=int, default=12)
    p.add_argument("--strategy", default="power-sweep",
                   choices=("power-sweep", "random", "exhaustive-row"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shifts",
                   help="explicit rows 'a,b,...;c,d,...' (skips the search)")
    p.add_argument("--out-profile", default="code.profile")
    p.add_argument("--out-alist", default="code.alist")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("place", help="choose generalized-check positions")
    p.add_argument("--profile", required=True)
    p.add_argument("--nu", default="3/4", help="fraction of checks to generalize")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--sigma", type=float, default=1.0,
                   help="noise level for the short evaluation sims")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--i-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="code.placement")
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("simulate", help="Monte-Carlo error-rate measurement")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", default="results.csv")
    p.add_argument("--sidecar", help="metadata JSON path (default: out with .json)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("de-sweep", help="erasure thresholds across nu")
    p.add_argument("--grid", required=True, help="comma-separated nu values")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", default="de_sweep.csv")
    p.set_defaults(func=_cmd_de_sweep)

    p = sub.add_parser("analyze", help="girth, rank, and short-structure report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--alist")
    src.add_argument("--profile")
    p.add_argument("--placement")
    p.add_argument("--max-len", type=int, default=10)
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
