"""Acceptance gate: ten end-to-end checks, each printing a PASS/FAIL line.

The Monte-Carlo criteria (6 and 7) run at fixed seeds and calibrated
operating points, so their outcomes are deterministic; together they take
tens of minutes, dominated by the low-BLER points.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gldpcsim.channel import awgn_llr, modulate_qpsk
from gldpcsim.cli import main as cli_main
from gldpcsim.component import default_component_code
from gldpcsim.concat import OuterCodeModel
from gldpcsim.de import rate_threshold_sweep
from gldpcsim.decoder import Decoder, count_operations
from gldpcsim.formats import read_alist
from gldpcsim.graph import TannerGraph, design_rate, place_gc_nodes
from gldpcsim.qc import (
    QcProfile,
    expand,
    girth_condition_holds,
    girth_of,
    scan_error_structures,
    search_shifts,
)
from gldpcsim.sim import SimConfig, Stack, build_stack, compare_curves, run_bler

from reference_ldpc import reference_bp_trace


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {tag}: {detail}")


@pytest.fixture(scope="module")
def profile12():
    return search_shifts(83, 2, 6, 12, strategy="power-sweep")


@pytest.fixture(scope="module")
def stack34(profile12) -> Stack:
    return build_stack(SimConfig(grid=(1.0,), profile=profile12, nu=Fraction(3, 4)))


@pytest.fixture(scope="module")
def stack78(profile12) -> Stack:
    return build_stack(SimConfig(grid=(1.0,), profile=profile12, nu=Fraction(7, 8)))


# ------------------------------------------------------------------ 1


def test_c01_design_rate_exact():
    r34 = design_rate(2, 6, Fraction(3, 4), 3)
    r78 = design_rate(2, 6, Fraction(7, 8), 3)
    ok = r34 == Fraction(1, 6) and r78 == Fraction(1, 12)
    _report("1 (rate formula)", ok,
            f"design_rate(2,6,3/4,3)={r34}, design_rate(2,6,7/8,3)={r78}, "
            "required 1/6 and 1/12 exactly")
    assert ok


# ------------------------------------------------------------------ 2


def test_c02_girth_twelve_and_condition_oracle(tmp_path):
    pp = tmp_path / "code.profile"
    pa = tmp_path / "code.alist"
    rc = cli_main(["construct", "--s", "83", "--target-girth", "12",
                   "--out-profile", str(pp), "--out-alist", str(pa)])
    h = read_alist(pa)
    g = girth_of(h)
    built_ok = rc == 0 and h.shape == (166, 498) and g == 12

    rng = np.random.default_rng(2024)
    disagreements = 0
    for _ in range(100):
        s = int(rng.choice([5, 7, 9, 11, 13]))
        row1 = (0, *(int(v) for v in rng.integers(0, s, size=5)))
        profile = QcProfile(J=2, K=6, s=s, shifts=((0,) * 6, row1))
        true_girth = girth_of(expand(profile))
        for target in (6, 8, 10, 12):
            if girth_condition_holds(profile, target) != (true_girth >= target):
                disagreements += 1
    ok = built_ok and disagreements == 0
    _report("2 (girth)", ok,
            f"construct --s 83 --target-girth 12 gave a {h.shape} matrix with "
            f"cycle-enumerated girth {g} (required exactly 12); algebraic "
            f"condition vs BFS oracle disagreements on 100 random profiles: "
            f"{disagreements} (required 0)")
    assert ok


# ------------------------------------------------------------------ 3


def _oracle_extrinsic_llr(codebook, lam, j):
    """Probability-domain brute force, written independently of the library."""
    num = den = 0.0
    for word in codebook:
        w = 1.0
        for m, bit in enumerate(word):
            if m == j:
                continue
            p1 = 1.0 / (1.0 + math.exp(lam[m]))
            w *= p1 if bit else (1.0 - p1)
        if word[j]:
            den += w
        else:
            num += w
    return math.log(num / den)


def test_c03_map_update_oracle():
    comp = default_component_code()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        lam = rng.uniform(-10.0, 10.0, size=6)
        got = comp.map_extrinsic_all(lam)
        for j in range(6):
            want = _oracle_extrinsic_llr(comp.codebook, lam, j)
            worst = max(worst, abs(got[j] - want))
    zero_out = comp.map_extrinsic_all(np.zeros(6))
    zero_ok = np.all(zero_out == 0.0)
    ok = worst <= 1e-9 and zero_ok
    _report("3 (GC update oracle)", ok,
            f"max |map_extrinsic - oracle| = {worst:.3e} over 1000 vectors x 6 "
            f"positions (tolerance 1e-9); all-zero input -> {zero_out.tolist()} "
            "(required exactly 0)")
    assert ok


# ------------------------------------------------------------------ 4


def test_c04_operation_count_exact():
    counts = count_operations(2, 498, 0.75, 1)
    ok = counts["per_iteration"] == 23655 and counts["variable_share"] == 996
    _report("4 (complexity metric)", ok,
            f"count_operations(2,498,0.75,1) per-iteration = "
            f"{counts['per_iteration']} (required 23655 exactly), variable "
            f"share = {counts['variable_share']} (required 996 exactly)")
    assert ok


# ------------------------------------------------------------------ 5


def test_c05_de_tradeoff():
    grid = [0.0, 0.25, 0.5, 0.75, 0.875, 1.0]
    rows = rate_threshold_sweep(grid, tol=1e-4)
    gaps = [r["gap"] for r in rows]
    argmin_nu = grid[gaps.index(min(gaps))]
    eps0 = rows[0]["threshold"]
    thresholds = [r["threshold"] for r in rows]
    nondecreasing = all(b >= a for a, b in zip(thresholds, thresholds[1:]))
    ok = argmin_nu == 0.75 and abs(eps0 - 0.200) <= 1e-3 and nondecreasing
    _report("5 (DE tradeoff)", ok,
            f"gap argmin at nu={argmin_nu} (required 0.75); eps*(0)={eps0:.5f} "
            f"(required 0.200 +/- 1e-3); thresholds nondecreasing: {nondecreasing}")
    assert ok


# ------------------------------------------------------------------ 6

C6_STUDY_SNR = 4.0                    # Eb/N0 where i_max=50 sits near BLER 1e-3
C6_CURVE50_GRID = (3.25, 4.0, 4.25)   # brackets BLER 1e-3 for i_max=50
C6_CURVE5_GRID = (4.0, 7.5, 8.0)      # brackets BLER 1e-3 for i_max=5


def test_c06_iteration_study(stack34):
    def run(i_max, grid, cap, seed):
        cfg = SimConfig(grid=grid, i_max=i_max, min_block_errors=100,
                        max_trials=cap, batch_size=1024, seed=seed)
        return run_bler(cfg, stack34)

    res50 = run(50, C6_CURVE50_GRID, 500_000, 601)
    res10 = run(10, (C6_STUDY_SNR,), 20_000, 602)
    res5 = run(5, C6_CURVE5_GRID, 700_000, 603)

    p50 = next(r for r in res50 if r.param == C6_STUDY_SNR)
    p10 = res10[0]
    p5 = next(r for r in res5 if r.param == C6_STUDY_SNR)

    mid_ok = 2e-4 <= p50.bler <= 5e-3
    order_ok = p50.bler <= p10.bler <= p5.bler
    ci_ok = p50.ci_hi <= p10.ci_lo and p10.ci_hi <= p5.ci_lo
    errors_ok = all(r.block_errors >= 100 for r in res50 + res10 + res5)
    gap = compare_curves(res5, res50, levels=(1e-3,))[1e-3]["gap"]
    gap_ok = gap is not None and gap > 0
    ok = mid_ok and order_ok and ci_ok and errors_ok and gap_ok
    curves = ("i50 " + " ".join(f"{r.param}:{r.bler:.2e}" for r in res50)
              + " | i5 " + " ".join(f"{r.param}:{r.bler:.2e}" for r in res5))
    _report("6 (iteration study)", ok,
            f"at Eb/N0={C6_STUDY_SNR} dB BLER(i_max=50)={p50.bler:.3e} "
            f"(required within [2e-4, 5e-3] of the 1e-3 target), "
            f"BLER(10)={p10.bler:.3e}, BLER(5)={p5.bler:.3e}; ordering "
            f"50<=10<=5 {order_ok} with CI separation {ci_ok} "
            f"(95% intervals non-overlapping or touching); every point has "
            f">=100 block errors: {errors_ok}; compare_curves 5->50 gap at "
            f"BLER 1e-3 = {gap if gap is None else round(gap, 3)} dB "
            f"(required positive) [{curves}]")
    assert ok


# ------------------------------------------------------------------ 7

C7_GRID = (1.0, 4.5, 5.25, 6.2)   # direct scheme traverses 1e-1..1e-3 here


def test_c07_concatenation_ordering(profile12, stack78):
    direct = run_bler(SimConfig(grid=C7_GRID, nu=Fraction(7, 8), i_max=10,
                                min_block_errors=100, max_trials=400_000,
                                batch_size=1024, seed=701), stack78)
    # Eb/N0 must be normalized by each scheme's own overall rate, so the
    # concatenated runs need a stack that folds in the outer-code rate.
    cfg20 = SimConfig(grid=C7_GRID, profile=profile12, nu=Fraction(3, 4),
                      outer=OuterCodeModel(83, 40, 20), i_max=10,
                      min_block_errors=100, max_trials=40_000,
                      batch_size=1024, seed=702)
    concat_stack = build_stack(cfg20)
    t20 = run_bler(cfg20, concat_stack)
    t7 = run_bler(SimConfig(grid=C7_GRID, profile=profile12, nu=Fraction(3, 4),
                            outer=OuterCodeModel(83, 40, 7), i_max=10,
                            min_block_errors=100, max_trials=40_000,
                            batch_size=1024, seed=702), concat_stack)

    span_ok = (max(r.bler for r in direct) >= 1e-1
               and min(r.bler for r in direct) <= 1e-3)
    beats_direct = all(a.ci_hi <= b.ci_lo for a, b in zip(t20, direct))
    t_monotone = all(a.bler <= b.bler for a, b in zip(t20, t7))
    t_strict = any(a.ci_hi < b.ci_lo for a, b in zip(t20, t7))
    ok = span_ok and beats_direct and t_monotone and t_strict
    detail_pts = "; ".join(
        f"{p} dB: direct={d.bler:.2e} t20={a.bler:.2e} t7={b.bler:.2e}"
        for p, d, a, b in zip(C7_GRID, direct, t20, t7))
    _report("7 (concatenation ordering)", ok,
            f"direct nu=7/8 spans 1e-1..1e-3 across grid: {span_ok}; t=20 "
            f"below direct at every point with non-overlapping 95% CIs: "
            f"{beats_direct}; t=20 <= t=7 everywhere: {t_monotone} with "
            f"strict separation somewhere: {t_strict} [{detail_pts}]")
    assert ok


# ------------------------------------------------------------------ 8


def test_c08_short_structure_elimination(profile12, stack34):
    gc12 = np.array(stack34.placement.gc_indices, dtype=np.int64)
    scan12 = scan_error_structures(expand(profile12), gc_checks=gc12, max_len=10)
    clean = (scan12["structure_1"] == 0 and scan12["structure_2"] == 0
             and scan12["cycles_total"] == 0)

    rng = np.random.default_rng(88)
    dirty_draws = 0
    for i in range(10):
        row1 = (0, *(int(v) for v in rng.choice(np.arange(1, 83), size=5,
                                                replace=False)))
        baseline = QcProfile(J=2, K=6, s=83, shifts=((0,) * 6, row1))
        h = expand(baseline)
        graph = TannerGraph(h)
        placement = place_gc_nodes(graph, Fraction(3, 4), seed=i)
        scan = scan_error_structures(
            h, gc_checks=np.array(placement.gc_indices), max_len=10)
        total = scan["structure_1"] + scan["structure_2"] + scan["cycles_total"]
        dirty_draws += total > 0
    ok = clean and dirty_draws >= 9
    _report("8 (short-structure elimination)", ok,
            f"girth-12 code: structure_1={scan12['structure_1']}, "
            f"structure_2={scan12['structure_2']}, cycles<=10="
            f"{scan12['cycles_total']} (all required 0); random distinct-shift "
            f"baselines with >0 patterns: {dirty_draws}/10 (required >=9)")
    assert ok


# ------------------------------------------------------------------ 9


def test_c09_decoder_equivalence_nu_zero(profile12):
    h = expand(profile12)
    graph = TannerGraph(h)
    placement = place_gc_nodes(graph, 0)
    decoder = Decoder(graph, placement)
    check_rows = [np.flatnonzero(row).tolist() for row in h]
    zero_word = np.zeros(graph.n_vars, dtype=np.uint8)
    sigma, i_max = 0.95, 6

    frames_equal = 0
    for f in range(10):
        rng = np.random.default_rng([909, f])
        llr = awgn_llr(modulate_qpsk(zero_word), sigma, rng)
        ours = decoder.decode_trace(llr, i_max=i_max)
        ref = reference_bp_trace(check_rows, llr, i_max=i_max)
        same = len(ours) == len(ref) and all(
            np.array_equal(a, b) for a, b in zip(ours, ref))
        frames_equal += same
    ok = frames_equal == 10
    _report("9 (decoder equivalence)", ok,
            f"nu=0 decode vs independent plain-BP reference: {frames_equal}/10 "
            "seeded frames agree on hard decisions after every iteration "
            "(required 10/10 exact)")
    assert ok


# ------------------------------------------------------------------ 10


def test_c10_simulate_determinism(tmp_path):
    pp = tmp_path / "code.profile"
    pa = tmp_path / "code.alist"
    assert cli_main(["construct", "--s", "83", "--target-girth", "12",
                     "--out-profile", str(pp), "--out-alist", str(pa)]) == 0
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"profile = {pp}\n"
        "channel = awgn-qpsk\n"
        "grid = 3.0, 4.0\n"
        "nu = 3/4\n"
        "i_max = 10\n"
        "seed = 7\n"
        "min_block_errors = 20\n"
        "max_trials = 3000\n"
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    rc1 = cli_main(["simulate", "--config", str(cfg), "--out", str(out1)])
    rc2 = cli_main(["simulate", "--config", str(cfg), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    _report("10 (determinism)", ok,
            f"two `simulate` executions with identical config produced "
            f"byte-identical CSV: {identical} "
            f"({out1.stat().st_size} bytes each)")
    assert ok
