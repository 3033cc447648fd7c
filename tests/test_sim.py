"""Stopping rules, determinism, intervals, and curve comparison."""

from fractions import Fraction

import numpy as np
import pytest

from gldpcsim.concat import OuterCodeModel
from gldpcsim.decoder import count_operations
from gldpcsim.formats import CSV_SCHEMA, format_result_rows, write_placement, write_profile
from gldpcsim.graph import TannerGraph, place_gc_nodes
from gldpcsim.qc import QcProfile, expand
from gldpcsim.sim import (
    SimConfig,
    build_stack,
    compare_curves,
    result_sidecar,
    run_bler,
    wilson_interval,
)

PROFILE = QcProfile(J=2, K=6, s=13, shifts=((0,) * 6, (0, 1, 3, 7, 9, 11)))


def small_config(**kw):
    base = dict(grid=(1.0,), profile=PROFILE, nu=Fraction(3, 4), i_max=8,
                min_block_errors=8, max_trials=400, batch_size=64, seed=5)
    base.update(kw)
    return SimConfig(**base)


def test_wilson_known_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(0.0369953, abs=1e-6)
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12)
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_wilson_coverage():
    # nominal 95%; demand >= 93% over 1000 synthetic Bernoulli experiments
    p, n = 0.07, 150
    rng = np.random.default_rng(42)
    covered = 0
    for errors in rng.binomial(n, p, size=1000):
        lo, hi = wilson_interval(int(errors), n)
        covered += lo <= p <= hi
    assert covered >= 930


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(grid=())
    with pytest.raises(ValueError):
        small_config(channel="fso")
    with pytest.raises(ValueError):
        small_config(snr_convention="db")
    with pytest.raises(ValueError):
        small_config(min_block_errors=0)
    with pytest.raises(ValueError):
        small_config(channel="bec", grid=(1.5,))
    with pytest.raises(ValueError):
        small_config(channel="bec", grid=(0.5,),
                     outer=OuterCodeModel(83, 40, 20))
    with pytest.raises(ValueError):
        small_config(i_max=-1)


def test_config_from_dict(tmp_path):
    ppath = tmp_path / "code.profile"
    write_profile(PROFILE, ppath)
    cfg = SimConfig.from_dict({
        "grid": "0.4, 0.5",
        "channel": "bec",
        "i_max": "20",
        "seed": "3",
        "profile": str(ppath),
        "min_block_errors": "4",
        "max_trials": "50",
        "nu": "7/8",
    })
    assert cfg.grid == (0.4, 0.5)
    assert cfg.channel == "bec"
    assert cfg.nu == Fraction(7, 8)
    assert cfg.profile.s == 13


def test_config_from_dict_rejects_bad_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        SimConfig.from_dict({"grid": "1.0", "snr": "2"})
    with pytest.raises(ValueError, match="incomplete outer"):
        SimConfig.from_dict({"grid": "1.0", "outer_t": "20"})
    with pytest.raises(ValueError, match="must set 'grid'"):
        SimConfig.from_dict({"channel": "bec"})


def test_config_rejects_conflicting_keys(tmp_path):
    placement = place_gc_nodes(TannerGraph(expand(PROFILE)), Fraction(3, 4), seed=1)
    for kw, keys in [({"s": 13}, "'profile' and 's'"),
                     ({"target_girth": 6}, "'profile' and 'target_girth'"),
                     ({"strategy": "random"}, "'profile' and 'strategy'"),
                     ({"placement": placement, "nu": Fraction(1, 2)},
                      "'placement' and 'nu'"),
                     ({"placement": placement, "placement_seed": 4},
                      "'placement' and 'placement_seed'")]:
        with pytest.raises(ValueError, match=keys):
            small_config(**kw)
    ppath, apath = tmp_path / "code.profile", tmp_path / "code.placement"
    write_profile(PROFILE, ppath)
    write_placement(placement, apath)
    # in a config file a key conflicts by being present, even at its default
    with pytest.raises(ValueError, match="'profile' and 's'"):
        SimConfig.from_dict({"grid": "1.0", "profile": str(ppath), "s": "83"})
    with pytest.raises(ValueError, match="'placement' and 'nu'"):
        SimConfig.from_dict({"grid": "1.0", "placement": str(apath), "nu": "3/4"})
    cfg = SimConfig.from_dict({"grid": "1.0", "profile": str(ppath),
                               "placement": str(apath)})
    assert build_stack(cfg).placement.gc_indices == placement.gc_indices


def test_outer_from_dict():
    cfg = SimConfig.from_dict({
        "grid": "2.0",
        "outer_n": "83", "outer_k": "40", "outer_t": "20",
    })
    assert cfg.outer == OuterCodeModel(83, 40, 20)


def test_rows_match_schema():
    res = run_bler(small_config(channel="bec", grid=(0.3,), i_max=30,
                                min_block_errors=2, max_trials=30))
    assert tuple(res[0].as_row()) == CSV_SCHEMA


def test_determinism_and_batch_independence():
    cfg_a = small_config(batch_size=7)
    cfg_b = small_config(batch_size=64)
    rows_a = [r.as_row() for r in run_bler(cfg_a)]
    rows_b = [r.as_row() for r in run_bler(cfg_b)]
    rows_a2 = [r.as_row() for r in run_bler(cfg_a)]
    assert rows_a == rows_b == rows_a2
    assert format_result_rows(rows_a) == format_result_rows(rows_b)


def test_bec_determinism():
    cfg = small_config(channel="bec", grid=(0.35, 0.5), i_max=30,
                       min_block_errors=4, max_trials=80, batch_size=16)
    rows_a = [r.as_row() for r in run_bler(cfg)]
    rows_b = [r.as_row() for r in run_bler(small_config(
        channel="bec", grid=(0.35, 0.5), i_max=30,
        min_block_errors=4, max_trials=80, batch_size=37))]
    assert rows_a == rows_b


def test_stopping_rule_exact_truncation():
    res = run_bler(small_config(grid=(0.0,), min_block_errors=6,
                                max_trials=500))[0]
    assert res.block_errors == 6  # stops on the exact crossing trial
    assert res.trials < 500
    assert res.bler == 6 / res.trials


def test_noiseless_point_runs_to_max_trials():
    res = run_bler(small_config(grid=(14.0,), min_block_errors=3,
                                max_trials=40))[0]
    assert res.trials == 40
    assert res.block_errors == 0
    assert res.bler == 0.0
    assert res.ci_lo == 0.0 and res.ci_hi > 0.0


def test_bec_all_erased():
    res = run_bler(small_config(channel="bec", grid=(1.0,), i_max=20,
                                min_block_errors=5, max_trials=100))[0]
    assert res.trials == 5 and res.bler == 1.0
    assert res.ber == 1.0
    assert res.mean_iters == 0.0
    assert res.extras["residual_erasure_rate"] == 1.0


def test_op_count_is_soft_decision_only():
    # the analytic count models soft message passing; erasure sweeps carry 0
    bec = run_bler(small_config(channel="bec", grid=(0.3,), i_max=30,
                                min_block_errors=65, max_trials=64))[0]
    assert bec.mean_iters > 0 and bec.op_count == 0
    cfg = small_config(grid=(1.0,), min_block_errors=65, max_trials=64)
    stack = build_stack(cfg)
    awgn = run_bler(cfg, stack)[0]
    iterations = round(awgn.mean_iters * awgn.trials)
    assert awgn.op_count == count_operations(
        2, 78, stack.placement.nu_actual, iterations)["total"]


def test_bec_easy_point_mostly_recovers():
    res = run_bler(small_config(channel="bec", grid=(0.05,), i_max=30,
                                min_block_errors=3, max_trials=200))[0]
    assert res.bler < 0.5
    assert res.extras["residual_erasure_rate"] < 0.05
    assert res.extras["contradictions"] == 0


def test_concat_path_uses_info_bits():
    outer = OuterCodeModel(83, 40, 2)
    cfg = small_config(grid=(1.0,), outer=outer, min_block_errors=4,
                       max_trials=120)
    stack = build_stack(cfg)
    assert stack.rate_for_snr == stack.encoder.actual_rate * Fraction(40, 83)
    res = run_bler(cfg, stack)[0]
    assert res.extras["bits_per_trial"] == stack.encoder.k
    assert res.ber == res.bit_errors / (res.trials * stack.encoder.k)


def test_sidecar_contents():
    cfg = small_config(channel="bec", grid=(0.4,), i_max=20,
                       min_block_errors=2, max_trials=30)
    stack = build_stack(cfg)
    res = run_bler(cfg, stack)
    side = result_sidecar(cfg, stack, res)
    assert side["rng"] == "PCG64"
    assert len(side["code_hash"]) == 16
    assert side["config"]["grid"] == [0.4]
    assert side["points"][0]["param"] == 0.4
    assert "wall_time" in side["points"][0]


def _mk(params, blers):
    return [{"param": p, "bler": b} for p, b in zip(params, blers)]


def test_compare_identical_curves():
    a = _mk([1, 2, 3], [1e-1, 1e-2, 1e-3])
    rep = compare_curves(a, a)
    for level in (1e-1, 1e-2, 1e-3):
        assert rep[level]["gap"] == 0.0


def test_compare_shifted_curve():
    a = _mk([1.5, 2.5, 3.5], [1e-1, 1e-2, 1e-3])
    b = _mk([1.0, 2.0, 3.0], [1e-1, 1e-2, 1e-3])
    rep = compare_curves(a, b, levels=(1e-1, 10 ** -1.5, 1e-2, 1e-3))
    for level, entry in rep.items():
        assert entry["gap"] == pytest.approx(0.5, abs=1e-12)


def test_compare_undefined_level():
    a = _mk([1, 2], [1e-1, 1e-2])
    rep = compare_curves(a, a, levels=(1e-5,))
    assert rep[1e-5]["gap"] is None
    assert rep[1e-5]["a"] is None


def test_compare_rejects_disjoint_ranges():
    a = _mk([1, 2], [1e-1, 1e-2])
    b = _mk([5, 6], [1e-1, 1e-2])
    with pytest.raises(ValueError, match="overlap"):
        compare_curves(a, b)


def test_compare_skips_zero_bler_points():
    a = _mk([1, 2, 3], [1e-1, 0.0, 1e-3])
    rep = compare_curves(a, a, levels=(1e-2,))
    # no positive bracketing segment survives around the zero point
    assert rep[1e-2]["gap"] is None
