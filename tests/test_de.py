import math
from fractions import Fraction

import pytest

from gldpcsim.component import ComponentCode
from gldpcsim.de import (
    DeEnsemble,
    de_check_mix,
    de_converges,
    de_threshold,
    rate_threshold_sweep,
)

from reference_ldpc import bec_threshold_inf, enumerate_codebook

NU_GRID = [0.0, 0.25, 0.5, 0.75, 0.875, 1.0]
DEFAULT_G = [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]]


@pytest.fixture(scope="module")
def sweep_rows():
    # coarse tol keeps the module fast; gaps between grid points are >> 1e-3
    return rate_threshold_sweep(NU_GRID, tol=1e-3)


def test_spc_only_threshold_is_one_fifth():
    # closed form: x / (1 - (1-x)^5) is minimized as x -> 0 at 1/(K-1)
    ens = DeEnsemble(J=2, K=6, nu=0.0)
    assert abs(de_threshold(ens, tol=1e-4) - 0.2) < 1e-3


def test_spc_mix_closed_form():
    ens = DeEnsemble(J=2, K=6, nu=0.0)
    assert de_check_mix(0.5, ens) == pytest.approx(1 - 0.5**5, abs=1e-15)


def test_mix_boundaries():
    for nu in (0.0, 0.5, 1.0):
        ens = DeEnsemble(J=2, K=6, nu=nu)
        assert de_check_mix(0.0, ens) == 0.0
        assert de_check_mix(1.0, ens) == pytest.approx(1.0, abs=1e-15)


def test_mix_monotone_in_x():
    ens = DeEnsemble(J=2, K=6, nu=0.75)
    xs = [i / 200 for i in range(201)]
    vals = [de_check_mix(x, ens) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_gc_heavy_threshold_beats_spc():
    ens = DeEnsemble(J=2, K=6, nu=1.0)
    assert de_threshold(ens, tol=1e-3) > 0.25


@pytest.mark.parametrize("nu", NU_GRID)
def test_threshold_matches_closed_form(nu):
    # independent oracle: inf x / mix(x) from the enumerated codebook
    tol = 1e-4
    want, grid_error = bec_threshold_inf(nu, enumerate_codebook(DEFAULT_G))
    got = de_threshold(DeEnsemble(J=2, K=6, nu=nu), tol=tol)
    assert abs(got - want) <= tol + grid_error


def test_fails_just_above_stability_limit():
    # at nu = 3/4 the threshold is the x -> 0 limit 1/mix'(0) = 0.8
    assert not de_converges(0.8 + 1e-6, DeEnsemble(J=2, K=6, nu=0.75))


def test_bracket_contract():
    ens = DeEnsemble(J=2, K=6, nu=0.0)
    assert de_converges(0.19, ens)
    assert not de_converges(0.21, ens)


def test_converges_trivially_at_zero():
    ens = DeEnsemble(J=2, K=6, nu=0.75)
    assert de_converges(0.0, ens)


def test_thresholds_nondecreasing_in_nu(sweep_rows):
    ts = [r["threshold"] for r in sweep_rows]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_gap_argmin_at_three_quarters(sweep_rows):
    gaps = [r["gap"] for r in sweep_rows]
    assert NU_GRID[gaps.index(min(gaps))] == 0.75


def test_sweep_reports_exact_design_rates(sweep_rows):
    by_nu = {r["nu"]: r["design_rate"] for r in sweep_rows}
    assert by_nu[0.75] == Fraction(1, 6)
    assert by_nu[0.875] == Fraction(1, 12)
    assert by_nu[0.0] == Fraction(2, 3)


def test_non_monotone_trajectory_raises(monkeypatch):
    import gldpcsim.de as de_mod

    # an "amplifying" mixture drives x upward on the first step
    monkeypatch.setattr(de_mod, "de_check_mix", lambda x, ens: 3.0 * x)
    ens = DeEnsemble(J=2, K=6, nu=0.0)
    with pytest.raises(RuntimeError, match="monotone"):
        de_mod.de_converges(0.5, ens)


def test_one_ulp_rise_is_a_stall(monkeypatch):
    import gldpcsim.de as de_mod

    # at eps = 1/2 the step is x -> nextafter(x, 1): rounding at a fixed
    # point, which is failure to converge rather than a broken mixture
    monkeypatch.setattr(de_mod, "de_check_mix", lambda x, ens: 2.0 * math.nextafter(x, 1.0))
    ens = DeEnsemble(J=2, K=6, nu=0.0)
    assert de_mod.de_converges(0.5, ens) is False


def test_mix_coefficients_and_accuracy_guard():
    ens = DeEnsemble(J=2, K=6, nu=0.5)
    # (2x^2 + 2x^3 - 5x^4 + 2x^5) / 2 + (5x - 10x^2 + 10x^3 - 5x^4 + x^5) / 2
    assert ens.horner == (1.5, -5.0, 6.0, -4.0, 2.5, 0.0)
    # degree-20 checks: 1 - (1-x)^19 has coefficients up to C(19, 9), and
    # 20 * 2^-52 * (2^19 - 1) exceeds the 1e-9 error limit
    with pytest.raises(ValueError, match="accuracy"):
        DeEnsemble(J=2, K=20, nu=0.0, comp=ComponentCode([[1] * 20]))


def test_validation():
    with pytest.raises(ValueError):
        DeEnsemble(J=2, K=6, nu=1.5)
    with pytest.raises(ValueError):
        DeEnsemble(J=3, K=6, nu=0.5)
    with pytest.raises(ValueError):
        DeEnsemble(J=2, K=5, nu=0.5)  # component length mismatch
    ens = DeEnsemble(J=2, K=6, nu=0.5)
    with pytest.raises(ValueError):
        de_check_mix(-0.1, ens)
    with pytest.raises(ValueError):
        de_threshold(ens, tol=0.0)


def test_mix_matches_hand_mixture():
    comp = ComponentCode([[1, 0, 0, 1, 1, 0],
                          [0, 1, 0, 1, 0, 1],
                          [0, 0, 1, 0, 1, 1]])
    ens = DeEnsemble(J=2, K=6, nu=0.6, comp=comp)
    x = 0.37
    want = 0.6 * comp.exit_erasure(x) + 0.4 * (1 - (1 - x) ** 5)
    assert math.isclose(de_check_mix(x, ens), want, rel_tol=0, abs_tol=1e-15)
