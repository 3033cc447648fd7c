"""Each oracle accepts the package's correct output and rejects a planted fault.

    python3 -m pytest bench
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from gldpcsim import channel, sim  # noqa: E402


@pytest.fixture(scope="module")
def stack():
    return sim.build_stack(sim.SimConfig(grid=(1.0,), nu=Fraction(3, 4)))


@pytest.fixture(scope="module")
def code(stack):
    return oracles.Code(stack.profile.shifts, stack.profile.s, stack.placement.position_maps)


def _frames(stack, count, seed):
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, size=(count, stack.encoder.k), dtype=np.uint8)
    return stack.encoder.encode_batch(info), rng


def _sigma2(rate, ebn0_db):
    return 1.0 / (4.0 * float(rate) * 10.0 ** (ebn0_db / 10.0))


def test_code_oracle_matches_built_code(stack, code):
    assert np.array_equal(stack.graph.h, code.lifted)
    assert oracles.same_row_space(stack.h_full, code.h)
    assert code.rate == stack.encoder.actual_rate
    assert oracles.girth(code.lifted) == 12


def test_null_space_rejects_a_flipped_bit_in_a_converged_word(stack, code):
    words, rng = _frames(stack, 16, 1)
    llrs = channel.awgn_llr(channel.modulate_qpsk(words), np.sqrt(_sigma2(code.rate, 6.0)), rng)
    out = stack.decoder.decode_batch(llrs, i_max=50)
    converged = out.hard[out.converged]
    assert len(converged) > 0
    assert oracles.check_null_space(code, converged, "converged") == []
    converged[0, 100] ^= 1
    assert oracles.check_null_space(code, converged, "converged")


def test_stopping_set_oracle_rejects_a_recoverable_residual(stack, code):
    words, rng = _frames(stack, 64, 2)
    received = np.stack([channel.bec_erase(w, 0.7, rng) for w in words])
    out = stack.decoder.decode_bec(received, i_max=50)
    stuck = np.flatnonzero((out.residual_erasures > 0) & (out.iterations < 50))
    assert stuck.size > 0
    f = stuck[0]
    args = (received[f:f + 1], words[f:f + 1])
    assert oracles.check_bec_outcome(code, *args, out.word[f:f + 1], out.iterations[f:f + 1],
                                     out.contradiction[f:f + 1], 50) == []
    # fill every residual erasure but one: a lone erased bit is always recoverable
    planted = out.word[f:f + 1].copy()
    lost = np.flatnonzero(planted[0] == -1)
    planted[0, lost[1:]] = words[f, lost[1:]]
    problems = oracles.check_bec_outcome(code, *args, planted, out.iterations[f:f + 1],
                                         out.contradiction[f:f + 1], 50)
    assert any("can still recover" in p for p in problems)


def test_threshold_oracle_rejects_a_threshold_moved_by_1e_3():
    grid = (0.0, 0.25, 0.5, 0.75, 0.875, 1.0)
    tol = 1e-4
    counts = oracles.exit_counts(oracles.codebook())
    # a bisection midpoint may sit up to tol/2 from the true threshold
    thresholds = [oracles.de_threshold_inf(nu, counts)[0] - tol / 2 for nu in grid]
    assert oracles.check_thresholds(grid, thresholds, counts, tol) == [[]] * len(grid)
    moved = list(thresholds)
    moved[4] += 1e-3
    problems = oracles.check_thresholds(grid, moved, counts, tol)
    assert [bool(p) for p in problems] == [False, False, False, False, True, False]


def test_threshold_oracle_closed_forms():
    counts = oracles.exit_counts(oracles.codebook())
    assert counts[:2] == [0, 0]  # minimum distance 3: two erasures needed to lose a bit
    assert oracles.de_threshold_inf(0.0, counts)[0] == pytest.approx(0.2, abs=1e-12)
    assert oracles.de_threshold_inf(0.5, counts)[0] == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("wrong_rate", [Fraction(1, 6), Fraction(41, 249) * Fraction(40, 83)])
def test_llr_statistics_reject_llrs_scaled_for_the_wrong_rate(stack, code, wrong_rate):
    """1/6 is the ensemble's design rate, not the built code's; the other
    rate folds in an outer code the direct scheme does not have."""
    assert code.rate == Fraction(41, 249)
    words, rng = _frames(stack, 768, 3)
    symbols = channel.modulate_qpsk(words)
    right = channel.awgn_llr(symbols, np.sqrt(_sigma2(code.rate, 6.0)), rng)
    assert oracles.check_llr_statistics(right, words, _sigma2(code.rate, 6.0)) == []
    wrong = channel.awgn_llr(symbols, np.sqrt(_sigma2(wrong_rate, 6.0)), rng)
    assert oracles.check_llr_statistics(wrong, words, _sigma2(code.rate, 6.0))
