"""Outer code model, and the outer-code path of ``run_bler``."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from gldpcsim.concat import OuterCodeModel, overall_rate
from gldpcsim.decoder import Decoder
from gldpcsim.graph import Encoder
from gldpcsim.qc import search_shifts
from gldpcsim.sim import SimConfig, build_stack, run_bler

FRAMES = 64


@pytest.fixture(scope="module")
def stack():
    """A nu = 7/8 code with an outer model, run on a fixed frame budget: the
    block-error target exceeds it, so every run decodes the same trials."""
    config = SimConfig(grid=(5.0,), profile=search_shifts(83, 2, 6, 12),
                       nu=Fraction(7, 8), placement_seed=5, i_max=10, seed=3,
                       min_block_errors=FRAMES + 1, max_trials=FRAMES,
                       outer=OuterCodeModel(83, 40, 0))
    return config, build_stack(config)


def _with_radius(config, t, **kw):
    return dataclasses.replace(config, outer=OuterCodeModel(83, 40, t), **kw)


def test_model_validation():
    with pytest.raises(ValueError):
        OuterCodeModel(n_out=83, k_out=84, t=1)
    with pytest.raises(ValueError):
        OuterCodeModel(n_out=83, k_out=0, t=1)
    with pytest.raises(ValueError):
        OuterCodeModel(n_out=83, k_out=40, t=-1)


def test_outer_rate_exact():
    assert OuterCodeModel(83, 40, 20).rate == Fraction(40, 83)


def test_shortened_payload():
    outer = OuterCodeModel(83, 40, 20)
    assert outer.shortened_payload(83) == 40
    assert outer.shortened_payload(82) == 39  # floor(82 * 40 / 83)
    with pytest.raises(ValueError):
        outer.shortened_payload(0)
    with pytest.raises(ValueError):
        outer.shortened_payload(84)


def test_overall_rate_exact():
    outer = OuterCodeModel(83, 40, 20)
    assert overall_rate(Fraction(82, 498), outer) == Fraction(82 * 40, 498 * 83)


def test_trial_deterministic(stack):
    config, built = stack
    rows = [run_bler(_with_radius(config, 7, batch_size=size), built)[0].as_row()
            for size in (7, FRAMES, FRAMES)]
    assert rows[0] == rows[1] == rows[2]


def test_trial_noiseless_succeeds(stack):
    config, built = stack
    res = run_bler(dataclasses.replace(config, grid=(40.0,)), built)[0]
    assert res.trials == FRAMES
    assert res.block_errors == 0 and res.bit_errors == 0
    assert res.mean_iters == 1.0
    assert res.extras["bits_per_trial"] == built.encoder.k


def _recorded_run(config, built, monkeypatch):
    """run_bler's point, plus each trial's error count on the inner info
    bits, recounted from the info bits and decisions of every batch."""
    infos, decisions = [], []
    encode, decode = Encoder.encode_batch, Decoder.decode_batch

    def encode_batch(self, info):
        infos.append(np.array(info))
        return encode(self, info)

    def decode_batch(self, llrs, i_max):
        out = decode(self, llrs, i_max)
        decisions.append(out.hard.copy())
        return out

    with monkeypatch.context() as m:
        m.setattr(Encoder, "encode_batch", encode_batch)
        m.setattr(Decoder, "decode_batch", decode_batch)
        res = run_bler(config, built)[0]
    hard = np.concatenate(decisions)[:, built.encoder.info_positions]
    return res, (hard != np.concatenate(infos)).sum(axis=1)


def test_radius_zero_is_inner_info_block_error(stack, monkeypatch):
    config, built = stack
    res, info_errors = _recorded_run(config, built, monkeypatch)
    assert res.trials == len(info_errors) == FRAMES
    assert res.block_errors == int((info_errors > 0).sum())
    assert res.bit_errors == int(info_errors.sum())
    assert 0 < res.block_errors < res.trials  # the point breaks some frames


def test_outer_decode_model_boundary(stack, monkeypatch):
    # a radius that some trial's error count meets exactly: at most t errors
    # is a success, t + 1 a block error
    config, built = stack
    _, info_errors = _recorded_run(config, built, monkeypatch)
    t = int(np.median(info_errors[info_errors > 0]))
    res, again = _recorded_run(_with_radius(config, t), built, monkeypatch)
    assert np.array_equal(again, info_errors)
    assert (info_errors == t).any() and (info_errors == t + 1).any()
    assert res.block_errors == int((info_errors > t).sum())


def test_success_at_monotone_in_radius(stack):
    config, built = stack
    t7 = run_bler(_with_radius(config, 7), built)[0]
    t20 = run_bler(_with_radius(config, 20), built)[0]
    assert t7.trials == t20.trials == FRAMES
    assert t7.bit_errors == t20.bit_errors  # same frames, judged twice
    assert t20.block_errors <= t7.block_errors
    assert t7.block_errors > 0
