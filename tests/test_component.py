"""Component-code evaluators versus brute-force probability-domain oracles."""

import itertools
import math

import numpy as np
import pytest

from gldpcsim.component import (
    ComponentCode,
    default_component_code,
    enumerate_codebook,
    load_generator,
)

from reference_ldpc import consistent_codewords, map_extrinsic_llr

DEFAULT_G = [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]]


# ---------------------------------------------------------------- oracles


def oracle_map_llr(codebook, llr, j):
    """Probability-domain MAP extrinsic: convert to bit probabilities, sum
    codeword products, take the log ratio."""
    p1 = 1.0 / (1.0 + np.exp(np.asarray(llr, dtype=float)))
    p0 = 1.0 - p1
    num = den = 0.0
    for c in codebook:
        w = 1.0
        for m in range(len(llr)):
            if m == j:
                continue
            w *= p0[m] if c[m] == 0 else p1[m]
        if c[j] == 0:
            num += w
        else:
            den += w
    return math.log(num / den)


def oracle_recoverable(codebook, known, j):
    for c in codebook:
        if all(c[m] == 0 for m in known) and c[j] == 1:
            return False
    return True


def oracle_exit(codebook, n, x):
    total = 0.0
    for j in range(n):
        others = [m for m in range(n) if m != j]
        for r in range(2 ** (n - 1)):
            erased = {others[t] for t in range(n - 1) if (r >> t) & 1}
            known = [m for m in others if m not in erased]
            if not oracle_recoverable(codebook, known, j):
                total += x ** len(erased) * (1 - x) ** (n - 1 - len(erased))
    return total / n


# ---------------------------------------------------------------- codebook


def test_codebook_single_message():
    cb = enumerate_codebook(DEFAULT_G)
    assert cb[0b100].tolist() == [1, 0, 0, 1, 1, 0]
    assert cb[0].tolist() == [0, 0, 0, 0, 0, 0]


def test_codebook_full_enumeration_and_weights():
    code = default_component_code()
    assert code.codebook.shape == (8, 6)
    assert len({tuple(r) for r in code.codebook}) == 8
    # every row must be a GF(2) combination of generator rows
    for row in code.codebook:
        combos = [
            tuple((np.array(m) @ code.generator) % 2)
            for m in itertools.product((0, 1), repeat=3)
        ]
        assert tuple(row) in combos
    wd = code.weight_distribution
    assert wd[0] == 1 and wd[3] == 4 and wd[4] == 3 and wd.sum() == 8
    assert code.minimum_distance == 3


def test_codebook_rejects_rank_deficient():
    with pytest.raises(ValueError):
        enumerate_codebook([[1, 0, 1], [1, 0, 1]])


def test_code_rejects_zero_coordinate():
    with pytest.raises(ValueError):
        ComponentCode([[1, 0, 0], [0, 1, 0]])  # third coordinate always 0


def test_generator_parity_orthogonal():
    code = default_component_code()
    assert not ((code.generator @ code.parity.T) % 2).any()
    assert code.parity.shape == (3, 6)


# ---------------------------------------------------------------- MAP LLR


def test_map_llr_all_zero_input_is_zero():
    code = default_component_code()
    out = code.map_extrinsic_all(np.zeros(6))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_map_llr_strong_consistent_input():
    code = default_component_code()
    b = 8.0
    llr = np.array([b] * 5 + [0.0])
    got = map_extrinsic_llr(code, llr, 5)
    want = oracle_map_llr(code.codebook, llr, 5)
    assert got == pytest.approx(want, abs=1e-9)
    assert got > b  # only the all-zero codeword fits the first five zeros


def test_map_llr_matches_probability_oracle():
    code = default_component_code()
    rng = np.random.default_rng(101)
    llrs = rng.uniform(-10.0, 10.0, size=(1000, 6))
    got = code.map_extrinsic_all(llrs)
    for i in range(llrs.shape[0]):
        for j in range(6):
            want = oracle_map_llr(code.codebook, llrs[i], j)
            assert abs(got[i, j] - want) < 1e-9


def test_map_llr_is_extrinsic():
    code = default_component_code()
    rng = np.random.default_rng(555)
    for _ in range(50):
        llr = rng.uniform(-6, 6, size=6)
        j = int(rng.integers(6))
        base = map_extrinsic_llr(code, llr, j)
        bumped = llr.copy()
        bumped[j] = rng.uniform(-6, 6)
        assert map_extrinsic_llr(code, bumped, j) == pytest.approx(base, abs=1e-12)


def test_map_llr_codeword_consistency_signs():
    code = default_component_code()
    b = 12.0
    for c in code.codebook:
        llr = b * (1.0 - 2.0 * c.astype(float))
        out = code.map_extrinsic_all(llr)
        assert np.all(np.sign(out) == 1.0 - 2.0 * c.astype(float))


def test_map_llr_saturation_and_clamp():
    code = default_component_code()
    big = np.full(6, 1e9)
    out = code.map_extrinsic_all(big)  # saturated internally, stays finite
    assert np.all(np.isfinite(out))
    clamped = code.map_extrinsic_all(big, output_limit=7.5)
    assert np.all(np.abs(clamped) <= 7.5)


# ---------------------------------------------------------------- erasures


def test_recoverable_all_others_known():
    code = default_component_code()
    for j in range(6):
        assert code.erasure_recoverable([m for m in range(6) if m != j], j)


def test_recoverable_nothing_known():
    code = default_component_code()
    for j in range(6):
        assert not code.erasure_recoverable([], j)


def test_recoverable_matches_consistency_oracle():
    code = default_component_code()
    for j in range(6):
        others = [m for m in range(6) if m != j]
        for r in range(32):
            known = [others[t] for t in range(5) if (r >> t) & 1]
            # definitional oracle: all codewords consistent with an observed
            # assignment agree at j; by linearity it suffices to test the
            # all-zero observation
            agree = oracle_recoverable(code.codebook, known, j)
            assert code.erasure_recoverable(known, j) == agree


def test_consistent_codewords_and_contradiction():
    code = default_component_code()
    word = np.array([1, 0, 0, -1, -1, -1])
    sub = consistent_codewords(code.codebook, word)
    assert sub.shape[0] == 1 and sub[0].tolist() == [1, 0, 0, 1, 1, 0]
    none = consistent_codewords(code.codebook, np.array([1, 0, 0, 0, -1, -1]))
    assert none.shape[0] == 0
    everything = consistent_codewords(code.codebook, np.full(6, -1))
    assert everything.shape[0] == 8


def test_exit_erasure_endpoints_and_oracle():
    code = default_component_code()
    assert code.exit_erasure(0.0) == 0.0
    assert code.exit_erasure(1.0) == 1.0
    # frozen from the exhaustive 2^5-pattern oracle
    assert code.exit_erasure(0.5) == pytest.approx(0.5, abs=1e-12)
    assert code.exit_erasure(0.3) == pytest.approx(0.19836, abs=1e-9)
    for x in np.linspace(0.0, 1.0, 21):
        assert code.exit_erasure(float(x)) == pytest.approx(
            oracle_exit(code.codebook, 6, float(x)), abs=1e-12)


def test_exit_erasure_monotone():
    code = default_component_code()
    xs = np.linspace(0.0, 1.0, 101)
    vals = [code.exit_erasure(float(x)) for x in xs]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_exit_erasure_domain():
    code = default_component_code()
    with pytest.raises(ValueError):
        code.exit_erasure(-0.1)
    with pytest.raises(ValueError):
        code.exit_erasure(1.1)


def test_saturated_llr_agrees_with_erasure_logic():
    # +/-inf-style inputs on known positions, 0 on erased ones: the sign of
    # the output must be pinned exactly when the erasure rule says so
    code = default_component_code()
    b = 28.0
    rng = np.random.default_rng(99)
    for _ in range(200):
        known = [m for m in range(6) if rng.random() < 0.5]
        cw = code.codebook[int(rng.integers(8))]
        llr = np.zeros(6)
        for m in known:
            llr[m] = b * (1.0 - 2.0 * float(cw[m]))
        out = code.map_extrinsic_all(llr)
        for j in range(6):
            if j in known:
                continue
            if code.erasure_recoverable(known, j):
                assert abs(out[j]) > b / 2
                assert np.sign(out[j]) == 1.0 - 2.0 * float(cw[j])
            else:
                assert abs(out[j]) < b / 2


# ---------------------------------------------------------------- loading


def test_load_generator_roundtrip(tmp_path):
    p = tmp_path / "gen.txt"
    p.write_text("# comment\n100110\n010101\n001011\n")
    code = load_generator(p)
    assert np.array_equal(code.generator, default_component_code().generator)


def test_load_generator_rejects_garbage(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("10x110\n")
    with pytest.raises(ValueError):
        load_generator(p)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_generator(empty)
