"""Message updates, full decoding, erasure decoding, and operation counts."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gldpcsim import gf2
from gldpcsim.channel import ERASED, awgn_llr, bec_erase, modulate_qpsk
from gldpcsim.component import default_component_code
from gldpcsim.decoder import Decoder, count_operations
from gldpcsim.graph import (
    TannerGraph,
    build_encoder,
    expand_full_parity,
    place_gc_nodes,
)
from gldpcsim.qc import QcProfile, expand, search_shifts

from reference_ldpc import (
    consistent_codewords,
    reference_bec_peel,
    reference_bp_trace,
    reference_gldpc_trace,
    spc_update,
    variable_update,
)

SMALL_PROFILE = QcProfile(J=2, K=6, s=13, shifts=((0,) * 6, (0, 1, 3, 7, 9, 11)))


def small_gldpc(nu):
    graph = TannerGraph(expand(SMALL_PROFILE))
    comp = default_component_code()
    placement = place_gc_nodes(graph, nu, seed=3)
    encoder = build_encoder(expand_full_parity(graph, placement, comp))
    return graph, placement, comp, encoder


@pytest.fixture(scope="module")
def code():
    profile = search_shifts(83, 2, 6, 12, strategy="power-sweep")
    graph = TannerGraph(expand(profile))
    comp = default_component_code()
    placement = place_gc_nodes(graph, 0.75, seed=11)
    h_full = expand_full_parity(graph, placement, comp)
    return graph, placement, comp, h_full, build_encoder(h_full)


# ------------------------------------------------ oracle message updates


def test_spc_update_zero_input_kills_output():
    assert spc_update(np.array([3.0, 0.0, -2.0, 5.0]), 3) == 0.0


def test_spc_update_direct_value():
    want = 2.0 * math.atanh(math.tanh(0.5) ** 2)
    assert spc_update(np.array([1.0, 1.0, 9.9]), 2) == pytest.approx(want, abs=1e-12)


def test_spc_update_saturated_inputs_stay_finite():
    out = spc_update(np.array([1e9, 1e9, 0.123]), 2)
    assert np.isfinite(out) and out > 25.0


def test_spc_update_sign_rule():
    # negative product of signs flips the output
    out = spc_update(np.array([4.0, -3.0, 1.0]), 2)
    assert out < 0


def test_variable_update_degree2_passthrough():
    assert variable_update(1.5, np.array([2.0, 7.0]), 1) == pytest.approx(3.5)


def test_variable_update_posterior_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        ch = float(rng.normal())
        inc = rng.normal(size=5)
        assert variable_update(ch, inc) == pytest.approx(ch + inc.sum(), abs=1e-12)
        j = int(rng.integers(5))
        assert variable_update(ch, inc, j) == pytest.approx(
            ch + inc.sum() - inc[j], abs=1e-12)


# ---------------------------------------------------------------- op counts


def test_count_operations_known_values():
    tally = count_operations(2, 498, Fraction(3, 4), 1)
    assert tally["per_iteration"] == 23655
    assert tally["variable_share"] == 996
    assert count_operations(2, 498, 0, 1)["per_iteration"] == 10956
    assert count_operations(2, 498, Fraction(3, 4), 4)["total"] == 4 * 23655


def test_count_operations_exactness():
    tally = count_operations(2, 498, Fraction(125, 166), 3)
    assert tally["per_iteration"] == Fraction(23706)
    assert tally["total"] == 3 * 23706


# ---------------------------------------------------------------- decoding


def test_noiseless_codeword_converges_first_iteration(code):
    graph, placement, comp, h_full, enc = code
    rng = np.random.default_rng(1)
    word = enc.encode(rng.integers(0, 2, size=enc.k, dtype=np.uint8))
    llr = 20.0 * (1.0 - 2.0 * word.astype(np.float64))
    dec = Decoder(graph, placement, comp)
    out = dec.decode_batch(llr, i_max=10)
    assert out.converged[0]
    assert out.iterations[0] == 1
    assert np.array_equal(out.hard[0], word)
    assert dec.op_per_iteration * out.iterations[0] == 23706


def test_imax_zero_is_channel_hard_decision(code):
    graph, placement, comp, _, _ = code
    rng = np.random.default_rng(2)
    llr = rng.normal(size=498)
    out = Decoder(graph, placement, comp).decode_batch(llr, i_max=0)
    assert np.array_equal(out.hard[0], (llr < 0).astype(np.uint8))
    assert out.iterations[0] == 0


def test_single_flipped_bit_at_gc_node_corrected(code):
    graph, placement, comp, _, _ = code
    # all-zero codeword, strong correct LLRs, one strong wrong sign on a
    # variable attached to a generalized check
    gc_check = placement.gc_indices[0]
    victim = int(graph.edges[gc_check][0])
    llr = np.full(498, 9.0)
    llr[victim] = -9.0
    out = Decoder(graph, placement, comp).decode_batch(llr, i_max=10)
    assert out.converged[0]
    assert out.iterations[0] <= 2
    assert not out.hard.any()


def test_converged_implies_zero_full_syndrome(code):
    graph, placement, comp, h_full, _ = code
    rng = np.random.default_rng(33)
    llrs = awgn_llr(modulate_qpsk(np.zeros((40, 498), dtype=np.uint8)), 1.05, rng=rng)
    dec = Decoder(graph, placement, comp)
    out = dec.decode_batch(llrs, i_max=8)
    assert out.converged.any()  # some frames settle at this noise level
    for b in np.nonzero(out.converged)[0]:
        assert not gf2.mat_vec(h_full, out.hard[b]).any()


def test_unconverged_frames_use_full_budget(code):
    graph, placement, comp, _, _ = code
    rng = np.random.default_rng(4)
    llrs = rng.normal(size=(30, 498))  # junk input, mostly undecodable
    out = Decoder(graph, placement, comp).decode_batch(llrs, i_max=3)
    undec = ~out.converged
    assert undec.any()
    assert np.all(out.iterations[undec] == 3)
    assert np.all(out.iterations[out.converged] <= 3)


def test_strong_correct_fixed_point(code):
    graph, placement, comp, _, enc = code
    word = enc.encode(np.ones(enc.k, dtype=np.uint8))
    llr = 25.0 * (1.0 - 2.0 * word.astype(np.float64))
    dec = Decoder(graph, placement, comp)
    trace = dec.decode_trace(llr, i_max=6)
    for hard in trace:
        assert np.array_equal(hard, word)


def test_batch_matches_single_frame_decoding(code):
    graph, placement, comp, _, _ = code
    rng = np.random.default_rng(8)
    llrs = awgn_llr(modulate_qpsk(np.zeros((6, 498), dtype=np.uint8)), 0.75, rng=rng)
    dec = Decoder(graph, placement, comp)
    batch = dec.decode_batch(llrs, i_max=6)
    # some frames leave the batch early, the others run the full budget
    assert batch.converged.any() and not batch.converged.all()
    assert batch.iterations.min() < 6
    for i in range(6):
        single = dec.decode_batch(llrs[i], i_max=6)
        assert np.array_equal(single.hard[0], batch.hard[i])
        assert single.converged[0] == batch.converged[i]
        assert single.iterations[0] == batch.iterations[i]


def test_extrinsic_discipline_random_small_graph():
    # perturbing the channel LLR of variable v must not change the same
    # iteration's check-to-variable message back onto v's own edge
    h = np.zeros((4, 4), dtype=np.uint8)
    for i in range(4):
        h[i, i] = 1
        h[i, (i + 1) % 4] = 1
    graph = TannerGraph(h)
    placement = place_gc_nodes(graph, 0, seed=0)
    dec = Decoder(graph, placement)
    rng = np.random.default_rng(5)
    llr = rng.normal(size=4)
    # first iteration: every variable-to-check message is the channel LLR
    c2v = dec._check_phase(llr[None, dec.var_of_edge])
    bumped = llr.copy()
    bumped[0] += 3.7
    c2v_b = dec._check_phase(bumped[None, dec.var_of_edge])
    for e in np.nonzero(dec.var_of_edge == 0)[0]:
        assert c2v[0, e] == pytest.approx(c2v_b[0, e], abs=1e-12)


def test_nu_zero_matches_reference_ldpc(code):
    graph, _, comp, _, _ = code
    placement = place_gc_nodes(graph, 0, seed=0)
    dec = Decoder(graph, placement, comp)
    check_rows = [list(e) for e in graph.edges]
    rng = np.random.default_rng(77)
    frames = awgn_llr(modulate_qpsk(np.zeros((10, 498), dtype=np.uint8)), 0.95, rng=rng)
    for f in range(10):
        ours = dec.decode_trace(frames[f], i_max=6)
        ref = reference_bp_trace(check_rows, frames[f].tolist(), 6)
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            assert np.array_equal(a, np.array(b, dtype=np.uint8))


@pytest.mark.parametrize("nu", [Fraction(3, 4), Fraction(7, 8)], ids=["nu34", "nu78"])
def test_gc_decoder_matches_reference_trace(nu):
    graph, placement, comp, enc = small_gldpc(nu)
    dec = Decoder(graph, placement, comp)
    check_rows = [list(e) for e in graph.edges]
    rng = np.random.default_rng(21)
    words = enc.encode_batch(rng.integers(0, 2, size=(12, enc.k), dtype=np.uint8))
    frames = awgn_llr(modulate_qpsk(words), 0.9, rng=rng)
    lengths = []
    for llr in frames:
        ours = dec.decode_trace(llr, i_max=8)
        ref = reference_gldpc_trace(check_rows, placement.position_maps,
                                    comp.codebook, llr.tolist(), 8)
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            assert np.array_equal(a, np.array(b, dtype=np.uint8))
        lengths.append(len(ours))
    assert max(lengths) > 2  # the frames need real message passing


# ---------------------------------------------------------------- erasures


def test_bec_no_erasures_is_immediate(code):
    graph, placement, comp, _, enc = code
    word = enc.encode(np.zeros(enc.k, dtype=np.uint8)).astype(np.int8)
    out = Decoder(graph, placement, comp).decode_bec(word, i_max=10)
    assert out.converged[0]
    assert out.iterations[0] == 0
    assert out.residual_erasures[0] == 0


def test_bec_all_erased_recovers_nothing(code):
    graph, placement, comp, _, _ = code
    word = np.full(498, ERASED, dtype=np.int8)
    out = Decoder(graph, placement, comp).decode_bec(word, i_max=20)
    assert not out.converged[0]
    assert out.residual_erasures[0] == 498
    assert not out.contradiction[0]


def test_bec_recovers_codeword_at_low_erasure(code):
    graph, placement, comp, _, enc = code
    rng = np.random.default_rng(10)
    words = enc.encode_batch(rng.integers(0, 2, size=(20, enc.k), dtype=np.uint8))
    channel_out = bec_erase(words, 0.08, rng=3)
    out = Decoder(graph, placement, comp).decode_bec(channel_out, i_max=60)
    assert out.converged.mean() > 0.5
    done = np.nonzero(out.converged)[0]
    assert np.array_equal(out.word[done], words[done].astype(np.int8))
    assert not out.contradiction.any()


@pytest.mark.parametrize("i_max", [2, 30])
def test_bec_matches_reference_peeling(i_max):
    graph, placement, comp, enc = small_gldpc(Fraction(3, 4))
    dec = Decoder(graph, placement, comp)
    check_rows = [list(e) for e in graph.edges]
    rng = np.random.default_rng(31)
    words = enc.encode_batch(rng.integers(0, 2, size=(24, enc.k), dtype=np.uint8))
    received = bec_erase(words, 0.5, rng=rng)
    for f in range(0, 24, 3):  # a wrong known bit makes some check contradict
        received[f, np.flatnonzero(received[f] != ERASED)[0]] ^= 1
    out = dec.decode_bec(received, i_max=i_max)
    for f in range(24):
        word, sweeps, bad = reference_bec_peel(check_rows, placement.position_maps,
                                               comp.codebook, received[f], i_max)
        assert np.array_equal(out.word[f], np.array(word, dtype=np.int8))
        assert out.iterations[f] == sweeps
        assert out.contradiction[f] == bad
    assert out.contradiction.any() and out.converged.any()
    assert (out.residual_erasures > 0).any()


def test_bec_single_gc_erasure_recovered():
    # an isolated constraint: one generalized check over its 6 variables
    comp = default_component_code()
    h = np.ones((1, 6), dtype=np.uint8)
    graph = TannerGraph(h)
    placement = place_gc_nodes(graph, 1, seed=0)
    word = comp.codebook[5].astype(np.int8)
    pm = placement.position_maps[0]
    local = np.array([word[pm[e]] for e in range(6)], dtype=np.int8)
    got = local.copy()
    got[2] = ERASED
    out = Decoder(graph, placement, comp).decode_bec(got, i_max=5)
    assert out.converged[0]
    assert np.array_equal(out.word[0], local)


def test_bec_contradiction_detected():
    comp = default_component_code()
    h = np.ones((1, 6), dtype=np.uint8)
    graph = TannerGraph(h)
    placement = place_gc_nodes(graph, 1, seed=0)
    pm = placement.position_maps[0]

    def pos_word(w):
        out = np.empty(6, dtype=np.int8)
        for e in range(6):
            out[pm[e]] = w[e]
        return out

    bad = np.array([1, 1, 0, 0, 0, 1], dtype=np.int8)
    if consistent_codewords(comp.codebook, pos_word(bad)).shape[0]:
        bad[0] ^= 1  # one flip off a codeword breaks membership (d_min 3)
        assert consistent_codewords(comp.codebook, pos_word(bad)).shape[0] == 0
    out = Decoder(graph, placement, comp).decode_bec(bad, i_max=5)
    assert out.contradiction[0]
    assert not out.converged[0]


def test_bec_spc_only_peeling():
    # plain parity checks recover single erasures around the 8-cycle
    h = np.zeros((4, 4), dtype=np.uint8)
    for i in range(4):
        h[i, i] = 1
        h[i, (i + 1) % 4] = 1
    graph = TannerGraph(h)
    placement = place_gc_nodes(graph, 0, seed=0)
    word = np.array([1, 1, ERASED, 1], dtype=np.int8)
    out = Decoder(graph, placement).decode_bec(word, i_max=10)
    assert out.converged[0]
    # parity forces v2: row 1 has vars (1, 2), row 2 has vars (2, 3)
    assert out.word[0, 2] == 1
