"""Graph assembly, placement, rate bookkeeping, and the encoder."""

from fractions import Fraction

import numpy as np
import pytest

from gldpcsim import gf2
from gldpcsim.component import ComponentCode, default_component_code
from gldpcsim.graph import (
    GcPlacement,
    PlacementEval,
    TannerGraph,
    build_encoder,
    design_rate,
    expand_full_parity,
    place_gc_nodes,
    placement_search,
    select_placement,
)
from gldpcsim.qc import expand, search_shifts


@pytest.fixture(scope="module")
def lifted():
    profile = search_shifts(83, 2, 6, 12, strategy="power-sweep")
    return TannerGraph(expand(profile))


def eight_cycle_graph():
    # four degree-2 checks and four degree-2 variables in a single 8-cycle
    h = np.zeros((4, 4), dtype=np.uint8)
    for i in range(4):
        h[i, i] = 1
        h[i, (i + 1) % 4] = 1
    return TannerGraph(h)


# ---------------------------------------------------------------- rates


def test_design_rate_headline_points():
    assert design_rate(2, 6, Fraction(3, 4), 3) == Fraction(1, 6)
    assert design_rate(2, 6, 0.75, 3) == Fraction(1, 6)
    assert design_rate(2, 6, 0, 3) == Fraction(2, 3)
    assert design_rate(2, 6, 0.875, 3) == Fraction(1, 12)


def test_design_rate_nu_zero_is_base_rate():
    for j, k in ((1, 2), (2, 6), (3, 7), (4, 5)):
        assert design_rate(j, k, 0, 3) == 1 - Fraction(j, k)


def test_design_rate_can_go_negative():
    assert design_rate(2, 6, 1, 4) < 0


def test_design_rate_validation():
    with pytest.raises(ValueError):
        design_rate(2, 6, 1.5, 3)
    with pytest.raises(ValueError):
        design_rate(2, 6, 0.5, 0)


# ---------------------------------------------------------------- graph type


def test_graph_rejects_irregular():
    with pytest.raises(ValueError):
        TannerGraph(np.array([[1, 1, 1], [1, 1, 0]], dtype=np.uint8))


def test_graph_edge_order_is_ascending(lifted):
    for edge_list in lifted.edges:
        assert np.all(np.diff(edge_list) > 0)
    assert lifted.check_degree == 6
    assert lifted.var_degree == 2


# ---------------------------------------------------------------- placement


def test_place_nu_zero_and_one(lifted):
    empty = place_gc_nodes(lifted, 0, seed=1)
    assert empty.n_gc == 0 and empty.nu_actual == 0
    full = place_gc_nodes(lifted, 1, seed=1)
    assert full.n_gc == 166 and full.nu_actual == 1


def test_place_counts_round_half_up(lifted):
    p = place_gc_nodes(lifted, 0.75, seed=7)
    assert p.n_gc == 125  # 124.5 rounds up
    assert p.nu_actual == Fraction(125, 166)
    q = place_gc_nodes(lifted, 0.875, seed=7)
    assert q.n_gc == 145  # 145.25 rounds down
    assert q.nu_actual == Fraction(145, 166)


def test_place_deterministic(lifted):
    a = place_gc_nodes(lifted, 0.75, seed=123)
    b = place_gc_nodes(lifted, 0.75, seed=123)
    assert a.gc_indices == b.gc_indices
    assert a.position_maps == b.position_maps
    c = place_gc_nodes(lifted, 0.75, seed=124)
    assert a.gc_indices != c.gc_indices or a.position_maps != c.position_maps


def test_placement_validation():
    with pytest.raises(ValueError):
        GcPlacement(n_checks=4, gc_indices=(1, 1), position_maps={1: (0, 1)})
    with pytest.raises(ValueError):
        GcPlacement(n_checks=4, gc_indices=(9,), position_maps={9: (0, 1)})
    with pytest.raises(ValueError):
        GcPlacement(n_checks=4, gc_indices=(1,), position_maps={2: (0, 1)})
    with pytest.raises(ValueError):
        GcPlacement(n_checks=4, gc_indices=(1,), position_maps={1: (0, 2)})


# ---------------------------------------------------------------- expansion


def test_expand_full_parity_nu_zero_equals_base(lifted):
    p = place_gc_nodes(lifted, 0, seed=0)
    h_full = expand_full_parity(lifted, p, default_component_code())
    assert np.array_equal(h_full, lifted.h)


def test_expand_full_parity_row_count(lifted):
    p = place_gc_nodes(lifted, 0.75, seed=5)
    h_full = expand_full_parity(lifted, p, default_component_code())
    assert h_full.shape == (41 + 125 * 3, 498)


def test_expand_full_parity_degree_mismatch():
    g = eight_cycle_graph()
    p = place_gc_nodes(g, 0.5, seed=0)
    with pytest.raises(ValueError):
        expand_full_parity(g, p, default_component_code())  # comp.n=6, degree 2


def test_encoder_codewords_satisfy_all_checks(lifted):
    comp = default_component_code()
    p = place_gc_nodes(lifted, 0.75, seed=11)
    h_full = expand_full_parity(lifted, p, comp)
    enc = build_encoder(h_full)
    rng = np.random.default_rng(2)
    info = rng.integers(0, 2, size=(100, enc.k), dtype=np.uint8)
    words = enc.encode_batch(info)
    assert not (words @ h_full.T % 2).any()
    # round trip: info bits sit untouched at the info positions
    assert np.array_equal(words[:, enc.info_positions], info)


def test_encoder_rate_bounds(lifted):
    comp = default_component_code()
    p = place_gc_nodes(lifted, 0.75, seed=11)
    enc = build_encoder(expand_full_parity(lifted, p, comp))
    assert enc.k >= 82
    assert enc.actual_rate >= design_rate(2, 6, p.nu_actual, comp.k)
    assert enc.actual_rate == Fraction(enc.k, 498)


def test_encoder_identity_pair_is_repetition():
    h = np.hstack([np.eye(3, dtype=np.uint8), np.eye(3, dtype=np.uint8)])
    enc = build_encoder(h)
    assert enc.actual_rate == Fraction(1, 2)
    word = enc.encode(np.array([1, 0, 1], dtype=np.uint8))
    assert np.array_equal(word[:3], word[3:])


def test_encoder_rejects_full_rank_square():
    with pytest.raises(ValueError):
        build_encoder(np.eye(4, dtype=np.uint8))


# ---------------------------------------------------------------- search


def test_placement_search_single_sample(lifted):
    cfg = PlacementEval(sigma=0.5, trials=4, i_max=2)
    p = placement_search(lifted, 0.75, 1, cfg, seed=9)
    assert p.gc_indices == place_gc_nodes(lifted, 0.75, seed=[9, 0]).gc_indices


def test_placement_search_small_sweep(lifted):
    cfg = PlacementEval(sigma=0.62, trials=40, i_max=5, seed=3)
    best = placement_search(lifted, 0.75, 6, cfg, seed=21)
    candidates = [place_gc_nodes(lifted, 0.75, seed=[21, i]) for i in range(6)]
    assert any(best.gc_indices == c.gc_indices for c in candidates)


def test_select_placement_tie_breaks_on_spc_8cycles():
    graph = eight_cycle_graph()
    rep = ComponentCode([[1, 1]])
    all_spc = GcPlacement(n_checks=4, gc_indices=(), position_maps={})
    one_gc = GcPlacement(n_checks=4, gc_indices=(2,), position_maps={2: (0, 1)})
    # noiseless: both decode everything, BLERs tie at zero, and the
    # placement that breaks the all-plain 8-cycle must win
    cfg = PlacementEval(sigma=0.05, trials=8, i_max=3, seed=1, component=rep)
    assert select_placement(graph, [all_spc, one_gc], cfg) is one_gc
    # index breaks the remaining tie when structures match too
    assert select_placement(graph, [one_gc, one_gc], cfg) is one_gc
