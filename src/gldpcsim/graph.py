"""GLDPC Tanner graph: check-node placement, rates, parity expansion, encoder.

A :class:`TannerGraph` is the plain bipartite topology of a (J, K)-regular
code.  Which checks act as generalized constraint nodes, and how their edges
map to component-code positions, lives in :class:`GcPlacement` so one graph
can carry many placements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from gldpcsim import gf2
from gldpcsim.component import ComponentCode, default_component_code


class TannerGraph:
    """Bipartite check/variable graph of a regular parity-check matrix."""

    def __init__(self, h):
        h = gf2.as_bit_matrix(h)
        check_deg = h.sum(axis=1)
        var_deg = h.sum(axis=0)
        if len(set(check_deg.tolist())) != 1 or len(set(var_deg.tolist())) != 1:
            raise ValueError("graph is not (J, K) regular")
        self.h = h
        self.n_checks, self.n_vars = h.shape
        self.check_degree = int(check_deg[0])
        self.var_degree = int(var_deg[0])
        # ordered edge lists; for generalized checks the order anchors the
        # component-code position mapping
        self.edges = tuple(np.nonzero(h[c])[0] for c in range(self.n_checks))

    def __repr__(self):
        return (f"TannerGraph(n_vars={self.n_vars}, n_checks={self.n_checks}, "
                f"J={self.var_degree}, K={self.check_degree})")


@dataclass(frozen=True)
class GcPlacement:
    """Choice of generalized check nodes plus their edge-to-position maps."""

    n_checks: int
    gc_indices: tuple
    position_maps: dict = field(repr=False)

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.gc_indices))
        object.__setattr__(self, "gc_indices", idx)
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate generalized check indices")
        if idx and (idx[0] < 0 or idx[-1] >= self.n_checks):
            raise ValueError("check index out of range")
        if set(self.position_maps) != set(idx):
            raise ValueError("position maps must cover exactly the generalized checks")
        for c, pm in self.position_maps.items():
            if sorted(pm) != list(range(len(pm))):
                raise ValueError(f"position map for check {c} is not a permutation")

    @property
    def nu_actual(self) -> Fraction:
        return Fraction(len(self.gc_indices), self.n_checks)

    @property
    def n_gc(self) -> int:
        return len(self.gc_indices)

    def is_gc(self) -> np.ndarray:
        mask = np.zeros(self.n_checks, dtype=bool)
        mask[list(self.gc_indices)] = True
        return mask


def design_rate(J: int, K: int, nu, k_comp: int) -> Fraction:
    """Ensemble design rate R0 - nu*(1 - R0)*(k_comp - 1), R0 = 1 - J/K.

    Exact Fraction arithmetic; result may be negative, callers decide what
    to do with a degenerate ensemble.
    """
    nu = Fraction(nu)
    if not 0 <= nu <= 1:
        raise ValueError("nu must lie in [0, 1]")
    if k_comp < 1:
        raise ValueError("component dimension must be >= 1")
    r0 = 1 - Fraction(J, K)
    return r0 - nu * (1 - r0) * (k_comp - 1)


def _round_half_up(x: Fraction) -> int:
    return int((x + Fraction(1, 2)).__floor__())


def place_gc_nodes(graph: TannerGraph, nu, seed=0) -> GcPlacement:
    """Mark a uniform random subset of round(nu * #checks) checks as
    generalized, each with an independent uniform edge-to-position map.

    Half-integer counts round up (166 checks at nu = 3/4 gives 125).
    Deterministic given the seed.
    """
    nu = Fraction(nu)
    if not 0 <= nu <= 1:
        raise ValueError("nu must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    count = _round_half_up(nu * graph.n_checks)
    chosen = np.sort(rng.choice(graph.n_checks, size=count, replace=False))
    maps = {int(c): tuple(int(p) for p in rng.permutation(graph.check_degree))
            for c in chosen}
    return GcPlacement(n_checks=graph.n_checks,
                       gc_indices=tuple(int(c) for c in chosen),
                       position_maps=maps)


def expand_full_parity(graph: TannerGraph, placement: GcPlacement,
                       comp: ComponentCode) -> np.ndarray:
    """Full parity-check matrix: one row per plain check, n-k rows per
    generalized check, in check-index order."""
    if placement.n_checks != graph.n_checks:
        raise ValueError("placement does not match graph")
    gc_set = set(placement.gc_indices)
    if gc_set and graph.check_degree != comp.n:
        raise ValueError(
            f"check degree {graph.check_degree} != component length {comp.n}")
    r_comp = comp.n - comp.k
    rows = (graph.n_checks - len(gc_set)) + len(gc_set) * r_comp
    h_full = np.zeros((rows, graph.n_vars), dtype=np.uint8)
    row = 0
    for c in range(graph.n_checks):
        vars_c = graph.edges[c]
        if c in gc_set:
            pm = placement.position_maps[c]
            for e, v in enumerate(vars_c):
                h_full[row:row + r_comp, v] = comp.parity[:, pm[e]]
            row += r_comp
        else:
            h_full[row, vars_c] = 1
            row += 1
    return h_full


@dataclass(frozen=True)
class Encoder:
    """Systematic encoder derived from a full parity-check matrix."""

    n: int
    info_positions: np.ndarray
    parity_positions: np.ndarray
    p_matrix: np.ndarray = field(repr=False)  # parity bits = P @ info bits
    actual_rate: Fraction = 0

    @property
    def k(self) -> int:
        return len(self.info_positions)

    def encode(self, info) -> np.ndarray:
        return self.encode_batch(np.asarray(info)[None, :])[0]

    def encode_batch(self, info) -> np.ndarray:
        info = np.asarray(info, dtype=np.uint8)
        if info.ndim != 2 or info.shape[1] != self.k:
            raise ValueError(f"expected (batch, {self.k}) info bits")
        if np.any(info > 1):
            raise ValueError("info bits must be 0 or 1")
        out = np.zeros((info.shape[0], self.n), dtype=np.uint8)
        out[:, self.info_positions] = info
        out[:, self.parity_positions] = (
            info.astype(np.int64) @ self.p_matrix.T.astype(np.int64) % 2)
        return out


def build_encoder(h_full) -> Encoder:
    """Encoder for the null space of ``h_full``.

    Info bits sit on the non-pivot columns of the reduced form; the actual
    rate is (cols - rank)/cols, which exceeds the design rate whenever the
    stacked parity rows are dependent.
    """
    h_full = gf2.as_bit_matrix(h_full)
    sf = gf2.systematic_form(h_full)
    r = sf.reduced.shape[0]
    n = h_full.shape[1]
    if n - r < 1:
        raise ValueError("parity constraints leave no information bits")
    return Encoder(
        n=n,
        info_positions=sf.perm[r:].copy(),
        parity_positions=sf.perm[:r].copy(),
        p_matrix=sf.reduced[:, r:].copy(),
        actual_rate=Fraction(n - r, n),
    )


@dataclass(frozen=True)
class PlacementEval:
    """Budget for the short Monte-Carlo evaluation inside placement_search."""

    sigma: float
    trials: int = 200
    i_max: int = 10
    seed: int = 0
    component: ComponentCode | None = None

    def resolved_component(self) -> ComponentCode:
        return self.component if self.component is not None else default_component_code()


def _evaluate_candidates(graph: TannerGraph, placements, cfg: PlacementEval):
    """Short all-zero-codeword BLER estimate for each candidate placement.

    The all-zero word is a codeword of every placement and the channel is
    symmetric, so conditioning on it is unbiased.  Each candidate gets its
    own derived noise seed.
    """
    from gldpcsim.channel import awgn_llr, modulate_qpsk
    from gldpcsim.decoder import Decoder

    comp = cfg.resolved_component()
    zero_syms = modulate_qpsk(np.zeros((cfg.trials, graph.n_vars), dtype=np.uint8))
    blers = []
    for i, placement in enumerate(placements):
        llrs = awgn_llr(zero_syms, cfg.sigma, rng=np.random.default_rng([cfg.seed, i]))
        dec = Decoder(graph, placement, comp)
        result = dec.decode_batch(llrs, i_max=cfg.i_max)
        blers.append(float(np.mean(result.hard.any(axis=1))))
    return blers


def select_placement(graph: TannerGraph, placements, cfg: PlacementEval) -> GcPlacement:
    """Lowest short-sim BLER wins; ties fall to the candidate whose graph
    has fewer all-plain-check 8-cycles, then to the earliest index."""
    from gldpcsim.qc import scan_error_structures

    blers = _evaluate_candidates(graph, placements, cfg)
    best = min(blers)
    tied = [i for i, b in enumerate(blers) if b == best]
    if len(tied) == 1:
        return placements[tied[0]]
    # structure counts are lazily computed only for the tied candidates
    def spc_8cycles(i):
        counts = scan_error_structures(graph.h, placements[i].is_gc(), max_len=8)
        return counts["structure_2"]

    winner = min(tied, key=lambda i: (spc_8cycles(i), i))
    return placements[winner]


def placement_search(graph: TannerGraph, nu, n_samples: int,
                     cfg: PlacementEval, seed=0) -> GcPlacement:
    """Sample ``n_samples`` random placements and keep the best one under
    the short-sim / structure-count selection rule."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    placements = [place_gc_nodes(graph, nu, seed=[seed, i]) for i in range(n_samples)]
    if n_samples == 1:
        return placements[0]
    return select_placement(graph, placements, cfg)
