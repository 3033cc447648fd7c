"""Iterative message-passing decoding over a GLDPC Tanner graph.

Flooding schedule: every variable-to-check message, then every check-to-var
message (plain parity checks use the tanh rule, generalized checks the exact
MAP component-code update), then posteriors, hard decisions, and an early
stop on zero syndrome.  The decoder is batched: a (B, N) block of channel
LLRs is decoded with per-frame early-stop masking, which matters because
converged frames drop out of the arithmetic.  Erasure decoding runs
parallel peeling sweeps over the same edge layout.

Edge ``c*K + e`` joins check c to its e-th variable in ascending order.
The generalized checks' edges are also listed in component-code position
order, so the position maps are applied once, when the :class:`Decoder` is
built.

The operation count is the closed-form per-iteration tally J*N*(11 + 17*nu)
of soft-decision message passing, kept in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gldpcsim.component import ComponentCode, default_component_code
from gldpcsim.graph import GcPlacement, TannerGraph

DEFAULT_I_MAX = 10
SATURATION = 30.0


def count_operations(J: int, N: int, nu, iterations: int) -> dict:
    """Closed-form decoding work: per-iteration J*N*(11 + 17*nu), its total
    over ``iterations``, and the variable-node share J*N.  Exact rationals."""
    nu = Fraction(nu)
    if not 0 <= nu <= 1:
        raise ValueError("nu must lie in [0, 1]")
    per_iteration = J * N * (11 + 17 * nu)
    return {
        "per_iteration": per_iteration,
        "total": per_iteration * iterations,
        "variable_share": J * N,
    }


@dataclass
class BatchOutcome:
    """Result of decoding a batch of frames."""

    hard: np.ndarray          # (B, N) uint8 decisions
    converged: np.ndarray     # (B,) bool, zero syndrome reached
    iterations: np.ndarray    # (B,) iterations actually used


@dataclass
class BecBatchOutcome:
    """Result of erasure decoding a batch of frames."""

    word: np.ndarray            # (B, N) int8 with -1 for residual erasures
    converged: np.ndarray       # (B,) bool: no erasures left, no contradiction
    contradiction: np.ndarray   # (B,) bool: some check had no consistent fill
    residual_erasures: np.ndarray
    iterations: np.ndarray


class Decoder:
    """Precomputed edge layout for one (graph, placement, component) triple."""

    def __init__(self, graph: TannerGraph, placement: GcPlacement,
                 comp: ComponentCode | None = None,
                 saturation: float = SATURATION):
        if placement.n_checks != graph.n_checks:
            raise ValueError("placement does not match graph")
        self.graph = graph
        self.placement = placement
        self.comp = comp if comp is not None else default_component_code()
        self.saturation = saturation
        K = graph.check_degree
        if placement.n_gc and K != self.comp.n:
            raise ValueError(
                f"check degree {K} != component code length {self.comp.n}")
        # edge id = check * K + slot; slot order = ascending variable index
        self.var_of_edge = np.concatenate(graph.edges)
        # each variable appears exactly J times; stable sort groups them
        self.var_edges = np.argsort(self.var_of_edge, kind="stable").reshape(
            graph.n_vars, graph.var_degree)
        gc_mask = placement.is_gc()
        self.gc_checks = np.nonzero(gc_mask)[0]
        self.spc_checks = np.nonzero(~gc_mask)[0]
        self.spc_edges = self.spc_checks[:, None] * K + np.arange(K)
        # gc_edges[i, p]: the edge at component position p of generalized
        # check i; a position map sends each edge slot to its position
        slot_at = np.array([np.argsort(placement.position_maps[int(c)])
                            for c in self.gc_checks], dtype=np.int64).reshape(-1, K)
        self.gc_edges = self.gc_checks[:, None] * K + slot_at
        self.op_per_iteration = count_operations(
            graph.var_degree, graph.n_vars, placement.nu_actual, 1)["per_iteration"]

    # ------------------------------------------------------------ soft input

    def decode_batch(self, channel_llrs, i_max: int = DEFAULT_I_MAX) -> BatchOutcome:
        llrs = np.atleast_2d(np.asarray(channel_llrs, dtype=np.float64))
        if llrs.shape[1] != self.graph.n_vars:
            raise ValueError(f"expected {self.graph.n_vars} LLRs per frame")
        if i_max < 0:
            raise ValueError("iteration budget must be >= 0")
        B = llrs.shape[0]
        hard = (llrs < 0).astype(np.uint8)
        iterations = np.zeros(B, dtype=np.int64)
        if i_max == 0:
            return BatchOutcome(hard, self._syndrome_ok(hard), iterations)
        converged = np.zeros(B, dtype=bool)
        # row i of llr_a, c2v and posterior belongs to frame active[i]
        active = np.arange(B)
        llr_a = llrs
        c2v = np.zeros((B, self.var_of_edge.size), dtype=np.float64)
        posterior = llrs
        for t in range(1, i_max + 1):
            c2v = self._check_phase(posterior[:, self.var_of_edge] - c2v)
            posterior = llr_a + c2v[:, self.var_edges].sum(axis=2)
            hard_a = (posterior < 0).astype(np.uint8)
            hard[active] = hard_a
            iterations[active] = t
            ok = self._syndrome_ok(hard_a)
            converged[active[ok]] = True
            if ok.all():
                break
            active, llr_a, c2v, posterior = (a[~ok] for a in (active, llr_a, c2v, posterior))
        return BatchOutcome(hard, converged, iterations)

    def decode_trace(self, channel_llr, i_max: int = DEFAULT_I_MAX) -> list:
        """Hard-decision snapshots after every iteration of one frame,
        stopping early on zero syndrome.  Mainly for cross-checks.  Decoding
        is deterministic, so the snapshot after iteration t is the result of
        decoding with budget t."""
        llr = np.asarray(channel_llr, dtype=np.float64)[None, :]
        trace = []
        for t in range(1, i_max + 1):
            out = self.decode_batch(llr, i_max=t)
            trace.append(out.hard[0])
            if out.converged[0]:
                break
        return trace

    def _check_phase(self, v2c):
        new_c2v = np.empty_like(v2c)
        if len(self.spc_checks):
            msgs = np.clip(v2c[:, self.spc_edges], -self.saturation, self.saturation)
            t = np.tanh(msgs / 2.0)
            # prefix/suffix products give each slot the product of the others
            pre = np.ones_like(t)
            suf = np.ones_like(t)
            np.cumprod(t[:, :, :-1], axis=2, out=pre[:, :, 1:])
            np.cumprod(t[:, :, :0:-1], axis=2, out=suf[:, :, -2::-1])
            prod = np.clip(pre * suf, -1.0 + 1e-15, 1.0 - 1e-15)
            new_c2v[:, self.spc_edges] = 2.0 * np.arctanh(prod)
        if len(self.gc_checks):
            new_c2v[:, self.gc_edges] = self.comp.map_extrinsic_all(
                v2c[:, self.gc_edges], saturation=self.saturation,
                output_limit=self.saturation)
        return new_c2v

    def _syndrome_ok(self, hard) -> np.ndarray:
        """Structural zero-syndrome test, equivalent to the full expanded
        parity-check matrix: parity at plain checks, codebook membership at
        generalized checks."""
        ok = np.ones(hard.shape[0], dtype=bool)
        bits_at = hard[:, self.var_of_edge]
        if len(self.spc_checks):
            par = bits_at[:, self.spc_edges].sum(axis=2) % 2
            ok &= ~par.any(axis=1)
        if len(self.gc_checks):
            syn = bits_at[:, self.gc_edges] @ self.comp.parity.T.astype(np.int64) % 2
            ok &= ~syn.any(axis=(1, 2))
        return ok

    # ------------------------------------------------------------ erasures

    def decode_bec(self, ternary_in, i_max: int = DEFAULT_I_MAX) -> BecBatchOutcome:
        word = np.atleast_2d(np.asarray(ternary_in, dtype=np.int8)).copy()
        if word.shape[1] != self.graph.n_vars:
            raise ValueError(f"expected {self.graph.n_vars} values per frame")
        if np.any((word < -1) | (word > 1)):
            raise ValueError("ternary input must contain only 0, 1, -1")
        B = word.shape[0]
        contradiction = np.zeros(B, dtype=bool)
        iterations = np.zeros(B, dtype=np.int64)
        active = np.arange(B)
        for _ in range(i_max):
            if active.size == 0:
                break
            changed, bad = self._bec_sweep(word, active)
            contradiction[active[bad]] = True
            active = active[changed & ~bad]
            iterations[active] += 1
        residual = (word == -1).sum(axis=1)
        converged = (residual == 0) & ~contradiction
        return BecBatchOutcome(word, converged, contradiction, residual, iterations)

    def _bec_sweep(self, word, active):
        """One parallel recovery sweep over the active frames.  Returns
        (changed, contradiction) flags per active frame.  Writes directly
        into ``word``; disagreeing recoveries surface as contradictions on
        the next sweep once the filled values are rechecked."""
        K = self.graph.check_degree
        n_vars = self.graph.n_vars
        w = word[active]
        changed = np.zeros(active.size, dtype=bool)
        bad = np.zeros(active.size, dtype=bool)
        flat = word.reshape(-1)
        vals_at = w[:, self.var_of_edge]
        if len(self.spc_checks):
            local = vals_at[:, self.spc_edges]                  # (B', n_spc, K)
            erased = local == -1
            n_erased = erased.sum(axis=2)
            ones = (local == 1).sum(axis=2)
            # a fully known check with odd parity is a detected error
            bad |= ((n_erased == 0) & (ones % 2 == 1)).any(axis=1)
            fill = (n_erased == 1)[:, :, None] & erased
            if fill.any():
                value = (ones % 2)[:, :, None]  # even-parity completion
                b_idx, c_idx, e_idx = np.nonzero(fill)
                tgt = active[b_idx] * n_vars + self.var_of_edge[self.spc_edges[c_idx, e_idx]]
                flat[tgt] = value[b_idx, c_idx, 0]
                changed[b_idx] = True
        if len(self.gc_checks):
            m = vals_at[:, self.gc_edges].reshape(-1, K)        # (B'*n_gc, K)
            cb = self.comp.codebook.astype(np.int16)  # holds counts up to 2^k <= 4096
            # a codeword is consistent when no known position contradicts it
            clash = (m == 1).astype(np.int16) @ (1 - cb.T) + (m == 0).astype(np.int16) @ cb.T
            consistent = clash == 0
            n_cons = consistent.sum(axis=1)
            bad |= (n_cons == 0).reshape(active.size, -1).any(axis=1)
            # an erased position is pinned when all consistent codewords agree
            ones = consistent.astype(np.int16) @ cb
            agree = (ones == 0) | (ones == n_cons[:, None])
            pinned = agree & (m == -1) & (n_cons > 0)[:, None]
            if pinned.any():
                b_idx, c_idx, p_idx = np.nonzero(pinned.reshape(active.size, -1, K))
                tgt = active[b_idx] * n_vars + self.var_of_edge[self.gc_edges[c_idx, p_idx]]
                flat[tgt] = ones.reshape(active.size, -1, K)[b_idx, c_idx, p_idx] > 0
                changed[b_idx] = True
        return changed, bad
