"""Small (n, k) linear component code with soft and erasure evaluators.

A :class:`ComponentCode` wraps a generator matrix and precomputes the full
codebook (so k is capped where 2^k stays enumerable).  It provides the exact
MAP extrinsic LLR update used by generalized constraint nodes, the erasure
recovery predicate, and the average extrinsic erasure probability, a
polynomial whose exact coefficients density evolution uses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from gldpcsim import gf2

MAX_DIMENSION = 12  # codebook enumeration cap: 2^k <= 4096
DEFAULT_INPUT_SATURATION = 30.0


def enumerate_codebook(generator) -> np.ndarray:
    """All 2^k codewords of a full-row-rank generator.

    Row i is the codeword of the message whose k bits are the binary digits
    of i, most significant first; row 0 is the all-zero codeword.
    """
    g = gf2.as_bit_matrix(generator)
    k, _ = g.shape
    if k > MAX_DIMENSION:
        raise ValueError(f"dimension {k} too large to enumerate (max {MAX_DIMENSION})")
    if gf2.rank(g) != k:
        raise ValueError("generator matrix is rank deficient")
    msgs = ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    return gf2.mat_mul(msgs, g)


class ComponentCode:
    """Linear block code defined by its generator matrix.

    Immutable after construction; every method is pure, so instances can be
    shared freely across threads.
    """

    def __init__(self, generator):
        g = gf2.as_bit_matrix(generator)
        self.generator = g
        self.k, self.n = g.shape
        self.codebook = enumerate_codebook(g)
        if np.any(self.codebook.sum(axis=0) == 0):
            raise ValueError("code has an identically-zero coordinate")
        self.parity = gf2.null_space_basis(g)
        # codebook with 0-bits marked, float, for weighting likelihood sums
        self._zero = (self.codebook == 0).astype(np.float64)
        # per position: codeword indices with that bit 0 resp. 1 (each half
        # the codebook, since no coordinate is identically zero)
        self._bit_split = (
            np.stack([np.flatnonzero(self.codebook[:, j] == 0) for j in range(self.n)]),
            np.stack([np.flatnonzero(self.codebook[:, j] == 1) for j in range(self.n)]),
        )

    def __repr__(self):
        return f"ComponentCode(n={self.n}, k={self.k})"

    @cached_property
    def minimum_distance(self) -> int:
        return int(self.codebook[1:].sum(axis=1).min())

    @cached_property
    def weight_distribution(self) -> np.ndarray:
        """weight_distribution[w] = number of codewords of Hamming weight w."""
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for w in self.codebook.sum(axis=1):
            counts[w] += 1
        return counts

    # ---------------- soft decision ----------------

    def map_extrinsic_all(self, llrs, saturation: float = DEFAULT_INPUT_SATURATION,
                          output_limit=None) -> np.ndarray:
        """Exact MAP extrinsic LLRs for every position, batched.

        ``llrs`` is (..., n) with the convention L = log(P(bit=0)/P(bit=1)).
        Each codeword gets log-likelihood sum_m 1[c_m=0] * L_m; the output at
        position j is the log ratio of summed likelihoods over codewords with
        c_j=0 versus c_j=1, with L_j excluded from both sums.  Log-sum-exp
        runs with per-sum max subtraction.  Inputs are saturated to
        ``saturation`` in magnitude; outputs are clamped to ``output_limit``
        when given.
        """
        lam = np.clip(np.asarray(llrs, dtype=np.float64), -saturation, saturation)
        if lam.shape[-1] != self.n:
            raise ValueError(f"expected trailing dimension {self.n}, got {lam.shape[-1]}")
        batch_shape = lam.shape[:-1]
        lam = lam.reshape(-1, self.n)
        total = lam @ self._zero.T                       # (B, 2^k)
        # codewords with c_j=0 all carry the same -L_j term, which therefore
        # factors out of the log-sum-exp: out_j = lse0_j - lse1_j - L_j
        idx0, idx1 = self._bit_split
        out = _lse(total[:, idx0]) - _lse(total[:, idx1]) - lam
        if output_limit is not None:
            np.clip(out, -output_limit, output_limit, out=out)
        return out.reshape(*batch_shape, self.n)

    # ---------------- erasures ----------------

    def erasure_recoverable(self, known, j: int) -> bool:
        """True iff position j is pinned down by the positions in ``known``.

        Holds exactly when no codeword has a 1 at j while vanishing on
        ``known`` (consistent codewords form a coset, so they all agree at j
        iff every difference codeword is 0 there).
        """
        if not 0 <= j < self.n:
            raise ValueError(f"position {j} out of range for n={self.n}")
        known = list(known)
        if j in known:
            raise ValueError("queried position must not be in the known set")
        vanishing = np.all(self.codebook[:, known] == 0, axis=1) if known else np.ones(
            len(self.codebook), dtype=bool)
        return not bool(np.any(self.codebook[vanishing, j] == 1))

    @cached_property
    def _erasure_failure_counts(self) -> np.ndarray:
        """counts[j, w] = # weight-w erasure patterns on the other n-1 positions
        that leave position j undetermined."""
        counts = np.zeros((self.n, self.n), dtype=np.int64)
        for j in range(self.n):
            others = [m for m in range(self.n) if m != j]
            for w in range(self.n):
                for erased in combinations(others, w):
                    known = [m for m in others if m not in erased]
                    if not self.erasure_recoverable(known, j):
                        counts[j, w] += 1
        return counts

    @cached_property
    def exit_coefficients(self) -> tuple:
        """Exact monomial coefficients a_0..a_{n-1} of exit_erasure(x) = sum_i a_i x^i.

        Expands sum_w counts[w] x^w (1-x)^(n-1-w) / n in Fractions, where
        counts[w] totals the failure counts over positions.
        """
        counts = self._erasure_failure_counts.sum(axis=0)
        m = self.n - 1
        coeffs = [Fraction(0)] * self.n
        for w, c in enumerate(counts):
            for t in range(m - w + 1):
                coeffs[w + t] += Fraction((-1) ** t * comb(m - w, t) * int(c), self.n)
        return tuple(coeffs)

    @cached_property
    def _exit_horner(self) -> tuple:
        """exit_coefficients as floats, highest degree first."""
        return tuple(float(a) for a in reversed(self.exit_coefficients))

    def exit_erasure(self, x: float) -> float:
        """P(random position not recoverable | every other erased w.p. x).

        Exact up to rounding: the position-averaged failure counts weighted by
        the pattern probabilities x^w (1-x)^(n-1-w) form a fixed polynomial of
        degree n-1, evaluated by Horner on its cached coefficients.
        """
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"erasure probability {x} outside [0, 1]")
        acc = 0.0
        for a in self._exit_horner:
            acc = acc * x + a
        return acc


def _lse(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis with max subtraction."""
    m = a.max(axis=-1)
    return m + np.log(np.exp(a - m[..., None]).sum(axis=-1))


def default_component_code() -> ComponentCode:
    """The rate-1/2 (6, 3) shortened Hamming code used at constraint nodes."""
    return ComponentCode([
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
    ])


def load_generator(path) -> ComponentCode:
    """Read a generator matrix from a text file of 0/1 rows."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if set(line) - {"0", "1", " "}:
                raise ValueError(f"bad generator row: {line!r}")
            rows.append([int(c) for c in line.replace(" ", "")])
    if not rows:
        raise ValueError(f"no generator rows found in {path}")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("generator rows have inconsistent lengths")
    return ComponentCode(rows)
