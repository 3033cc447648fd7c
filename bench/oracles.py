"""Independent oracles for the benchmark's correctness checks.

Nothing here imports gldpcsim.  Each oracle recomputes a property of the
code or of the decoder from the paper-level definitions (shift profile,
edge-to-position maps, the (6,3) code's parity checks), so a check that
compares the package's output with an oracle never compares a value with
what it was made from.  The ``check_*`` functions return a list of problem
strings; an empty list means the property holds.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

import numpy as np

# Parity checks [P^T | I] of the (6,3) shortened Hamming code with generator
# [I | P], P = [[1,1,0],[1,0,1],[0,1,1]].
COMPONENT_PARITY = ((1, 1, 0, 1, 0, 0),
                    (1, 0, 1, 0, 1, 0),
                    (0, 1, 1, 0, 0, 1))
# Message clip of the flooding decoder: channel-side inputs to a check and
# generalized-check outputs are limited to this magnitude.
SATURATION = 30.0
TANH_LIMIT = 1.0 - 1e-15


def codebook(parity=COMPONENT_PARITY) -> np.ndarray:
    """Every binary word that satisfies all parity rows (enumerates 2^n)."""
    n = len(parity[0])
    words = [w for w in product((0, 1), repeat=n)
             if all(sum(a * b for a, b in zip(row, w)) % 2 == 0 for row in parity)]
    return np.array(words, dtype=np.uint8)


class Code:
    """A QC (J, K) lift with generalized checks, rebuilt from its definition.

    ``shifts`` is the J x K profile: block (i, j) of the lift is the s x s
    identity whose row r has its one at column (r + shifts[i][j]) mod s.
    ``gc_maps`` maps each generalized check to its edge-to-position map: the
    e-th variable of the check, in ascending order, sits at component
    position gc_maps[c][e].
    """

    def __init__(self, shifts, s: int, gc_maps: dict, parity=COMPONENT_PARITY):
        shifts = [[int(t) for t in row] for row in shifts]
        K = len(shifts[0])
        self.n = K * s
        self.check_vars = [tuple(sorted(j * s + (r + row[j]) % s for j in range(K)))
                           for row in shifts for r in range(s)]
        self.gc_maps = {int(c): tuple(int(p) for p in pm) for c, pm in gc_maps.items()}
        self.parity = np.array(parity, dtype=np.uint8)
        self.codebook = codebook(parity)
        self.codewords = {tuple(int(b) for b in w) for w in self.codebook}
        self.lifted = np.zeros((len(self.check_vars), self.n), dtype=np.uint8)
        rows = []
        for c, vars_c in enumerate(self.check_vars):
            self.lifted[c, list(vars_c)] = 1
            if c in self.gc_maps:
                pm = self.gc_maps[c]
                for prow in parity:
                    row = np.zeros(self.n, dtype=np.uint8)
                    for e, v in enumerate(vars_c):
                        row[v] = prow[pm[e]]
                    rows.append(row)
            else:
                rows.append(self.lifted[c])
        self.h = np.array(rows, dtype=np.uint8)
        self.checks_of_var = [[] for _ in range(self.n)]
        for c, vars_c in enumerate(self.check_vars):
            for e, v in enumerate(vars_c):
                self.checks_of_var[v].append((c, e))

    @cached_property
    def rate(self) -> Fraction:
        return Fraction(self.n - gf2_rank(self.h), self.n)


def gf2_rank(m) -> int:
    """GF(2) rank by elimination on rows packed into Python integers."""
    pivots = {}
    for row in np.asarray(m, dtype=np.uint8):
        r = int("".join("1" if b else "0" for b in row), 2)
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def same_row_space(a, b) -> bool:
    return gf2_rank(a) == gf2_rank(b) == gf2_rank(np.vstack([a, b]))


def girth(h) -> float:
    """Shortest cycle of the Tanner graph of ``h`` by BFS from every variable."""
    h = np.asarray(h)
    m, n = h.shape
    adj = [[] for _ in range(n + m)]
    for c, v in zip(*np.nonzero(h)):
        adj[v].append(n + c)
        adj[n + c].append(v)
    best = math.inf
    for root in range(n):
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                break  # every cycle still to be found is at least this long
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


# ------------------------------------------------------------------ decoding


def _syndrome_ok(code: Code, hard) -> bool:
    for c, vars_c in enumerate(code.check_vars):
        if c in code.gc_maps:
            local = [0] * len(vars_c)
            for e, v in enumerate(vars_c):
                local[code.gc_maps[c][e]] = hard[v]
            if tuple(local) not in code.codewords:
                return False
        elif sum(hard[v] for v in vars_c) % 2:
            return False
    return True


def _gc_extrinsic(cb, lam):
    """MAP extrinsic LLRs of one generalized check by codebook sums in the
    probability domain; ``lam`` is indexed by component position."""
    p0 = [1.0 / (1.0 + math.exp(-x)) for x in lam]
    p1 = [1.0 / (1.0 + math.exp(x)) for x in lam]
    n = len(lam)
    out = []
    for j in range(n):
        sums = [0.0, 0.0]
        for word in cb:
            w = 1.0
            for m in range(n):
                if m != j:
                    w *= p1[m] if word[m] else p0[m]
            sums[word[j]] += w
        out.append(max(min(math.log(sums[0] / sums[1]), SATURATION), -SATURATION))
    return out


def reference_decode(code: Code, llr, i_max: int):
    """Flooding BP written as explicit loops over edges.

    Returns (hard decisions, iterations used): stops after the first
    iteration whose hard decisions satisfy every check, else after i_max.
    """
    llr = [float(x) for x in llr]
    cb = [tuple(int(b) for b in w) for w in code.codebook]
    c2v = {(c, e): 0.0 for c, vars_c in enumerate(code.check_vars)
           for e in range(len(vars_c))}
    hard = [1 if x < 0 else 0 for x in llr]
    for t in range(1, i_max + 1):
        v2c = {}
        for v, edges in enumerate(code.checks_of_var):
            total = llr[v] + sum(c2v[edge] for edge in edges)
            for edge in edges:
                v2c[edge] = total - c2v[edge]
        for c, vars_c in enumerate(code.check_vars):
            msgs = [max(min(v2c[(c, e)], SATURATION), -SATURATION)
                    for e in range(len(vars_c))]
            if c in code.gc_maps:
                pm = code.gc_maps[c]
                lam = [0.0] * len(msgs)
                for e, x in enumerate(msgs):
                    lam[pm[e]] = x
                out = _gc_extrinsic(cb, lam)
                for e in range(len(msgs)):
                    c2v[(c, e)] = out[pm[e]]
            else:
                for e in range(len(msgs)):
                    prod = 1.0
                    for e2, x in enumerate(msgs):
                        if e2 != e:
                            prod *= math.tanh(x / 2.0)
                    prod = max(min(prod, TANH_LIMIT), -TANH_LIMIT)
                    c2v[(c, e)] = 2.0 * math.atanh(prod)
        hard = [1 if llr[v] + sum(c2v[edge] for edge in edges) < 0 else 0
                for v, edges in enumerate(code.checks_of_var)]
        if _syndrome_ok(code, hard):
            return hard, t
    return hard, i_max


# ------------------------------------------------------------------ erasures


def _lost(cb, j: int, known) -> bool:
    """Position j of the component code stays erased given the known
    positions: some codeword is 1 at j and 0 on every known position."""
    return any(w[j] == 1 and all(w[m] == 0 for m in known) for w in cb)


def exit_counts(cb) -> list:
    """counts[w] = sum over positions j of the weight-w erasure patterns on
    the other n-1 positions that leave j undetermined."""
    n = cb.shape[1]
    counts = [0] * n
    for j in range(n):
        others = [m for m in range(n) if m != j]
        for w in range(n):
            for erased in combinations(others, w):
                known = [m for m in others if m not in erased]
                counts[w] += _lost(cb, j, known)
    return counts


def exit_erasure(x, counts):
    """Position-averaged extrinsic erasure probability at input erasure x."""
    x = np.asarray(x, dtype=np.float64)
    n = len(counts)
    return sum(c * x**w * (1.0 - x) ** (n - 1 - w) for w, c in enumerate(counts)) / n


def de_threshold_inf(nu: float, counts, K: int = 6, points: int = 200_000):
    """BEC threshold of the J=2 mixed ensemble as inf_{x in (0,1]} x/mix(x)
    (Richardson & Urbanke, Modern Coding Theory, ch. 3).

    Returns (threshold, grid_error): the minimum over a uniform grid and the
    x -> 0 limit 1/mix'(0), and the largest change of x/mix(x) between the
    minimising grid point and its neighbours.
    """
    x = np.arange(1, points + 1) / points
    mix = nu * exit_erasure(x, counts) + (1.0 - nu) * (1.0 - (1.0 - x) ** (K - 1))
    g = x / mix
    i = int(np.argmin(g))
    grid_error = max(abs(g[k] - g[i]) for k in (i - 1, i + 1) if 0 <= k < points)
    best = float(g[i])
    slope0 = nu * counts[1] / len(counts) + (1.0 - nu) * (K - 1)
    if counts[0] == 0 and slope0 > 0:
        best = min(best, 1.0 / slope0)
    return best, float(grid_error)


def design_rate(nu: Fraction, J: int = 2, K: int = 6, k_comp: int = 3) -> Fraction:
    """Rate of the mixed ensemble: each generalized check carries n-k_comp
    parity rows instead of one, i.e. R0 - nu (1 - R0)(k_comp - 1)."""
    r0 = 1 - Fraction(J, K)
    return r0 - Fraction(nu) * (1 - r0) * (k_comp - 1)


# ------------------------------------------------------------------ checks


def check_null_space(code: Code, words, what: str) -> list:
    """Every row of ``words`` satisfies every parity check of ``code``."""
    words = np.asarray(words, dtype=np.float64)
    if words.size == 0:
        return []
    syn = (words @ code.h.T.astype(np.float64)) % 2
    bad = np.flatnonzero(syn.any(axis=1))
    return [f"{what}: {bad.size} of {len(words)} words outside the null space "
            f"(first row {bad[0]})"] if bad.size else []


def check_llr_statistics(llrs, words, sigma2: float, z: float = 5.0) -> list:
    """Sign-corrected LLRs of unit-energy QPSK over AWGN have mean 1/sigma^2
    and variance 2/sigma^2; both must lie within z standard errors."""
    y = np.asarray(llrs, dtype=np.float64) * (1.0 - 2.0 * np.asarray(words, dtype=np.float64))
    N = y.size
    mean, var = float(y.mean()), float(y.var(ddof=1))
    want_mean, want_var = 1.0 / sigma2, 2.0 / sigma2
    problems = []
    if abs(mean - want_mean) > z * math.sqrt(want_var / N):
        problems.append(f"LLR mean {mean:.6g}, expected {want_mean:.6g}")
    if abs(var - want_var) > z * want_var * math.sqrt(2.0 / (N - 1)):
        problems.append(f"LLR variance {var:.6g}, expected {want_var:.6g}")
    return problems


def check_erasure_channel(received, words, epsilon: float, z: float = 5.0) -> list:
    """Unerased channel outputs equal the sent bits and the erased share
    lies within z standard errors of epsilon."""
    received = np.asarray(received)
    problems = []
    kept = received != -1
    if np.any(received[kept] != np.asarray(words)[kept]):
        problems.append("channel output differs from the sent bit at an unerased position")
    share = 1.0 - kept.mean()
    if abs(share - epsilon) > z * math.sqrt(epsilon * (1 - epsilon) / received.size):
        problems.append(f"erased share {share:.6g}, expected {epsilon}")
    return problems


def stopping_set_violations(code: Code, erased) -> list:
    """Checks that could still recover a bit of the erased set: a plain
    check with exactly one erased neighbour, or a generalized check with an
    erased position the known positions determine.  Empty for a stopping set."""
    erased = set(int(v) for v in erased)
    cb = code.codebook
    bad = []
    for c, vars_c in enumerate(code.check_vars):
        inside = [e for e, v in enumerate(vars_c) if v in erased]
        if not inside:
            continue
        if c not in code.gc_maps:
            if len(inside) == 1:
                bad.append(c)
            continue
        pm = code.gc_maps[c]
        known = [pm[e] for e in range(len(vars_c)) if e not in inside]
        if any(not _lost(cb, pm[e], known) for e in inside):
            bad.append(c)
    return bad


def check_bec_outcome(code: Code, received, sent, word, iterations,
                      contradiction, i_max: int) -> list:
    """Erasure decoding: no filled bit differs from the sent bit, no check
    reports a contradiction, residual erasures are channel erasures, and a
    frame that stopped before i_max rests on a stopping set."""
    received, sent, word = (np.asarray(a) for a in (received, sent, word))
    problems = []
    residual = word == -1
    if np.any((word != sent) & ~residual):
        problems.append("a filled bit differs from the sent bit")
    if np.any(contradiction):
        problems.append(f"{int(np.sum(contradiction))} frames report a contradiction")
    if np.any(residual & (received != -1)):
        problems.append("a residual erasure was not erased by the channel")
    for f in np.flatnonzero(np.asarray(iterations) < i_max):
        bad = stopping_set_violations(code, np.flatnonzero(residual[f]))
        if bad:
            problems.append(f"frame {f} stopped before i_max but checks {bad[:5]} "
                            "can still recover an erased bit")
    return problems


def check_thresholds(nus, thresholds, counts, tol: float) -> list:
    """One entry per threshold: problems with it against inf x/mix(x)."""
    out = []
    for nu, eps in zip(nus, thresholds):
        want, grid_error = de_threshold_inf(float(nu), counts)
        problems = []
        if abs(eps - want) > tol + grid_error:
            problems.append(f"nu={nu}: threshold {eps:.6f}, inf x/mix(x) = {want:.6f} "
                            f"(allowed {tol} + grid {grid_error:.1e})")
        if nu == 0 and abs(eps - 0.2) > tol:
            problems.append(f"nu=0: threshold {eps:.6f}, expected 1/5")
        out.append(problems)
    return out


def check_sweep_shape(nus, thresholds, gaps, best_nu=0.75) -> list:
    """Thresholds do not decrease in nu and the capacity gap is smallest at
    ``best_nu``."""
    problems = []
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        problems.append(f"thresholds decrease in nu: {list(thresholds)}")
    argmin = nus[int(np.argmin(gaps))]
    if argmin != best_nu:
        problems.append(f"capacity gap smallest at nu={argmin}, expected {best_nu}")
    return problems
