"""Erasure-channel density evolution for the mixed SPC/GC ensemble.

Tracks the per-iteration edge erasure probability x of a (J=2, K)-regular
ensemble in which a fraction nu of checks are generalized.  The variable
side is degree 2, so the recursion is simply x <- eps * mix(x); the check
side mixes the single-parity-check EXIT curve with the component code's
exact extrinsic erasure probability.  Both are polynomials of degree K-1,
so mix is one polynomial whose coefficients the ensemble caches; each step
of the recursion is a Horner evaluation in plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from gldpcsim.component import ComponentCode, default_component_code
from gldpcsim.graph import design_rate

CONVERGED_BELOW = 1e-12
ITERATION_CAP = 100_000
# Horner's rounding error on mix is at most K * 2^-52 * sum |c_i|
HORNER_ERROR_LIMIT = 1e-9
# a step that rises by at most this relative amount is rounding at a fixed point
STALL_SLACK = 16 * 2.0**-52


@dataclass(frozen=True)
class DeEnsemble:
    """Asymptotic (J, K)-regular ensemble with a GC fraction of nu."""

    J: int
    K: int
    nu: float
    comp: ComponentCode = field(default_factory=default_component_code)
    # monomial coefficients of mix, highest degree first
    horner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= float(self.nu) <= 1.0:
            raise ValueError("nu must lie in [0, 1]")
        if self.K != self.comp.n:
            raise ValueError(f"check degree {self.K} != component length {self.comp.n}")
        if self.J != 2:
            raise ValueError("the degree-2 variable recursion assumes J = 2")
        nu = Fraction(self.nu)
        # 1 - (1-x)^(K-1) = sum_{i>=1} (-1)^(i+1) C(K-1, i) x^i
        spc = [0] + [(-1) ** (i + 1) * comb(self.K - 1, i) for i in range(1, self.K)]
        gc = self.comp.exit_coefficients if nu else (0,) * self.K
        mix = [float(nu * g + (1 - nu) * s) for g, s in zip(gc, spc)]
        bound = self.K * 2.0**-52 * sum(abs(c) for c in mix)
        if bound > HORNER_ERROR_LIMIT:
            raise ValueError(f"monomial form of the check mixture loses accuracy: "
                             f"error bound {bound:.1e} > {HORNER_ERROR_LIMIT:.0e}")
        object.__setattr__(self, "horner", tuple(reversed(mix)))


def de_check_mix(x: float, ens: DeEnsemble) -> float:
    """Probability an outgoing check message stays erased at input erasure x.

    Plain checks: 1 - (1-x)^(K-1).  Generalized checks: the component
    code's exact position-averaged non-recoverability with the target
    position excluded (every other position erased independently w.p. x).
    The nu-weighted sum of the two is evaluated by Horner on the
    ensemble's cached coefficients.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"erasure probability {x} outside [0, 1]")
    acc = 0.0
    for c in ens.horner:
        acc = acc * x + c
    return acc


def de_converges(eps: float, ens: DeEnsemble,
                 converged_below: float = CONVERGED_BELOW,
                 cap: int = ITERATION_CAP) -> bool:
    """Run the recursion x <- eps * de_check_mix(x) from x = eps.

    True when x falls below the convergence criterion.  A stall at a
    positive fixed point is failure, and so is a step that rises by no
    more than rounding (STALL_SLACK relative).  A larger rise indicates a
    broken mixture function and raises.

    Exhausting the iteration cap while x still falls (slow contraction just
    below a threshold set by the x -> 0 stability limit) is decided by the
    bound mix(y)/y <= c_1 + sum_{i>=2} |c_i| x^(i-1) on all of (0, x], for
    the mixture's monomial coefficients c_i: when eps times the bound is
    below 1 the recursion contracts to 0 from x, so True is rigorous; at
    eps above 1/mix'(0) = 1/c_1 the answer is always False.
    """
    x = eps
    for _ in range(cap):
        if x < converged_below:
            return True
        x_next = eps * de_check_mix(x, ens)
        if x_next >= x:
            if x_next > x * (1.0 + STALL_SLACK):
                raise RuntimeError(
                    f"density evolution not monotone at eps={eps}: {x} -> {x_next}")
            return False  # positive fixed point
        x = x_next
    if x < converged_below:
        return True
    # cap spent while x still falls: eps * (c_1 + sum_{i>=2} |c_i| x^(i-1)) < 1
    *high, c1, _ = ens.horner
    bound = 0.0
    for c in high:
        bound = bound * x + abs(c)
    return eps * (bound * x + c1) < 1.0


def de_threshold(ens: DeEnsemble, tol: float = 1e-4) -> float:
    """Largest erasure probability the ensemble decodes, by bisection.

    Maintains an invariant bracket (lo always converges, hi never) and
    returns the midpoint once the bracket is narrower than tol.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = 0.0, 1.0
    if de_converges(hi, ens):
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if de_converges(mid, ens):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rate_threshold_sweep(nu_grid, J: int = 2, K: int = 6,
                         comp: ComponentCode | None = None,
                         tol: float = 1e-4) -> list:
    """Threshold and gap-to-capacity for each nu on the grid.

    Returns rows of dicts: nu, design_rate, threshold, gap where
    gap = (1 - design_rate) - threshold (BEC capacity shortfall).
    """
    comp = comp if comp is not None else default_component_code()
    rows = []
    for nu in nu_grid:
        ens = DeEnsemble(J=J, K=K, nu=float(nu), comp=comp)
        rate = design_rate(J, K, Fraction(nu).limit_denominator(10**9), comp.k)
        eps_star = de_threshold(ens, tol=tol)
        rows.append({
            "nu": float(nu),
            "design_rate": rate,
            "threshold": eps_star,
            "gap": float(1 - rate) - eps_star,
        })
    return rows
