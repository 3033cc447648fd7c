"""Outer bounded-distance code model for concatenation with the inner code.

The outer code is modeled abstractly (a genie decoder that fixes up to t
symbol errors) rather than implemented: the quantity of interest is how
often the inner decoder leaves more than t errors on the systematic bits
it hands upward.  The outer word is shortened to fit the inner info block.
``gldpcsim.sim`` applies the model: with an outer code a trial is judged on
the inner info bits, and Eb/N0 is normalized by :func:`overall_rate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class OuterCodeModel:
    """Length/dimension of the outer code and its correction radius t."""

    n_out: int
    k_out: int
    t: int

    def __post_init__(self):
        if self.k_out <= 0 or self.n_out < self.k_out:
            raise ValueError("need 0 < k_out <= n_out")
        if self.t < 0:
            raise ValueError("correction radius t must be nonnegative")

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k_out, self.n_out)

    def shortened_payload(self, n_eff: int) -> int:
        """Info bits carried once the outer word is shortened to n_eff symbols."""
        if not 0 < n_eff <= self.n_out:
            raise ValueError(f"shortened length must lie in 1..{self.n_out}")
        return n_eff * self.k_out // self.n_out


def overall_rate(inner_rate, outer: OuterCodeModel) -> Fraction:
    return Fraction(inner_rate) * outer.rate
