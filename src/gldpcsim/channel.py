"""AWGN channel with Gray-mapped QPSK, and the binary erasure channel.

Sign convention throughout the package: positive LLR means bit 0 is more
likely.  QPSK uses unit symbol energy, so each real dimension carries
amplitude 1/sqrt(2), and the per-dimension MAP LLR for y = x + n,
n ~ N(0, sigma^2), is 2*a*y/sigma^2 with a = 1/sqrt(2).  That scaling is
exact (the empirical LLR distribution then satisfies variance = 2 * mean,
the usual Gaussian consistency check).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

QPSK_AMPLITUDE = 1.0 / math.sqrt(2.0)
ERASED = -1  # sentinel value in ternary BEC outputs


def modulate_qpsk(bits) -> np.ndarray:
    """Gray-mapped QPSK symbols, bit 0 -> positive amplitude.

    Consecutive bit pairs map to (I, Q); operates on the trailing axis.  An
    odd trailing length is zero-padded with a warning.
    """
    b = np.asarray(bits)
    if np.any((b != 0) & (b != 1)):
        raise ValueError("bits must be 0 or 1")
    if b.shape[-1] % 2:
        warnings.warn("odd bit count: padding with a zero bit", stacklevel=2)
        pad = [(0, 0)] * (b.ndim - 1) + [(0, 1)]
        b = np.pad(b, pad)
    signs = QPSK_AMPLITUDE * (1.0 - 2.0 * b.astype(np.float64))
    return signs[..., 0::2] + 1j * signs[..., 1::2]


def awgn_llr(symbols, sigma: float, rng) -> np.ndarray:
    """Transmit over AWGN (independent noise per real dimension) and return
    exact per-bit LLRs, two per symbol, interleaved (I bit, Q bit, ...)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(rng)
    sym = np.asarray(symbols, dtype=np.complex128)
    noise = rng.standard_normal(sym.shape + (2,)) * sigma
    y_re = sym.real + noise[..., 0]
    y_im = sym.imag + noise[..., 1]
    scale = 2.0 * QPSK_AMPLITUDE / sigma**2
    llrs = np.empty(sym.shape[:-1] + (2 * sym.shape[-1],), dtype=np.float64)
    llrs[..., 0::2] = scale * y_re
    llrs[..., 1::2] = scale * y_im
    return llrs


def snr_to_sigma(snr_db: float, convention: str = "ebn0",
                 overall_rate: float = 1.0, bits_per_symbol: int = 2) -> float:
    """Per-dimension noise standard deviation for unit-energy symbols.

    ebn0: sigma^2 = 1 / (2 * R * bits_per_symbol * 10^(snr/10));
    esn0: sigma^2 = 1 / (2 * 10^(snr/10)).
    """
    lin = 10.0 ** (snr_db / 10.0)
    if convention == "esn0":
        return math.sqrt(1.0 / (2.0 * lin))
    if convention == "ebn0":
        if overall_rate <= 0:
            raise ValueError("overall rate must be positive")
        return math.sqrt(1.0 / (2.0 * float(overall_rate) * bits_per_symbol * lin))
    raise ValueError(f"unknown SNR convention {convention!r}")


def sigma_to_snr(sigma: float, convention: str = "ebn0",
                 overall_rate: float = 1.0, bits_per_symbol: int = 2) -> float:
    """Inverse of snr_to_sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if convention == "esn0":
        lin = 1.0 / (2.0 * sigma**2)
    elif convention == "ebn0":
        if overall_rate <= 0:
            raise ValueError("overall rate must be positive")
        lin = 1.0 / (2.0 * float(overall_rate) * bits_per_symbol * sigma**2)
    else:
        raise ValueError(f"unknown SNR convention {convention!r}")
    return 10.0 * math.log10(lin)


def bec_erase(bits, epsilon: float, rng) -> np.ndarray:
    """Erase each bit independently with probability epsilon.

    Returns int8 with values {0, 1, ERASED}.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    rng = np.random.default_rng(rng)
    b = np.asarray(bits)
    if np.any((b != 0) & (b != 1)):
        raise ValueError("bits must be 0 or 1")
    out = b.astype(np.int8).copy()
    out[rng.random(b.shape) < epsilon] = ERASED
    return out
