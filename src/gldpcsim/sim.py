"""Monte-Carlo block/bit error rate measurement with deterministic replay.

Every trial draws its randomness from a generator seeded with
(master seed, point index, trial index), so a point's result does not
depend on batch size, early stopping, or execution order.  The stopping
rule walks trials in index order and truncates at the exact trial where
the block-error target is reached.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from gldpcsim.channel import ERASED, awgn_llr, bec_erase, modulate_qpsk, snr_to_sigma
from gldpcsim.component import ComponentCode, default_component_code
from gldpcsim.concat import OuterCodeModel, overall_rate
from gldpcsim.decoder import DEFAULT_I_MAX, Decoder
from gldpcsim.formats import CSV_SCHEMA, code_identity_hash, read_placement, read_profile
from gldpcsim.graph import TannerGraph, build_encoder, expand_full_parity, place_gc_nodes
from gldpcsim.qc import QcProfile, expand, search_shifts

DEFAULT_MIN_BLOCK_ERRORS = 100
DEFAULT_MAX_TRIALS = 10_000_000

_CHANNELS = ("awgn-qpsk", "bec")
_CONVENTIONS = ("ebn0", "esn0")
# a pre-built object on the left makes the construction keys on the right moot
_EXCLUSIVE_KEYS = {"profile": ("s", "target_girth", "strategy"),
                   "placement": ("nu", "placement_seed")}


def _reject_conflicts(given) -> None:
    """Refuse a pre-built object together with a key that would build it."""
    for key, others in _EXCLUSIVE_KEYS.items():
        for other in others:
            if key in given and other in given:
                raise ValueError(f"config keys {key!r} and {other!r} conflict: "
                                 f"{other!r} only applies without {key!r}")


@dataclass(frozen=True)
class SimConfig:
    grid: tuple
    channel: str = "awgn-qpsk"
    snr_convention: str = "ebn0"
    i_max: int = DEFAULT_I_MAX
    seed: int = 0
    min_block_errors: int = DEFAULT_MIN_BLOCK_ERRORS
    max_trials: int = DEFAULT_MAX_TRIALS
    batch_size: int = 512
    # either pre-built objects ...
    profile: Optional[QcProfile] = None
    placement: Optional["object"] = None
    # ... or construction parameters
    s: int = 83
    target_girth: int = 12
    strategy: str = "power-sweep"
    nu: object = Fraction(3, 4)
    placement_seed: int = 0
    outer: Optional[OuterCodeModel] = None

    def __post_init__(self):
        _reject_conflicts({f.name for f in fields(self)
                           if getattr(self, f.name) != f.default})
        if not self.grid:
            raise ValueError("parameter grid must be nonempty")
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if self.channel not in _CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.snr_convention not in _CONVENTIONS:
            raise ValueError(f"unknown SNR convention {self.snr_convention!r}")
        if self.min_block_errors < 1:
            raise ValueError("min block errors must be >= 1")
        if self.max_trials < 1 or self.batch_size < 1:
            raise ValueError("max trials and batch size must be >= 1")
        if self.i_max < 0:
            raise ValueError("iteration budget must be >= 0")
        if self.channel == "bec":
            if any(not 0.0 <= g <= 1.0 for g in self.grid):
                raise ValueError("BEC erasure grid must lie in [0, 1]")
            if self.outer is not None:
                raise ValueError("outer model is defined for the AWGN path only")

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        """Build from a parsed key=value config file (all values strings)."""
        known = {
            "grid": lambda v: tuple(float(t) for t in v.split(",") if t.strip()),
            "channel": str,
            "snr_convention": str,
            "i_max": int,
            "seed": int,
            "min_block_errors": int,
            "max_trials": int,
            "batch_size": int,
            "profile": read_profile,
            "placement": read_placement,
            "s": int,
            "target_girth": int,
            "strategy": str,
            "nu": Fraction,
            "placement_seed": int,
        }
        _reject_conflicts(raw)
        kwargs = {}
        outer = {}
        for key, value in raw.items():
            if key in ("outer_n", "outer_k", "outer_t"):
                outer[key] = int(value)
                continue
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = known[key](value)
        if outer:
            missing = {"outer_n", "outer_k", "outer_t"} - set(outer)
            if missing:
                raise ValueError(f"incomplete outer model: missing {sorted(missing)}")
            kwargs["outer"] = OuterCodeModel(
                n_out=outer["outer_n"], k_out=outer["outer_k"], t=outer["outer_t"])
        if "grid" not in kwargs:
            raise ValueError("config must set 'grid'")
        return cls(**kwargs)


class Stack(NamedTuple):
    """Everything run_bler needs, built once per config."""

    profile: QcProfile
    graph: TannerGraph
    placement: object
    comp: ComponentCode
    h_full: np.ndarray
    encoder: object
    decoder: Decoder
    rate_for_snr: Fraction


def build_stack(config: SimConfig) -> Stack:
    comp = default_component_code()
    profile = config.profile
    if profile is None:
        profile = search_shifts(config.s, 2, 6, config.target_girth,
                                strategy=config.strategy)
    graph = TannerGraph(expand(profile))
    placement = config.placement
    if placement is None:
        placement = place_gc_nodes(graph, config.nu, seed=config.placement_seed)
    h_full = expand_full_parity(graph, placement, comp)
    encoder = build_encoder(h_full)
    rate = encoder.actual_rate
    if config.outer is not None:
        rate = overall_rate(rate, config.outer)
    decoder = Decoder(graph, placement, comp)
    return Stack(profile, graph, placement, comp, h_full, encoder, decoder, rate)


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple:
    """95% (by default) score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class PointResult:
    param: float
    trials: int
    block_errors: int
    bit_errors: int
    bler: float
    ber: float
    ci_lo: float
    ci_hi: float
    mean_iters: float
    op_count: int
    wall_time: float
    extras: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        return {name: getattr(self, name) for name in CSV_SCHEMA}


def _judge(config: SimConfig, stack: Stack, out, infos, words) -> tuple:
    """Per-trial block-error flags and bit-error counts of a decoded batch."""
    if config.channel == "bec":
        # a filled position disagreeing with the transmitted word would be a
        # decoder defect; count it as errored anyway rather than hiding it
        wrong = ((out.word != words) & (out.word != ERASED)).sum(axis=1)
        errs = out.residual_erasures + wrong
        return (errs > 0) | out.contradiction, errs
    if config.outer is not None:
        errs = (out.hard[:, stack.encoder.info_positions] != infos).sum(axis=1)
        return errs > config.outer.t, errs
    errs = (out.hard != words).sum(axis=1)
    return errs > 0, errs


def _run_point(stack: Stack, config: SimConfig, point_idx: int,
               param: float) -> PointResult:
    """Batches of trials, in trial order, until the block-error target or
    the trial budget is reached.  Only the received batch and the judging
    of the decoder's outcome depend on the channel."""
    bec = config.channel == "bec"
    enc = stack.encoder
    n = stack.graph.n_vars
    if not bec:
        sigma = snr_to_sigma(param, convention=config.snr_convention,
                             overall_rate=float(stack.rate_for_snr))
    trials = block_errors = bit_errors = 0
    total_iters = residual_total = contradictions = 0
    t0 = time.perf_counter()
    while trials < config.max_trials and block_errors < config.min_block_errors:
        count = min(config.batch_size, config.max_trials - trials)
        rngs = [np.random.default_rng([config.seed, point_idx, t])
                for t in range(trials, trials + count)]
        infos = np.stack([rng.integers(0, 2, size=enc.k, dtype=np.uint8) for rng in rngs])
        words = enc.encode_batch(infos)
        received = np.empty((count, n), dtype=np.int8 if bec else np.float64)
        for b, rng in enumerate(rngs):
            received[b] = (bec_erase(words[b], param, rng) if bec
                           else awgn_llr(modulate_qpsk(words[b]), sigma, rng))
        decode = stack.decoder.decode_bec if bec else stack.decoder.decode_batch
        out = decode(received, i_max=config.i_max)
        flags, errs = _judge(config, stack, out, infos, words)
        cut = _truncate(flags, config.min_block_errors - block_errors)
        trials += cut
        block_errors += int(flags[:cut].sum())
        bit_errors += int(errs[:cut].sum())
        total_iters += int(out.iterations[:cut].sum())
        if bec:
            residual_total += int(out.residual_erasures[:cut].sum())
            contradictions += int(out.contradiction[:cut].sum())
    if bec:
        extras = {"residual_erasure_rate": residual_total / (trials * n),
                  "contradictions": contradictions}
        op_count = 0  # the analytic count covers soft-decision decoding only
    else:
        extras = {"sigma": sigma}
        op_count = int(stack.decoder.op_per_iteration * total_iters)
    bits_per_trial = enc.k if config.outer is not None else n
    extras["bits_per_trial"] = bits_per_trial
    ci_lo, ci_hi = wilson_interval(block_errors, trials)
    return PointResult(
        param=param,
        trials=trials,
        block_errors=block_errors,
        bit_errors=bit_errors,
        bler=block_errors / trials,
        ber=bit_errors / (trials * bits_per_trial),
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        mean_iters=total_iters / trials,
        op_count=op_count,
        wall_time=time.perf_counter() - t0,
        extras=extras,
    )


def _truncate(flags: np.ndarray, still_needed: int) -> int:
    """Trials to keep from this batch so the point stops exactly on target."""
    cum = np.cumsum(flags.astype(np.int64))
    hit = int(np.searchsorted(cum, still_needed))
    return hit + 1 if hit < len(cum) else len(cum)


def run_bler(config: SimConfig, stack: Optional[Stack] = None) -> list:
    """Measure every grid point; returns PointResult per point, in grid order."""
    stack = stack if stack is not None else build_stack(config)
    return [_run_point(stack, config, idx, param)
            for idx, param in enumerate(config.grid)]


def result_sidecar(config: SimConfig, stack: Stack, results: list) -> dict:
    """Reproducibility metadata stored next to the CSV."""
    echo = {
        "channel": config.channel,
        "snr_convention": config.snr_convention,
        "grid": list(config.grid),
        "i_max": config.i_max,
        "seed": config.seed,
        "min_block_errors": config.min_block_errors,
        "max_trials": config.max_trials,
        "nu_actual": str(stack.placement.nu_actual),
        "outer": None if config.outer is None else {
            "n_out": config.outer.n_out, "k_out": config.outer.k_out,
            "t": config.outer.t},
    }
    return {
        "config": echo,
        "rng": "PCG64",
        "seed_scheme": "default_rng([seed, point_index, trial_index])",
        "code_hash": code_identity_hash(stack.h_full),
        "profile_hash": code_identity_hash(stack.profile.shifts),
        "rate_for_snr": str(stack.rate_for_snr),
        "actual_inner_rate": str(stack.encoder.actual_rate),
        "points": [
            {"param": r.param, "wall_time": r.wall_time, **r.extras}
            for r in results
        ],
    }


def _curve(points) -> list:
    pts = []
    for r in points:
        if isinstance(r, dict):
            pts.append((float(r["param"]), float(r["bler"])))
        else:
            pts.append((float(r.param), float(r.bler)))
    pts.sort()
    return pts


def _level_crossing(points, level: float):
    """Parameter where the piecewise log-linear curve hits the level, or None."""
    target = math.log10(level)
    prev = None
    for x, y in points:
        if y <= 0.0:
            prev = None  # zero-BLER points cannot be log-interpolated across
            continue
        cur = (x, math.log10(y))
        if prev is not None:
            (x0, l0), (x1, l1) = prev, cur
            if (l0 - target) * (l1 - target) <= 0.0:
                if l0 == l1:
                    return x0
                return x0 + (target - l0) * (x1 - x0) / (l1 - l0)
        prev = cur
    return None


def compare_curves(result_a, result_b, levels=(1e-1, 1e-2, 1e-3)) -> dict:
    """Horizontal gap (param units, e.g. dB) between two measured curves.

    gap = param where curve A reaches the level minus the same for curve B,
    positive when A needs a stronger channel.  Levels outside either curve
    come back with gap None.
    """
    a = _curve(result_a)
    b = _curve(result_b)
    if not a or not b:
        raise ValueError("cannot compare empty result lists")
    if a[-1][0] < b[0][0] or b[-1][0] < a[0][0]:
        raise ValueError("parameter ranges do not overlap")
    report = {}
    for level in levels:
        xa = _level_crossing(a, level)
        xb = _level_crossing(b, level)
        gap = None if xa is None or xb is None else xa - xb
        report[level] = {"a": xa, "b": xb, "gap": gap}
    return report
