"""The benchmark's workloads: set-up, the timed operations, and verification.

A round is a fixed list of operations (one grid point, or one threshold
per nu), each a call the timer measures on its own.  Every round of a run
repeats the same inputs, so each round does the same work and its results
must equal the verified ones.  Verification runs after the timed window and
compares the package's outputs with the oracles in ``oracles.py``.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

import oracles
from tracer import patched
from gldpcsim import component, de, decoder, graph, sim
from gldpcsim.concat import OuterCodeModel

NU = Fraction(3, 4)
LIFT, GIRTH = 83, 12
OUTER_N, OUTER_K = 83, 40
VERIFY_BATCH = 200      # batch size of the verification re-run, unlike the default 512
REFERENCE_FRAMES = 3    # frames decoded again by the reference decoder


def _summary(point) -> tuple:
    return (point.trials, point.block_errors, point.bit_errors, point.mean_iters,
            point.op_count)


def _record():
    """Patch encode and decode to keep their inputs and outputs in call order."""
    log = {"encode": [], "decode": []}

    def keep(kind, fn):
        def wrapper(self, data, *args, **kwargs):
            out = fn(self, data, *args, **kwargs)
            log[kind].append((np.asarray(data), out))
            return out
        return wrapper

    targets = [(graph.Encoder, "encode_batch", lambda fn: keep("encode", fn)),
               (decoder.Decoder, "decode_batch", lambda fn: keep("decode", fn)),
               (decoder.Decoder, "decode_bec", lambda fn: keep("decode", fn))]
    return patched(targets), log


@dataclasses.dataclass(frozen=True)
class MonteCarlo:
    """One BLER point of ``run_bler`` with a fixed frame budget.

    The block-error target exceeds the budget, so it never ends the point
    early and the work does not depend on how many frames fail.
    """

    channel: str
    param: float            # Eb/N0 in dB, or the erasure probability
    i_max: int
    frames: int
    outer_t: int | None = None

    def setup(self, seed: int):
        outer = None if self.outer_t is None else OuterCodeModel(OUTER_N, OUTER_K, self.outer_t)
        config = sim.SimConfig(grid=(self.param,), channel=self.channel, i_max=self.i_max,
                               seed=seed, min_block_errors=self.frames + 1,
                               max_trials=self.frames, s=LIFT, target_girth=GIRTH,
                               nu=NU, outer=outer)
        return config, sim.build_stack(config)

    def ops(self, state) -> list:
        config, stack = state
        return [lambda: sim.run_bler(config, stack)]

    def verify(self, state, rounds):
        config, stack = state
        code = oracles.Code(stack.profile.shifts, stack.profile.s,
                            stack.placement.position_maps)
        problems = self._check_code(stack, code)
        recording, log = _record()
        with recording:
            point = sim.run_bler(dataclasses.replace(config, batch_size=VERIFY_BATCH),
                                 stack)[0]
        problems += self._check_frames(code, stack, point, log)
        want = _summary(point)
        failed = []
        for (r,) in rounds:
            if isinstance(r, Exception):
                failed.append(f"point raised {r!r}")
            elif _summary(r[0]) != want or r[0].trials != self.frames:
                failed.append(f"point result {_summary(r[0])} differs from the "
                              f"verified {want}")
        return failed, problems

    # ------------------------------------------------------------ checks

    def _rate(self, code) -> Fraction:
        rate = code.rate
        return rate if self.outer_t is None else rate * Fraction(OUTER_K, OUTER_N)

    def _check_code(self, stack, code) -> list:
        problems = []
        if not np.array_equal(stack.graph.h, code.lifted):
            problems.append("built graph differs from the lift of the profile shifts")
        g = oracles.girth(stack.graph.h)
        if g < GIRTH:
            problems.append(f"built graph has girth {g} < {GIRTH}")
        if not oracles.same_row_space(stack.h_full, code.h):
            problems.append("full parity-check matrix spans another code than the oracle's")
        if stack.encoder.actual_rate != code.rate:
            problems.append(f"inner rate {stack.encoder.actual_rate}, oracle {code.rate}")
        if stack.rate_for_snr != self._rate(code):
            problems.append(f"rate for SNR {stack.rate_for_snr}, oracle {self._rate(code)}")
        return problems

    def _check_frames(self, code, stack, point, log) -> list:
        if len(log["encode"]) != len(log["decode"]):
            return ["encode and decode calls do not pair up"]
        info_pos = np.asarray(stack.encoder.info_positions)
        infos = np.concatenate([i for i, _ in log["encode"]])
        words = np.concatenate([w for _, w in log["encode"]])
        received = np.concatenate([d for d, _ in log["decode"]])
        outs = [o for _, o in log["decode"]]
        iterations = np.concatenate([o.iterations for o in outs])
        converged = np.concatenate([o.converged for o in outs])
        problems = []
        if not np.array_equal(words[:, info_pos], infos):
            problems.append("encoded words do not carry the info bits at the info positions")
        problems += oracles.check_null_space(code, words, "encoded words")
        if self.channel == "bec":
            decoded = np.concatenate([o.word for o in outs])
            contradiction = np.concatenate([o.contradiction for o in outs])
            problems += oracles.check_erasure_channel(received, words, self.param)
            problems += oracles.check_bec_outcome(code, received, words, decoded,
                                                  iterations, contradiction, self.i_max)
            problems += oracles.check_null_space(code, decoded[converged], "converged words")
            residual = (decoded == -1).sum(axis=1)
            wrong = ((decoded != words) & (decoded != -1)).sum(axis=1)
            errs = residual + wrong
            flags = (errs > 0) | contradiction
        else:
            decoded = np.concatenate([o.hard for o in outs])
            sigma2 = 1.0 / (4.0 * float(self._rate(code)) * 10.0 ** (self.param / 10.0))
            problems += oracles.check_llr_statistics(received, words, sigma2)
            problems += oracles.check_null_space(code, decoded[converged], "converged words")
            syn_ok = ~((decoded.astype(np.float64) @ code.h.T.astype(np.float64)) % 2).any(axis=1)
            if not np.array_equal(syn_ok, converged):
                problems.append("converged flags differ from the oracle's zero-syndrome test")
            for f in range(min(REFERENCE_FRAMES, len(received))):
                hard, its = oracles.reference_decode(code, received[f], self.i_max)
                if its != iterations[f] or not np.array_equal(hard, decoded[f]):
                    problems.append(f"frame {f}: reference decoder gives {its} iterations, "
                                    f"package {iterations[f]}, decisions equal: "
                                    f"{np.array_equal(hard, decoded[f])}")
            if self.outer_t is None:
                errs = (decoded != words).sum(axis=1)
                flags = errs > 0
            else:
                errs = (decoded[:, info_pos] != infos).sum(axis=1)
                flags = errs > self.outer_t
        recount = (len(words), int(flags.sum()), int(errs.sum()),
                   int(iterations.sum()) / len(words))
        if recount != (point.trials, point.block_errors, point.bit_errors, point.mean_iters):
            problems.append(f"recounted (trials, block errors, bit errors, mean iterations) "
                            f"{recount} differ from run_bler's "
                            f"{_summary(point)[:4]}")
        return problems


class DeSweep:
    """``rate_threshold_sweep`` over a nu grid, called once per nu so that
    each threshold is an operation of its own."""

    grid = (0.0, 0.25, 0.5, 0.75, 0.875, 1.0)
    tol = 1e-4

    def setup(self, seed: int):
        # the inputs are the fixed grid; the seed selects nothing here
        comp = component.default_component_code()
        comp.exit_erasure(0.5)  # builds the lazily cached erasure-failure table
        return comp

    def ops(self, comp) -> list:
        return [lambda nu=nu: de.rate_threshold_sweep([nu], comp=comp, tol=self.tol)
                for nu in self.grid]

    def verify(self, comp, rounds):
        counts = oracles.exit_counts(oracles.codebook())
        rates = [oracles.design_rate(Fraction(nu)) for nu in self.grid]
        failed, problems = [], []
        for outcomes in rounds:
            thresholds = []
            for nu, rate, out in zip(self.grid, rates, outcomes):
                if isinstance(out, Exception):
                    failed.append(f"nu={nu}: raised {out!r}")
                    continue
                row = out[0]
                thresholds.append(row["threshold"])
                op_problems = oracles.check_thresholds([nu], [row["threshold"]], counts,
                                                       self.tol)[0]
                if row["design_rate"] != rate:
                    op_problems.append(f"nu={nu}: design rate {row['design_rate']}, "
                                       f"oracle {rate}")
                if not math.isclose(row["gap"], float(1 - rate) - row["threshold"],
                                    abs_tol=1e-12):
                    op_problems.append(f"nu={nu}: gap {row['gap']} is not "
                                       "1 - rate - threshold")
                if op_problems:
                    failed.append("; ".join(op_problems))
            if len(thresholds) == len(self.grid):
                gaps = [float(1 - rate) - t for rate, t in zip(rates, thresholds)]
                problems += oracles.check_sweep_shape(self.grid, thresholds, gaps)
        return failed, problems


WORKLOADS = {
    "awgn-floor": MonteCarlo("awgn-qpsk", 6.0, i_max=50, frames=768),
    "concat-t20": MonteCarlo("awgn-qpsk", 4.5, i_max=10, frames=256, outer_t=20),
    "bec-waterfall": MonteCarlo("bec", 0.7, i_max=50, frames=256),
    "de-sweep": DeSweep(),
}
