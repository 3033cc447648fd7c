"""Plain-text interchange: alist matrices, profile/placement files, configs, results.

Everything here is line-oriented ASCII so outputs stay diffable and the
determinism contract (identical config -> byte-identical CSV) is easy to
keep.  Floats are written with repr, which round-trips exactly.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from gldpcsim import gf2
from gldpcsim.graph import GcPlacement
from gldpcsim.qc import QcProfile

CSV_SCHEMA = ("param", "trials", "block_errors", "bit_errors", "bler", "ber",
              "ci_lo", "ci_hi", "mean_iters", "op_count")
CSV_VERSION = 1


def write_alist(h, path) -> None:
    """Standard alist: 'cols rows', max weights, weight lists, then 1-based
    nonzero row indices per column and column indices per row (zero padded)."""
    h = gf2.as_bit_matrix(h)
    m, n = h.shape
    cols = [np.flatnonzero(h[:, j]) + 1 for j in range(n)]
    rows = [np.flatnonzero(h[i, :]) + 1 for i in range(m)]
    cmax = max((len(c) for c in cols), default=0)
    rmax = max((len(r) for r in rows), default=0)
    lines = [
        f"{n} {m}",
        f"{cmax} {rmax}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in rows),
    ]
    for entries, width in ((cols, cmax), (rows, rmax)):
        for idx in entries:
            padded = list(idx) + [0] * (width - len(idx))
            lines.append(" ".join(str(v) for v in padded))
    Path(path).write_text("\n".join(lines) + "\n")


def read_alist(path) -> np.ndarray:
    """Inverse of write_alist; zero entries (padding) are ignored."""
    toks = [[int(t) for t in ln.split()] for ln in Path(path).read_text().splitlines()
            if ln.strip()]
    if len(toks) < 4 or len(toks[0]) != 2:
        raise ValueError(f"{path}: not an alist file")
    n, m = toks[0]
    col_w = toks[2]
    if len(col_w) != n or len(toks[3]) != m:
        raise ValueError(f"{path}: weight lines disagree with declared size")
    if len(toks) < 4 + n:
        raise ValueError(f"{path}: truncated column section")
    h = np.zeros((m, n), dtype=np.uint8)
    for j, entries in enumerate(toks[4:4 + n]):
        live = [e for e in entries if e != 0]
        if len(live) != col_w[j]:
            raise ValueError(f"{path}: column {j} weight mismatch")
        for e in live:
            if not 1 <= e <= m:
                raise ValueError(f"{path}: row index {e} out of range in column {j}")
            h[e - 1, j] = 1
    return h


def write_profile(profile: QcProfile, path) -> None:
    lines = [f"{profile.J} {profile.K} {profile.s}"]
    for row in profile.shifts:
        lines.append(" ".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_profile(path) -> QcProfile:
    toks = [[int(t) for t in ln.split()] for ln in Path(path).read_text().splitlines()
            if ln.strip()]
    if not toks or len(toks[0]) != 3:
        raise ValueError(f"{path}: expected a 'J K s' header line")
    J, K, s = toks[0]
    if len(toks) != 1 + J:
        raise ValueError(f"{path}: expected {J} shift rows, found {len(toks) - 1}")
    return QcProfile(J=J, K=K, s=s, shifts=tuple(tuple(r) for r in toks[1:]))


def write_placement(placement: GcPlacement, path) -> None:
    lines = [
        f"nu_actual {placement.nu_actual}",
        f"n_checks {placement.n_checks}",
        " ".join(["gc_indices", *(str(i) for i in placement.gc_indices)]),
    ]
    for idx in placement.gc_indices:
        pm = placement.position_maps[idx]
        lines.append(f"map {idx} " + " ".join(str(int(p)) for p in pm))
    Path(path).write_text("\n".join(lines) + "\n")


def read_placement(path) -> GcPlacement:
    lines = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) < 3 or lines[0][0] != "nu_actual" or lines[1][0] != "n_checks":
        raise ValueError(f"{path}: malformed placement header")
    declared_nu = Fraction(lines[0][1])
    n_checks = int(lines[1][1])
    if lines[2][0] != "gc_indices":
        raise ValueError(f"{path}: missing gc_indices line")
    gc_indices = tuple(int(t) for t in lines[2][1:])
    maps = {}
    for toks in lines[3:]:
        if toks[0] != "map":
            raise ValueError(f"{path}: unexpected line {' '.join(toks)!r}")
        maps[int(toks[1])] = [int(t) for t in toks[2:]]
    if set(maps) != set(gc_indices):
        raise ValueError(f"{path}: position maps do not match gc_indices")
    placement = GcPlacement(n_checks=n_checks, gc_indices=gc_indices,
                            position_maps=maps)
    if placement.nu_actual != declared_nu:
        raise ValueError(f"{path}: declared nu_actual {declared_nu} is inconsistent")
    return placement


def parse_config(text: str) -> dict:
    """key = value lines; '#' starts a comment; values stay strings."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"config line {ln}: empty key")
        if key in out:
            raise ValueError(f"config line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(path) -> dict:
    return parse_config(Path(path).read_text())


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_result_rows(rows) -> str:
    lines = [f"# gldpcsim bler csv v{CSV_VERSION}", ",".join(CSV_SCHEMA)]
    for row in rows:
        lines.append(",".join(_cell(row[field]) for field in CSV_SCHEMA))
    return "\n".join(lines) + "\n"


def write_result_csv(rows, path) -> None:
    Path(path).write_text(format_result_rows(rows))


def read_result_csv(path) -> list:
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0].split(",") != list(CSV_SCHEMA):
        raise ValueError(f"{path}: unrecognized results schema")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_SCHEMA):
            raise ValueError(f"{path}: ragged row {ln!r}")
        row = dict(zip(CSV_SCHEMA, cells))
        for field in ("param", "bler", "ber", "ci_lo", "ci_hi", "mean_iters"):
            row[field] = float(row[field])
        for field in ("trials", "block_errors", "bit_errors", "op_count"):
            row[field] = int(row[field])
        rows.append(row)
    return rows


def write_sidecar(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     default=str) + "\n")


def code_identity_hash(*parts) -> str:
    """Short content hash of arrays (shape + dtype + bytes), for sidecars."""
    digest = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(np.asarray(part))
        digest.update(repr(a.shape).encode())
        digest.update(str(a.dtype).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]
