"""Independent BP and erasure decoders, written as slow explicit loops.

Used only as cross-checks: they share no code with the package decoder
(edge messages live in dicts, products are taken in row order, generalized
checks sum codeword probabilities instead of log-likelihoods) but follow the
same flooding schedule, saturation, and stopping rule.
"""

import math


def spc_update(llrs_in, j, saturation=30.0):
    """Single parity check extrinsic: 2*atanh(prod_{m != j} tanh(L_m / 2))."""
    prod = 1.0
    for m, x in enumerate(llrs_in):
        if m != j:
            prod *= math.tanh(max(min(float(x), saturation), -saturation) / 2.0)
    prod = min(max(prod, -1.0 + 1e-15), 1.0 - 1e-15)
    return 2.0 * math.atanh(prod)


def variable_update(channel_llr, incoming, j=None):
    """Channel LLR plus all incoming check messages except edge ``j``
    (``j=None`` keeps everything: the posterior)."""
    return float(channel_llr) + sum(float(x) for m, x in enumerate(incoming) if m != j)


def gc_update(codebook, llrs_in, j, saturation=30.0):
    """Component-code MAP extrinsic at position ``j`` by a probability-domain
    codebook sum: log(sum_{c: c_j=0} prod_{m != j} P(c_m) /
    sum_{c: c_j=1} prod_{m != j} P(c_m)), inputs and output clipped to
    +-saturation.  ``llrs_in`` is indexed by component position."""
    lam = [max(min(float(x), saturation), -saturation) for x in llrs_in]
    p1 = [1.0 / (1.0 + math.exp(x)) for x in lam]
    sums = [0.0, 0.0]
    for word in codebook:
        w = 1.0
        for m, bit in enumerate(word):
            if m != j:
                w *= p1[m] if bit else 1.0 - p1[m]
        sums[int(word[j])] += w
    return max(min(math.log(sums[0] / sums[1]), saturation), -saturation)


def _local_word(values, row, pm):
    """Values of a generalized check's variables, by component position."""
    word = [0] * len(row)
    for e, v in enumerate(row):
        word[pm[e]] = values[v]
    return word


def _checks_of(check_rows):
    checks_of = {}
    for c, row in enumerate(check_rows):
        for v in row:
            checks_of.setdefault(v, []).append(c)
    return checks_of


def reference_bp_trace(check_rows, llr, i_max, sat=30.0):
    """Hard decisions after every flooding iteration; stops on zero syndrome.

    check_rows: list of per-check variable-index lists.
    """
    n = len(llr)
    checks_of = _checks_of(check_rows)
    c2v = {(c, v): 0.0 for c, row in enumerate(check_rows) for v in row}
    trace = []
    for _ in range(i_max):
        v2c = {}
        for (c, v) in c2v:
            total = llr[v]
            for c2 in checks_of[v]:
                if c2 != c:
                    total += c2v[(c2, v)]
            v2c[(c, v)] = total
        for c, row in enumerate(check_rows):
            for v in row:
                prod = 1.0
                for v2 in row:
                    if v2 == v:
                        continue
                    m = max(min(v2c[(c, v2)], sat), -sat)
                    prod *= math.tanh(m / 2.0)
                prod = max(min(prod, 1.0 - 1e-15), -1.0 + 1e-15)
                c2v[(c, v)] = 2.0 * math.atanh(prod)
        posterior = [llr[v] + sum(c2v[(c, v)] for c in checks_of[v]) for v in range(n)]
        hard = [1 if p < 0 else 0 for p in posterior]
        trace.append(hard)
        if all(sum(hard[v] for v in row) % 2 == 0 for row in check_rows):
            break
    return trace


def reference_gldpc_trace(check_rows, gc_maps, codebook, llr, i_max, sat=30.0):
    """Flooding BP with generalized checks; hard decisions after every
    iteration, stopping on zero syndrome.

    gc_maps: {check index: position map}, where edge slot ``e`` of the check
    (its ``e``-th variable in ``check_rows``) is component position
    ``pm[e]``.  Plain checks use the tanh rule, generalized checks
    :func:`gc_update`; the syndrome test is parity at plain checks and
    codebook membership at generalized ones.
    """
    checks_of = _checks_of(check_rows)
    words = {tuple(int(b) for b in w) for w in codebook}
    c2v = {(c, v): 0.0 for c, row in enumerate(check_rows) for v in row}
    trace = []
    for _ in range(i_max):
        v2c = {}
        for v, cs in checks_of.items():
            incoming = [c2v[(c, v)] for c in cs]
            for i, c in enumerate(cs):
                v2c[(c, v)] = variable_update(llr[v], incoming, i)
        for c, row in enumerate(check_rows):
            if c in gc_maps:
                pm = gc_maps[c]
                lam = _local_word({v: v2c[(c, v)] for v in row}, row, pm)
                for e, v in enumerate(row):
                    c2v[(c, v)] = gc_update(codebook, lam, pm[e], sat)
            else:
                msgs = [v2c[(c, v)] for v in row]
                for e, v in enumerate(row):
                    c2v[(c, v)] = spc_update(msgs, e, sat)
        hard = [0] * len(llr)
        for v, cs in checks_of.items():
            hard[v] = 1 if variable_update(llr[v], [c2v[(c, v)] for c in cs]) < 0 else 0
        trace.append(hard)
        if all(tuple(_local_word(hard, row, gc_maps[c])) in words if c in gc_maps
               else sum(hard[v] for v in row) % 2 == 0
               for c, row in enumerate(check_rows)):
            break
    return trace


def reference_bec_peel(check_rows, gc_maps, codebook, word, i_max):
    """Parallel erasure peeling; returns (word, sweeps, contradiction).

    Each sweep reads the word as it stood at the start of the sweep.  A plain
    check with one erased variable fills it with the parity of the others; a
    generalized check fills every erased position on which all codewords
    consistent with its known positions agree.  A fully known plain check
    with odd parity, or a generalized check with no consistent codeword, is
    a contradiction: decoding stops after that sweep, which does not count.
    Decoding also stops after a sweep that fills nothing.  Fills are written
    plain checks first, then generalized checks, each in check order, so a
    later check's fill stands when two disagree.
    """
    word = [int(x) for x in word]
    sweeps = 0
    for _ in range(i_max):
        snap = list(word)
        bad = False
        fills = []
        for c, row in enumerate(check_rows):
            if c in gc_maps:
                continue
            erased = [v for v in row if snap[v] == -1]
            ones = sum(1 for v in row if snap[v] == 1)
            if not erased and ones % 2:
                bad = True
            if len(erased) == 1:
                fills.append((erased[0], ones % 2))
        for c, row in enumerate(check_rows):
            if c not in gc_maps:
                continue
            pm = gc_maps[c]
            local = _local_word(snap, row, pm)
            consistent = [w for w in codebook
                          if all(x == -1 or x == int(b) for x, b in zip(local, w))]
            if not consistent:
                bad = True
                continue
            for e, v in enumerate(row):
                p = pm[e]
                if local[p] == -1 and len({int(w[p]) for w in consistent}) == 1:
                    fills.append((v, int(consistent[0][p])))
        for v, value in fills:
            word[v] = value
        if bad:
            return word, sweeps, True
        if not fills:
            break
        sweeps += 1
    return word, sweeps, False
