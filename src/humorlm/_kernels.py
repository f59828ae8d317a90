"""The inner loops of counting, smoothing and scoring.

All functions operate on plain dicts keyed by tuples of token ids. Callers
reach them as ``_kernels.<name>``, so a profiler can rebind any one of them
from outside the package.
"""

from __future__ import annotations

from math import log10


def accumulate_counts(tables: list, ids: list, order: int, bounded: bool) -> None:
    """Add one padded line's raw n-grams to the per-order count tables.

    Top-order windows are counted in full; with boundaries the <s>-anchored
    prefixes of the line are counted raw at orders 2..order-1 (nothing ever
    precedes <s>, so their adjusted counts cannot be derived later).
    """
    n = len(ids)
    top = tables[order - 1]
    if order == 1:
        # The <s> pad is never a unigram event.
        for i in range(1 if bounded else 0, n):
            key = (ids[i],)
            top[key] = top.get(key, 0) + 1
        return
    for i in range(n - order + 1):
        key = tuple(ids[i : i + order])
        top[key] = top.get(key, 0) + 1
    if bounded:
        for k in range(2, min(order - 1, n) + 1):
            tab = tables[k - 1]
            key = tuple(ids[:k])
            tab[key] = tab.get(key, 0) + 1


def tally_suffixes(higher: dict) -> dict:
    """Count, for each suffix, how many distinct extensions appear in `higher`.

    Keys in `higher` are unique, so each key contributes exactly one distinct
    predecessor to its length-(k-1) suffix.
    """
    out: dict = {}
    for key in higher:
        suf = key[1:]
        out[suf] = out.get(suf, 0) + 1
    return out


def context_stats(table: dict) -> dict:
    """Per-context totals and discount-bucket tallies: ctx -> [total, n1, n2, n3plus]."""
    out: dict = {}
    for key, c in table.items():
        ctx = key[:-1]
        st = out.get(ctx)
        if st is None:
            st = [0, 0, 0, 0]
            out[ctx] = st
        st[0] += c
        if c == 1:
            st[1] += 1
        elif c == 2:
            st[2] += 1
        else:
            st[3] += 1
    return out


def interpolate_grams(
    table: dict,
    extras: list,
    stats: dict,
    d1: float,
    d2: float,
    d3p: float,
    lower: dict,
) -> dict:
    """Interpolated probabilities for one order, in linear space.

    `extras` are grams stored only because they serve as contexts of
    higher-order grams; they carry count 0 and receive pure interpolation
    mass. A context absent from `stats` has no continuations at this order,
    and backs off with weight 1.
    """
    out: dict = {}
    for key, c in table.items():
        tot, n1, n2, n3p = stats[key[:-1]]
        d = d1 if c == 1 else d2 if c == 2 else d3p
        pseudo = (c - d) / tot if c > d else 0.0
        gamma = (d1 * n1 + d2 * n2 + d3p * n3p) / tot
        out[key] = pseudo + gamma * lower[key[1:]]
    for key in extras:
        st = stats.get(key[:-1])
        lw = lower[key[1:]]
        if st is None:
            out[key] = lw
        else:
            tot, n1, n2, n3p = st
            out[key] = (d1 * n1 + d2 * n2 + d3p * n3p) / tot * lw
    return out


def backoff_weights(stats: dict, d1: float, d2: float, d3p: float) -> dict:
    """log10 back-off weight per context; raises if a context has no held-out mass."""
    out: dict = {}
    for ctx, st in stats.items():
        gamma = (d1 * st[1] + d2 * st[2] + d3p * st[3]) / st[0]
        if gamma <= 0.0:
            raise ValueError("zero back-off mass for a stored context")
        out[ctx] = log10(gamma)
    return out


def log10_values(table: dict) -> None:
    """Convert a table's linear probabilities to log10 in place."""
    for key, v in table.items():
        table[key] = log10(v)


def score_sequence_ids(
    prob_tables: list,
    bo_tables: list,
    ids: list,
    order: int,
    start: int,
) -> float:
    """Sum of per-event log10 probabilities of ids[start:] under
    longest-match back-off; ids[:start] serve only as context.

    `ids` must already be vocabulary-mapped (OOV replaced by the <unk> id),
    so the unigram lookup always succeeds.
    """
    total = 0.0
    n = len(ids)
    for i in range(start, n):
        k = order - 1 if i >= order - 1 else i
        acc = 0.0
        p = None
        while k > 0:
            key = tuple(ids[i - k : i + 1])
            p = prob_tables[k].get(key)
            if p is not None:
                break
            acc += bo_tables[k - 1].get(key[:-1], 0.0)
            k -= 1
        if p is None:
            p = prob_tables[0][(ids[i],)]
        total += acc + p
    return total
