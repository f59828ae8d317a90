"""The array kernels of counting, smoothing and scoring.

A prepared corpus is counted as `ids`, its lines' ids back to back, and
`ends`, each line's end offset in `ids`. Each m-gram that starts at some
offset of `ids` (an m-window) has a code: the rank of its ids among all
distinct m-windows, so equal grams share a code. `windows[m-1][i]` is the
code of the m-window at offset i, for m below the counted order; codes of
order 1 are the ids themselves. An order's grams (`Grams`) are the offset
of one occurrence of each and their counts, in the order in which they
are first met: the order the model file lists them in.

Probabilities and weights are computed elementwise in float64, with the
operations and operand order of the formulas in each docstring, and log10
is taken value by value with `math.log10`, so every float is the one
those formulas give in Python floats.

Callers reach the kernels as ``_kernels.<name>``, so a profiler can rebind
any one of them from outside the package. This module imports numpy, so
the package imports it on first use only (see `_trie`).
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import log10
from operator import add

from ._trie import check_key_space, np

_CHUNK = 4096  # values turned into Python floats at a time


class Grams:
    """One order's grams: `offsets` of an occurrence of each in the corpus
    ids, and their `counts`."""

    __slots__ = ("offsets", "counts")

    def __init__(self, offsets: np.ndarray, counts: np.ndarray) -> None:
        self.offsets = offsets
        self.counts = counts

    def __len__(self) -> int:
        return len(self.counts)

    def __add__(self, other: "Grams") -> "Grams":
        return Grams(np.concatenate((self.offsets, other.offsets)),
                     np.concatenate((self.counts, other.counts)))


def _first_met(codes: np.ndarray, offsets=None) -> Grams:
    """The distinct values of `codes` as Grams, in order of first
    occurrence: the offset of each one's first occurrence (its index, or
    `offsets` at that index), and how often it occurs. A code of -1 marks
    no gram."""
    # With return_index, np.unique sorts stably: its index is the first.
    values, first, counts = np.unique(codes, return_index=True, return_counts=True)
    if len(values) and values[0] < 0:
        first, counts = first[1:], counts[1:]
    met = np.argsort(first)
    first = first[met]
    return Grams(first if offsets is None else offsets[first], counts[met])


def accumulate_counts(ids, ends, order: int, bounded: bool, size: int) -> tuple[list, list]:
    """Count the raw n-grams of a corpus of `size` distinct ids.

    Returns (windows, raw): the window codes of orders 1..order-1 (order 1
    alone when order is 1), and per order the Grams counted raw. Those are
    the top-order windows that lie within one line; with boundaries,
    also the <s>-anchored line prefixes at orders 2..order-1 (nothing ever
    precedes <s>, so their adjusted counts cannot be derived later), and
    at order 1 no <s> pad, which is never a unigram event.
    """
    ids = np.frombuffer(ids, np.int64)
    ends = np.frombuffer(ends, np.int64)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    n = len(ids)
    windows = [ids]
    # An m-window's code packs the code of its (m-1)-prefix and its last id.
    for m in range(2, order + 1):
        prefixes = windows[-1]
        check_key_space(int(prefixes.max()) + 1 if len(prefixes) else 0, size, m)
        keys = prefixes[: max(n - m + 1, 0)] * size + ids[m - 1 :]
        if m < order:
            windows.append(np.unique(keys, return_inverse=True)[1])
    if order == 1:
        keys = ids.copy()
        if bounded:
            keys[starts] = -1
    else:
        # +1 where a line long enough for a window starts, -1 past its last window.
        edges = np.zeros(n + 1, np.int8)
        fits = ends - starts >= order
        edges[starts[fits]] = 1
        edges[ends[fits] - order + 1] -= 1
        keys[np.cumsum(edges[: len(keys)], dtype=np.int8) == 0] = -1
    raw = [Grams(np.zeros(0, np.int64), np.zeros(0, np.int64)) for _ in range(order)]
    raw[order - 1] = _first_met(keys)
    if bounded:
        lengths = ends - starts
        for k in range(2, order):
            anchored = starts[lengths >= k]
            raw[k - 1] = _first_met(windows[k - 1][anchored], anchored)
    return windows, raw


def tally_suffixes(higher: Grams, codes: np.ndarray) -> Grams:
    """The grams one order below `higher`'s that end one of them, each
    counted by how many distinct grams of `higher` it ends, in order of
    first appearance; `codes` are the window codes of their order."""
    suffixes = higher.offsets + 1
    return _first_met(codes[suffixes], suffixes)


def context_stats(contexts: np.ndarray, counts: np.ndarray, span: int, d1: float,
                  d2: float, d3p: float) -> tuple[np.ndarray, np.ndarray]:
    """Per context code 0..span-1 of one order's grams, which have
    `contexts` and `counts`: the total count of its continuations, and
    the weight of the next lower order, gamma = (d1*n1 + d2*n2 +
    d3p*n3plus) / total over its count-1, count-2 and count>=3
    continuations, or 1.0 where it has none."""
    totals = np.zeros(span, np.int64)
    np.add.at(totals, contexts, counts)
    n1 = np.bincount(contexts[counts == 1], minlength=span)
    n2 = np.bincount(contexts[counts == 2], minlength=span)
    n3p = np.bincount(contexts[counts >= 3], minlength=span)
    gammas = np.ones(span)
    seen = np.flatnonzero(totals)
    gammas[seen] = (d1 * n1[seen] + d2 * n2[seen] + d3p * n3p[seen]) / totals[seen]
    return totals, gammas


def interpolate_grams(counts: np.ndarray, contexts: np.ndarray, suffixes: np.ndarray,
                      totals: np.ndarray, gammas: np.ndarray, lower: np.ndarray, d1: float,
                      d2: float, d3p: float) -> np.ndarray:
    """Each gram's interpolated probability, pseudo + gamma * lower.
    Its context's total and gamma are context_stats' `totals` and
    `gammas` at the context's code in `contexts`; lower is `lower` at its
    suffix's code in `suffixes`; pseudo = (c - d) / total if c > d else
    0.0, with d the discount of its count c. A gram of count 0, stored
    only as the context of a longer one, gets gamma * lower alone."""
    out = gammas[contexts]
    out *= lower[suffixes]
    pseudo = np.full(len(counts), d3p)
    pseudo[counts == 1] = d1
    pseudo[counts == 2] = d2
    above = counts > pseudo
    np.subtract(counts, pseudo, out=pseudo)
    np.divide(pseudo, totals[contexts], out=pseudo, where=above)
    # Where pseudo is 0.0, adding it would change no positive value.
    np.add(out, pseudo, out=out, where=above)
    return out


def backoff_weights(totals: np.ndarray, gammas: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The log10 back-off weight of each gram with context code in
    `codes`, from context_stats' `totals` and `gammas`, or 0.0 where it is
    no context; raises if a context has no held-out mass."""
    out = np.zeros(len(codes))
    seen = np.flatnonzero(totals[codes])
    weights = gammas[codes[seen]]
    if (weights <= 0.0).any():
        raise ValueError("zero back-off mass for a stored context")
    out[seen] = log10_values(weights)
    return out


def log10_values(values: np.ndarray) -> np.ndarray:
    """math.log10 of each value, in a new array."""
    # Python floats for a chunk of values at a time, not for all at once.
    chunks = (values[i:i + _CHUNK].tolist() for i in range(0, len(values), _CHUNK))
    return np.fromiter(map(log10, chain.from_iterable(chunks)), np.float64, len(values))


def score_sequence_ids(trie, id_seqs: list, start: int) -> list[float]:
    """Each id sequence's sum of per-event log10 probabilities of
    ids[start:] under longest-match back-off in the `_trie.Trie` `trie`;
    ids[:start] serve only as context. Ids must already be
    vocabulary-mapped (OOV replaced by the <unk> id).

    Every window's row is found with one searchsorted per order. The
    back-off walk runs from the top order down, adding each missed
    context's weight to the token's `acc`, and each sequence adds its
    `acc + p` left to right from 0.0."""
    lengths = np.fromiter(map(len, id_seqs), np.int64, len(id_seqs))
    ends = np.cumsum(lengths)
    ids = np.fromiter(chain.from_iterable(id_seqs), np.int64)
    n = len(ids)
    pos = np.arange(n) - np.repeat(ends - lengths, lengths)
    # rows[m-1]: the row of the m-gram ending at each position, or -1.
    rows = [ids]
    for m in range(2, trie.order + 1):
        queries = np.full(n, -1, np.int64)
        queries[1:] = rows[-1][:-1] * trie.size + ids[1:]
        queries[pos < m - 1] = -1
        rows.append(trie.find(m, queries))
    acc = np.zeros(n)
    p = np.zeros(n)
    todo = pos >= start
    for m in range(trie.order, 1, -1):
        reach = todo & (pos >= m - 1)
        row = rows[m - 1]
        hit = reach & (row >= 0)
        p[hit] = trie.probs[m - 1][row[hit]]
        todo &= ~hit
        missed = np.flatnonzero(reach & (row < 0))
        context = rows[m - 2][missed - 1]
        weighted = context >= 0
        # A context with no weight stored adds 0.0, which leaves acc (never -0.0) unchanged.
        acc[missed[weighted]] += trie.backoffs[m - 2][context[weighted]]
    p[todo] = trie.probs[0][ids[todo]]
    values = (acc + p).tolist()
    return [
        reduce(add, values[end - length + start:end], 0.0)
        for end, length in zip(ends.tolist(), lengths.tolist())
    ]
