"""Discount estimation and model building.

Three discounts per order, one for count-1 grams, one for count-2, one for
count>=3, derived from the count-of-counts at that order. Probabilities are
interpolated down to a uniform 1/|V| floor, then re-expressed as back-off
entries (stored probability plus per-context back-off weight) in log10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .counts import CountTable, count_of_counts
from .errors import DiscountEstimationError, EmptyCorpusError
from .model import NGramModel
from .textprep import BOS

BOS_SENTINEL_LOG10 = -99.0


@dataclass(frozen=True)
class Discounts:
    """Absolute discounts for count-1, count-2, and count>=3 grams."""

    d1: float
    d2: float
    d3plus: float


def validate_fallback(fallback_discount: Optional[float]) -> None:
    """Raise ValueError unless the fallback discount is None or in (0, 1]."""
    if fallback_discount is not None and not 0.0 < fallback_discount <= 1.0:
        raise ValueError(
            f"fallback_discount must be in (0, 1], got {fallback_discount}"
        )


def estimate_discounts(
    coc, fallback_discount: Optional[float] = None
) -> Discounts:
    """Closed-form discounts from a CountOfCounts.

    Degenerate statistics (an empty bucket, or a discount landing outside
    (0, k]) make the closed form unusable; in that case all three
    discounts become `fallback_discount` if given, otherwise this raises.
    A discount of exactly 0 counts as degenerate: a context whose
    continuations all share that count bucket would be left with no
    held-out mass, hence no back-off weight.
    """
    validate_fallback(fallback_discount)

    def fall_back(reason: str) -> Discounts:
        if fallback_discount is not None:
            f = fallback_discount
            return Discounts(f, f, f)
        raise DiscountEstimationError(reason)

    n1, n2, n3, n4 = coc.n1, coc.n2, coc.n3, coc.n4
    if n1 == 0 or n2 == 0 or n3 == 0:
        return fall_back(
            f"count-of-counts too sparse for closed-form discounts "
            f"(n1={n1}, n2={n2}, n3={n3})"
        )
    y = n1 / (n1 + 2 * n2)
    d1 = 1 - 2 * y * n2 / n1
    d2 = 2 - 3 * y * n3 / n2
    d3plus = 3 - 4 * y * n4 / n3
    if not (0 < d1 <= 1 and 0 < d2 <= 2 and 0 < d3plus <= 3):
        return fall_back(
            f"closed-form discounts out of range "
            f"(d1={d1}, d2={d2}, d3plus={d3plus})"
        )
    return Discounts(d1, d2, d3plus)


def _context_closure(counts: list[dict], order: int) -> list[list]:
    """Grams that must be stored only because they are contexts.

    Returns per-order lists (index k-1 for order k) of zero-count grams to
    add, computed top-down so an added gram's own context is also covered.
    Order 1 never needs extras: every token id is already a unigram.
    """
    extras: list[list] = [[] for _ in range(order)]
    for k in range(order, 2, -1):
        tab = counts[k - 1]
        below = counts[k - 2]
        needed = dict.fromkeys(g[:-1] for g in tab)
        for g in extras[k - 1]:
            needed.setdefault(g[:-1])
        extras[k - 2] = [c for c in needed if c not in below]
    return extras


def estimate_model(
    table: CountTable,
    fallback_discount: Optional[float] = None,
    direction: Optional[str] = None,
) -> NGramModel:
    """Build a back-off model from adjusted counts.

    Unigram entries cover the whole vocabulary except <s>, which gets the
    conventional -99 log10 sentinel (it is context, never an event).
    `direction` is stored on the model, and written with it as metadata.
    """
    order = table.order
    vocab = table.vocab
    if table.size(1) == 0:
        raise EmptyCorpusError("cannot estimate a model from empty counts")
    discounts = [
        estimate_discounts(count_of_counts(table, k), fallback_discount)
        for k in range(1, order + 1)
    ]
    counts = [table.table(k) for k in range(1, order + 1)]
    extras = _context_closure(counts, order)

    # Unigrams: every vocab id except <s> gets an entry. |V| likewise
    # excludes <s> so the uniform floor spreads over real events only.
    uni_counts = counts[0]
    d = discounts[0]
    mass, n1, n2, n3p = _kernels.context_stats(uni_counts)[()]
    gamma1 = (d.d1 * n1 + d.d2 * n2 + d.d3plus * n3p) / mass
    if gamma1 <= 0.0:
        raise DiscountEstimationError(
            "unigram discounts leave no mass for unseen events"
        )
    bos_id = vocab.id(BOS)
    vsize = len(vocab) - (1 if bos_id is not None else 0)
    uniform = gamma1 / vsize
    uni: dict = {}
    for wid in range(len(vocab)):
        if wid == bos_id:
            continue
        key = (wid,)
        c = uni_counts.get(key, 0)
        if c == 0:
            uni[key] = uniform
        else:
            dd = d.d1 if c == 1 else d.d2 if c == 2 else d.d3plus
            pseudo = (c - dd) / mass if c > dd else 0.0
            uni[key] = pseudo + uniform

    probs: list[dict] = [uni]
    backoffs: list[dict] = []
    for k in range(2, order + 1):
        dk = discounts[k - 1]
        stats = _kernels.context_stats(counts[k - 1])
        try:
            bo = _kernels.backoff_weights(stats, dk.d1, dk.d2, dk.d3plus)
        except ValueError as e:
            raise DiscountEstimationError(f"order {k}: {e}") from None
        probs.append(
            _kernels.interpolate_grams(
                counts[k - 1],
                extras[k - 1],
                stats,
                dk.d1,
                dk.d2,
                dk.d3plus,
                probs[k - 2],
            )
        )
        backoffs.append(bo)
        del stats

    for tab in probs:
        _kernels.log10_values(tab)
    if bos_id is not None:
        probs[0][(bos_id,)] = BOS_SENTINEL_LOG10
    return NGramModel(
        order=order,
        vocab=vocab,
        probs=probs,
        backoffs=backoffs,
        config=table.config,
        direction=direction,
        discounts=discounts,
    )
