"""Discount estimation and model building.

Three discounts per order, one for count-1 grams, one for count-2, one for
count>=3, derived from the count-of-counts at that order. Probabilities are
interpolated down to a uniform 1/|V| floor, then re-expressed as back-off
entries (stored probability plus per-context back-off weight) in log10.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .counts import CountTable, count_of_counts
from .errors import DiscountEstimationError, EmptyCorpusError
from .model import NGramModel
from .textprep import BOS

BOS_SENTINEL_LOG10 = -99.0


class Discounts(NamedTuple):
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


def _context_closure(grams: list, windows: list, order: int) -> None:
    """Add to `grams` the grams that must be stored only because they are
    contexts, with count 0.

    Each order k-1 gains the (k-1)-prefixes of order k's grams that it does
    not count, after its own grams in order of first appearance, computed
    top-down so an added gram's own context is also covered. Order 1 never
    needs extras: every token id is already a unigram.
    """
    from . import _kernels
    import numpy as np

    for k in range(order, 2, -1):
        codes = windows[k - 2]
        offsets = grams[k - 1].offsets
        prefixes = codes[offsets]
        first = np.unique(prefixes, return_index=True)[1]
        first.sort()
        counted = np.zeros(int(codes.max()) + 1, bool)
        counted[codes[grams[k - 2].offsets]] = True
        extras = offsets[first[~counted[prefixes[first]]]]
        grams[k - 2] += _kernels.Grams(extras, np.zeros(len(extras), np.int64))


def estimate_model(
    table: CountTable,
    fallback_discount: Optional[float] = None,
    direction: Optional[str] = None,
) -> NGramModel:
    """Build a back-off model from adjusted counts, consuming `table`.

    Unigram entries cover the whole vocabulary except <s>, which gets the
    conventional -99 log10 sentinel (it is context, never an event); they
    are stored in id order, <s> last. Each higher order stores its counted
    grams, then those stored only as contexts (_context_closure). Orders
    are estimated from the bottom up, in linear space, and each becomes
    its arrays in the model's trie once the next order has given its
    back-off weights. The table's counts cannot be read afterwards.
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
    from . import _kernels, _trie
    import numpy as np

    grams, windows = table.consume()
    _context_closure(grams, windows, order)
    ids = windows[0]
    size = len(vocab)

    # Unigrams: every vocab id gets a value, in id order. |V| excludes <s>
    # so the uniform floor spreads over real events only.
    uni = grams[0]
    d = discounts[0]
    contexts = np.zeros(size, np.int64)  # the empty one, of every unigram
    totals, gammas = _kernels.context_stats(
        contexts[:len(uni)], uni.counts, 1, d.d1, d.d2, d.d3plus
    )
    gamma1 = float(gammas[0])
    if gamma1 <= 0.0:
        raise DiscountEstimationError(
            "unigram discounts leave no mass for unseen events"
        )
    bos_id = vocab.id(BOS)
    vsize = size - (1 if bos_id is not None else 0)
    counts = np.zeros(size, np.int64)
    counts[ids[uni.offsets]] = uni.counts
    # The uniform floor, reached by a weight of 1.0 from the empty context.
    # Count 0 (a token seen only line-initially) takes d3plus > 0: pseudo 0.0.
    lower = _kernels.interpolate_grams(
        counts, contexts, contexts, totals, np.ones(1), np.array([gamma1 / vsize]),
        d.d1, d.d2, d.d3plus,
    )
    probs = _kernels.log10_values(lower)
    # An id is its own code and, in the trie, its row.
    codes = rows = keys = np.arange(size)
    file_order = keys
    if bos_id is not None:
        probs[bos_id] = BOS_SENTINEL_LOG10
        file_order = np.concatenate((np.delete(keys, bos_id), [bos_id]))

    trie = _trie.Trie(size)
    for k in range(2, order + 1):
        # Order k-1 is in `codes`, `keys` and `probs`; `lower` holds its
        # linear probabilities by code, `rows` the trie row of each code.
        # Each order's grams and codes are dropped once used.
        dk = discounts[k - 1]
        below, windows[k - 2] = windows[k - 2], None
        offsets, counts = grams[k - 1].offsets, grams[k - 1].counts
        grams[k - 1] = None
        contexts = below[offsets]
        totals, gammas = _kernels.context_stats(
            contexts, counts, len(lower), dk.d1, dk.d2, dk.d3plus
        )
        try:
            backoffs = _kernels.backoff_weights(totals, gammas, codes)
        except ValueError as e:
            raise DiscountEstimationError(f"order {k}: {e}") from None
        if k == 2:
            trie.append(file_order, probs[file_order], backoffs[file_order])
        else:
            rows = np.zeros(len(lower), np.int64)
            rows[codes] = trie.append(keys, probs, backoffs)
        del keys, probs, backoffs
        values = _kernels.interpolate_grams(
            counts, contexts, below[offsets + 1], totals, gammas, lower, dk.d1, dk.d2, dk.d3plus
        )
        del counts, totals, gammas, lower
        _trie.check_key_space(trie.count(k - 1), size, k)
        keys = rows[contexts]
        keys *= size
        keys += ids[offsets + (k - 1)]
        del contexts, rows
        if k < order:
            codes = windows[k - 1][offsets]
            lower = np.zeros(int(windows[k - 1].max()) + 1)
            lower[codes] = values
        probs = _kernels.log10_values(values)
        del values, offsets
    if order == 1:
        keys, probs = file_order, probs[file_order]
    trie.append(keys, probs, None)
    return NGramModel(vocab, trie, table.config, direction, discounts)
