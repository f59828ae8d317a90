"""N-gram counting.

A corpus is first prepared: tokenized, filtered and interned once
(prepare_corpus). Counting it at some order (count_corpus) collects raw
counts of the top-order windows in each line (plus the <s>-anchored
prefixes, which have no predecessor to tally). Lower orders are then
derived as adjusted counts: the count of a gram is the number of distinct
single-token extensions to its left observed one order up, except that
<s>-initial grams keep their raw counts. Counting runs on numpy arrays
(`_kernels`), imported on first use.
"""

from __future__ import annotations

from array import array
from typing import Iterable, NamedTuple, Optional

from .errors import EmptyCorpusError, InvalidOrderError
from .textprep import BOS, EOS, UNK, PrepConfig, filter_tokens, tokenize
from .vocab import Vocabulary

# Highest order accepted: each order adds a model file section, empty past the longest line.
MAX_ORDER = 10


class CountOfCounts(NamedTuple):
    """How many gram types occur exactly 1, 2, 3, and 4 times at one order."""

    n1: int
    n2: int
    n3: int
    n4: int


class CountTable:
    """Adjusted counts for orders 1..order, sharing one vocabulary.

    Each order's grams are a `_kernels.Grams`: an occurrence of each in
    the corpus and its count, in order of first appearance; `windows` are
    the corpus's window codes that they refer to (see `_kernels`). Treat
    instances as frozen once returned by the accumulator. estimate_model
    consumes a table, after which the counts can no longer be read
    (`token_count` and `line_count` still can).
    """

    __slots__ = (
        "order",
        "config",
        "vocab",
        "_tables",
        "_windows",
        "token_count",
        "line_count",
    )

    def __init__(
        self,
        order: int,
        config: PrepConfig,
        vocab: Vocabulary,
        tables: list,
        token_count: int,
        line_count: int,
        windows: Optional[list] = None,
    ) -> None:
        self.order = order
        self.config = config
        self.vocab = vocab
        self._tables: Optional[list] = tables
        self._windows = windows
        self.token_count = token_count
        self.line_count = line_count

    def _check_order(self, k: int) -> list:
        if self._tables is None:
            raise RuntimeError("count table already consumed by estimate_model")
        if not 1 <= k <= self.order:
            raise InvalidOrderError(f"order {k} outside 1..{self.order}")
        return self._tables

    def table(self, k: int) -> dict:
        """A new dict of order k's counts, keyed by id tuples, in order of
        first appearance."""
        grams = self._check_order(k)[k - 1]
        ids = self._windows[0].tolist()
        return {
            tuple(ids[i:i + k]): c
            for i, c in zip(grams.offsets.tolist(), grams.counts.tolist())
        }

    def size(self, k: int) -> int:
        return len(self._check_order(k)[k - 1])

    def consume(self) -> tuple[list, list]:
        """Hand over each order's grams, orders 1..order, and the window
        codes; the table refuses every later read of them."""
        tables, windows = self._check_order(1), self._windows
        self._tables = self._windows = None
        return tables, windows


class PreparedCorpus(NamedTuple):
    """A corpus tokenized, filtered and interned once (prepare_corpus), to
    be counted at any order (count_corpus). `ids` holds the lines that
    kept a token back to back, as ids of `vocab`, each padded with the <s>
    and </s> ids under boundaries, and `ends` each line's end offset in
    `ids`, both as int64 arrays; `token_count` and `line_count` leave the
    padding out."""

    config: PrepConfig
    vocab: Vocabulary
    ids: array
    ends: array
    token_count: int
    line_count: int


def prepare_corpus(lines: Iterable[str], config: PrepConfig) -> PreparedCorpus:
    """Tokenize, filter and intern each line once; lines that keep no token
    are dropped. A <s> or </s> token reads as <unk>, as a literal <unk>
    does: both are reserved for the padding under boundaries. The
    vocabulary starts with <unk>, then, under boundaries, <s> and </s>."""
    vocab = Vocabulary()
    bounded = config.boundaries
    if bounded:
        bos, eos = vocab.add(BOS), vocab.add(EOS)
    add = vocab.add
    ids, ends = array("q"), array("q")
    tokens = 0
    for line in lines:
        toks = filter_tokens(tokenize(line, config), config)
        if not toks:
            continue
        # Both reserved tokens hold ">", which few lines do.
        if ">" in line and (BOS in toks or EOS in toks):
            toks = [UNK if t == BOS or t == EOS else t for t in toks]
        tokens += len(toks)
        if bounded:
            ids.append(bos)
            ids.extend(map(add, toks))
            ids.append(eos)
        else:
            ids.extend(map(add, toks))
        ends.append(len(ids))
    return PreparedCorpus(config, vocab, ids, ends, tokens, len(ends))


class CountAccumulator:
    """The counter of one prepared corpus at one order: finish() counts
    every line and derives the adjusted counts. It stays a class beside
    count_corpus only because the benchmark's tracer (perfbench/traced.py)
    wraps `CountAccumulator.finish` and `count_corpus` by name; it can
    become a plain function once the tracer no longer does."""

    def __init__(self, order: int, corpus: PreparedCorpus) -> None:
        if order < 1:
            raise InvalidOrderError(f"order must be >= 1, got {order}")
        if order > MAX_ORDER:
            raise InvalidOrderError(f"order must be <= {MAX_ORDER}, got {order}")
        self.order = order
        self.corpus = corpus

    def finish(self) -> CountTable:
        """Count the corpus's lines, derive adjusted counts for all lower
        orders, and return the result."""
        from . import _kernels

        corpus, order = self.corpus, self.order
        windows, raw = _kernels.accumulate_counts(
            corpus.ids, corpus.ends, order, corpus.config.boundaries, len(corpus.vocab)
        )
        tables = raw
        for k in range(order - 1, 0, -1):
            # The grams are disjoint: raw ones here all start with <s>,
            # tallied suffixes never do.
            tables[k - 1] = _kernels.tally_suffixes(tables[k], windows[k - 1]) + raw[k - 1]
        if not tables[0]:
            raise EmptyCorpusError("no n-grams extracted from corpus")
        return CountTable(
            order, corpus.config, corpus.vocab, tables, corpus.token_count, corpus.line_count,
            windows,
        )


def count_corpus(corpus: PreparedCorpus, order: int) -> CountTable:
    """The adjusted counts of a prepared corpus at orders 1..order. The
    table shares the corpus's vocabulary; the corpus is left as it was."""
    return CountAccumulator(order, corpus).finish()


def count_of_counts(table: CountTable, k: int) -> CountOfCounts:
    """Tally of gram types at order k occurring exactly 1..4 times."""
    import numpy as np

    counts = table._check_order(k)[k - 1].counts
    return CountOfCounts(*np.bincount(counts[counts <= 4], minlength=5)[1:5].tolist())
