"""N-gram counting.

Raw counts are collected per line at the top order (plus the <s>-anchored
prefixes, which have no predecessor to tally). Lower orders are then
derived as adjusted counts: the count of a gram is the number of distinct
single-token extensions to its left observed one order up, except that
<s>-initial grams keep their raw counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from . import _kernels
from .errors import EmptyCorpusError, InvalidOrderError
from .textprep import BOS, EOS, PrepConfig, filter_tokens, tokenize
from .vocab import Vocabulary

# Highest order accepted: every order gets its own table up front.
MAX_ORDER = 10


@dataclass(frozen=True)
class CountOfCounts:
    """How many gram types occur exactly 1, 2, 3, and 4 times at one order."""

    n1: int
    n2: int
    n3: int
    n4: int


class CountTable:
    """Adjusted counts for orders 1..order, sharing one vocabulary.

    Tables are keyed by tuples of token ids; treat instances as frozen once
    returned by the accumulator.
    """

    __slots__ = (
        "order",
        "config",
        "vocab",
        "_tables",
        "token_count",
        "line_count",
    )

    def __init__(
        self,
        order: int,
        config: PrepConfig,
        vocab: Vocabulary,
        tables: list[dict],
        token_count: int,
        line_count: int,
    ) -> None:
        self.order = order
        self.config = config
        self.vocab = vocab
        self._tables = tables
        self.token_count = token_count
        self.line_count = line_count

    def _check_order(self, k: int) -> None:
        if not 1 <= k <= self.order:
            raise InvalidOrderError(f"order {k} outside 1..{self.order}")

    def table(self, k: int) -> dict:
        """The id-keyed count dict for order k. Do not mutate."""
        self._check_order(k)
        return self._tables[k - 1]

    def size(self, k: int) -> int:
        self._check_order(k)
        return len(self._tables[k - 1])


class CountAccumulator:
    """Streaming counter over the lines of one corpus."""

    def __init__(self, order: int, config: PrepConfig) -> None:
        if order < 1:
            raise InvalidOrderError(f"order must be >= 1, got {order}")
        if order > MAX_ORDER:
            raise InvalidOrderError(f"order must be <= {MAX_ORDER}, got {order}")
        self.order = order
        self.config = config
        self.vocab = Vocabulary()
        self._raw: list[dict] = [{} for _ in range(order)]
        self._finished = False
        self.token_count = 0
        self.line_count = 0
        if config.boundaries:
            self._bos = self.vocab.add(BOS)
            self._eos = self.vocab.add(EOS)

    def add_line(self, line: str) -> None:
        """Tokenize, filter, pad, and count one line; no-op if nothing survives."""
        if self._finished:
            raise RuntimeError("accumulator already finished")
        toks = filter_tokens(tokenize(line, self.config), self.config)
        if not toks:
            return
        add = self.vocab.add
        ids = [add(t) for t in toks]
        self.token_count += len(ids)
        self.line_count += 1
        bounded = self.config.boundaries
        if bounded:
            ids = [self._bos, *ids, self._eos]
        _kernels.accumulate_counts(self._raw, ids, self.order, bounded)

    def finish(self) -> CountTable:
        """Derive adjusted counts for all lower orders and freeze the result."""
        if self._finished:
            raise RuntimeError("accumulator already finished")
        self._finished = True
        tables: list[dict] = [None] * self.order  # type: ignore[list-item]
        tables[self.order - 1] = self._raw[self.order - 1]
        for k in range(self.order - 1, 0, -1):
            adj = _kernels.tally_suffixes(tables[k])
            # Key sets are disjoint: raw entries here all start with <s>,
            # tallied suffixes never do.
            adj.update(self._raw[k - 1])
            tables[k - 1] = adj
        if not tables[0]:
            raise EmptyCorpusError("no n-grams extracted from corpus")
        return CountTable(
            self.order,
            self.config,
            self.vocab,
            tables,
            self.token_count,
            self.line_count,
        )


def count_corpus(lines: Iterable[str], order: int, config: PrepConfig) -> CountTable:
    acc = CountAccumulator(order, config)
    for line in lines:
        acc.add_line(line)
    return acc.finish()


def count_of_counts(table: CountTable, k: int) -> CountOfCounts:
    """Tally of gram types at order k occurring exactly 1..4 times."""
    tally = Counter(table.table(k).values())
    return CountOfCounts(tally[1], tally[2], tally[3], tally[4])
