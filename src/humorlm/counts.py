"""N-gram counting.

A corpus is first prepared: tokenized, filtered and interned once
(prepare_corpus). Counting it at some order (count_corpus) collects raw
counts per line at the top order (plus the <s>-anchored prefixes, which
have no predecessor to tally). Lower orders are then derived as adjusted
counts: the count of a gram is the number of distinct single-token
extensions to its left observed one order up, except that <s>-initial
grams keep their raw counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Optional

from . import _kernels
from .errors import EmptyCorpusError, InvalidOrderError
from .textprep import BOS, EOS, UNK, PrepConfig, filter_tokens, tokenize
from .vocab import Vocabulary

# Highest order accepted: every order gets its own table up front.
MAX_ORDER = 10


class CountOfCounts(NamedTuple):
    """How many gram types occur exactly 1, 2, 3, and 4 times at one order."""

    n1: int
    n2: int
    n3: int
    n4: int


class CountTable:
    """Adjusted counts for orders 1..order, sharing one vocabulary.

    Tables are keyed by tuples of token ids; treat instances as frozen once
    returned by the accumulator. estimate_model consumes a table: it turns
    the count dicts into the model's own, after which the tables can no
    longer be read (`token_count` and `line_count` still can).
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
        self._tables: Optional[list[dict]] = tables
        self.token_count = token_count
        self.line_count = line_count

    def _check_order(self, k: int) -> list[dict]:
        if self._tables is None:
            raise RuntimeError("count table already consumed by estimate_model")
        if not 1 <= k <= self.order:
            raise InvalidOrderError(f"order {k} outside 1..{self.order}")
        return self._tables

    def table(self, k: int) -> dict:
        """The id-keyed count dict for order k. Do not mutate."""
        return self._check_order(k)[k - 1]

    def size(self, k: int) -> int:
        return len(self._check_order(k)[k - 1])

    def consume(self) -> list[dict]:
        """Hand over the count dicts, orders 1..order, for the caller to
        rewrite in place; the table refuses every later read of them."""
        tables = self._check_order(1)
        self._tables = None
        return tables


class PreparedCorpus(NamedTuple):
    """A corpus tokenized, filtered and interned once (prepare_corpus), to
    be counted at any order (count_corpus). `lines` holds each line that
    kept a token, as ids of `vocab`, padded with the <s> and </s> ids
    under boundaries; `token_count` and `line_count` leave the padding out."""

    config: PrepConfig
    vocab: Vocabulary
    lines: list[list[int]]
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
    id_lines = []
    tokens = 0
    for line in lines:
        toks = filter_tokens(tokenize(line, config), config)
        if not toks:
            continue
        # Both reserved tokens hold ">", which few lines do.
        if ">" in line and (BOS in toks or EOS in toks):
            toks = [UNK if t == BOS or t == EOS else t for t in toks]
        ids = [add(t) for t in toks]
        tokens += len(ids)
        id_lines.append([bos, *ids, eos] if bounded else ids)
    return PreparedCorpus(config, vocab, id_lines, tokens, len(id_lines))


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
        corpus, order = self.corpus, self.order
        bounded = corpus.config.boundaries
        raw: list[dict] = [{} for _ in range(order)]
        for ids in corpus.lines:
            _kernels.accumulate_counts(raw, ids, order, bounded)
        tables: list[dict] = [None] * order  # type: ignore[list-item]
        tables[order - 1] = raw[order - 1]
        for k in range(order - 1, 0, -1):
            adj = _kernels.tally_suffixes(tables[k])
            # Key sets are disjoint: raw entries here all start with <s>,
            # tallied suffixes never do.
            adj.update(raw[k - 1])
            tables[k - 1] = adj
        if not tables[0]:
            raise EmptyCorpusError("no n-grams extracted from corpus")
        return CountTable(
            order, corpus.config, corpus.vocab, tables, corpus.token_count, corpus.line_count
        )


def count_corpus(corpus: PreparedCorpus, order: int) -> CountTable:
    """The adjusted counts of a prepared corpus at orders 1..order. The
    table shares the corpus's vocabulary; the corpus is left as it was."""
    return CountAccumulator(order, corpus).finish()


def count_of_counts(table: CountTable, k: int) -> CountOfCounts:
    """Tally of gram types at order k occurring exactly 1..4 times."""
    tally = Counter(table.table(k).values())
    return CountOfCounts(tally[1], tally[2], tally[3], tally[4])
