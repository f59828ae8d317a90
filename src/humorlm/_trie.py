"""The sorted-array trie that every model scores through, after KenLM's
TRIE layout (Heafield 2011, "KenLM: Faster and Smaller Language Model
Queries").

Each order k keeps one sorted int64 key per stored k-gram. An order-1 key
is the token id; a k-gram's key is (row of its (k-1)-prefix) * |V| + (id
of its last token), where a row is a position in the sorted keys of its
order. Aligned float64 arrays hold each gram's log10 probability and, below
the top order, its log10 back-off weight (0.0 where none is stored). A
per-order array of rows in ARPA file order lets the file be written back
byte for byte.

Models read from a file fill it order by order (`add_order`); estimation
(`smoothing.estimate_model`) appends the arrays it computes. Commands that
never count, estimate or read a model never import numpy, so the package
imports this module on first use.
"""

from __future__ import annotations

import os
from typing import Optional

# The package calls no BLAS routine, and OpenBLAS would otherwise start a
# thread per CPU when numpy is imported: grid forks its workers after this
# import, and rank and compare after reading the model, and each forks
# only while one thread runs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import ArpaParseError

# Keys must stay below this: N(k-1) * |V| of every order k.
_KEY_LIMIT = 2**63


def check_key_space(prefixes: int, vocab_size: int, k: int) -> None:
    """Raise ArpaParseError if k-gram keys over `prefixes` (k-1)-grams and
    `vocab_size` tokens would not fit in int64."""
    if prefixes * vocab_size >= _KEY_LIMIT:
        raise ArpaParseError(
            f"{k}-gram keys do not fit in 64 bits: "
            f"{prefixes} {k - 1}-grams times {vocab_size} tokens"
        )


def first_repeat(ids, k: int) -> int:
    """The index of the first k-gram in the flat int64 buffer `ids` that
    repeats an earlier one, or -1 if none does."""
    grams = np.frombuffer(ids, np.int64).reshape(-1, k)
    # Sorted by the ids and then by index, a repeat follows its first occurrence.
    order = np.lexsort((np.arange(len(grams)), *grams.T[::-1]))
    grams = grams[order]
    repeats = order[1:][(grams[1:] == grams[:-1]).all(axis=1)]
    return int(repeats.min()) if len(repeats) else -1


class Trie:
    """Per-order sorted keys, log10 probs, back-offs and file-order rows
    over a vocabulary of `size` ids."""

    __slots__ = ("size", "keys", "probs", "backoffs", "file_rows")

    def __init__(self, size: int) -> None:
        self.size = size
        self.keys: list[np.ndarray] = []
        self.probs: list[np.ndarray] = []
        self.backoffs: list[np.ndarray] = []
        self.file_rows: list[np.ndarray] = []

    @property
    def order(self) -> int:
        return len(self.keys)

    def count(self, k: int) -> int:
        return len(self.keys[k - 1])

    def find(self, k: int, queries: np.ndarray) -> np.ndarray:
        """The row of each query key in order k, or -1 where it is not stored."""
        keys = self.keys[k - 1]
        if not len(keys):
            return np.full(len(queries), -1, np.int64)
        at = np.searchsorted(keys, queries)
        hit = keys[np.minimum(at, len(keys) - 1)] == queries
        return np.where(hit, at, -1)

    def _rows(self, ids: np.ndarray) -> np.ndarray:
        """The row of each gram (one per line of the id matrix `ids`) in
        the order of its length, or -1 where it or a prefix is not stored."""
        rows = self.find(1, ids[:, 0])
        for k in range(2, ids.shape[1] + 1):
            # A missing prefix (-1) gives a negative key, which is never stored.
            rows = self.find(k, rows * self.size + ids[:, k - 1])
        return rows

    def add_order(self, ids, probs, backoffs) -> Optional[tuple[int, ...]]:
        """Append the next order k from the flat int64 buffer `ids` of its
        grams in file order, the float64 buffer of their log10 probs and
        that of their back-offs (0.0 for none; None at the top order). If a
        gram's (k-1)-prefix or suffix is not stored, add nothing and return
        the first such prefix or suffix, taking grams in file order and a
        prefix before its suffix."""
        k = self.order + 1
        ids = np.frombuffer(ids, np.int64).reshape(-1, k)
        if k == 1:
            packed = ids[:, 0]
        else:
            check_key_space(self.count(k - 1), self.size, k)
            prefix, suffix = self._rows(ids[:, :-1]), self._rows(ids[:, 1:])
            missing = (prefix < 0) | (suffix < 0)
            if missing.any():
                j = int(np.argmax(missing))
                gram = ids[j, :-1] if prefix[j] < 0 else ids[j, 1:]
                return tuple(gram.tolist())
            packed = prefix * self.size + ids[:, -1]
        self.append(packed, np.frombuffer(probs),
                    None if backoffs is None else np.frombuffer(backoffs))
        return None

    def append(self, keys: np.ndarray, probs: np.ndarray, backoffs: Optional[np.ndarray]) -> np.ndarray:
        """Append the next order from the keys, log10 probs and back-offs
        (None at the top order) of its grams in file order; return its
        file-order rows: the sorted row of each gram."""
        order = np.argsort(keys)
        file_rows = np.empty(len(keys), np.int64)
        file_rows[order] = np.arange(len(keys))
        self.keys.append(keys[order])
        self.probs.append(probs[order])
        if backoffs is not None:
            self.backoffs.append(backoffs[order])
        self.file_rows.append(file_rows)
        return file_rows

    def storage(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Order k's grams in file order, as arrays: the file position of
        each one's (k-1)-prefix in order k-1 (0 at order 1), its last id,
        its log10 prob and, below the top order, its back-off (0.0 for
        none)."""
        rows = self.file_rows[k - 1]
        keys = self.keys[k - 1][rows]
        if k == 1:
            prefixes, last = np.zeros(len(keys), np.int64), keys
        else:
            last = keys % self.size
            keys //= self.size
            below = self.file_rows[k - 2]
            position = np.empty(len(below), np.int64)
            position[below] = np.arange(len(below))
            prefixes = position[keys]
        backoffs = self.backoffs[k - 1][rows] if k < self.order else None
        return prefixes, last, self.probs[k - 1][rows], backoffs

    def arrays(self) -> list[np.ndarray]:
        """Per order: keys, log10 probs, back-offs below the top order, and
        file-order rows."""
        out = []
        for k in range(1, self.order + 1):
            out += [self.keys[k - 1], self.probs[k - 1]]
            if k < self.order:
                out.append(self.backoffs[k - 1])
            out.append(self.file_rows[k - 1])
        return out

    @classmethod
    def from_arrays(cls, size: int, counts: list[int], data, offset: int) -> "Trie":
        """The trie whose `arrays()` were written back to back into the
        buffer `data` from `offset` to its end, with `counts` grams per
        order; ValueError unless the sizes match, keys ascend strictly
        within their range, floats are finite, file rows are a permutation
        and the unigrams are exactly the ids 0..size-1."""
        order = len(counts)
        trie = cls(size)
        for k, n in enumerate(counts, start=1):
            columns = []
            for dtype in (np.int64, np.float64, *[np.float64] * (k < order), np.int64):
                columns.append(np.frombuffer(data, dtype, n, offset))
                offset += 8 * n
            keys, probs, *backoffs, file_rows = columns
            if k == 1:
                ok = n == size and bool((keys == np.arange(size)).all())
            else:
                check_key_space(counts[k - 2], size, k)
                ok = n == 0 or bool(
                    keys[0] >= 0
                    and keys[-1] < counts[k - 2] * size
                    and (keys[1:] > keys[:-1]).all()
                )
            if not ok:
                raise ValueError(f"sidecar {k}-gram keys are out of order or range")
            if not all(np.isfinite(a).all() for a in (probs, *backoffs)):
                raise ValueError(f"sidecar {k}-gram floats are not finite")
            if n and (file_rows.min() < 0 or file_rows.max() >= n):
                raise ValueError(f"sidecar {k}-gram file rows are out of range")
            seen = np.zeros(n, bool)
            seen[file_rows] = True
            if not seen.all():
                raise ValueError(f"sidecar {k}-gram file rows are not a permutation")
            trie.keys.append(keys)
            trie.probs.append(probs)
            trie.backoffs.extend(backoffs)
            trie.file_rows.append(file_rows)
        if offset != len(data):
            raise ValueError("sidecar holds more than its arrays")
        return trie

    def score(self, id_seqs: list[list[int]], start: int) -> list[float]:
        """Each id sequence's sum of log10 probabilities of ids[start:]
        (`_kernels.score_sequence_ids`)."""
        from . import _kernels

        return _kernels.score_sequence_ids(self, id_seqs, start)
