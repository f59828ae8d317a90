"""Token interning.

Gram tables key on tuples of small ints instead of strings; id 0 is
permanently reserved for <unk> so out-of-vocabulary mapping is a dict.get
with a constant default.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Optional

from .textprep import BOS, EOS, UNK

UNK_ID = 0


class Vocabulary:
    __slots__ = ("_ids", "_tokens")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {UNK: UNK_ID}
        self._tokens: list[str] = [UNK]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """A vocabulary whose ids follow the order of `tokens`, which must
        start with <unk> and hold no token twice."""
        vocab = cls.__new__(cls)
        vocab._tokens = list(tokens)
        vocab._ids = dict(zip(vocab._tokens, range(len(vocab._tokens))))
        if vocab._tokens[:1] != [UNK] or len(vocab._ids) != len(vocab._tokens):
            raise ValueError("tokens must start with <unk> and hold no token twice")
        return vocab

    def add(self, token: str) -> int:
        """Intern `token`, returning its id (existing or newly assigned)."""
        i = self._ids.get(token)
        if i is None:
            i = len(self._tokens)
            self._ids[token] = i
            self._tokens.append(token)
        return i

    def id(self, token: str) -> Optional[int]:
        return self._ids.get(token)

    def id_or_unk(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def ids_or_unk(self, tokens: Iterable[str]) -> list[int]:
        return list(map(self._ids.get, tokens, repeat(UNK_ID)))

    def sequence_ids(self, tokens: Iterable[str], boundaries: bool) -> list[int]:
        """`tokens` as a sequence to score: ids_or_unk, where a <s> or </s>
        reads as <unk>, as a literal <unk> does (those two name the padding),
        between the ids of <s> and </s> under `boundaries` (<unk>'s where
        either is missing)."""
        ids = self.ids_or_unk(tokens)
        bos, eos = self.id_or_unk(BOS), self.id_or_unk(EOS)
        # Where neither is in the vocabulary, both already read as <unk>.
        if (bos or eos) and (bos in ids or eos in ids):
            ids = [UNK_ID if i == bos or i == eos else i for i in ids]
        return [bos, *ids, eos] if boundaries else ids

    def token(self, i: int) -> str:
        return self._tokens[i]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)
