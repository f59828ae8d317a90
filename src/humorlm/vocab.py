"""Token interning.

Gram tables key on tuples of small ints instead of strings; id 0 is
permanently reserved for <unk> so out-of-vocabulary mapping is a dict.get
with a constant default.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .textprep import UNK

UNK_ID = 0


class Vocabulary:
    __slots__ = ("_ids", "_tokens")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {UNK: UNK_ID}
        self._tokens: list[str] = [UNK]

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

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """The id of each token in order; KeyError if one is not interned."""
        return list(map(self._ids.__getitem__, tokens))

    def id_or_unk(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token(self, i: int) -> str:
        return self._tokens[i]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)
