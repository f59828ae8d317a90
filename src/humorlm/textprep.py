"""Tweet and news-line pre-processing: tokenization, filtering, n-gram windows."""

from __future__ import annotations

import string
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import InvalidOrderError

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# The 32 ASCII punctuation characters.
_PUNCT = frozenset(string.punctuation)
# ASCII-only case folding; non-ASCII letters pass through untouched.
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_URL_PREFIXES = ("http://", "https://", "www.")


@dataclass(frozen=True)
class PrepConfig:
    """Pre-processing and training switches; any combination is legal.

    filter_tags  -- drop tokens starting with "#" or "@"
    filter_urls  -- drop URL tokens (http://, https://, www. prefixes)
    split_punct  -- split ASCII punctuation into standalone tokens
    lowercase    -- ASCII case folding after splitting
    boundaries   -- pad token sequences with <s> / </s>
    """

    filter_tags: bool = False
    filter_urls: bool = False
    split_punct: bool = False
    lowercase: bool = False
    boundaries: bool = False


# PrepConfig's switches in declaration order: the CLI flags, the ARPA
# metadata fields and the grid report columns all follow it.
FLAG_NAMES = tuple(f.name for f in fields(PrepConfig))


def _split_punct_token(token: str) -> list[str]:
    # A leading "#" or "@" stays glued to the run of plain characters after
    # it, so tag filtering still sees "#hashtag" / "@user" as one token.
    out = []
    i = 0
    n = len(token)
    if token[0] in "#@":
        j = 1
        while j < n and token[j] not in _PUNCT:
            j += 1
        out.append(token[:j])
        i = j
    while i < n:
        ch = token[i]
        if ch in _PUNCT:
            out.append(ch)
            i += 1
        else:
            j = i + 1
            while j < n and token[j] not in _PUNCT:
                j += 1
            out.append(token[i:j])
            i = j
    return out


def tokenize(line: str, config: PrepConfig) -> list[str]:
    """Split one line into tokens according to the configuration.

    Splits on Unicode whitespace; optionally breaks out ASCII punctuation
    and applies ASCII lowercasing. An empty line yields an empty list.
    """
    tokens = line.split()
    if config.split_punct:
        split = []
        for tok in tokens:
            split.extend(_split_punct_token(tok))
        tokens = split
    if config.lowercase:
        tokens = [tok.translate(_ASCII_LOWER) for tok in tokens]
    return tokens


def filter_tokens(tokens: Sequence[str], config: PrepConfig) -> list[str]:
    """Drop URL and tag tokens per the configuration, preserving order.

    Idempotent: filtering an already-filtered sequence is a no-op.
    """
    out = list(tokens)
    if config.filter_urls:
        out = [t for t in out if not t.lower().startswith(_URL_PREFIXES)]
    if config.filter_tags:
        out = [t for t in out if not t.startswith(("#", "@"))]
    return out


def extract_ngrams(
    tokens: Sequence[str], order: int, boundaries: bool
) -> list[tuple[str, ...]]:
    """Return all contiguous windows of `order` tokens.

    With boundaries the sequence is padded with one <s> before and one </s>
    after; windows consisting only of <s> are excluded (so the padding
    symbol itself is never a counted unigram event).
    """
    if order < 1:
        raise InvalidOrderError(f"n-gram order must be >= 1, got {order}")
    seq = [BOS, *tokens, EOS] if boundaries else list(tokens)
    grams = [tuple(seq[i : i + order]) for i in range(len(seq) - order + 1)]
    if boundaries:
        grams = [g for g in grams if any(t != BOS for t in g)]
    return grams
