"""Tweet and news-line pre-processing: tokenization and filtering."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, fields
from typing import Sequence

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# --split-punct's pieces of a token: each ASCII punctuation character alone,
# and runs of anything else. A leading "#" or "@" stays glued to the run after
# it, so tag filtering still sees "#hashtag" / "@user" as one token.
_PUNCT_PIECES = re.compile("^[#@][^{0}]*|[{0}]|[^{0}]+".format(re.escape(string.punctuation)))
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


def flag_values(config: PrepConfig) -> dict[str, str]:
    """Each switch of `config` by name, in FLAG_NAMES order, as "true" or
    "false": how the ARPA metadata, import-check and the grid report
    write it."""
    return {name: "true" if getattr(config, name) else "false" for name in FLAG_NAMES}


def tokenize(line: str, config: PrepConfig) -> list[str]:
    """Split one line into tokens according to the configuration.

    Splits on Unicode whitespace; optionally breaks out ASCII punctuation
    and applies ASCII lowercasing. An empty line yields an empty list.
    """
    tokens = line.split()
    if config.split_punct:
        tokens = [piece for tok in tokens for piece in _PUNCT_PIECES.findall(tok)]
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

