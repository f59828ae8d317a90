"""Tweet and news-line pre-processing: tokenization and filtering."""

from __future__ import annotations

import re
import string
from typing import NamedTuple, Sequence

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# --split-punct's pieces of a line: each ASCII punctuation character alone,
# and runs of anything else but whitespace. A "#" or "@" that starts a
# whitespace-separated token stays glued to the run after it, so tag
# filtering still sees "#hashtag" / "@user" as one token. In a str pattern
# \s matches what str.split() splits on: the characters for which
# str.isspace() is true.
_PUNCT_PIECES = re.compile(
    r"(?<!\S)[#@][^{0}\s]*|[{0}]|[^{0}\s]+".format(re.escape(string.punctuation))
)
# ASCII-only case folding; non-ASCII letters pass through untouched.
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_URL_PREFIXES = ("http://", "https://", "www.")
# The first characters of a token that can lower() to a URL prefix: no other
# character lowercases to a string starting with "h" or "w".
_URL_HEADS = ("h", "H", "w", "W")
_TAG_PREFIXES = ("#", "@")


class PrepConfig(NamedTuple):
    """Pre-processing and training switches; any combination is legal. A
    named tuple, as the package's other records are: it compares equal to
    the plain tuple of its fields.

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
FLAG_NAMES = PrepConfig._fields


def flag_values(config: PrepConfig) -> dict[str, str]:
    """Each switch of `config` by name, in FLAG_NAMES order, as "true" or
    "false": how the ARPA metadata, import-check and the grid report
    write it."""
    return {name: "true" if getattr(config, name) else "false" for name in FLAG_NAMES}


def tokenize(line: str, config: PrepConfig) -> list[str]:
    """Split one line into tokens according to the configuration.

    Splits on Unicode whitespace; optionally breaks out ASCII punctuation
    and applies ASCII lowercasing. An empty line yields an empty list.
    Lowercasing and splitting each take one call over the whole line:
    folding ASCII letters moves no token boundary.
    """
    if config.lowercase:
        line = line.translate(_ASCII_LOWER)
    if config.split_punct:
        return _PUNCT_PIECES.findall(line)
    return line.split()


def filter_tokens(tokens: Sequence[str], config: PrepConfig) -> list[str]:
    """Drop URL and tag tokens per the configuration, preserving order, in
    one pass; with neither filter on, `tokens` as a list (itself, if it is
    one).

    Idempotent: filtering an already-filtered sequence is a no-op.
    """
    tags = config.filter_tags
    if not config.filter_urls:
        if tags:
            return [t for t in tokens if not t.startswith(_TAG_PREFIXES)]
        return tokens if isinstance(tokens, list) else list(tokens)
    # Only a token with one of these heads is looked at further.
    heads = _TAG_PREFIXES + _URL_HEADS if tags else _URL_HEADS
    return [
        t for t in tokens
        if not t.startswith(heads)
        or not (tags and t.startswith(_TAG_PREFIXES) or t.lower().startswith(_URL_PREFIXES))
    ]
