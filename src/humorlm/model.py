"""Back-off model representation, scoring, and ARPA-format I/O.

Stored entries are log10 probabilities. A gram's back-off weight applies
when that gram is the *context* of a one-order-higher query; contexts with
no stored weight implicitly back off with weight 1 (log10 0.0).
"""

from __future__ import annotations

import enum
import math
import re
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterator, Optional, Sequence, Union

from . import _kernels
from .errors import ArpaParseError
from .textprep import BOS, EOS, FLAG_NAMES, UNK, PrepConfig
from .vocab import UNK_ID, Vocabulary

_NGRAM_DECL = re.compile(r"ngram (\d+)=(\d+)$")
_SECTION = re.compile(r"\\(\d+)-grams:$")
_META_PREFIX = "# humorlm "

# Lines per bulk-parsed chunk of a grams section.
_CHUNK_LINES = 4096
_PREFIX = itemgetter(slice(None, -1))
_SUFFIX = itemgetter(slice(1, None))


class Direction(enum.Enum):
    """Which end of the log-probability scale ranks funniest.

    MOST_LIKE ranks the highest log probability first (model trained on
    funny tweets); LEAST_LIKE ranks the lowest first (model trained on plain
    news, funniest = least news-like).
    """

    MOST_LIKE = "most-like"
    LEAST_LIKE = "least-like"


class NGramModel:
    """Immutable n-gram model over an interned vocabulary.

    probs[k-1] maps id-tuples of length k to log10 probability; backoffs[j-1]
    maps id-tuples of length j (1 <= j < order) to log10 back-off weight,
    storing only contexts that were actually observed. `direction` is the
    name of a Direction, or None when the model does not say how to rank.
    """

    __slots__ = ("order", "vocab", "_probs", "_backoffs", "config", "direction", "discounts")

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        probs: list[dict],
        backoffs: list[dict],
        config: Optional[PrepConfig] = None,
        direction: Optional[str] = None,
        discounts=None,
    ) -> None:
        if len(probs) != order or len(backoffs) != order - 1:
            raise ValueError("table list lengths must match order")
        if direction is not None:
            direction = Direction(direction).value
        self.order = order
        self.vocab = vocab
        self._probs = probs
        self._backoffs = backoffs
        self.config = config
        self.direction = direction
        self.discounts = discounts

    def ngram_count(self, k: int) -> int:
        return len(self._probs[k - 1])

    def in_vocab(self, token: str) -> bool:
        return token in self.vocab

    def prob_entry(self, gram: Sequence[str]) -> Optional[tuple[float, Optional[float]]]:
        """Stored (log10 prob, log10 back-off) for a gram, or None if unstored.

        The back-off slot is None for top-order grams and for contexts that
        fall back to the implicit weight of 1.
        """
        k = len(gram)
        if not 1 <= k <= self.order:
            return None
        ids = []
        for tok in gram:
            i = self.vocab.id(tok)
            if i is None:
                return None
            ids.append(i)
        key = tuple(ids)
        p = self._probs[k - 1].get(key)
        if p is None:
            return None
        bo = self._backoffs[k - 1].get(key) if k < self.order else None
        return p, bo

    def stored_ngrams(self, k: int) -> Iterator[tuple[tuple[str, ...], float, Optional[float]]]:
        """Iterate (gram, log10 prob, back-off or None) at order k, in storage order."""
        tok = self.vocab.token
        bo_tab = self._backoffs[k - 1] if k < self.order else None
        for key, p in self._probs[k - 1].items():
            bo = bo_tab.get(key) if bo_tab is not None else None
            yield tuple(tok(i) for i in key), p, bo

    def score_word(self, context: Sequence[str], word: str) -> float:
        """log10 p(word | context) by longest stored match.

        OOV tokens (in the context or as the event) are treated as <unk>.
        Only the last order-1 context tokens matter.
        """
        to_id = self.vocab.id_or_unk
        ctx = [to_id(t) for t in context[-(self.order - 1):]] if self.order > 1 else []
        return _kernels.score_sequence_ids(
            self._probs, self._backoffs, [*ctx, to_id(word)], self.order, len(ctx)
        )

    def score_sequence(self, tokens: Sequence[str], boundaries: Optional[bool] = None) -> float:
        """Total log10 probability of a token sequence.

        With boundaries, <s> seeds the first context and </s> is scored as a
        final event; otherwise the first token is scored as a unigram. When
        `boundaries` is None the model's own training setting applies.
        """
        if boundaries is None:
            boundaries = self.config.boundaries if self.config is not None else False
        to_id = self.vocab.id_or_unk
        ids = [to_id(t) for t in tokens]
        if boundaries:
            ids = [to_id(BOS), *ids, to_id(EOS)]
        if not ids:
            return 0.0
        return _kernels.score_sequence_ids(
            self._probs, self._backoffs, ids, self.order, 1 if boundaries else 0
        )


def _format_config(config: PrepConfig, direction: Optional[str], order: int) -> str:
    parts = [f"order={order}"]
    for name in FLAG_NAMES:
        parts.append(f"{name}={'true' if getattr(config, name) else 'false'}")
    if direction is not None:
        parts.append(f"direction={direction}")
    return _META_PREFIX + " ".join(parts)


def _parse_metadata(line: str) -> tuple[Optional[PrepConfig], Optional[str], Optional[int]]:
    fields = {}
    for item in line[len(_META_PREFIX):].split():
        name, _, value = item.partition("=")
        fields[name] = value
    flags = {}
    for name in FLAG_NAMES:
        if name in fields:
            flags[name] = fields[name] == "true"
    config = PrepConfig(**flags) if flags else None
    direction = fields.get("direction")
    if direction is not None:
        try:
            Direction(direction)
        except ValueError:
            raise ArpaParseError(f"bad metadata direction field {direction!r}") from None
    order = None
    if "order" in fields:
        try:
            order = int(fields["order"])
        except ValueError:
            raise ArpaParseError(f"bad metadata order field {fields['order']!r}") from None
    return config, direction, order


def write_arpa(model: NGramModel, dest: Union[str, Path, IO[str]]) -> None:
    """Serialize to ARPA text. Entry order follows storage order, so output
    is deterministic for a given model."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="\n") as f:
            _write_arpa(model, f)
    else:
        _write_arpa(model, dest)


def _write_arpa(model: NGramModel, f: IO[str]) -> None:
    if model.config is not None:
        f.write(_format_config(model.config, model.direction, model.order) + "\n\n")
    f.write("\\data\\\n")
    for k in range(1, model.order + 1):
        f.write(f"ngram {k}={model.ngram_count(k)}\n")
    tok = model.vocab.token
    for k in range(1, model.order + 1):
        f.write(f"\n\\{k}-grams:\n")
        probs = model._probs[k - 1]
        if k < model.order:
            bo_tab = model._backoffs[k - 1]
            for key, p in probs.items():
                gram = " ".join(tok(i) for i in key)
                bo = bo_tab.get(key, 0.0)
                f.write(f"{p!r}\t{gram}\t{bo!r}\n")
        else:
            for key, p in probs.items():
                gram = " ".join(tok(i) for i in key)
                f.write(f"{p!r}\t{gram}\n")
    f.write("\n\\end\\\n")


def read_arpa(source: Union[str, Path, IO[str]]) -> NGramModel:
    """Parse an ARPA file into a model, validating structure and closure."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as f:
            try:
                return _read_arpa(f)
            except UnicodeDecodeError as e:
                raise ArpaParseError(f"{source}: not UTF-8 text ({e.reason})") from None
    return _read_arpa(source)


def _err(lineno: int, message: str) -> ArpaParseError:
    return ArpaParseError(message, line=lineno)


def _read_arpa(f: IO[str]) -> NGramModel:
    config: Optional[PrepConfig] = None
    direction: Optional[str] = None
    meta_order: Optional[int] = None
    declared: dict[int, int] = {}
    declared_at: dict[int, int] = {}
    vocab = Vocabulary()
    probs: list[dict] = []
    backoffs: list[dict] = []
    order = 0
    current = 0  # section currently being filled, 0 = none
    seen_data = False
    seen_end = False
    lineno = 0

    while True:
        # Inside a section, read up to its declared count in chunks and try
        # the bulk parser; everything else goes through the per-line loop.
        remaining = 0
        if current and not seen_end:
            remaining = declared[current] - len(probs[current - 1])
        chunk = list(islice(f, min(remaining, _CHUNK_LINES) if remaining > 0 else 1))
        if not chunk:
            break
        if remaining > 0 and _parse_chunk(chunk, current, len(declared), vocab, probs, backoffs):
            lineno += len(chunk)
            continue
        for raw in chunk:
            lineno += 1
            line = raw.rstrip("\r\n").strip()
            if not seen_data:
                if line == "\\data\\":
                    seen_data = True
                elif line.startswith(_META_PREFIX):
                    config, direction, meta_order = _parse_metadata(line)
                continue
            if not line:
                continue
            if seen_end:
                raise _err(lineno, "content after \\end\\")
            if line == "\\end\\":
                seen_end = True
                continue
            m = _NGRAM_DECL.match(line)
            if m:
                if current:
                    raise _err(lineno, "ngram declaration inside a grams section")
                k = int(m.group(1))
                if k != len(declared) + 1:
                    raise _err(lineno, f"ngram declarations must run 1..N, got {k}")
                declared[k] = int(m.group(2))
                declared_at[k] = lineno
                continue
            m = _SECTION.match(line)
            if m:
                k = int(m.group(1))
                if not declared:
                    raise _err(lineno, "grams section before any ngram declaration")
                if k != current + 1:
                    raise _err(lineno, f"expected \\{current + 1}-grams: section, got \\{k}-grams:")
                if k > len(declared):
                    raise _err(lineno, f"section \\{k}-grams: was not declared")
                current = k
                probs.append({})
                if k < len(declared):
                    backoffs.append({})
                continue
            if not current:
                raise _err(lineno, f"unexpected line outside any section: {line!r}")
            _parse_entry(line, lineno, current, len(declared), vocab, probs, backoffs)

    if not seen_data:
        raise ArpaParseError("no \\data\\ header found")
    if not seen_end:
        raise ArpaParseError("missing \\end\\ marker")
    if not declared:
        raise ArpaParseError("no ngram declarations found")
    order = len(declared)
    if current != order:
        raise ArpaParseError(f"expected {order} grams sections, found {current}")
    for k in range(1, order + 1):
        if len(probs[k - 1]) != declared[k]:
            raise _err(
                declared_at[k],
                f"ngram {k}={declared[k]} declared but {len(probs[k - 1])} entries found",
            )
    if meta_order is not None and meta_order != order:
        raise ArpaParseError(
            f"metadata order={meta_order} disagrees with file structure ({order})"
        )
    if (UNK_ID,) not in probs[0]:
        raise ArpaParseError(f"model has no {UNK} unigram entry")
    _validate_closure(probs, vocab, order)
    return NGramModel(
        order=order,
        vocab=vocab,
        probs=probs,
        backoffs=backoffs,
        config=config,
        direction=direction,
    )


def _parse_entry(
    line: str,
    lineno: int,
    k: int,
    order: int,
    vocab: Vocabulary,
    probs: list[dict],
    backoffs: list[dict],
) -> None:
    parts = line.split("\t")
    if len(parts) == 1:
        # Space-separated fallback for files produced by other tools.
        fields = line.split()
        if len(fields) == k + 2:
            parts = [fields[0], " ".join(fields[1:-1]), fields[-1]]
        elif len(fields) == k + 1:
            parts = [fields[0], " ".join(fields[1:])]
        else:
            raise _err(lineno, f"cannot split entry into prob/gram/backoff: {line!r}")
    if len(parts) not in (2, 3):
        raise _err(lineno, f"expected 2 or 3 tab-separated fields, got {len(parts)}")
    try:
        p = float(parts[0])
    except ValueError:
        raise _err(lineno, f"bad probability field {parts[0]!r}") from None
    if not math.isfinite(p):
        raise _err(lineno, f"non-finite probability {parts[0]!r}")
    tokens = parts[1].split(" ")
    if len(tokens) != k or "" in tokens:
        raise _err(lineno, f"expected a {k}-gram, got {parts[1]!r}")
    if k == 1:
        key = (vocab.add(tokens[0]),)
    else:
        ids = []
        for t in tokens:
            i = vocab.id(t)
            if i is None:
                raise _err(lineno, f"token {t!r} has no unigram entry")
            ids.append(i)
        key = tuple(ids)
    if key in probs[k - 1]:
        raise _err(lineno, f"duplicate {k}-gram {parts[1]!r}")
    probs[k - 1][key] = p
    if len(parts) == 3:
        if k == order:
            raise _err(lineno, "back-off weight on a top-order entry")
        try:
            bo = float(parts[2])
        except ValueError:
            raise _err(lineno, f"bad back-off field {parts[2]!r}") from None
        if not math.isfinite(bo):
            raise _err(lineno, f"non-finite back-off {parts[2]!r}")
        if bo != 0.0:
            backoffs[k - 1][key] = bo


def _parse_chunk(
    chunk: list[str],
    k: int,
    order: int,
    vocab: Vocabulary,
    probs: list[dict],
    backoffs: list[dict],
) -> bool:
    """Store a chunk of k-gram lines in whole-chunk passes if every line has
    the exact layout write_arpa emits. Return False, storing no entry, if a
    line does not or if any line would fail a check of _parse_entry; the
    per-line parser then reads the chunk and reports the first error."""
    has_bo = k < order
    layout = r"\S+\t\S+" + r" \S+" * (k - 1) + (r"\t\S+" if has_bo else "")
    text = "".join(chunk)
    # \S excludes all whitespace, so each line holds exactly these tabs and
    # spaces, no empty field, and nothing that _parse_entry would strip.
    if not re.fullmatch(f"(?:{layout}\n)*", text):
        return False
    fields = text.split()
    width = k + 1 + has_bo
    try:
        values = list(map(float, fields[0::width]))
        bos = list(map(float, fields[k + 1::width])) if has_bo else []
    except ValueError:
        return False
    # A float sum is finite only if every term is; a finite sum that
    # overflows only sends the chunk to the per-line parser.
    if not math.isfinite(sum(values) + sum(bos)):
        return False
    if has_bo:
        del fields[k + 1::width]
    del fields[0::k + 1]
    if k == 1:
        # Interned before the duplicate check; a chunk declined there holds
        # a duplicate, which the per-line parser rejects.
        ids = list(map(vocab.add, fields))
    else:
        try:
            ids = vocab.ids(fields)
        except KeyError:
            return False
    keys = list(zip(*[iter(ids)] * k))
    table = probs[k - 1]
    new = dict(zip(keys, values))
    if len(new) != len(chunk) or not table.keys().isdisjoint(new):
        return False
    table.update(new)
    if has_bo:
        backoffs[k - 1].update(zip(compress(keys, bos), filter(None, bos)))
    return True


def _validate_closure(probs: list[dict], vocab: Vocabulary, order: int) -> None:
    """Every stored gram's prefix and suffix one order down must be stored."""
    for k in range(2, order + 1):
        below = probs[k - 2]
        keys = probs[k - 1]
        if all(map(below.__contains__, map(_PREFIX, keys))) and all(
            map(below.__contains__, map(_SUFFIX, keys))
        ):
            continue
        for key in keys:
            for sub in (key[:-1], key[1:]):
                if sub not in below:
                    gram = " ".join(vocab.token(i) for i in sub)
                    raise ArpaParseError(
                        f"back-off chain closure violated: {k - 1}-gram "
                        f"{gram!r} is missing"
                    )
