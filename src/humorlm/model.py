"""Back-off model representation, scoring, and ARPA-format I/O.

Stored entries are log10 probabilities. A gram's back-off weight applies
when that gram is the *context* of a one-order-higher query; contexts with
no stored weight implicitly back off with weight 1 (log10 0.0).
"""

from __future__ import annotations

import enum
import io
import marshal
import math
import os
import re
import struct
import sys
from itertools import compress, islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

from . import _kernels
from .errors import ArpaParseError
from .textprep import BOS, EOS, FLAG_NAMES, UNK, PrepConfig, flag_values
from .vocab import UNK_ID, Vocabulary

_NGRAM_DECL = re.compile(r"ngram (\d+)=(\d+)$")
_SECTION = re.compile(r"\\(\d+)-grams:$")
_META_PREFIX = "# humorlm "

# The binary sidecar `<arpa path>.cache`: a stamp naming the format version
# (3) and the interpreter whose marshal data it holds, the sha256 of the
# ARPA bytes it was parsed from, a part count, a (size, sha256) entry per
# part, then the marshal parts: the metadata, then each order's grams in
# runs of at most _CACHE_PART entries, so that a load holds one part's
# bytes at a time.
_CACHE_STAMP = (
    f"humorlm model cache 3 {sys.implementation.cache_tag} marshal {marshal.version}\n"
).encode()
_CACHE_PART = 32768
_CACHE_COUNT = struct.Struct("<I")
_CACHE_ENTRY = struct.Struct("<Q32s")
_HASH_BLOCK = 1 << 20
_WRITE_BATCH = 4096  # ARPA lines per write


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


def _format_config(config: Optional[PrepConfig], direction: Optional[str], order: int) -> str:
    parts = [f"order={order}"]
    if config is not None:
        parts.extend(f"{name}={value}" for name, value in flag_values(config).items())
    if direction is not None:
        parts.append(f"direction={direction}")
    return _META_PREFIX + " ".join(parts)


def _parse_metadata(
    line: str, lineno: int
) -> tuple[Optional[PrepConfig], Optional[str], Optional[int]]:
    fields = {}
    for item in line[len(_META_PREFIX):].split():
        name, _, value = item.partition("=")
        if name in fields:
            raise _err(lineno, f"repeated metadata field {name!r}")
        fields[name] = value
    flags = {}
    for name in FLAG_NAMES:
        if name in fields:
            value = fields[name]
            if value not in ("true", "false"):
                raise _err(lineno, f"bad metadata {name} field {value!r}")
            flags[name] = value == "true"
    config = PrepConfig(**flags) if flags else None
    direction = fields.get("direction")
    if direction is not None:
        try:
            Direction(direction)
        except ValueError:
            raise _err(lineno, f"bad metadata direction field {direction!r}") from None
    order = None
    if "order" in fields:
        try:
            order = int(fields["order"])
        except ValueError:
            raise _err(lineno, f"bad metadata order field {fields['order']!r}") from None
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
    if model.config is not None or model.direction is not None:
        f.write(_format_config(model.config, model.direction, model.order) + "\n\n")
    f.write("\\data\\\n")
    for k in range(1, model.order + 1):
        f.write(f"ngram {k}={model.ngram_count(k)}\n")
    token = list(model.vocab).__getitem__
    for k in range(1, model.order + 1):
        f.write(f"\n\\{k}-grams:\n")
        probs = model._probs[k - 1]
        if k < model.order:
            bo = model._backoffs[k - 1].get
            lines = (
                f"{p!r}\t{' '.join(map(token, key))}\t{bo(key, 0.0)!r}\n"
                for key, p in probs.items()
            )
        else:
            lines = (f"{p!r}\t{' '.join(map(token, key))}\n" for key, p in probs.items())
        # Lines are joined in batches: one write per line costs more, and
        # one string per order would hold every line of it at once.
        while batch := "".join(islice(lines, _WRITE_BATCH)):
            f.write(batch)
    f.write("\n\\end\\\n")


def read_arpa(source: Union[str, Path, IO[str]]) -> NGramModel:
    """Parse an ARPA file into a model, validating structure and closure.

    Given a path, it first loads the sidecar `<path>.cache` if its stamp
    names this format and interpreter and its hashes match the file's bytes
    and each of its parts. Otherwise it parses the file, then writes the
    sidecar from the parsed model, keyed to the bytes it parsed; a sidecar
    that cannot be written is skipped."""
    if not isinstance(source, (str, Path)):
        return _read_arpa(source)
    cache = f"{source}.cache"
    model = _load_cache(source, cache)
    if model is not None:
        return model
    hashed = _HashingReader(open(source, "rb", buffering=0))
    with io.TextIOWrapper(io.BufferedReader(hashed), encoding="utf-8") as f:
        try:
            model = _read_arpa(f)
        except UnicodeDecodeError as e:
            raise ArpaParseError(f"{source}: not UTF-8 text ({e.reason})") from None
    _write_cache(cache, hashed.sha256.digest(), *_cache_payloads(model))
    return model


def _sha256(data=b""):
    # Imported on first use: hashlib loads OpenSSL, about 3.6 MB of RSS that
    # commands which never read a model (train, grid, evaluate) need not pay.
    import hashlib

    return hashlib.sha256(data)


class _HashingReader(io.RawIOBase):
    """A raw binary file that hashes every byte read through it."""

    def __init__(self, raw: io.RawIOBase) -> None:
        self._raw = raw
        self.sha256 = _sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> Optional[int]:
        n = self._raw.readinto(b)
        if n:
            self.sha256.update(memoryview(b)[:n])
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def _file_sha256(path: Union[str, Path]) -> bytes:
    sha = _sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(_HASH_BLOCK), b""):
            sha.update(block)
    return sha.digest()


def _cache_payloads(model: NGramModel) -> tuple[int, Iterator[tuple]]:
    """The number of sidecar parts for `model`, and the parts: (order,
    flags, direction, tokens, gram counts), then per order, in storage
    order, (keys, log10 probs[, log10 back-offs with 0.0 for none])."""
    counts = [model.ngram_count(k) for k in range(1, model.order + 1)]
    flags = None if model.config is None else tuple(getattr(model.config, n) for n in FLAG_NAMES)

    def parts() -> Iterator[tuple]:
        yield model.order, flags, model.direction, list(model.vocab), counts
        for k in range(1, model.order + 1):
            probs = model._probs[k - 1]
            grams = iter(probs)
            while keys := list(islice(grams, _CACHE_PART)):
                part = (keys, list(map(probs.__getitem__, keys)))
                if k < model.order:
                    part += (list(map(model._backoffs[k - 1].get, keys, repeat(0.0))),)
                yield part

    return 1 + sum(-(-n // _CACHE_PART) for n in counts), parts()


def _write_cache(cache: str, arpa_sha256: bytes, count: int, parts: Iterable[tuple]) -> None:
    """Write `count` marshal parts as the sidecar `cache`, through a temp
    file and os.replace. On OSError, remove the temp file and carry on:
    the sidecar only saves time."""
    tmp = f"{cache}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return
    try:
        with open(fd, "wb") as f:
            f.write(_CACHE_STAMP + arpa_sha256 + _CACHE_COUNT.pack(count))
            table_at = f.tell()
            f.write(bytes(count * _CACHE_ENTRY.size))
            table = []
            for part in parts:
                data = marshal.dumps(part)
                f.write(data)
                table.append(_CACHE_ENTRY.pack(len(data), _sha256(data).digest()))
            f.seek(table_at)
            f.write(b"".join(table))
        os.replace(tmp, cache)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass


def _load_cache(arpa: Union[str, Path], cache: str) -> Optional[NGramModel]:
    """The model in the sidecar `cache`, or None if it is missing, stale
    (the sha256 of `arpa` differs), from another format or interpreter,
    damaged (a part's sha256 differs) or shaped unlike what
    _cache_payloads writes."""
    try:
        with open(cache, "rb") as f:
            if f.read(len(_CACHE_STAMP)) != _CACHE_STAMP or f.read(32) != _file_sha256(arpa):
                return None
            (count,) = _CACHE_COUNT.unpack(f.read(_CACHE_COUNT.size))
            size = os.fstat(f.fileno()).st_size
            if f.tell() + count * _CACHE_ENTRY.size > size:
                return None
            table = list(_CACHE_ENTRY.iter_unpack(f.read(count * _CACHE_ENTRY.size)))
            if f.tell() + sum(n for n, _ in table) != size:
                return None
            return _model_from_parts(_read_parts(f, table))
    # Whatever fails here, the ARPA file itself is still there to parse.
    except Exception:
        return None


def _read_parts(f: IO[bytes], table: list[tuple[int, bytes]]) -> Iterator:
    """Each part of `table`, unmarshalled only once its bytes match their
    sha256. Every part is read into one buffer."""
    buf = memoryview(bytearray(max((size for size, _ in table), default=0)))
    for size, digest in table:
        data = buf[:size]
        if f.readinto(data) != size or _sha256(data).digest() != digest:
            raise ValueError("sidecar part does not match its sha256")
        yield marshal.loads(data)


def _model_from_parts(parts: Iterator) -> NGramModel:
    """The model that _cache_payloads split into `parts`; ValueError if a
    part is not shaped as it writes them."""
    order, flags, direction, tokens, counts = next(parts)
    if type(order) is not int or len(counts) != order or set(map(type, tokens)) != {str}:
        raise ValueError("sidecar metadata has the wrong shape")
    config = None
    if flags is not None:
        if len(flags) != len(FLAG_NAMES) or set(map(type, flags)) != {bool}:
            raise ValueError("sidecar flags have the wrong shape")
        config = PrepConfig(**dict(zip(FLAG_NAMES, flags)))
    probs: list[dict] = []
    backoffs: list[dict] = []
    for k, count in enumerate(counts, start=1):
        table: dict = {}
        bo_table: dict = {}
        while len(table) < count:
            keys, *columns = next(parts)
            if (
                len(columns) != 1 + (k < order)
                or set(map(type, keys)) != {tuple}
                or set(map(len, keys)) != {k}
                or any(len(c) != len(keys) for c in columns)
                or not all({float}.issuperset(map(type, c)) for c in columns)
                or not all(all(map(math.isfinite, c)) for c in columns)
            ):
                raise ValueError(f"sidecar {k}-gram part has the wrong shape")
            before = len(table)
            table.update(zip(keys, columns[0]))
            if len(table) != before + len(keys):
                raise ValueError(f"sidecar repeats a {k}-gram")
            if k < order:
                bos = columns[1]
                bo_table.update(zip(compress(keys, bos), filter(None, bos)))
        if len(table) != count:
            raise ValueError(f"sidecar holds {len(table)} {k}-grams, not {count}")
        if k == 1 and table.keys() != set(zip(range(len(tokens)))):
            raise ValueError("sidecar unigrams are not one per vocabulary id")
        probs.append(table)
        if k < order:
            backoffs.append(bo_table)
    if next(parts, None) is not None:
        raise ValueError("sidecar has parts left over")
    return NGramModel(
        order=order,
        vocab=Vocabulary.from_tokens(tokens),
        probs=probs,
        backoffs=backoffs,
        config=config,
        direction=direction,
    )


def _err(lineno: int, message: str) -> ArpaParseError:
    return ArpaParseError(message, line=lineno)


def _read_arpa(f: IO[str]) -> NGramModel:
    config: Optional[PrepConfig] = None
    direction: Optional[str] = None
    meta_order: Optional[int] = None
    meta_at = 0  # line of the metadata line, 0 = none yet
    declared: dict[int, int] = {}
    declared_at: dict[int, int] = {}
    vocab = Vocabulary()
    probs: list[dict] = []
    backoffs: list[dict] = []
    current = 0  # section currently being filled, 0 = none
    seen_data = False
    seen_end = False
    for lineno, raw in enumerate(f, start=1):
        line = raw.strip()
        if not seen_data:
            if line == "\\data\\":
                seen_data = True
            elif line.startswith(_META_PREFIX):
                if meta_at:
                    raise _err(lineno, f"second metadata line (the first is line {meta_at})")
                meta_at = lineno
                config, direction, meta_order = _parse_metadata(line, lineno)
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


def _validate_closure(probs: list[dict], vocab: Vocabulary, order: int) -> None:
    """Every stored gram's prefix and suffix one order down must be stored."""
    for k in range(2, order + 1):
        below = probs[k - 2]
        for key in probs[k - 1]:
            for sub in (key[:-1], key[1:]):
                if sub not in below:
                    gram = " ".join(vocab.token(i) for i in sub)
                    raise ArpaParseError(
                        f"back-off chain closure violated: {k - 1}-gram "
                        f"{gram!r} is missing"
                    )
