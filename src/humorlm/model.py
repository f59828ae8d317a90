"""Back-off model representation, scoring, and ARPA-format I/O.

Stored entries are log10 probabilities. A gram's back-off weight applies
when that gram is the *context* of a one-order-higher query; contexts with
no stored weight implicitly back off with weight 1 (log10 0.0).
"""

from __future__ import annotations

import contextlib
import enum
import io
import math
import os
import re
import sys
from array import array
from itertools import islice
from pathlib import Path
from typing import IO, Iterator, Optional, Sequence, Union

from .errors import ArpaParseError
from .textprep import BOS, EOS, FLAG_NAMES, UNK, PrepConfig, flag_values
from .vocab import Vocabulary

# Numbers in a model file are ASCII digits. In a str pattern \d matches any
# Unicode digit, as int() and float() read one, so the patterns say [0-9].
_NGRAM_DECL = re.compile(r"ngram ([0-9]+)=([0-9]+)$")
_SECTION = re.compile(r"\\([0-9]+)-grams:$")
_META_PREFIX = "# humorlm "

# The binary sidecar `<arpa path>.cache`: a stamp line naming the code that
# wrote it (_code_sha256) and the byte order of its arrays, the sha256 of
# the ARPA bytes it was parsed from, the sha256 of the body, then the body.
# The body opens with UTF-8 text ended by a blank line: the model's metadata
# line as the ARPA file words it (always with order=), its `ngram k=N`
# lines, and its tokens in id order, one a line. Zero bytes pad it to a
# multiple of 8 bytes, so that the raw arrays of the model's trie
# (`_trie.Trie.arrays`) which follow all start at an aligned offset.
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

    `tables` holds the stored grams and scores id sequences. A model that
    estimate_model makes keeps `_kernels.DictTables`, and one that read_arpa
    returns keeps a `_trie.Trie`; both give the same floats. The tables'
    contract is all the model uses: `order`, `count(k)`, `storage(k)` (id
    tuples, log10 probs and back-offs, None where none is stored, in
    storage order) and `score(id_seqs, start)` (each sequence's sum of
    log10 probs of ids[start:]). `direction` is the name of a Direction, or
    None when the model does not say how to rank. `sha256` is the digest of
    the ARPA file's bytes that read_arpa read the model from, or None.
    """

    __slots__ = ("vocab", "_tables", "config", "direction", "discounts", "sha256")

    def __init__(
        self,
        vocab: Vocabulary,
        tables,
        config: Optional[PrepConfig] = None,
        direction: Optional[str] = None,
        discounts=None,
    ) -> None:
        if direction is not None:
            direction = Direction(direction).value
        self.vocab = vocab
        self._tables = tables
        self.config = config
        self.direction = direction
        self.discounts = discounts
        self.sha256: Optional[bytes] = None

    @property
    def order(self) -> int:
        return self._tables.order

    def ngram_count(self, k: int) -> int:
        return self._tables.count(k)

    def in_vocab(self, token: str) -> bool:
        return token in self.vocab

    def stored_ngrams(self, k: int) -> Iterator[tuple[tuple[str, ...], float, Optional[float]]]:
        """Iterate (gram, log10 prob, back-off or None) at order k, in storage order."""
        tok = self.vocab.token
        for key, p, bo in zip(*self._tables.storage(k)):
            yield tuple(tok(i) for i in key), p, bo

    def _boundaries(self, boundaries: Optional[bool]) -> bool:
        if boundaries is None:
            return self.config.boundaries if self.config is not None else False
        return boundaries

    def score_word(self, context: Sequence[str], word: str) -> float:
        """log10 p(word | context) by longest stored match.

        OOV tokens (in the context or as the event) are treated as <unk>.
        A <s> that opens the context and a </s> as the word are the padding
        that score_sequence puts there; anywhere else either reads as <unk>,
        as score_sequence reads it. Only the last order-1 context tokens
        matter.
        """
        vocab = self.vocab
        ids = vocab.sequence_ids([*context, word], False)
        if context and context[0] == BOS:
            ids[0] = vocab.id_or_unk(BOS)
        if word == EOS:
            ids[-1] = vocab.id_or_unk(EOS)
        ids = ids[-self.order:]
        return self._tables.score([ids], len(ids) - 1)[0]

    def score_sequence(self, tokens: Sequence[str], boundaries: Optional[bool] = None) -> float:
        """Total log10 probability of a token sequence.

        With boundaries, <s> seeds the first context and </s> is scored as a
        final event; otherwise the first token is scored as a unigram. When
        `boundaries` is None the model's own training setting applies.
        """
        return self.score_sequences([tokens], boundaries)[0]

    def score_sequences(
        self, sequences: Sequence[Sequence[str]], boundaries: Optional[bool] = None
    ) -> list[float]:
        """score_sequence of each token sequence, in one batch."""
        boundaries = self._boundaries(boundaries)
        ids = [self.vocab.sequence_ids(tokens, boundaries) for tokens in sequences]
        return self.score_id_sequences(ids, boundaries)

    def score_id_sequences(self, id_seqs: Sequence[list[int]], boundaries: bool) -> list[float]:
        """score_sequences of sequences already given as ids of this model's
        vocabulary, as `vocab.sequence_ids(tokens, boundaries)` gives them."""
        return self._tables.score(id_seqs, 1 if boundaries else 0)


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
    order = fields.get("order")
    if order is not None:
        if not (order.isascii() and order.isdigit()):
            raise _err(lineno, f"bad metadata order field {order!r}")
        order = int(order)
    return config, direction, order


def write_arpa(model: NGramModel, dest: Union[str, Path, IO[str]]) -> None:
    """Serialize to ARPA text. Entry order follows storage order, so output
    is deterministic for a given model."""
    if isinstance(dest, (str, Path)):
        with replaced(dest) as f:
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
        grams, probs, backoffs = model._tables.storage(k)
        if k < model.order:
            lines = (
                f"{p!r}\t{' '.join(map(token, key))}\t{bo or 0.0!r}\n"
                for key, p, bo in zip(grams, probs, backoffs)
            )
        else:
            lines = (f"{p!r}\t{' '.join(map(token, key))}\n" for key, p in zip(grams, probs))
        # Lines are joined in batches: one write per line costs more, and
        # one string per order would hold every line of it at once.
        while batch := "".join(islice(lines, _WRITE_BATCH)):
            f.write(batch)
    f.write("\n\\end\\\n")


def read_arpa(source: Union[str, Path, IO[str]]) -> NGramModel:
    """Parse an ARPA file into a model, validating structure and closure.

    Given a path, it first loads the sidecar `<path>.cache` if its stamp
    names this code and byte order and its hashes match the file's bytes
    and its own body. Otherwise it parses the file, then writes the
    sidecar from the parsed model, keyed to the bytes it parsed; a sidecar
    that cannot be written is skipped. An ArpaParseError from a path names
    the path."""
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
            raise ArpaParseError(f"not UTF-8 text ({e.reason})", path=source) from None
        except ArpaParseError as e:
            raise ArpaParseError(e.message, e.line, source) from None
    model.sha256 = hashed.sha256.digest()
    _write_cache(cache, model.sha256, _cache_header(model), model._tables.arrays())
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


def _code_sha256() -> Optional[str]:
    """The sha256 over the package's .py files by name, or its .pyc files if
    it has none (a sourceless install); None if neither, as from a zip archive."""
    here = Path(__file__).parent
    paths = sorted(here.glob("*.py")) or sorted(here.glob("*.pyc"))
    sha = _sha256()
    for path in paths:
        data = path.read_bytes()
        sha.update(f"{path.name}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest() if paths else None


def _cache_stamp() -> Optional[bytes]:
    """The sidecar's first line, or None where the code has no key."""
    code = _code_sha256()
    return code and f"humorlm model cache {code} {sys.byteorder}\n".encode()


def _cache_header(model: NGramModel) -> bytes:
    """The UTF-8 text that opens the sidecar body of a read model, without
    its blank line: its metadata, gram counts and tokens."""
    return "\n".join([
        _format_config(model.config, model.direction, model.order),
        *(f"ngram {k}={model.ngram_count(k)}" for k in range(1, model.order + 1)),
        *model.vocab,
    ]).encode()


@contextlib.contextmanager
def replaced(path: Union[str, Path], mode: str = "w") -> Iterator[IO]:
    """The one way the package writes a file: yield `<path>.<pid>.tmp`,
    created or truncated in `path`'s directory and opened in `mode` (text
    as UTF-8 with "\\n" newlines, or binary), then close it and rename it
    over `path`, so that a reader sees the old file or the new one, whole.
    On any exception, a failing flush at close too, remove the temp file
    and re-raise. An OSError from opening the temp file names `path`."""
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        f = open(tmp, mode, **text)
    except OSError as e:
        e.filename = os.fspath(path)
        raise
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_cache(cache: str, arpa_sha256: bytes, header: bytes, arrays: list) -> None:
    """Write the sidecar `cache` of the body text `header` and the byte
    buffers `arrays`, or skip it on OSError or with no code key: it only saves time."""
    head = header + b"\n\n"
    head += bytes(-len(head) % 8)
    body_sha256 = _sha256(head)
    for a in arrays:
        body_sha256.update(a)
    try:
        if (stamp := _cache_stamp()) is None:
            return
        with replaced(cache, "wb") as f:
            f.write(stamp + arpa_sha256 + body_sha256.digest() + head)
            for a in arrays:
                f.write(a)
    except OSError:
        pass


def _load_cache(arpa: Union[str, Path], cache: str) -> Optional[NGramModel]:
    """The model in the sidecar `cache`, or None if the code has no key or
    the sidecar is missing, stale (the sha256 of `arpa` differs), written
    by other code or in another byte order, damaged (the body's sha256
    differs) or shaped unlike what _write_cache writes."""
    try:
        if (stamp := _cache_stamp()) is None:
            return None
        # Unbuffered, read() makes the body in one allocation; a buffered
        # reader would copy it once more to join its buffer to the rest.
        with open(cache, "rb", buffering=0) as f:
            arpa_sha256 = _file_sha256(arpa)
            if f.read(len(stamp) + 32) != stamp + arpa_sha256:
                return None
            body_sha256 = f.read(32)
            body = f.read()
        if _sha256(body).digest() != body_sha256:
            return None
        model = _model_from_cache(body)
        model.sha256 = arpa_sha256
        return model
    # Whatever fails here, the ARPA file itself is still there to parse.
    except Exception:
        return None


def _model_from_cache(body: bytes) -> NGramModel:
    """The model in the sidecar body `body`; ArpaParseError, ValueError or
    UnicodeDecodeError if it is not shaped as _write_cache writes it."""
    from . import _trie

    end = body.index(b"\n\n")
    start = end + 2
    meta, *lines = body[:end].decode().split("\n")
    if not meta.startswith(_META_PREFIX):
        raise ValueError("sidecar header has no metadata line")
    config, direction, order = _parse_metadata(meta, 1)
    if order is None or order < 1:
        raise ValueError("sidecar metadata names no order")
    decls = [_NGRAM_DECL.match(line) for line in lines[:order]]
    if len(decls) != order or not all(m and int(m[1]) == k for k, m in enumerate(decls, 1)):
        raise ValueError("sidecar ngram lines do not run 1..order")
    vocab = Vocabulary.from_tokens(lines[order:])
    counts = [int(m[2]) for m in decls]
    trie = _trie.Trie.from_arrays(len(vocab), counts, body, start + -start % 8)
    return NGramModel(vocab, trie, config, direction)


def _err(lineno: int, message: str) -> ArpaParseError:
    return ArpaParseError(message, line=lineno)


class _Section:
    """The entries of one \\k-grams: section as they are read, in file order:
    flat k-id grams, log10 probs, line numbers and, below the top order,
    back-offs (0.0 for none)."""

    __slots__ = ("k", "ids", "probs", "lines", "backoffs")

    def __init__(self, k: int, top: bool) -> None:
        self.k = k
        self.ids = array("q")
        self.probs = array("d")
        self.lines = array("q")
        self.backoffs = None if top else array("d")

    def raise_duplicate(self, vocab: Vocabulary) -> None:
        """Raise the error of the first entry that repeats an earlier gram."""
        from . import _trie

        j = _trie.first_repeat(self.ids, self.k)
        if j >= 0:
            gram = " ".join(map(vocab.token, self.ids[j * self.k:(j + 1) * self.k]))
            raise _err(self.lines[j], f"duplicate {self.k}-gram {gram!r}")


def _preamble(
    lines: Iterator[tuple[int, str]]
) -> tuple[Optional[PrepConfig], Optional[str], Optional[int]]:
    """Read an ARPA file's (line number, stripped line) pairs up to its
    \\data\\ line: anything, and at most one metadata line, whose config,
    direction and order it returns (None where it names none)."""
    meta: tuple = (None, None, None)
    meta_at = 0  # line of the metadata line, 0 = none yet
    for lineno, line in lines:
        if line == "\\data\\":
            return meta
        if line.startswith(_META_PREFIX):
            if meta_at:
                raise _err(lineno, f"second metadata line (the first is line {meta_at})")
            meta_at = lineno
            meta = _parse_metadata(line, lineno)
    raise ArpaParseError("no \\data\\ header found")


def _read_arpa(f: IO[str]) -> NGramModel:
    from . import _trie

    declared: list[tuple[int, int]] = []  # (count, line) of each ngram k=count
    vocab = Vocabulary()
    section: Optional[_Section] = None  # the one being read
    counts: list[int] = []  # entries of each finished section
    trie: Optional[_trie.Trie] = None
    missing: Optional[tuple] = None  # first gram whose absence breaks closure
    lines = ((lineno, raw.strip()) for lineno, raw in enumerate(f, start=1))

    def finish_section() -> None:
        # Repeats are found per section, once it is read.
        nonlocal trie, missing
        section.raise_duplicate(vocab)
        counts.append(len(section.lines))
        if missing is None:
            trie = trie or _trie.Trie(len(vocab))
            missing = trie.add_order(section.ids, section.probs, section.backoffs)

    try:
        config, direction, meta_order = _preamble(lines)
        # The body, up to \end\: the ngram declarations, then the sections.
        for lineno, line in lines:
            if line == "\\end\\":
                break
            if not line:
                continue
            m = _NGRAM_DECL.match(line)
            if m:
                if section:
                    raise _err(lineno, "ngram declaration inside a grams section")
                k = int(m.group(1))
                if k != len(declared) + 1:
                    raise _err(lineno, f"ngram declarations must run 1..N, got {k}")
                declared.append((int(m.group(2)), lineno))
                continue
            m = _SECTION.match(line)
            if m:
                k = int(m.group(1))
                current = section.k if section else 0
                if not declared:
                    raise _err(lineno, "grams section before any ngram declaration")
                if k != current + 1:
                    raise _err(lineno, f"expected \\{current + 1}-grams: section, got \\{k}-grams:")
                if k > len(declared):
                    raise _err(lineno, f"section \\{k}-grams: was not declared")
                if section:
                    finish_section()
                section = _Section(k, top=k == len(declared))
                continue
            if not section:
                raise _err(lineno, f"unexpected line outside any section: {line!r}")
            _parse_entry(line, lineno, section, vocab)
        else:
            raise ArpaParseError("missing \\end\\ marker")
        # The trailer: blank lines only.
        for lineno, line in lines:
            if line:
                raise _err(lineno, "content after \\end\\")
    except (ArpaParseError, UnicodeDecodeError):
        # A gram repeated on an earlier line (or on this one, before its
        # back-off failed) is the first error.
        if section:
            section.raise_duplicate(vocab)
        raise
    if section:
        finish_section()

    if not declared:
        raise ArpaParseError("no ngram declarations found")
    order = len(declared)
    if len(counts) != order:
        raise ArpaParseError(f"expected {order} grams sections, found {len(counts)}")
    for k, ((count, lineno), found) in enumerate(zip(declared, counts), start=1):
        if found != count:
            raise _err(lineno, f"ngram {k}={count} declared but {found} entries found")
    if meta_order is not None and meta_order != order:
        raise ArpaParseError(
            f"metadata order={meta_order} disagrees with file structure ({order})"
        )
    # Every token but <unk> entered the vocabulary with its unigram.
    if counts[0] != len(vocab):
        raise ArpaParseError(f"model has no {UNK} unigram entry")
    if missing is not None:
        gram = " ".join(map(vocab.token, missing))
        raise ArpaParseError(
            f"back-off chain closure violated: {len(missing)}-gram {gram!r} is missing"
        )
    return NGramModel(vocab, trie, config, direction)


def _float(field: str) -> float:
    """float() of an ASCII field without "_"; float() alone also reads other
    scripts' digits and underscores between digits."""
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return float(field)


def _parse_entry(line: str, lineno: int, section: _Section, vocab: Vocabulary) -> None:
    k = section.k
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
        p = _float(parts[0])
    except ValueError:
        raise _err(lineno, f"bad probability field {parts[0]!r}") from None
    if not math.isfinite(p):
        raise _err(lineno, f"non-finite probability {parts[0]!r}")
    tokens = parts[1].split(" ")
    if len(tokens) != k or "" in tokens:
        raise _err(lineno, f"expected a {k}-gram, got {parts[1]!r}")
    if k == 1:
        ids = [vocab.add(tokens[0])]
    else:
        ids = []
        for t in tokens:
            i = vocab.id(t)
            if i is None:
                raise _err(lineno, f"token {t!r} has no unigram entry")
            ids.append(i)
    # From here on the entry counts for the repeat check.
    section.ids.extend(ids)
    section.probs.append(p)
    section.lines.append(lineno)
    bo = 0.0
    if len(parts) == 3:
        if section.backoffs is None:
            raise _err(lineno, "back-off weight on a top-order entry")
        try:
            bo = _float(parts[2])
        except ValueError:
            raise _err(lineno, f"bad back-off field {parts[2]!r}") from None
        if not math.isfinite(bo):
            raise _err(lineno, f"non-finite back-off {parts[2]!r}")
    if section.backoffs is not None:
        section.backoffs.append(bo)
