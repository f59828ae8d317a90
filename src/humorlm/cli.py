"""Command-line front end.

Subcommands: train (alias export-arpa), rank, compare, evaluate, grid,
import-check. All outputs are deterministic given identical inputs and
flags; errors go to stderr with exit code 1, usage problems exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from math import isqrt
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, NoReturn, Optional, TypeVar

from .counts import MAX_ORDER, PreparedCorpus, count_corpus, prepare_corpus
from .errors import HumorLMError, TsvFormatError
from .metrics import (
    ACCURACY_METRICS, DISTANCE_METRICS, GoldTiers, gold_tiers, load_gold, ranked_accuracy,
)
from .model import (
    Direction, _code_sha256, _file_sha256, _format_config, _parse_metadata, _sha256, read_arpa,
    replaced, write_arpa,
)
from .ranker import (
    HashtagSet, load_hashtag_file, nonblank_lines, rank, read_text,
    read_tweets, score_hashtag, scored_tweets, tweet_tokens,
)
from .smoothing import estimate_model, validate_fallback
from .textprep import FLAG_NAMES, PrepConfig, flag_values

T = TypeVar("T")
R = TypeVar("R")


def _order(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if not 1 <= n <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be 1..{MAX_ORDER}, got {value}")
    return n


def _fallback_float(value: str) -> float:
    try:
        f = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    try:
        validate_fallback(f)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return f


def _add_prep_flags(p: argparse.ArgumentParser, default: Optional[bool]) -> None:
    for name in FLAG_NAMES:
        p.add_argument(
            f"--{name.replace('_', '-')}",
            dest=name,
            action=argparse.BooleanOptionalAction,
            default=default,
        )


def _tsv_files(paths: list[str]) -> list[Path]:
    """Expand each directory to the *.tsv files inside it, sorted; other
    paths pass through as given."""
    if "" in paths:
        raise HumorLMError("empty path")
    files: list[Path] = []
    for p in map(Path, paths):
        if p.is_dir():
            found = sorted(p.glob("*.tsv"))
            if not found:
                raise HumorLMError(f"no .tsv files in directory {p}")
            files.extend(found)
        else:
            files.append(p)
    return files


def _named_files(paths: list[str]) -> list[Path]:
    """_tsv_files for hashtag and gold files, which are keyed by their stem:
    two files with the same stem are an error."""
    files = _tsv_files(paths)
    first: dict[str, Path] = {}
    for fp in files:
        other = first.setdefault(fp.stem, fp)
        if other is not fp:
            raise HumorLMError(f"{other} and {fp} have the same hashtag name {fp.stem!r}")
    return files


def _corpus_lines(paths: list[str]) -> Iterator[str]:
    """Concatenate training text: directories contribute every *.tsv inside,
    .tsv files the text of their tweets (read_tweets), anything else its
    non-blank lines."""
    for fp in _tsv_files(paths):
        if fp.suffix == ".tsv":
            yield from (t.text for t in read_tweets(fp))
        else:
            yield from (line for _, line in nonblank_lines(fp))


def cmd_train(args: argparse.Namespace) -> int:
    config = PrepConfig(**{name: bool(getattr(args, name)) for name in FLAG_NAMES})
    # The prepared corpus is dropped once counted, before estimation's peak.
    table = count_corpus(prepare_corpus(_corpus_lines(args.corpus), config), args.order)
    model = estimate_model(table, args.fallback_discount, args.direction)
    write_arpa(model, args.output)
    sizes = " ".join(f"{k}={model.ngram_count(k)}" for k in range(1, model.order + 1))
    print(
        f"trained order-{model.order} model on {table.token_count} tokens "
        f"({table.line_count} lines), vocab {len(model.vocab)}"
    )
    print(f"ngram {sizes}")
    print(f"wrote {args.output}")
    return 0


def _resolve_scoring(
    args: argparse.Namespace, config: Optional[PrepConfig], direction: Optional[str]
) -> tuple[PrepConfig, Direction]:
    """Scoring config: the model's metadata `config` or all-false,
    overridden by explicit flags; direction: the flag's or the model's."""
    overrides = {n: getattr(args, n) for n in FLAG_NAMES if getattr(args, n) is not None}
    config = (config or PrepConfig())._replace(**overrides)
    direction = args.direction or direction
    if direction is None:
        raise HumorLMError("model file carries no direction metadata; pass --direction")
    return config, Direction(direction)


def _prediction_path(outdir: Path, name: str, task: str) -> Path:
    return outdir / f"{name}_PREDICT_{task}.tsv"


def _pair_lines(ids: list[str]) -> Iterator[str]:
    """The task A lines of ranked ids, one string per id that has ids ranked
    below it: every pair id_a<TAB>id_b<TAB>1 in pairwise's order."""
    for i in range(len(ids) - 1):
        head = ids[i] + "\t"
        yield head + ("\t1\n" + head).join(ids[i + 1:]) + "\t1\n"


def _ranking_text(ids: list[str]) -> str:
    """The task B text of ranked ids: one id a line."""
    return "".join(i + "\n" for i in ids)


def _write_prediction(outdir: Path, name: str, task: str, ids: list[str]) -> Path:
    """Write one hashtag's predictions from its ranked tweet ids, for task
    "B" (_ranking_text) or task "A" (_pair_lines); return the path."""
    path = _prediction_path(outdir, name, task)
    with replaced(path) as f:
        f.writelines([_ranking_text(ids)] if task == "B" else _pair_lines(ids))
    return path


# The manifest rank writes into -d after its last prediction file: what made
# each ranking it wrote, so that compare into the same -d can take a ranking
# as it is (_reused) where it would only make it again. Its first five lines
# say what made them all (_manifest_head); a line a hashtag follows for each:
# name<TAB>sha256 of the hashtag file<TAB>sha256 of its B file.
_MANIFEST = "rank_manifest.txt"


def _manifest_head(
    model_sha256: bytes, meta: tuple, config: PrepConfig, direction: Direction
) -> Optional[str]:
    """The manifest's lines that every ranking of one run shares: the code,
    the model file, the model's metadata `meta` (config, direction, order)
    and the prep flags and direction resolved from it, the last two as
    metadata lines of the model's order. None where the code has no key:
    no manifest is then written or read."""
    code = _code_sha256()
    if code is None:
        return None
    return (
        f"humorlm rank manifest\ncode {code}\nmodel {model_sha256.hex()}\n"
        f"{_format_config(*meta)}\n{_format_config(config, direction.value, meta[2])}\n"
    )


def _reused(
    args: argparse.Namespace, outdir: Path, files: list[Path]
) -> tuple[Optional[bytes], dict[str, list[str]]]:
    """The rankings rank wrote into `outdir` that compare takes as they are,
    by hashtag name, and the model file's sha256 that they hold for.

    A ranking is taken where the manifest's head matches the code, the
    model file's sha256 and the prep flags and direction resolved as
    _resolve_scoring resolves them from the model's metadata the manifest
    records, and its hashtag's entry matches the sha256 of the hashtag file
    and of the B file. The model file is hashed, never read as text: the
    metadata recorded beside its sha256 is that of the bytes it hashes.
    Where the manifest is missing or does not read, none is taken: the
    scoring path then raises whatever error there is."""
    try:
        text = (outdir / _MANIFEST).read_bytes().decode()
        meta = _parse_metadata(text.split("\n", 4)[3], 4)
        model_sha256 = _file_sha256(args.model)
        head = _manifest_head(model_sha256, meta, *_resolve_scoring(args, *meta[:2]))
    except (HumorLMError, OSError, ValueError, IndexError):
        return None, {}
    if head is None or not text.startswith(head):
        return None, {}
    # name -> "sha256 of the hashtag file<TAB>sha256 of the B file"
    entries = dict(line.partition("\t")[::2] for line in text[len(head):].split("\n"))
    reused = {}
    for fp in files:
        shas = entries.get(fp.stem)
        if shas is None:
            continue
        try:
            data = _prediction_path(outdir, fp.stem, "B").read_bytes()
            if shas == f"{_file_sha256(fp).hex()}\t{_sha256(data).hexdigest()}":
                reused[fp.stem] = data.decode().split("\n")[:-1]
        except (OSError, ValueError):
            pass
    return model_sha256, reused


def _predict(args: argparse.Namespace, task: str) -> int:
    files = _named_files(args.hashtags)
    outdir = Path(args.output_dir)
    stamp, reused = _reused(args, outdir, files) if task == "A" else (None, {})
    if len(reused) < len(files):
        model = read_arpa(args.model)
        config, direction = _resolve_scoring(args, model.config, model.direction)
        if model.sha256 != stamp:
            reused = {}  # the model file changed after _reused hashed it

    def predict(fp: Path) -> tuple[str, str]:
        ids = reused.get(fp.stem)
        if ids is None:
            # Hashed before it is read: a file that changes in between has
            # another sha256 by the time compare checks it.
            file_sha256 = _file_sha256(fp).hex() if task == "B" else ""
            hs = load_hashtag_file(fp)
            ids = [st.tweet_id for st in rank(score_hashtag(hs, model, config), direction)]
        # Made at the first write, so a command that fails before it leaves
        # no directory; workers may race to make it.
        outdir.mkdir(parents=True, exist_ok=True)
        out = _write_prediction(outdir, fp.stem, task, ids)
        n = len(ids)
        if task == "A":
            return f"wrote {out} ({n * (n - 1) // 2} pairs)", ""
        # A name that would not read back as one manifest line gets no entry.
        ranking_sha256 = _sha256(_ranking_text(ids).encode()).hexdigest()
        entry = f"{fp.stem}\t{file_sha256}\t{ranking_sha256}\n" if fp.stem.isprintable() else ""
        return f"wrote {out} ({n} tweets)", entry

    # A file's bytes stand for its tweets; task A writes a line per pair.
    sizes = [_file_size(fp) for fp in files]
    entries = []
    for line, entry in _map(
        predict, files, sizes if task == "B" else [s * s for s in sizes],
        lambda group: "hashtags " + ", ".join(fp.stem for fp in group),
    ):
        print(line)
        entries.append(entry)
    head = None if task == "A" else _manifest_head(
        model.sha256, (model.config, model.direction, model.order), config, direction
    )
    if head is not None:
        with replaced(outdir / _MANIFEST) as f:
            f.write(head + "".join(entries))
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    return _predict(args, "B")


def cmd_compare(args: argparse.Namespace) -> int:
    return _predict(args, "A")


_LABELS = {"0": 0, "1": 1}


def _read_predictions_a(path: Path, text: str) -> list[tuple[str, str, int]]:
    """The pairs of `text`, the text of the task A file `path`, in
    id_a<TAB>id_b<TAB>0|1 lines; blank lines are skipped."""
    pairs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split("\t")
        if len(parts) == 3 and parts[0] and parts[1] and parts[2] in _LABELS:
            pairs.append((parts[0], parts[1], _LABELS[parts[2]]))
        elif line.strip():
            if len(parts) != 3 or parts[2] not in _LABELS:
                raise TsvFormatError(path, "expected id_a<TAB>id_b<TAB>0|1", lineno)
            raise TsvFormatError(path, "empty tweet id", lineno)
    return pairs


def _ranking_of_pairs(text: str) -> Optional[list[str]]:
    """The ranking whose _pair_lines are exactly `text`, or None.

    Such a text has n(n-1)/2 lines for some n >= 2; its ranking is the
    first id of line 1 followed by the second id of each of lines 1 to
    n-1. Those ids hold no tab or newline, and each must be non-empty, so
    the per-line reader would read the text as pairwise(ranking), all
    labelled 1. The O(n^2) check is string comparison, chunk by chunk."""
    lines = text.count("\n")
    n = (1 + isqrt(1 + 8 * lines)) // 2
    if n < 2 or n * (n - 1) // 2 != lines:
        return None
    head = text.split("\n", n - 1)[:-1]
    ranking = [head[0].partition("\t")[0]]
    ranking += [line.partition("\t")[2].partition("\t")[0] for line in head]
    if "" in ranking:
        return None
    pos = 0
    for chunk in _pair_lines(ranking):
        if not text.startswith(chunk, pos):
            return None
        pos += len(chunk)
    return ranking if pos == len(text) else None


def _read_predictions_b(path: Path) -> list[str]:
    return [line for _, line in nonblank_lines(path)]


def _evaluate_hashtag(gold_path: Path, pred_dir: Path) -> tuple[str, float, float]:
    """The report row of one gold file: its hashtag, accuracy and distance.

    A task A file that is the pair list of a ranking (_ranking_of_pairs)
    is scored from that ranking in one pass, any other through its pairs:
    the same float, or the same error."""
    name = gold_path.stem
    gold = load_gold(gold_path)
    path_a = _prediction_path(pred_dir, name, "A")
    path_b = _prediction_path(pred_dir, name, "B")
    try:
        for path in (path_a, path_b):
            if not path.exists():
                raise HumorLMError(f"missing prediction file {path}")
        text = read_text(path_a)
        ranking = _ranking_of_pairs(text)
        if ranking is not None:
            accuracy = ranked_accuracy(ranking, gold)
        else:
            pairs = _read_predictions_a(path_a, text)
            accuracy = ACCURACY_METRICS["pairwise-tier"](pairs, gold)
        distance = DISTANCE_METRICS["tier-inversion"](_read_predictions_b(path_b), gold)
    except HumorLMError as e:
        raise HumorLMError(f"hashtag {name}: {e}") from None
    return name, accuracy, distance


def _write_report(rows: list[tuple[str, float, float]], out) -> tuple[str, str]:
    """Write the per-hashtag report of one or more rows; return the two
    macro-average fields written.

    Each average adds the rows left to right from 0.0: built-in sum() of
    floats rounds differently from CPython 3.12 on, and the report bytes
    must not depend on the interpreter."""
    out.write("hashtag\taccuracy\tdistance\n")
    total_a = total_d = 0.0
    for name, accuracy, distance in rows:
        out.write(f"{name}\t{accuracy!r}\t{distance!r}\n")
        total_a += accuracy
        total_d += distance
    macro_a = repr(total_a / len(rows))
    macro_d = repr(total_d / len(rows))
    out.write(f"macro-average\t{macro_a}\t{macro_d}\n")
    return macro_a, macro_d


def cmd_evaluate(args: argparse.Namespace) -> int:
    gold_files = sorted(_named_files(args.gold), key=lambda p: p.stem)
    pred_dir = Path(args.predictions)
    rows = [_evaluate_hashtag(fp, pred_dir) for fp in gold_files]
    if args.output:
        with replaced(args.output) as f:
            _write_report(rows, f)
        print(f"wrote {args.output} ({len(rows)} hashtags)")
    else:
        _write_report(rows, sys.stdout)
    return 0


def cmd_import_check(args: argparse.Namespace) -> int:
    model = read_arpa(args.model)
    sizes = " ".join(f"{k}={model.ngram_count(k)}" for k in range(1, model.order + 1))
    print(f"ok: order-{model.order} model, vocab {len(model.vocab)}")
    print(f"ngram {sizes}")
    if model.config is not None:
        flags = " ".join(f"{n}={v}" for n, v in flag_values(model.config).items())
        print(f"metadata: {flags} direction={model.direction or '-'}")
    elif model.direction is not None:
        print(f"metadata: direction={model.direction} (no prep flags; pass them to rank)")
    else:
        print("metadata: none (foreign file; pass prep flags and --direction to rank)")
    return 0


_GRID_KEYS = ("corpora", "hashtags", "gold", "fallback_discount", "rows")
_GRID_ROW_KEYS = ("dataset", "order", *FLAG_NAMES, "direction")


def _reject_unknown_keys(where: str, obj: dict, known: tuple[str, ...]) -> None:
    for key in obj:
        if key not in known:
            raise HumorLMError(f"{where}: unknown key {key!r}")


def _grid_paths(key: str, value) -> list[str]:
    paths = [value] if isinstance(value, str) else value
    if not (isinstance(paths, list) and paths and all(isinstance(v, str) for v in paths)):
        raise HumorLMError(f"grid config: {key} must be a path or a non-empty list of paths")
    if "" in paths:
        raise HumorLMError(f"grid config: {key}: empty path")
    return list(paths)


class _GridRow(NamedTuple):
    dataset: str
    corpus: list[str]
    order: int
    config: PrepConfig
    direction: Direction


def _parse_grid_row(idx: int, row, corpora: dict[str, list[str]]) -> _GridRow:
    """Validate one config row before any row runs."""
    if not isinstance(row, dict):
        raise HumorLMError(f"grid row {idx}: expected a JSON object, got {row!r}")
    _reject_unknown_keys(f"grid row {idx}", row, _GRID_ROW_KEYS)
    dataset = row.get("dataset")
    if not isinstance(dataset, str) or dataset not in corpora:
        raise HumorLMError(f"grid row {idx}: unknown dataset {dataset!r}")
    order = row.get("order", 3)
    if not isinstance(order, int) or isinstance(order, bool):
        raise HumorLMError(f"grid row {idx}: order must be an integer, got {order!r}")
    if order < 1:
        raise HumorLMError(f"grid row {idx}: order must be >= 1")
    if order > MAX_ORDER:
        raise HumorLMError(f"grid row {idx}: order must be <= {MAX_ORDER}, got {order}")
    flags = {name: row.get(name, False) for name in FLAG_NAMES}
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise HumorLMError(f"grid row {idx}: {name} must be true or false, got {value!r}")
    config = PrepConfig(**flags)
    direction = row.get("direction", "most-like")
    try:
        direction = Direction(direction)
    except ValueError:
        raise HumorLMError(f"grid row {idx}: bad direction {direction!r}") from None
    return _GridRow(dataset, corpora[dataset], order, config, direction)


def _prepared(
    held: dict, row: _GridRow, hashtag_sets: list[HashtagSet]
) -> tuple[PreparedCorpus, list[list[list[int]]]]:
    """The row's corpus, prepared, and each hashtag's tweets as id sequences
    of its vocabulary: from `held` if the row that last prepared there had
    the same corpus paths and prep config, else made anew. `held` keeps only
    the latest, so adjacent rows of one dataset and prep config prepare
    once, and memory stays bounded however many rows and configs there are."""
    key = (tuple(row.corpus), row.config)
    entry = held.get(key)
    if entry is None:
        held.clear()
        corpus = prepare_corpus(_corpus_lines(row.corpus), row.config)
        pad, bounded = corpus.vocab.sequence_ids, row.config.boundaries
        ids = [[pad(t, bounded) for t in tweet_tokens(hs, row.config)] for hs in hashtag_sets]
        entry = held[key] = corpus, ids
    return entry


def _run_grid_row(
    idx: int,
    row: _GridRow,
    hashtag_sets: list[HashtagSet],
    gold_by_name: Optional[dict[str, GoldTiers]],
    fallback: Optional[float],
    outdir: Path,
    held: dict,
) -> tuple[str, ...]:
    row_dir = outdir / f"row_{idx:02d}"
    row_dir.mkdir(parents=True, exist_ok=True)
    corpus, hashtag_ids = _prepared(held, row, hashtag_sets)
    model = estimate_model(count_corpus(corpus, row.order), fallback, row.direction.value)
    write_arpa(model, row_dir / "model.arpa")

    results = []
    for hs, ids in zip(hashtag_sets, hashtag_ids):
        scores = model.score_id_sequences(ids, row.config.boundaries)
        ranked_ids = [st.tweet_id for st in rank(scored_tweets(hs, scores), row.direction)]
        _write_prediction(row_dir, hs.hashtag_name, "B", ranked_ids)
        _write_prediction(row_dir, hs.hashtag_name, "A", ranked_ids)
        if gold_by_name is not None:
            gold = gold_by_name[hs.hashtag_name]
            results.append(
                (hs.hashtag_name, ranked_accuracy(ranked_ids, gold),
                 DISTANCE_METRICS["tier-inversion"](ranked_ids, gold))
            )

    macro_a = macro_d = "NA"
    if gold_by_name is not None:
        with replaced(row_dir / "report.tsv") as f:
            macro_a, macro_d = _write_report(results, f)
    return (
        str(idx),
        row.dataset,
        str(row.order),
        *flag_values(row.config).values(),
        row.direction.value,
        macro_a,
        macro_d,
    )


def _workers(n_tasks: int) -> int:
    """Worker processes for n_tasks independent tasks: one per usable CPU,
    at most one per task. 1, which runs the tasks in this process, where
    os.fork is missing or another thread runs: a forked child holds copies
    of the locks that thread may hold, and no thread to free them. Threads
    are counted in /proc/self/task, which lists those that native code
    started too; where it is missing, a process that has imported numpy,
    whose BLAS may have started threads, does not fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threading = sys.modules.get("threading")
        threads = threading.active_count() if threading is not None else 1
        if "numpy" in sys.modules:
            return 1
    if threads > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(n_tasks, cpus)


def _task_child(fn: Callable[[T], R], items: list[T], out_fd: int, alive_fd: int) -> NoReturn:
    """Body of a worker child of _map: run `fn` over `items` in order, up to
    the first HumorLMError or OSError, write the pickled record (results,
    that error or None) to `out_fd` and exit, never returning into the
    parent's code. Any other exception, or a record that does not pickle,
    prints its traceback and exits 1."""
    import gc
    import pickle
    import signal
    import threading

    code = 1
    try:
        # Collections here would write to every object inherited from the
        # parent, copying each page that holds one; they leave them alone.
        gc.freeze()
        # An interrupt reaches the whole process group; the parent reports it.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        threading.Thread(target=_exit_at_eof, args=(alive_fd,), daemon=True).start()
        results, error = [], None
        try:
            for item in items:
                results.append(fn(item))
        except (HumorLMError, OSError) as e:
            error = e
        with open(out_fd, "wb") as f:
            pickle.dump((results, error), f)
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _exit_at_eof(fd: int) -> None:
    """Exit this process once `fd`, a pipe's read end, reads end-of-file."""
    os.read(fd, 1)
    os._exit(1)


def _weighted_groups(weights: list[int], n: int) -> list[list[int]]:
    """Deal the indices of `weights` into min(n, len(weights)) groups by
    greedy weight, longest processing time first (Graham 1969): the n
    heaviest items each start a group, and each item after them, heaviest
    first, joins the lightest group so far. Ties go to the lower index and
    the first group. Each group's indices are in order."""
    by_weight = sorted(range(len(weights)), key=lambda i: -weights[i])
    groups = [[i] for i in by_weight[:n]]
    loads = [weights[i] for i in by_weight[:n]]
    for i in by_weight[n:]:
        g = loads.index(min(loads))
        groups[g].append(i)
        loads[g] += weights[i]
    return [sorted(g) for g in groups]


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _map(
    fn: Callable[[T], R], items: list[T], weights: list[int], label: Callable[[list[T]], str]
) -> Iterator[R]:
    """Yield fn(item) for each item, in order, raising the first error after
    the results of the items before it, as a loop over the items would.

    With more than one worker (_workers), the items are dealt into that
    many groups by weight (_weighted_groups), each run in order in a forked
    worker process (_task_child), which sends back one record: the group's
    results and its first error. The records are read one group after
    another, each to its end, then the results are yielded. Items after a
    failing one may have run too. A worker that dies without a record is an
    error at its group's first item, named by `label` of the group's items.
    Where a pipe or a worker process cannot be made (EMFILE, EAGAIN,
    ENOMEM), the workers already started are killed and the items run in
    this process, as with one worker: the same outputs, and the same first
    error.

    Every worker is reaped before a result is yielded or an error raised.
    A worker exits when this process does, even if this process was killed.
    A worker whose record fills its pipe has finished its items, and waits
    only until its group is read."""
    workers = _workers(len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    import pickle
    import signal

    groups = _weighted_groups(weights, workers)
    results: list = [None] * len(items)
    first, error = len(items), None
    children: list[tuple[int, int]] = []  # (read fd, pid) of each worker not yet reaped
    fds: list[int] = []  # pipe ends this process holds, other than those in `children`
    try:
        try:
            # Only this process holds the write end: a worker reads
            # end-of-file when this process is gone, however it ended.
            alive_r, alive_w = os.pipe()
            fds += alive_r, alive_w
            for group in groups:
                r, w = os.pipe()
                fds += r, w
                pid = os.fork()
                if pid == 0:
                    os.close(r)
                    os.close(alive_w)
                    _task_child(fn, [items[i] for i in group], w, alive_r)
                del fds[-2:]
                os.close(w)
                children.append((r, pid))
        except OSError:
            groups = []  # none is read: the items run in this process, below
        for group in groups:
            r, pid = children[0]
            record = b"".join(iter(partial(os.read, r, 1 << 16), b""))
            del children[0]
            os.close(r)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0:
                done, failure = pickle.loads(record)
            else:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                failure = HumorLMError(f"{label([items[i] for i in group])}: worker process {how}")
                done = []
            for i, result in zip(group, done):
                results[i] = result
            if failure is not None and group[len(done)] < first:
                first, error = group[len(done)], failure
    finally:
        for r, pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
        for fd in fds:
            os.close(fd)
    if not groups:
        yield from map(fn, items)
        return
    yield from results[:first]
    if error is not None:
        raise error


def cmd_grid(args: argparse.Namespace) -> int:
    # The only JSON the package reads: no other command pays for the import.
    import json

    try:
        cfg = json.loads(read_text(args.config))
    except json.JSONDecodeError as e:
        raise HumorLMError(f"grid config {args.config}: {e}") from None
    if not isinstance(cfg, dict):
        raise HumorLMError("grid config: expected a JSON object")
    _reject_unknown_keys("grid config", cfg, _GRID_KEYS)
    for required in ("corpora", "hashtags", "rows"):
        if required not in cfg:
            raise HumorLMError(f"grid config: missing {required!r} key")
    if not isinstance(cfg["corpora"], dict):
        raise HumorLMError("grid config: corpora must map dataset names to paths")
    corpora = {name: _grid_paths(f"corpus {name!r}", p) for name, p in cfg["corpora"].items()}
    rows = cfg["rows"]
    if not isinstance(rows, list) or not rows:
        raise HumorLMError("grid config: rows must be a non-empty list")
    grid_rows = [_parse_grid_row(idx, row, corpora) for idx, row in enumerate(rows, start=1)]
    fallback = cfg.get("fallback_discount")
    if fallback is not None:
        if not isinstance(fallback, (int, float)) or isinstance(fallback, bool):
            raise HumorLMError(
                f"grid config: fallback_discount must be a number, got {fallback!r}"
            )
        fallback = float(fallback)
        try:
            validate_fallback(fallback)
        except ValueError as e:
            raise HumorLMError(f"grid config: {e}") from None
    hashtag_files = _named_files(_grid_paths("hashtags", cfg["hashtags"]))
    hashtag_sets = [load_hashtag_file(fp) for fp in hashtag_files]
    gold_by_name: Optional[dict[str, GoldTiers]] = None
    if cfg.get("gold"):
        # A gold file that is also a hashtag file is not read again.
        loaded = {fp.resolve(): hs for fp, hs in zip(hashtag_files, hashtag_sets)}
        gold_by_name = {}
        for fp in _named_files(_grid_paths("gold", cfg["gold"])):
            hs = loaded.get(fp.resolve())
            gold_by_name[fp.stem] = load_gold(fp) if hs is None else gold_tiers(hs, fp)
        for hs in hashtag_sets:
            if hs.hashtag_name not in gold_by_name:
                raise HumorLMError(f"grid config: no gold file for hashtag {hs.hashtag_name}")
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    held: dict = {}  # this process's prepared corpus and hashtag ids (_prepared)

    def run_row(idx: int) -> tuple[str, ...]:
        return _run_grid_row(
            idx, grid_rows[idx - 1], hashtag_sets, gold_by_name, fallback, outdir, held
        )

    # A row's order stands for its work.
    report_rows = list(_map(
        run_row, list(range(1, len(grid_rows) + 1)), [row.order for row in grid_rows],
        lambda idxs: "grid row " + ", ".join(map(str, idxs)),
    ))

    header = ("row", "dataset", "order", *FLAG_NAMES, "direction", "accuracy", "distance")
    report_path = outdir / "grid_report.tsv"
    with replaced(report_path) as f:
        f.write("\t".join(header) + "\n")
        for r in report_rows:
            f.write("\t".join(r) + "\n")
    print(f"wrote {report_path} ({len(report_rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="humorlm",
        description="N-gram language models for ranking tweets by log probability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("train", "count a corpus, estimate a model, write it as ARPA"),
        ("export-arpa", "alias of train"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("corpus", nargs="+", help="corpus file(s) or directory of .tsv files")
        p.add_argument("-o", "--output", required=True, help="ARPA file to write")
        p.add_argument("--order", type=_order, default=3)
        p.add_argument("--fallback-discount", type=_fallback_float, default=None)
        p.add_argument("--direction", choices=[d.value for d in Direction], default="most-like")
        _add_prep_flags(p, default=False)
        p.set_defaults(func=cmd_train)

    for name, func, help_text in (
        ("rank", cmd_rank, "write <hashtag>_PREDICT_B.tsv rankings"),
        ("compare", cmd_compare, "write <hashtag>_PREDICT_A.tsv pairwise predictions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("hashtags", nargs="+", help="hashtag .tsv file(s) or directory")
        p.add_argument("-m", "--model", required=True, help="ARPA model file")
        p.add_argument("-d", "--output-dir", default=".")
        p.add_argument("--direction", choices=[d.value for d in Direction], default=None)
        _add_prep_flags(p, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate", help="score predictions against gold tiers")
    p.add_argument("gold", nargs="+", help="gold .tsv file(s) or directory")
    p.add_argument("-p", "--predictions", required=True, help="directory of *_PREDICT_*.tsv")
    p.add_argument("-o", "--output", default=None, help="report TSV (default stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid", help="run a settings grid from a JSON config")
    p.add_argument("config", help="JSON grid description")
    p.add_argument("-d", "--output-dir", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("import-check", help="validate an ARPA file and print a summary")
    p.add_argument("model")
    p.set_defaults(func=cmd_import_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HumorLMError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Console entry point: main() on the command line, then end the process.

    main() closes every file it writes and reaps every worker before it
    returns, and nothing registers an atexit handler, so once stdout and
    stderr are flushed os._exit ends the process without the interpreter's
    teardown: a last full garbage collection and module cleanup, 14-30 ms a
    command on the benchmark's inputs. Where a flush fails (stdout a closed
    pipe, a full disk, or None) or in dev mode, whose teardown reports a
    file left open as a ResourceWarning, the process exits the normal way.
    An exception or SystemExit from main() (a usage error, --help)
    propagates."""
    code = main()
    if not sys.flags.dev_mode:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        # The normal exit flushes again, and the interpreter reports a failure.
        except Exception:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
