"""Command-line front end.

Subcommands: train (alias export-arpa), rank, compare, evaluate, grid,
import-check. All outputs are deterministic given identical inputs and
flags; errors go to stderr with exit code 1, usage problems exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from .counts import MAX_ORDER, count_corpus
from .errors import HumorLMError, TsvFormatError
from .metrics import ACCURACY_METRICS, DISTANCE_METRICS, GoldTiers, gold_tiers, load_gold
from .model import Direction, NGramModel, read_arpa, write_arpa
from .ranker import (
    HashtagSet, ScoredTweet, load_hashtag_file, nonblank_lines, pairwise, rank, score_hashtag,
)
from .smoothing import estimate_model, validate_fallback
from .textprep import FLAG_NAMES, PrepConfig


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
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


def _corpus_lines(paths: list[str]) -> Iterator[str]:
    """Concatenate training text: directories contribute every *.tsv inside,
    .tsv files contribute their text column, anything else is read as raw
    lines."""
    for fp in _tsv_files(paths):
        is_tsv = fp.suffix == ".tsv"
        for lineno, line in nonblank_lines(fp):
            if is_tsv:
                parts = line.split("\t")
                if len(parts) < 2:
                    raise TsvFormatError(fp, "expected an id<TAB>text row", lineno)
                yield parts[1]
            else:
                yield line


def _train_model(
    corpus: list[str],
    order: int,
    config: PrepConfig,
    fallback: Optional[float],
    direction: str,
) -> tuple[NGramModel, int, int]:
    table = count_corpus(_corpus_lines(corpus), order, config)
    model = estimate_model(table, fallback, direction)
    return model, table.token_count, table.line_count


def cmd_train(args: argparse.Namespace) -> int:
    config = PrepConfig(**{name: bool(getattr(args, name)) for name in FLAG_NAMES})
    model, tokens, lines = _train_model(
        args.corpus, args.order, config, args.fallback_discount, args.direction
    )
    write_arpa(model, args.output)
    sizes = " ".join(f"{k}={model.ngram_count(k)}" for k in range(1, model.order + 1))
    print(
        f"trained order-{model.order} model on {tokens} tokens "
        f"({lines} lines), vocab {len(model.vocab)}"
    )
    print(f"ngram {sizes}")
    print(f"wrote {args.output}")
    return 0


def _resolve_scoring(args: argparse.Namespace, model: NGramModel) -> tuple[PrepConfig, Direction]:
    """Scoring config: model metadata, overridden by any explicit flags."""
    overrides = {
        name: getattr(args, name)
        for name in FLAG_NAMES
        if getattr(args, name) is not None
    }
    if model.config is None:
        config = PrepConfig(**{n: overrides.get(n, False) for n in FLAG_NAMES})
    else:
        config = replace(model.config, **overrides) if overrides else model.config
    direction = args.direction or model.direction
    if direction is None:
        raise HumorLMError(
            "model file carries no direction metadata; pass --direction"
        )
    return config, Direction(direction)


def _prediction_path(outdir: Path, name: str, task: str) -> Path:
    return outdir / f"{name}_PREDICT_{task}.tsv"


def _pair_lines(ids: list[str]) -> Iterator[str]:
    """The task A lines of ranked ids, one string per id that has ids ranked
    below it: every pair id_a<TAB>id_b<TAB>1 in pairwise's order."""
    for i in range(len(ids) - 1):
        head = ids[i] + "\t"
        yield head + ("\t1\n" + head).join(ids[i + 1:]) + "\t1\n"


def _write_prediction(outdir: Path, name: str, task: str, ranked: list[ScoredTweet]) -> Path:
    """Write one hashtag's predictions from its ranked tweets, for task "B"
    (one id a line) or task "A" (every pair, as pairwise gives them, as
    id_a<TAB>id_b<TAB>1 lines); return the path."""
    path = _prediction_path(outdir, name, task)
    ids = [st.tweet_id for st in ranked]
    lines = (i + "\n" for i in ids) if task == "B" else _pair_lines(ids)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(lines)
    return path


def _predict(args: argparse.Namespace, task: str) -> int:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    model = read_arpa(args.model)
    config, direction = _resolve_scoring(args, model)
    for fp in _tsv_files(args.hashtags):
        hs = load_hashtag_file(fp)
        ranked = rank(score_hashtag(hs, model, config), direction)
        out = _write_prediction(outdir, hs.hashtag_name, task, ranked)
        n = len(ranked)
        count = f"{n} tweets" if task == "B" else f"{n * (n - 1) // 2} pairs"
        print(f"wrote {out} ({count})")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    return _predict(args, "B")


def cmd_compare(args: argparse.Namespace) -> int:
    return _predict(args, "A")


# Every byte but the two separators, deleted to see a file's separator
# sequence.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")
_LABELS = {"0": 0, "1": 1}


def _split_pairs(data: bytes) -> Optional[list[tuple[str, str, int]]]:
    """The pairs of a task A file's bytes, built in whole-file passes, if the
    file has the layout compare writes: UTF-8, id_a<TAB>id_b<TAB>0|1 lines,
    each ending in a newline. Return None for any other file; the per-line
    reader then reads it and reports the first error."""
    # Each line holds exactly two tabs (UTF-8 never puts a tab or newline
    # byte inside a character). A carriage return would end a line for the
    # per-line reader. An empty id is read as that reader reads it.
    if (
        not data.endswith(b"\n")
        or data.translate(None, _NOT_SEPARATORS) != b"\t\t\n" * data.count(b"\n")
        or b"\r" in data
    ):
        return None
    try:
        fields = data.decode("utf-8").replace("\n", "\t").split("\t")
        labels = list(map(_LABELS.__getitem__, fields[2::3]))
    except (UnicodeDecodeError, KeyError):
        return None
    return list(zip(fields[0::3], fields[1::3], labels))


def _read_predictions_a(path: Path) -> list[tuple[str, str, int]]:
    with open(path, "rb") as f:
        pairs = _split_pairs(f.read())
    if pairs is not None:
        return pairs
    pairs = []
    for lineno, line in nonblank_lines(path):
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise TsvFormatError(path, "expected id_a<TAB>id_b<TAB>0|1", lineno)
        pairs.append((parts[0], parts[1], int(parts[2])))
    return pairs


def _read_predictions_b(path: Path) -> list[str]:
    return [line for _, line in nonblank_lines(path)]


def _evaluate_hashtag(
    name: str,
    gold: GoldTiers,
    pred_dir: Path,
    accuracy_fn,
    distance_fn,
) -> tuple[float, float]:
    path_a = _prediction_path(pred_dir, name, "A")
    path_b = _prediction_path(pred_dir, name, "B")
    if not path_a.exists() or not path_b.exists():
        raise HumorLMError(f"missing prediction file(s) in {pred_dir}")
    accuracy = accuracy_fn(_read_predictions_a(path_a), gold)
    distance = distance_fn(_read_predictions_b(path_b), gold)
    return accuracy, distance


def _write_report(rows: list[tuple[str, float, float]], out) -> tuple[str, str]:
    """Write the per-hashtag report; return the two macro-average fields
    written, or ("NA", "NA") when there are no rows."""
    out.write("hashtag\taccuracy\tdistance\n")
    for name, accuracy, distance in rows:
        out.write(f"{name}\t{accuracy!r}\t{distance!r}\n")
    if not rows:
        return "NA", "NA"
    macro_a = repr(sum(r[1] for r in rows) / len(rows))
    macro_d = repr(sum(r[2] for r in rows) / len(rows))
    out.write(f"macro-average\t{macro_a}\t{macro_d}\n")
    return macro_a, macro_d


def cmd_evaluate(args: argparse.Namespace) -> int:
    gold_files = _tsv_files(args.gold)
    pred_dir = Path(args.predictions)
    accuracy_fn = ACCURACY_METRICS[args.accuracy_metric]
    distance_fn = DISTANCE_METRICS[args.distance_metric]
    rows = []
    for fp in sorted(gold_files, key=lambda p: p.stem):
        gold = load_gold(fp)
        try:
            accuracy, distance = _evaluate_hashtag(
                fp.stem, gold, pred_dir, accuracy_fn, distance_fn
            )
        except HumorLMError as e:
            raise HumorLMError(f"hashtag {fp.stem}: {e}") from None
        rows.append((fp.stem, accuracy, distance))
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
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
        flags = " ".join(
            f"{n}={'true' if getattr(model.config, n) else 'false'}" for n in FLAG_NAMES
        )
        print(f"metadata: {flags} direction={model.direction or '-'}")
    else:
        print("metadata: none (foreign file; pass prep flags and --direction to rank)")
    return 0


def _grid_paths(value) -> list[str]:
    if isinstance(value, str):
        return [value]
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return list(value)
    raise HumorLMError("grid config: corpus paths must be a string or list of strings")


class _GridRow(NamedTuple):
    dataset: str
    corpus: list[str]
    order: int
    config: PrepConfig
    direction: Direction


def _parse_grid_row(idx: int, row, corpora: dict) -> _GridRow:
    """Validate one config row before any row runs."""
    if not isinstance(row, dict):
        raise HumorLMError(f"grid row {idx}: expected a JSON object, got {row!r}")
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
    return _GridRow(dataset, _grid_paths(corpora[dataset]), order, config, direction)


def _run_grid_row(
    idx: int,
    row: _GridRow,
    hashtag_sets: list[HashtagSet],
    gold_by_name: Optional[dict[str, GoldTiers]],
    fallback: Optional[float],
    outdir: Path,
) -> tuple[str, ...]:
    row_dir = outdir / f"row_{idx:02d}"
    row_dir.mkdir(parents=True, exist_ok=True)
    model, _, _ = _train_model(
        row.corpus, row.order, row.config, fallback, row.direction.value
    )
    write_arpa(model, row_dir / "model.arpa")

    results = []
    for hs in hashtag_sets:
        ranked = rank(score_hashtag(hs, model, row.config), row.direction)
        _write_prediction(row_dir, hs.hashtag_name, "B", ranked)
        _write_prediction(row_dir, hs.hashtag_name, "A", ranked)
        if gold_by_name is not None:
            gold = gold_by_name[hs.hashtag_name]
            ranked_ids = [st.tweet_id for st in ranked]
            results.append(
                (hs.hashtag_name, ACCURACY_METRICS["pairwise-tier"](pairwise(ranked), gold),
                 DISTANCE_METRICS["tier-inversion"](ranked_ids, gold))
            )

    macro_a = macro_d = "NA"
    if gold_by_name is not None:
        with open(row_dir / "report.tsv", "w", encoding="utf-8", newline="\n") as f:
            macro_a, macro_d = _write_report(results, f)
    return (
        str(idx),
        row.dataset,
        str(row.order),
        *("true" if getattr(row.config, n) else "false" for n in FLAG_NAMES),
        row.direction.value,
        macro_a,
        macro_d,
    )


def cmd_grid(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise HumorLMError(f"grid config {args.config}: {e}") from None
    if not isinstance(cfg, dict):
        raise HumorLMError("grid config: expected a JSON object")
    for required in ("corpora", "hashtags", "rows"):
        if required not in cfg:
            raise HumorLMError(f"grid config: missing {required!r} key")
    corpora = cfg["corpora"]
    if not isinstance(corpora, dict):
        raise HumorLMError("grid config: corpora must map dataset names to paths")
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
    hashtag_files = _tsv_files(_grid_paths(cfg["hashtags"]))
    hashtag_sets = [load_hashtag_file(fp) for fp in hashtag_files]
    gold_by_name: Optional[dict[str, GoldTiers]] = None
    if cfg.get("gold"):
        # A gold file that is also a hashtag file is not read again.
        loaded = {fp.resolve(): hs for fp, hs in zip(hashtag_files, hashtag_sets)}
        gold_by_name = {}
        for fp in _tsv_files(_grid_paths(cfg["gold"])):
            hs = loaded.get(fp.resolve())
            gold_by_name[fp.stem] = load_gold(fp) if hs is None else gold_tiers(hs, fp)
        for hs in hashtag_sets:
            if hs.hashtag_name not in gold_by_name:
                raise HumorLMError(f"no gold file for hashtag {hs.hashtag_name}")
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    report_rows = [
        _run_grid_row(idx, row, hashtag_sets, gold_by_name, fallback, outdir)
        for idx, row in enumerate(grid_rows, start=1)
    ]

    header = ("row", "dataset", "order", *FLAG_NAMES, "direction", "accuracy", "distance")
    report_path = outdir / "grid_report.tsv"
    with open(report_path, "w", encoding="utf-8", newline="\n") as f:
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
        p.add_argument("--order", type=_positive_int, default=3)
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
    p.add_argument("--accuracy-metric", choices=sorted(ACCURACY_METRICS), default="pairwise-tier")
    p.add_argument("--distance-metric", choices=sorted(DISTANCE_METRICS), default="tier-inversion")
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
    except HumorLMError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
