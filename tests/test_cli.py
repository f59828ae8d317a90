import ast
import errno
import fnmatch
import itertools
import json
import multiprocessing
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import write_tsv
from humorlm import cli as cli_module
from humorlm.cli import main
from humorlm.errors import HumorLMError, TsvFormatError
from humorlm.metrics import accuracy_a, distance_b, load_gold
from humorlm.model import read_arpa
from humorlm.ranker import load_hashtag_file, nonblank_lines, read_text, score_hashtag

ROOT = Path(cli_module.__file__).resolve().parents[2]


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "train"
    d.mkdir()
    write_tsv(
        d / "One_Tag.tsv",
        [
            ("101", "the host of singled out"),
            ("102", "the host of the show"),
            ("103", "a donut receipt"),
            ("104", "the host of singled out again #tag"),
        ],
    )
    write_tsv(
        d / "Two_Tag.tsv",
        [
            ("201", "my cat sat on the mat"),
            ("202", "the host of singled out was here"),
        ],
    )
    return d


@pytest.fixture()
def news_file(tmp_path):
    p = tmp_path / "news.txt"
    p.write_text(
        "shares fell sharply in early trading\n"
        "the central bank held rates steady\n"
        "officials said the report was due monday\n",
        encoding="utf-8",
    )
    return p


@pytest.fixture()
def hashtag_file(tmp_path):
    p = tmp_path / "Fresh_Tag.tsv"
    write_tsv(
        p,
        [
            ("t-funny", "the host of singled out"),
            ("t-odd", "zzz qqq www eee rrr"),
            ("t-mid", "a donut receipt"),
        ],
    )
    return p


def _train(corpus_dir, out, *extra):
    # the fixture corpus is too small for closed-form discounts
    args = ["train", str(corpus_dir), "-o", str(out), "--order", "3",
            "--fallback-discount", "0.5", *extra]
    rc = main(args)
    assert rc == 0
    return out


class TestTrain:
    def test_writes_arpa_with_sections(self, corpus_dir, tmp_path, capsys):
        out = _train(corpus_dir, tmp_path / "m.arpa")
        text = out.read_text()
        assert "\\data\\" in text and "\\3-grams:" in text and "\\end\\" in text
        printed = capsys.readouterr().out
        assert "order-3" in printed and "vocab" in printed

    @pytest.mark.parametrize("order", ["0", "11", "x"])
    def test_bad_order_is_usage_error(self, corpus_dir, tmp_path, order):
        with pytest.raises(SystemExit) as exc:
            main(["train", str(corpus_dir), "-o", str(tmp_path / "m"), "--order", order])
        assert exc.value.code == 2
        assert not (tmp_path / "m").exists()

    def test_bad_fallback_is_usage_error(self, corpus_dir, tmp_path):
        for fallback in ("1.5", "x"):
            with pytest.raises(SystemExit) as exc:
                main([
                    "train", str(corpus_dir), "-o", str(tmp_path / "m"),
                    "--fallback-discount", fallback,
                ])
            assert exc.value.code == 2

    def test_deterministic_bytes(self, corpus_dir, tmp_path):
        a = _train(corpus_dir, tmp_path / "a.arpa")
        b = _train(corpus_dir, tmp_path / "b.arpa")
        assert a.read_bytes() == b.read_bytes()

    def test_huge_order_is_an_error(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "m.arpa"
        with pytest.raises(SystemExit) as exc:
            main(["train", str(corpus_dir), "-o", str(out), "--order", "20000"])
        assert exc.value.code == 2
        assert "error: argument --order: must be 1..10, got 20000" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory_names_the_model(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "nodir" / "m.arpa"
        with pytest.raises(AssertionError):
            _train(corpus_dir, out)
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not (tmp_path / "nodir").exists()

    def test_export_arpa_alias(self, corpus_dir, tmp_path):
        a = _train(corpus_dir, tmp_path / "a.arpa")
        rc = main([
            "export-arpa", str(corpus_dir), "-o", str(tmp_path / "b.arpa"),
            "--order", "3", "--fallback-discount", "0.5",
        ])
        assert rc == 0
        assert a.read_bytes() == (tmp_path / "b.arpa").read_bytes()

    def test_empty_corpus_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n", encoding="utf-8")
        rc = main(["train", str(empty), "-o", str(tmp_path / "m.arpa")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_degenerate_discounts_fail_without_fallback(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("a b a b\n", encoding="utf-8")
        rc = main(["train", str(tiny), "-o", str(tmp_path / "m.arpa"), "--order", "1"])
        assert rc == 1
        assert "discount" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("105\tfour columns\t1\tx\n", "expected tweet_id<TAB>text[<TAB>gold_label]"),
            ("105\ta signed tier\t+2\n", "gold label must be one of (0, 1, 2), got '+2'"),
            ("\tan empty id\n", "expected tweet_id<TAB>text[<TAB>gold_label]"),
            (" \ta blank id\n", "expected tweet_id<TAB>text[<TAB>gold_label]"),
            ("\u2028\ta blank id\n", "expected tweet_id<TAB>text[<TAB>gold_label]"),
            ("101\ta repeated id\n", "duplicate tweet id '101' in hashtag 'One_Tag'"),
        ],
        ids=["four-columns", "signed-tier", "empty-id", "space-id", "line-separator-id",
             "repeated-id"],
    )
    def test_tsv_rows_follow_the_hashtag_file_rule(self, corpus_dir, tmp_path, capsys, row, message):
        # A .tsv training file is read as a hashtag file is, row for row.
        tsv = corpus_dir / "One_Tag.tsv"
        with open(tsv, "a", encoding="utf-8") as f:
            f.write(row)
        out = tmp_path / "m.arpa"
        rc = main(["train", str(corpus_dir), "-o", str(out), "--fallback-discount", "0.5"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tsv}, line 5: {message}\n"
        assert not out.exists()

    def test_raw_text_and_flags(self, news_file, tmp_path):
        out = tmp_path / "news.arpa"
        rc = main([
            "train", str(news_file), "-o", str(out),
            "--order", "2", "--boundaries", "--lowercase",
            "--direction", "least-like", "--fallback-discount", "0.4",
        ])
        assert rc == 0
        head = out.read_text().splitlines()[0]
        assert "boundaries=true" in head
        assert "lowercase=true" in head
        assert "direction=least-like" in head


class TestRankCompare:
    def test_rank_output(self, corpus_dir, hashtag_file, tmp_path):
        model = _train(corpus_dir, tmp_path / "m.arpa", "--filter-tags")
        outdir = tmp_path / "preds"
        rc = main(["rank", str(hashtag_file), "-m", str(model), "-d", str(outdir)])
        assert rc == 0
        got = (outdir / "Fresh_Tag_PREDICT_B.tsv").read_text().splitlines()
        assert sorted(got) == ["t-funny", "t-mid", "t-odd"]
        # the in-distribution tweet must out-score the OOV one
        assert got[0] == "t-funny"
        assert got[-1] == "t-odd"

    def test_direction_flips_ranking(self, corpus_dir, hashtag_file, tmp_path):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        outdir = tmp_path / "preds"
        main(["rank", str(hashtag_file), "-m", str(model), "-d", str(outdir)])
        most = (outdir / "Fresh_Tag_PREDICT_B.tsv").read_text().splitlines()
        outdir2 = tmp_path / "preds2"
        main([
            "rank", str(hashtag_file), "-m", str(model), "-d", str(outdir2),
            "--direction", "least-like",
        ])
        least = (outdir2 / "Fresh_Tag_PREDICT_B.tsv").read_text().splitlines()
        assert most == list(reversed(least))

    def test_compare_output(self, corpus_dir, hashtag_file, tmp_path):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        outdir = tmp_path / "preds"
        rc = main(["compare", str(hashtag_file), "-m", str(model), "-d", str(outdir)])
        assert rc == 0
        rows = [
            line.split("\t")
            for line in (outdir / "Fresh_Tag_PREDICT_A.tsv").read_text().splitlines()
        ]
        assert len(rows) == 3  # 3 tweets -> 3 pairs
        assert all(r[2] == "1" for r in rows)

    def test_rank_and_compare_consistent(self, corpus_dir, hashtag_file, tmp_path):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        outdir = tmp_path / "preds"
        main(["rank", str(hashtag_file), "-m", str(model), "-d", str(outdir)])
        main(["compare", str(hashtag_file), "-m", str(model), "-d", str(outdir)])
        order = (outdir / "Fresh_Tag_PREDICT_B.tsv").read_text().splitlines()
        pairs = [
            tuple(line.split("\t"))
            for line in (outdir / "Fresh_Tag_PREDICT_A.tsv").read_text().splitlines()
        ]
        pos = {t: i for i, t in enumerate(order)}
        for a, b, label in pairs:
            assert label == "1"
            assert pos[a] < pos[b]

    def test_single_tweet_file(self, corpus_dir, tmp_path):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        solo = tmp_path / "Solo.tsv"
        write_tsv(solo, [("only", "the host")])
        outdir = tmp_path / "preds"
        main(["compare", str(solo), "-m", str(model), "-d", str(outdir)])
        main(["rank", str(solo), "-m", str(model), "-d", str(outdir)])
        assert (outdir / "Solo_PREDICT_A.tsv").read_text() == ""
        assert (outdir / "Solo_PREDICT_B.tsv").read_text() == "only\n"

    def test_malformed_tsv_names_line(self, corpus_dir, tmp_path, capsys):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        bad = tmp_path / "Bad.tsv"
        bad.write_text("id1\tok\nbroken-row\n", encoding="utf-8")
        rc = main(["rank", str(bad), "-m", str(model), "-d", str(tmp_path)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_not_utf8_is_reported_before_a_bad_line(self, corpus_dir, tmp_path, capsys):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        bad = tmp_path / "Bad.tsv"
        rows = "".join(f"{i}\tthe host\n" for i in range(2, 2000))
        data = ("1\tthe host\nbroken-row\n" + rows).encode() + b"\xc3"
        assert len(data) > 8192
        bad.write_bytes(data)
        capsys.readouterr()
        assert main(["rank", str(bad), "-m", str(model), "-d", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text (unexpected end of data)\n"
        )

    def test_foreign_model_needs_direction(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.arpa"
        foreign.write_text(
            "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\t<unk>\n-0.4\ta\n\n\\end\\\n",
            encoding="utf-8",
        )
        tag = tmp_path / "T.tsv"
        write_tsv(tag, [("1", "a"), ("2", "b")])
        rc = main(["rank", str(tag), "-m", str(foreign), "-d", str(tmp_path)])
        assert rc == 1
        assert "--direction" in capsys.readouterr().err
        rc = main([
            "rank", str(tag), "-m", str(foreign), "-d", str(tmp_path),
            "--direction", "most-like",
        ])
        assert rc == 0


    def test_prep_flag_overrides_foreign_model(self, tmp_path):
        # No metadata, so every switch is off unless a flag turns it on.
        foreign = tmp_path / "foreign.arpa"
        foreign.write_text(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-1.0\t<unk>\n-0.3\tthe\n-0.3\thost\n"
            "\n\\end\\\n",
            encoding="utf-8",
        )
        tag = tmp_path / "T.tsv"
        write_tsv(tag, [("a", "the qqq"), ("b", "THE HOST")])
        argv = ["rank", str(tag), "-m", str(foreign), "--direction", "most-like"]
        # "THE HOST" is two <unk> events (-2.0) unless lowercased (-0.6).
        for flags, out, want in (
            ([], "plain", "a\nb\n"),
            (["--lowercase"], "lowered", "b\na\n"),
        ):
            assert main([*argv, "-d", str(tmp_path / out), *flags]) == 0
            assert (tmp_path / out / "T_PREDICT_B.tsv").read_text(encoding="utf-8") == want

    def test_no_filter_tags_keeps_tags_of_a_filtering_model(self, corpus_dir, tmp_path):
        model = _train(corpus_dir, tmp_path / "m.arpa", "--filter-tags")
        tag = tmp_path / "T.tsv"
        write_tsv(tag, [("a", "the host #x"), ("b", "the host")])
        argv = ["rank", str(tag), "-m", str(model)]
        # Filtered, the two tweets tie and rank by id; kept, "#x" is one
        # more <unk> event and ranks "a" last.
        for flags, out, want in (
            ([], "filtered", "a\nb\n"),
            (["--no-filter-tags"], "kept", "b\na\n"),
        ):
            assert main([*argv, "-d", str(tmp_path / out), *flags]) == 0
            assert (tmp_path / out / "T_PREDICT_B.tsv").read_text(encoding="utf-8") == want


    def test_many_tweets_that_filter_to_nothing(self, corpus_dir, tmp_path):
        # Tag-only tweets are empty sequences without boundaries; a hundred
        # of them beside one long tweet score 0.0 and rank above it.
        model = _train(corpus_dir, tmp_path / "m.arpa", "--filter-tags")
        tag = tmp_path / "T.tsv"
        long = " ".join(["the host of singled out"] * 12)
        write_tsv(tag, [("long", long)] + [(f"e{i:03d}", "#tag @user") for i in range(100)])
        outdir = tmp_path / "preds"
        for cmd in ("rank", "compare"):
            assert main([cmd, str(tag), "-m", str(model), "-d", str(outdir)]) == 0
        ranked = (outdir / "T_PREDICT_B.tsv").read_text(encoding="utf-8").splitlines()
        assert ranked == [f"e{i:03d}" for i in range(100)] + ["long"]


class TestEvaluate:
    def _predictions(self, tmp_path, ranking, name="G"):
        pred = tmp_path / "preds"
        pred.mkdir(exist_ok=True)
        with open(pred / f"{name}_PREDICT_B.tsv", "w") as f:
            f.writelines(t + "\n" for t in ranking)
        with open(pred / f"{name}_PREDICT_A.tsv", "w") as f:
            for i, a in enumerate(ranking):
                for b in ranking[i + 1:]:
                    f.write(f"{a}\t{b}\t1\n")
        return pred

    def _gold(self, tmp_path):
        gold_dir = tmp_path / "gold"
        gold_dir.mkdir(exist_ok=True)
        write_tsv(gold_dir / "G.tsv", [("a", "x", 2), ("b", "y", 1), ("c", "z", 0)])
        return gold_dir

    def test_perfect_predictions(self, tmp_path, capsys):
        gold = self._gold(tmp_path)
        pred = self._predictions(tmp_path, ["a", "b", "c"])
        rc = main(["evaluate", str(gold), "-p", str(pred)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "hashtag\taccuracy\tdistance"
        assert lines[1].split("\t") == ["G", "1.0", "0.0"]
        assert lines[2].split("\t") == ["macro-average", "1.0", "0.0"]

    def test_hand_example_accuracy(self, tmp_path, capsys):
        gold = self._gold(tmp_path)
        pred = self._predictions(tmp_path, ["b", "a", "c"])
        rc = main(["evaluate", str(gold), "-p", str(pred)])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split("\t")
        assert float(row[1]) == pytest.approx(2 / 3)

    def test_report_file_and_macro(self, tmp_path):
        gold_dir = self._gold(tmp_path)
        write_tsv(gold_dir / "H.tsv", [("p", "x", 2), ("q", "y", 0)])
        pred = self._predictions(tmp_path, ["a", "b", "c"])
        with open(pred / "H_PREDICT_B.tsv", "w") as f:
            f.write("q\np\n")  # reversed: accuracy 0, distance 1
        with open(pred / "H_PREDICT_A.tsv", "w") as f:
            f.write("q\tp\t1\n")
        out = tmp_path / "report.tsv"
        rc = main(["evaluate", str(gold_dir), "-p", str(pred), "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header, G, H, macro
        macro = lines[3].split("\t")
        assert float(macro[1]) == pytest.approx(0.5)
        assert float(macro[2]) == pytest.approx(0.5)

    def test_missing_output_directory_names_the_report(self, tmp_path, capsys):
        gold = self._gold(tmp_path)
        pred = self._predictions(tmp_path, ["a", "b", "c"])
        out = tmp_path / "nodir" / "report.tsv"
        assert main(["evaluate", str(gold), "-p", str(pred), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not (tmp_path / "nodir").exists()

    def test_macro_average_adds_left_to_right(self, tmp_path):
        # Ten rows of accuracy 0.1 and distance 0.9 average to
        # 0.09999999999999999 and 0.9000000000000001 when added left to
        # right from 0.0, but to 0.1 and 0.9 under the compensated summation
        # that built-in sum() uses from CPython 3.12 on. The report keeps the
        # first on every interpreter.
        gold_dir = tmp_path / "gold"
        gold_dir.mkdir()
        zeros = [f"z{i}" for i in range(10)]
        for n in range(10):
            write_tsv(gold_dir / f"G{n}.tsv", [("w", "x", 2), *((z, "y", 0) for z in zeros)])
            self._predictions(tmp_path, [*zeros[:9], "w", zeros[9]], f"G{n}")
        out = tmp_path / "report.tsv"
        assert main(["evaluate", str(gold_dir), "-p", str(tmp_path / "preds"), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1:-1] == [f"G{n}\t0.1\t0.9" for n in range(10)]
        assert lines[-1] == "macro-average\t0.09999999999999999\t0.9000000000000001"

    def test_missing_prediction_file(self, tmp_path, capsys):
        gold = self._gold(tmp_path)
        (tmp_path / "nothing").mkdir()
        rc = main(["evaluate", str(gold), "-p", str(tmp_path / "nothing")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: hashtag G: missing prediction file {tmp_path / 'nothing' / 'G_PREDICT_A.tsv'}\n"
        )

    def test_id_mismatch_names_hashtag(self, tmp_path, capsys):
        gold = self._gold(tmp_path)
        pred = self._predictions(tmp_path, ["a", "b", "mystery"])
        rc = main(["evaluate", str(gold), "-p", str(pred)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "G" in err and "mystery" in err


class TestPairFileBytes:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 200])
    def test_pairs_are_combinations_of_the_ranking(self, corpus_dir, tmp_path, capsys, n):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        rng = random.Random(n)
        words = ["the", "host", "of", "singled", "out", "a", "donut", "receipt", "zzz"]
        ids = [f"id {i} \u00e9\u30c4" if i % 3 == 0 else f"t{i}" for i in range(n)]
        tag = tmp_path / "Pair_Tag.tsv"
        write_tsv(tag, [(i, " ".join(rng.choices(words, k=rng.randint(1, 6)))) for i in ids])
        outdir = tmp_path / "preds"
        assert main(["rank", str(tag), "-m", str(model), "-d", str(outdir)]) == 0
        capsys.readouterr()
        assert main(["compare", str(tag), "-m", str(model), "-d", str(outdir)]) == 0
        path = outdir / "Pair_Tag_PREDICT_A.tsv"
        assert capsys.readouterr().out == f"wrote {path} ({n * (n - 1) // 2} pairs)\n"
        ranked = (outdir / "Pair_Tag_PREDICT_B.tsv").read_text(encoding="utf-8").splitlines()
        assert sorted(ranked) == sorted(ids)
        expected = "".join(f"{a}\t{b}\t1\n" for a, b in itertools.combinations(ranked, 2))
        assert path.read_bytes() == expected.encode("utf-8")


_PAIR_IDS = ["a", "b c", "\u00e9", "x1", "\u30c4 2"]
_PAIR_COMBINATIONS = list(itertools.combinations(_PAIR_IDS, 2))
_PAIR_TEXT = "".join(f"{a}\t{b}\t1\n" for a, b in _PAIR_COMBINATIONS)
_PAIR_PAYLOADS = (
    "", "\t", "\t\t", " ", "\n", "\n\n", "\r", "\r\n", "\x0b", "\x85", "\u2028",
    "\ufeff", "0", "1", "2", "-", "\u00e9",
)


def _pairs_outcome(path):
    """What evaluate's pair reader makes of a file: the pairs or the error."""
    try:
        return cli_module._read_predictions_a(path, read_text(path))
    except HumorLMError as e:
        return str(e)


def _reference_outcome(path):
    """What a pair file holds, by a per-line reader kept as the reference:
    the pairs, or the error at the first bad line. Like evaluate's reader,
    it decodes the whole file first, so a file that is not UTF-8 is an
    error whatever its lines hold."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        return f"{path}: not UTF-8 text ({e.reason})"
    pairs = []
    for lineno, line in nonblank_lines(path):
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            return str(TsvFormatError(path, "expected id_a<TAB>id_b<TAB>0|1", lineno))
        if not parts[0] or not parts[1]:
            return str(TsvFormatError(path, "empty tweet id", lineno))
        pairs.append((parts[0], parts[1], int(parts[2])))
    return pairs


def _row_alike(pred_dir, gold: dict):
    """evaluate's outcome for hashtag T, whose task A file is already in
    `pred_dir`, against gold tiers `gold`: its report row, or its error.
    It must be the outcome of accuracy_a on _reference_outcome's pairs.
    The task B file lists the gold ids, so the distance is defined
    whenever the accuracy is."""
    gold_dir = pred_dir / "gold"
    gold_dir.mkdir(exist_ok=True)
    gold_path = gold_dir / "T.tsv"
    write_tsv(gold_path, [(tweet_id, "x", tier) for tweet_id, tier in gold.items()])
    with open(pred_dir / "T_PREDICT_B.tsv", "w", encoding="utf-8", newline="\n") as f:
        f.writelines(tweet_id + "\n" for tweet_id in gold)
    try:
        got = cli_module._evaluate_hashtag(gold_path, pred_dir)
    except HumorLMError as e:
        got = str(e)
    pairs = _reference_outcome(pred_dir / "T_PREDICT_A.tsv")
    try:
        if isinstance(pairs, str):
            raise HumorLMError(pairs)
        tiers = load_gold(gold_path)
        want = ("T", accuracy_a(pairs, tiers), distance_b(list(gold), tiers))
    except HumorLMError as e:
        want = f"hashtag T: {e}"
    assert got == want
    return got


_PAIR_GOLD = dict(zip(_PAIR_IDS, (1, 2, 0, 1, 0)))


def _read_alike(path, data: bytes):
    """The pair reader's outcome on `data`, checked against the reference,
    and evaluate's outcome for the hashtag checked by _row_alike."""
    path.write_bytes(data)
    got = _pairs_outcome(path)
    assert got == _reference_outcome(path)
    _row_alike(path.parent, _PAIR_GOLD)
    return got


class TestPairFileRead:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("blank-lines", "same"),
            ("crlf", "same"),
            ("no-final-newline", "same"),
            ("empty", []),
            ("empty-id", "line 4: empty tweet id"),
            ("empty-second-id", "line 4: empty tweet id"),
            ("empty-first-id", "line 1: empty tweet id"),
            ("empty-label", "line 4"),
            ("three-tabs", "line 4"),
            ("one-tab", "line 4"),
            ("tab-moved", "line 4"),
            ("cr-in-id", "line 4"),
            ("trailing-text", "line 11"),
            ("label-2", "line 4"),
            ("not-utf8", "not UTF-8"),
            # The first three pairs are labelled 0.
            ("zero-labels", [(a, b, int(i >= 3)) for i, (a, b) in enumerate(_PAIR_COMBINATIONS)]),
        ],
    )
    def test_layouts_read_alike(self, tmp_path, name, expected):
        lines = _PAIR_TEXT.splitlines(keepends=True)
        if name == "blank-lines":
            lines[3:3] = ["\n", "  \n"]
        elif name == "crlf":
            lines = [line.replace("\n", "\r\n") for line in lines]
        elif name == "no-final-newline":
            lines[-1] = lines[-1][:-1]
        elif name == "empty":
            lines = []
        elif name == "empty-id":
            lines[3] = "\t" + lines[3].split("\t", 1)[1]
        elif name == "empty-second-id":
            lines[3] = lines[3].split("\t", 1)[0] + "\t\t1\n"
        elif name == "empty-first-id":
            lines[0] = "\t" + lines[0].split("\t", 1)[1]
        elif name == "empty-label":
            lines[3] = lines[3][:-2] + "\n"
        elif name == "three-tabs":
            lines[3] = "z\t" + lines[3]
        elif name == "one-tab":
            lines[3] = lines[3].split("\t", 1)[1]
        elif name == "tab-moved":
            # Lines of one and three tabs whose label fields still line up.
            lines[3:5] = ["a\t1\n", "1\tb c\t1\t1\n"]
        elif name == "cr-in-id":
            lines[3] = "a\rz" + lines[3][1:]
        elif name == "trailing-text":
            lines.append("z")
        elif name == "label-2":
            lines[3] = lines[3][:-2] + "2\n"
        elif name == "zero-labels":
            lines = "".join(lines).replace("\t1\n", "\t0\n", 3).splitlines(keepends=True)
        data = "".join(lines).encode("utf-8")
        if name == "not-utf8":
            data += b"caf\xe9\n"
        got = _read_alike(tmp_path / "T_PREDICT_A.tsv", data)
        if expected == "same":
            assert got == _read_alike(tmp_path / "T_PREDICT_A.tsv", _PAIR_TEXT.encode())
        elif isinstance(expected, str):
            assert expected in got
        else:
            assert got == expected

    def test_not_utf8_is_reported_before_a_bad_line(self, tmp_path):
        path = tmp_path / "T_PREDICT_A.tsv"
        data = ("a\tb\t1\nbroken\n" + "a\tb\t1\n" * 2000).encode() + b"\xc3"
        assert len(data) > 8192
        # Without the truncated sequence at its end, the file's first error
        # is the bad line 2.
        assert _read_alike(path, data[:-1]) == f"{path}, line 2: expected id_a<TAB>id_b<TAB>0|1"
        assert _read_alike(path, data) == f"{path}: not UTF-8 text (unexpected end of data)"

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_reader_matches_reference_on_mutated_files(self, tmp_path, data):
        lines = _PAIR_TEXT.splitlines(keepends=True)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            i = data.draw(st.integers(min_value=0, max_value=max(len(lines) - 1, 0)))
            op = data.draw(st.sampled_from(("edit", "duplicate", "delete")))
            if not lines:
                lines.append(data.draw(st.sampled_from(_PAIR_PAYLOADS)))
            elif op == "edit":
                j = data.draw(st.integers(min_value=0, max_value=len(lines[i])))
                cut = data.draw(st.integers(min_value=0, max_value=2))
                lines[i] = lines[i][:j] + data.draw(st.sampled_from(_PAIR_PAYLOADS)) + lines[i][j + cut:]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:
                del lines[i]
        raw = "".join(lines).encode("utf-8")
        if data.draw(st.booleans()):
            pos = data.draw(st.integers(min_value=0, max_value=len(raw)))
            raw = raw[:pos] + data.draw(st.sampled_from((b"\xff", b"\xc3", b"\x00"))) + raw[pos:]
        _read_alike(tmp_path / "T_PREDICT_A.tsv", raw)


# Tweet ids: no tab, no line break and not all whitespace, so that a task B
# file lists them all; spaces, non-ASCII characters, a byte order mark and
# separators that str.splitlines would split on (but the readers do not).
_ID = st.text(alphabet="ab \u00e9\u30c4\x85\u2028\ufeff", min_size=1, max_size=3).filter(str.strip)


class TestPairListScoring:
    """A task A file that is the pair list of a ranking, as compare writes
    it, is scored from that ranking; every file, recognized or not, gets
    the float or the error of accuracy_a on the pairs it holds."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_pair_lists_and_their_mutants_score_alike(self, tmp_path, data):
        pool = data.draw(st.lists(_ID, min_size=1, max_size=30, unique=True))
        if data.draw(st.booleans()):
            ranking = data.draw(st.permutations(pool))
        else:  # repeated ids
            ranking = data.draw(st.lists(st.sampled_from(pool), max_size=30))
        covered = data.draw(st.sampled_from(("all", "some", "none")))
        if covered == "all":
            gold_ids = list(pool)
        elif covered == "some":
            gold_ids = data.draw(st.lists(st.sampled_from(pool), unique=True))
        else:
            gold_ids = []
        gold_ids += ["g0", "g1"][:data.draw(st.integers(min_value=0, max_value=2))]
        if data.draw(st.booleans()):
            tiers = [data.draw(st.sampled_from((0, 1)))] * len(gold_ids)
        else:
            tiers = data.draw(st.lists(st.sampled_from((0, 1)),
                                       min_size=len(gold_ids), max_size=len(gold_ids)))
            if gold_ids and data.draw(st.booleans()):
                tiers[data.draw(st.integers(min_value=0, max_value=len(gold_ids) - 1))] = 2
        gold = dict(zip(gold_ids, tiers))

        path = tmp_path / "T_PREDICT_A.tsv"
        text = "".join(cli_module._pair_lines(ranking))

        def score(content: str, recognized):
            path.write_bytes(content.encode("utf-8"))
            if recognized != "any":
                assert cli_module._ranking_of_pairs(read_text(path)) == recognized
            _row_alike(tmp_path, gold)

        score(text, ranking if len(ranking) > 1 else None)
        if len(ranking) < 2:
            return
        # Not text.splitlines(): an id may hold a separator it splits on.
        lines = [line + "\n" for line in text.split("\n")[:-1]]
        i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        a, b, _ = lines[i].split("\t")

        def edit(new: str) -> str:
            return "".join(lines[:i]) + new + "".join(lines[i + 1:])

        swapped = list(lines)
        swapped[i], swapped[j] = lines[j], lines[i]
        body = lines[i][:-1]
        tab = data.draw(st.sampled_from((len(a), len(a) + 1 + len(b))))
        body = body[:tab] + body[tab + 1:]
        to = data.draw(st.integers(min_value=0, max_value=len(body)))
        for mutant, recognized in (
            (edit(f"{a}\t{b}\t0\n"), None),
            ("".join(swapped), "any"),  # the same text when the lines are equal
            (edit(""), None),
            (edit(lines[i] * 2), None),
            (edit("\n" + lines[i]), None),
            (text[:-1], None),
            (edit(f"\t{b}\t1\n"), None),
            (edit(f"{a}\t\t1\n"), None),
            (edit(body[:to] + "\t" + body[to:] + "\n"), "any"),
            ("\ufeff" + text, "any"),  # read as part of the first id
            # Read with universal newlines: the text of the pair list.
            (text.replace("\n", "\r\n"), ranking),
        ):
            score(mutant, recognized)

class TestGrid:
    def test_grid_runs_rows(self, corpus_dir, news_file, tmp_path):
        tags = tmp_path / "tags"
        tags.mkdir()
        write_tsv(
            tags / "T.tsv",
            [("x", "the host of singled out", 2), ("y", "a donut receipt", 1), ("z", "zzz qqq", 0)],
        )
        cfg = {
            "corpora": {"tweets": str(corpus_dir), "news": str(news_file)},
            "hashtags": str(tags),
            "gold": str(tags),
            "fallback_discount": 0.5,
            "rows": [
                {"dataset": ds, "order": n, "filter_tags": True, "direction": d}
                for ds, d in (("tweets", "most-like"), ("news", "least-like"))
                for n in (1, 2, 3, 4)
            ],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outdir = tmp_path / "out"
        rc = main(["grid", str(cfg_path), "-d", str(outdir)])
        assert rc == 0
        report = (outdir / "grid_report.tsv").read_text().splitlines()
        assert len(report) == 9  # header + 8 rows
        header = report[0].split("\t")
        assert header[:3] == ["row", "dataset", "order"]
        for i in range(1, 9):
            row = report[i].split("\t")
            assert (outdir / f"row_{i:02d}" / "model.arpa").exists()
            assert (outdir / f"row_{i:02d}" / "T_PREDICT_B.tsv").exists()
            assert (outdir / f"row_{i:02d}" / "report.tsv").exists()
            assert 0.0 <= float(row[-2]) <= 1.0
            assert 0.0 <= float(row[-1]) <= 1.0

    def test_grid_without_gold(self, corpus_dir, tmp_path):
        tags = tmp_path / "tags"
        tags.mkdir()
        write_tsv(tags / "T.tsv", [("x", "the host"), ("y", "donut")])
        cfg = {
            "corpora": {"tweets": str(corpus_dir)},
            "hashtags": str(tags),
            "fallback_discount": 0.5,
            "rows": [{"dataset": "tweets", "order": 2}],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outdir = tmp_path / "out"
        rc = main(["grid", str(cfg_path), "-d", str(outdir)])
        assert rc == 0
        row = (outdir / "grid_report.tsv").read_text().splitlines()[1].split("\t")
        assert row[-2] == "NA" and row[-1] == "NA"

    def test_grid_same_file_gold_needs_labels(self, corpus_dir, tmp_path, capsys):
        tags = tmp_path / "tags"
        tags.mkdir()
        write_tsv(tags / "T.tsv", [("x", "the host", 2), ("y", "donut")])
        cfg = {
            "corpora": {"tweets": str(corpus_dir)},
            "hashtags": str(tags),
            "gold": str(tags),
            "fallback_discount": 0.5,
            "rows": [{"dataset": "tweets", "order": 2}],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["grid", str(cfg_path), "-d", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gold label column required" in err
        assert not (tmp_path / "out" / "row_01").exists()

    def test_grid_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text("{}", encoding="utf-8")
        rc = main(["grid", str(cfg_path), "-d", str(tmp_path / "out")])
        assert rc == 1
        assert "corpora" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"rows": [{"dataset": "tweets", "order": "x"}]}, "order must be an integer"),
            ({"fallback_discount": "abc"}, "fallback_discount must be a number"),
            ({"rows": ["x"]}, "grid row 1: expected a JSON object"),
            ({"corpora": ["tweets"]}, "corpora must map"),
            (
                {"rows": [{"dataset": "tweets", "lowercase": "false"}]},
                "lowercase must be true or false",
            ),
            ({"rows": [{"dataset": "tweets", "order": 2.5}]}, "order must be an integer"),
            ({"rows": [{"dataset": "tweets", "order": True}]}, "order must be an integer"),
            ({"rows": [{"dataset": "tweets", "order": "3"}]}, "order must be an integer"),
            ({"rows": [{"dataset": "tweets", "order": 1e400}]}, "order must be an integer"),
            ({"fallback_discount": True}, "fallback_discount must be a number"),
            ({"rows": [{"dataset": "tweets", "order": 20000}]}, "order must be <= 10"),
            ({"fallback_discuont": 0.5}, "grid config: unknown key 'fallback_discuont'"),
            (
                {"rows": [{"dataset": "tweets", "boundary": True}]},
                "grid row 1: unknown key 'boundary'",
            ),
            (
                {"corpora": {"tweets": []}},
                "grid config: corpus 'tweets' must be a path or a non-empty list of paths",
            ),
            (
                {"hashtags": []},
                "grid config: hashtags must be a path or a non-empty list of paths",
            ),
            ({"gold": 5}, "grid config: gold must be a path or a non-empty list of paths"),
            ({"rows": [{"dataset": "news"}]}, "grid row 1: unknown dataset 'news'"),
            ({"rows": [{"dataset": "tweets", "order": 0}]}, "grid row 1: order must be >= 1"),
            (
                {"rows": [{"dataset": "tweets", "direction": "up"}]},
                "grid row 1: bad direction 'up'",
            ),
            (["rows"], "grid config: expected a JSON object"),
            ({"rows": []}, "grid config: rows must be a non-empty list"),
            ({"fallback_discount": 2}, "grid config: fallback_discount must be in (0, 1], got 2.0"),
            ({"gold": "gold"}, "grid config: no gold file for hashtag T"),
        ],
        ids=[
            "order", "fallback", "row", "corpora", "flag",
            "order-float", "order-bool", "order-string", "order-1e400", "fallback-bool",
            "order-huge", "unknown-key", "unknown-row-key", "empty-corpus", "empty-hashtags",
            "gold-number", "unknown-dataset", "order-zero", "direction", "not-object",
            "no-rows", "fallback-range", "gold-missing-hashtag",
        ],
    )
    def test_grid_malformed_config(self, corpus_dir, tmp_path, capsys, monkeypatch,
                                   change, message):
        tags = tmp_path / "tags"
        tags.mkdir()
        write_tsv(tags / "T.tsv", [("x", "the host"), ("y", "donut")])
        (tmp_path / "gold").mkdir()
        write_tsv(tmp_path / "gold" / "G.tsv", [("a", "the host", 2)])
        # A relative path in `change` is read from tmp_path.
        monkeypatch.chdir(tmp_path)
        cfg = {
            "corpora": {"tweets": str(corpus_dir)},
            "hashtags": str(tags),
            "fallback_discount": 0.5,
            "rows": [{"dataset": "tweets", "order": 2}],
            **change,
        } if isinstance(change, dict) else change
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["grid", str(cfg_path), "-d", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid") and message in err
        assert not (tmp_path / "out").exists()


def _grid_config(tmp_path, corpora, rows):
    """A grid config over one gold-labelled hashtag file; return its path."""
    tags = tmp_path / "tags"
    tags.mkdir(exist_ok=True)
    write_tsv(
        tags / "T.tsv",
        [("x", "the host of singled out", 2), ("y", "a donut receipt", 1),
         ("z", "zzz qqq", 0), ("w", "my cat sat", 1)],
    )
    cfg = {
        "corpora": {name: str(path) for name, path in corpora.items()},
        "hashtags": str(tags),
        "gold": str(tags),
        "fallback_discount": 0.5,
        "rows": rows,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _tree(root):
    """{relative path: bytes} of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# Runs grid with a worker process per row, up to two, however many CPUs
# this process may use.
_TWO_WORKERS = """
import sys
from humorlm import cli
cli._workers = lambda n_tasks: min(n_tasks, 2)
sys.exit(cli.main(sys.argv[1:]))
"""


class TestGridWorkers:
    """Rows of a grid run in forked worker processes, with the outputs and
    errors of running them one after another in this process."""

    @pytest.fixture()
    def forks(self, monkeypatch):
        """Up to two workers per grid, and the pid of each fork made."""
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(cli_module, "_workers", lambda n_tasks: min(n_tasks, 2))
        return pids

    @staticmethod
    def _assert_all_reaped(pids):
        assert multiprocessing.active_children() == []
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_one_worker_per_usable_cpu_and_row(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count()
        assert [cli_module._workers(n) for n in (1, 2, 3)] == [min(n, cpus) for n in (1, 2, 3)]
        # While another thread runs, rows run in this process.
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert cli_module._workers(3) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        # Where threads cannot be counted, a process that has imported numpy
        # runs its tasks itself: numpy's BLAS may have started threads.
        listdir = os.listdir

        def no_proc(path):
            if str(path).startswith("/proc/"):
                raise FileNotFoundError(path)
            return listdir(path)

        monkeypatch.setattr(os, "listdir", no_proc)
        monkeypatch.setitem(sys.modules, "numpy", sys.modules.get("numpy", os))
        assert cli_module._workers(3) == 1
        monkeypatch.delitem(sys.modules, "numpy")
        assert cli_module._workers(3) == min(3, cpus)

    def test_rows_match_one_row_grids(self, corpus_dir, news_file, tmp_path, forks):
        rows = [
            {"dataset": "tweets", "order": 2},
            {"dataset": "news", "order": 4, "boundaries": True, "direction": "least-like"},
            {"dataset": "tweets", "order": 3, "filter_tags": True, "split_punct": True},
            {"dataset": "tweets", "order": 1, "lowercase": True},
        ]
        corpora = {"tweets": corpus_dir, "news": news_file}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["grid", str(_grid_config(tmp_path, corpora, rows)),
                         "-d", str(tmp_path / "all")]) == 0
        # CPython 3.12+ warns of a fork made while other threads run.
        assert not [w for w in caught if "fork" in str(w.message)]
        assert len(forks) == 2  # one worker per group of rows
        self._assert_all_reaped(forks)
        report = (tmp_path / "all" / "grid_report.tsv").read_text(encoding="utf-8").splitlines()
        assert len(report) == len(rows) + 1
        for i, row in enumerate(rows, start=1):
            alone = tmp_path / f"alone_{i}"
            (alone / "in").mkdir(parents=True)
            cfg = _grid_config(alone / "in", corpora, [row])
            assert main(["grid", str(cfg), "-d", str(alone)]) == 0
            assert _tree(tmp_path / "all" / f"row_{i:02d}") == _tree(alone / "row_01")
            header, line = (alone / "grid_report.tsv").read_text(encoding="utf-8").splitlines()
            assert report[0] == header
            assert report[i] == f"{i}\t" + line.split("\t", 1)[1]
        assert len(forks) == 2  # one-row grids run in this process

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rows_sharing_a_prepared_corpus_match_one_row_grids(self, corpus_dir, news_file,
                                                                  tmp_path, monkeypatch, cpus):
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        prepared = []
        prepare_corpus = cli_module.prepare_corpus

        def recording_prepare(lines, config):
            prepared.append(config)
            return prepare_corpus(lines, config)

        monkeypatch.setattr(cli_module, "prepare_corpus", recording_prepare)
        tags = {"filter_tags": True}
        split = {"split_punct": True, "lowercase": True, "filter_urls": True, "boundaries": True}
        # Rows 1 and 2 share a dataset and prep flags, as do rows 3 and 4;
        # row 5 has row 1's again, after rows 3 and 4 replaced them, and row
        # 6 has row 5's flags on another dataset. On two CPUs, orders 2, 3,
        # 3, 1, 4, 2 deal rows 1, 5 and 6 to one worker and rows 2, 3 and 4
        # to the other.
        rows = [
            {"dataset": "tweets", "order": 2, **tags},
            {"dataset": "tweets", "order": 3, "direction": "least-like", **tags},
            {"dataset": "tweets", "order": 3, **split},
            {"dataset": "tweets", "order": 1, **split},
            {"dataset": "tweets", "order": 4, **tags},
            {"dataset": "news", "order": 2, **tags},
        ]
        corpora = {"tweets": corpus_dir, "news": news_file}
        assert main(["grid", str(_grid_config(tmp_path, corpora, rows)),
                     "-d", str(tmp_path / "all")]) == 0
        if cpus == 1:
            # In this process rows 2 and 4 reuse what rows 1 and 3 prepared.
            assert pids == []
            assert [config.split_punct for config in prepared] == [False, True, False, False]
        else:
            assert len(pids) == 2 and prepared == []
            self._assert_all_reaped(pids)
        report = (tmp_path / "all" / "grid_report.tsv").read_text(encoding="utf-8").splitlines()
        assert len(report) == len(rows) + 1
        for i, row in enumerate(rows, start=1):
            alone = tmp_path / f"alone_{i}"
            (alone / "in").mkdir(parents=True)
            cfg = _grid_config(alone / "in", corpora, [row])
            assert main(["grid", str(cfg), "-d", str(alone)]) == 0
            assert _tree(tmp_path / "all" / f"row_{i:02d}") == _tree(alone / "row_01")
            header, line = (alone / "grid_report.tsv").read_text(encoding="utf-8").splitlines()
            assert report[0] == header
            assert report[i] == f"{i}\t" + line.split("\t", 1)[1]

    @pytest.mark.parametrize("death, how", [
        ("signal", "was killed by signal 9"),
        ("exception", "exited with code 1"),
    ])
    def test_a_dead_worker_is_an_error(self, corpus_dir, tmp_path, capsys, monkeypatch, forks,
                                       death, how):
        run_row = cli_module._run_grid_row

        def dying_row(idx, *args):
            if idx == 2:
                if death == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ZeroDivisionError("a bug")
            return run_row(idx, *args)

        monkeypatch.setattr(cli_module, "_run_grid_row", dying_row)
        rows = [{"dataset": "tweets", "order": n} for n in (1, 2, 3)]
        cfg = _grid_config(tmp_path, {"tweets": corpus_dir}, rows)
        capsys.readouterr()
        assert main(["grid", str(cfg), "-d", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        # Orders 1, 2 and 3 deal rows 1 and 2 to one worker, row 3 to the
        # other; the dead worker is named by its group.
        assert captured.err == f"error: grid row 1, 2: worker process {how}\n"
        assert captured.out == ""
        self._assert_all_reaped(forks)

    @pytest.mark.parametrize("datasets, want", [
        (("good", "bad", "good"), "{bad}, line 2: expected tweet_id<TAB>text[<TAB>gold_label]"),
        (("good", "empty", "good"), "no n-grams extracted from corpus"),
        # Row 3 runs alone in one worker, having the highest order, and may
        # fail before row 2, which runs after row 1 in the other.
        (("good", "bad", "empty"), "{bad}, line 2: expected tweet_id<TAB>text[<TAB>gold_label]"),
    ], ids=["bad-tsv", "empty-corpus", "first-in-config-order"])
    def test_first_failing_row_is_reported(self, corpus_dir, tmp_path, datasets, want):
        bad = tmp_path / "bad"
        bad.mkdir()
        write_tsv(bad / "Bad.tsv", [("1", "the host"), ("2 no tab here",)])
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        corpora = {"good": corpus_dir, "bad": bad, "empty": empty}
        rows = [{"dataset": ds, "order": n} for ds, n in zip(datasets, (2, 2, 4))]
        cfg = _grid_config(tmp_path, corpora, rows)
        # A subprocess with a timeout, so that a hang fails the test.
        proc = subprocess.run(
            [sys.executable, "-c", _TWO_WORKERS, "grid", str(cfg), "-d", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: " + want.format(bad=bad / "Bad.tsv") + "\n"


# Hashtag files of uneven sizes, named in sorted order; the tweets of each
# carry gold tiers, so the directory also serves as gold.
_HASHTAG_SIZES = {"A_Tag": 9, "B_Tag": 2, "C_Tag": 14, "D_Tag": 3, "E_Tag": 5}
_TEXTS = ["the host of singled out", "a donut receipt", "my cat sat on the mat",
          "zzz qqq", "the host of the show", "singled out again"]


class TestGridRowsMatchThePipeline:
    """A grid row writes the files that train, rank, compare and evaluate -o
    write with the same settings: grid turns its hashtags' tweets into ids
    of the corpus it just prepared, where rank reads them through the model
    file's vocabulary."""

    def test_row_files_equal_standalone_files(self, corpus_dir, tmp_path):
        tags = tmp_path / "tags"
        tags.mkdir()
        write_tsv(tags / "Cats.tsv", [
            ("c1", "my cat sat on the mat", 1), ("c2", "the host of singled out", 2),
            ("c3", "zzz qqq cat", 0), ("c4", "a donut receipt on the mat", 1),
            ("c5", "#tag", 0), ("c6", "the show was here", 0),
        ])
        write_tsv(tags / "Hosts.tsv", [
            ("h1", "the host of the show", 0), ("h2", "singled out again", 1),
            ("h3", "www eee the host", 2), ("h4", "receipt", 1),
        ])
        rows = [
            {"dataset": "tweets", "order": order, "boundaries": boundaries, "direction": direction}
            for boundaries in (False, True)
            for direction in ("most-like", "least-like")
            for order in (1, 2, 3)
        ]
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "corpora": {"tweets": str(corpus_dir)},
            "hashtags": str(tags),
            "gold": str(tags),
            "fallback_discount": 0.5,
            "rows": rows,
        }), encoding="utf-8")
        assert main(["grid", str(cfg), "-d", str(tmp_path / "grid")]) == 0
        for i, row in enumerate(rows, start=1):
            alone = tmp_path / f"alone_{i:02d}"
            model = alone / "model.arpa"
            alone.mkdir()
            flags = ["--boundaries"] if row["boundaries"] else []
            assert main(["train", str(corpus_dir), "-o", str(model), "--order", str(row["order"]),
                         "--direction", row["direction"], "--fallback-discount", "0.5",
                         *flags]) == 0
            for command in ("rank", "compare"):
                assert main([command, str(tags), "-m", str(model), "-d", str(alone)]) == 0
            assert main(["evaluate", str(tags), "-p", str(alone),
                         "-o", str(alone / "report.tsv")]) == 0
            want = _tree(alone)
            del want["model.arpa.cache"]
            assert len(want) == 6  # the model, two files per hashtag, the report
            assert _tree(tmp_path / "grid" / f"row_{i:02d}") == want, row


def _model_and_hashtags(corpus_dir, tmp_path):
    """A model and a directory of hashtag files with gold tiers."""
    model = _train(corpus_dir, tmp_path / "m.arpa")
    tags = tmp_path / "tags"
    tags.mkdir()
    for name, n in _HASHTAG_SIZES.items():
        write_tsv(tags / f"{name}.tsv", [
            (f"{name}-{i}", _TEXTS[i % len(_TEXTS)] + f" {i}", 2 if i == 0 else i % 2)
            for i in range(n)
        ])
    return model, tags


class TestPredictWorkers:
    """rank and compare deal their files into groups by weight, each run in
    a forked worker process, with the outputs, stdout and errors of running
    the files one after another in this process; evaluate runs in-process."""

    @pytest.fixture()
    def setup(self, corpus_dir, tmp_path):
        return _model_and_hashtags(corpus_dir, tmp_path)

    @pytest.fixture()
    def cpus(self, monkeypatch):
        """Set how many CPUs this process may use; return the pids forked."""
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)

        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
            return pids

        return use

    @staticmethod
    def _pipeline(model, tags, out, capsys):
        """Run rank, compare and evaluate (to a file and to stdout); return
        each exit code and stdout, with `out` written as OUT."""
        runs = []
        for argv in (
            ["rank", str(tags), "-m", str(model), "-d", str(out)],
            ["compare", str(tags), "-m", str(model), "-d", str(out)],
            ["evaluate", str(tags), "-p", str(out), "-o", str(out / "report.tsv")],
            ["evaluate", str(tags), "-p", str(out)],
        ):
            code = main(argv)
            runs.append((code, capsys.readouterr().out.replace(str(out), "OUT")))
        return runs

    def test_forked_runs_match_one_cpu_runs(self, setup, tmp_path, capsys, cpus):
        model, tags = setup
        capsys.readouterr()
        pids = cpus(1)
        alone = self._pipeline(model, tags, tmp_path / "alone", capsys)
        assert pids == []
        cpus(2)
        forked = self._pipeline(model, tags, tmp_path / "forked", capsys)
        assert len(pids) == 4  # two workers each for rank and compare
        TestGridWorkers._assert_all_reaped(pids)
        assert forked == alone
        assert [code for code, _ in alone] == [0, 0, 0, 0]
        assert _tree(tmp_path / "forked") == _tree(tmp_path / "alone")
        assert len(_tree(tmp_path / "alone")) == 2 * len(_HASHTAG_SIZES) + 1

    def test_evaluate_scores_compare_output_from_its_ranking(self, setup, tmp_path, capsys,
                                                             cpus, monkeypatch):
        # Every pair file compare writes is recognized as the pair list of
        # its ranking, so evaluate never reads one line by line: if compare
        # or _pair_lines changes, this fails rather than evaluate slowing.
        model, tags = setup
        capsys.readouterr()
        pids = cpus(1)
        want = self._pipeline(model, tags, tmp_path / "per_line", capsys)

        def per_line(path, text):
            raise AssertionError(f"{path} read line by line")

        monkeypatch.setattr(cli_module, "_read_predictions_a", per_line)
        for n in (1, 2):
            pids = cpus(n)
            out = tmp_path / f"cpus{n}"
            assert self._pipeline(model, tags, out, capsys) == want
            assert _tree(out) == _tree(tmp_path / "per_line")
        assert len(pids) == 4
        TestGridWorkers._assert_all_reaped(pids)
        assert [code for code, _ in want] == [0, 0, 0, 0]

    @pytest.mark.parametrize("weights, want", [
        ([3, 2, 3], [[0, 1], [2]]),  # the benchmark grid's row orders
        ([1, 1, 1, 1], [[0, 2], [1, 3]]),
        ([100, 1, 1, 1], [[0], [1, 2, 3]]),
        ([1, 1, 1, 100], [[3], [0, 1, 2]]),
        ([0, 0, 0], [[0, 2], [1]]),  # no estimate: dealt in turn
        ([7], [[0]]),
    ])
    def test_weighted_groups(self, weights, want):
        assert cli_module._weighted_groups(weights, 2) == want

    @given(weights=st.lists(st.integers(0, 1000), min_size=1, max_size=40),
           n=st.integers(1, 8))
    def test_weighted_groups_deal_each_index_once_and_balance(self, weights, n):
        groups = cli_module._weighted_groups(weights, n)
        assert 1 <= len(groups) <= n
        assert sorted(i for g in groups for i in g) == list(range(len(weights)))
        assert all(g and g == sorted(g) for g in groups)
        loads = [sum(weights[i] for i in g) for g in groups]
        assert max(loads) - min(loads) <= max(weights)

    @staticmethod
    def _rank_groups(tags):
        """The groups of hashtag names two rank workers get."""
        files = sorted(tags.glob("*.tsv"))
        groups = cli_module._weighted_groups([fp.stat().st_size for fp in files], 2)
        return [[files[i].stem for i in g] for g in groups]

    def test_one_file_runs_in_this_process(self, setup, tmp_path, cpus):
        model, tags = setup
        pids = cpus(2)
        assert main(["rank", str(tags / "C_Tag.tsv"), "-m", str(model), "-d", str(tmp_path)]) == 0
        assert pids == []

    @pytest.mark.parametrize("command, bad, want", [
        # rank: a malformed line in the second of four hashtag files.
        ("rank", {"B_Tag": ("B_Tag-9 no tab here",)},
         "{path}, line 3: expected tweet_id<TAB>text[<TAB>gold_label]"),
        # rank: malformed lines in the third and fourth, which are in the
        # groups of different workers, neither group a run of the files.
        ("rank", {"C_Tag": ("C_Tag-99 no tab here",), "D_Tag": ("D_Tag-99 no tab here",)},
         "{path}, line 15: expected tweet_id<TAB>text[<TAB>gold_label]"),
        # evaluate: a tweet without gold in the third.
        ("evaluate", {"C_Tag": ("C_Tag-99", "no gold")},
         "{path}: gold label column required; tweet 'C_Tag-99' has none"),
    ], ids=["rank", "rank-two-workers", "evaluate"])
    def test_first_error_is_the_one_cpu_error(self, setup, tmp_path, capsys, cpus,
                                              command, bad, want):
        model, tags = setup
        (tags / "E_Tag.tsv").unlink()
        pids = cpus(1)
        for out in ("alone", "forked"):
            for predict in ("rank", "compare"):
                main([predict, str(tags), "-m", str(model), "-d", str(tmp_path / out)])
        for name, row in bad.items():
            with open(tags / f"{name}.tsv", "a", encoding="utf-8") as f:
                f.write("\t".join(row) + "\n")
        if len(bad) > 1:
            assert self._rank_groups(tags) == [["C_Tag"], ["A_Tag", "B_Tag", "D_Tag"]]
        capsys.readouterr()
        outcomes = []
        for n, out in ((1, "alone"), (2, "forked")):
            pids = cpus(n)
            argv = (["rank", str(tags), "-m", str(model), "-d", str(tmp_path / out)]
                    if command == "rank" else ["evaluate", str(tags), "-p", str(tmp_path / out)])
            code = main(argv)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out.replace(str(tmp_path / out), "OUT"), captured.err))
        assert len(pids) == (2 if command == "rank" else 0)
        TestGridWorkers._assert_all_reaped(pids)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 1
        first = min(bad)
        assert outcomes[0][2] == "error: " + want.format(path=tags / f"{first}.tsv") + "\n"
        # rank wrote the files before the first failing one; evaluate prints
        # its report last.
        written = [name for name in ("A_Tag", "B_Tag") if name < first] if command == "rank" else []
        assert [line.split(" (")[0] for line in outcomes[0][1].splitlines()] == [
            "wrote " + os.path.join("OUT", f"{name}_PREDICT_B.tsv") for name in written
        ]

    def test_a_dead_worker_is_an_error(self, setup, tmp_path, capsys, monkeypatch, cpus):
        self._rank_with_dying_worker(setup, tmp_path, capsys, monkeypatch, cpus, None)

    def test_a_dead_worker_before_another_failure_is_the_error(self, setup, tmp_path, capsys,
                                                               monkeypatch, cpus):
        # A loop over the files would fail at C before it reached D.
        self._rank_with_dying_worker(setup, tmp_path, capsys, monkeypatch, cpus, "C_Tag")

    def _rank_with_dying_worker(self, setup, tmp_path, capsys, monkeypatch, cpus, failing):
        """Run rank on two workers, the worker of A, D and E dying at D, and
        the file `failing`, if any, raising an error. The dead worker counts
        as an error at A, its first file, so it is the error reported, and no
        file is reported as written."""
        model, tags = setup
        assert self._rank_groups(tags) == [["B_Tag", "C_Tag"], ["A_Tag", "D_Tag", "E_Tag"]]
        load = cli_module.load_hashtag_file

        def dying_load(path):
            if path.stem == "D_Tag":
                os.kill(os.getpid(), signal.SIGKILL)
            if path.stem == failing:
                raise HumorLMError(f"{path.stem} fails")
            return load(path)

        monkeypatch.setattr(cli_module, "load_hashtag_file", dying_load)
        pids = cpus(2)
        capsys.readouterr()
        assert main(["rank", str(tags), "-m", str(model), "-d", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert len(pids) == 2
        TestGridWorkers._assert_all_reaped(pids)
        assert captured.err == (
            "error: hashtags A_Tag, D_Tag, E_Tag: worker process was killed by signal 9\n"
        )
        assert captured.out == ""


class TestWorkersThatCannotStart:
    """Where a pipe or a worker process cannot be made, rank, compare and
    grid kill and reap each worker already started and run every file or
    row in this process, with the outputs and stdout of a one-CPU run."""

    @pytest.fixture()
    def argv(self, corpus_dir, news_file, tmp_path):
        """The argv of rank, compare or a three-row grid, writing to `out`."""
        model, tags = _model_and_hashtags(corpus_dir, tmp_path)
        rows = [
            {"dataset": "tweets", "order": 2},
            {"dataset": "news", "order": 3, "boundaries": True, "direction": "least-like"},
            {"dataset": "tweets", "order": 3, "filter_tags": True},
        ]
        grid = _grid_config(tmp_path, {"tweets": corpus_dir, "news": news_file}, rows)

        def make(command, out):
            if command == "grid":
                return ["grid", str(grid), "-d", str(out)]
            return [command, str(tags), "-m", str(model), "-d", str(out)]

        return make

    @pytest.mark.parametrize("command", ["rank", "compare", "grid"])
    @pytest.mark.parametrize("fails, call", [
        ("fork", 1), ("fork", 2),
        # The first pipe is the one every worker watches for this process's end.
        ("pipe", 1), ("pipe", 3),
    ])
    def test_runs_in_this_process(self, argv, tmp_path, capsys, monkeypatch, command,
                                  fails, call):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        capsys.readouterr()
        assert main(argv(command, tmp_path / "alone")) == 0
        alone = capsys.readouterr().out.replace(str(tmp_path / "alone"), "OUT")

        pids, calls = [], []
        fork, pipe = os.fork, os.pipe

        def recording_fork():
            if fails == "fork":
                calls.append(fails)
                if len(calls) == call:
                    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        def failing_pipe():
            calls.append(fails)
            if len(calls) == call:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return pipe()

        monkeypatch.setattr(os, "fork", recording_fork)
        if fails == "pipe":
            monkeypatch.setattr(os, "pipe", failing_pipe)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(argv(command, tmp_path / "faulty")) == 0
        faulty = capsys.readouterr()
        assert faulty.err == ""
        assert faulty.out.replace(str(tmp_path / "faulty"), "OUT") == alone
        assert _tree(tmp_path / "faulty") == _tree(tmp_path / "alone")
        assert len(calls) == call
        # The forks made before the failing call, each child killed and reaped.
        assert len(pids) == (call - 1 if fails == "fork" else call // 2)
        TestGridWorkers._assert_all_reaped(pids)


# Runs cli.main on argv[3:] with argv[1] usable CPUs and the fault argv[2]
# names: "none"; "replace:GLOB", where os.replace onto a file whose name
# matches GLOB raises EIO; or "write:N" or "rename:N", where the Nth
# writelines of a file the package opened, once half its lines are written
# and flushed, or the Nth os.replace, kills its process (a worker, if
# forked) with SIGKILL.
_FAULTY = """
import fnmatch, os, signal, sys
from humorlm import cli, model
cpus, (kind, _, arg), argv = int(sys.argv[1]), sys.argv[2].partition(":"), sys.argv[3:]
os.sched_getaffinity = lambda pid: set(range(cpus))
calls = []

def nth(fault):
    if kind == fault:
        calls.append(None)
        return len(calls) == int(arg)
    return False

def kill():
    os.kill(os.getpid(), signal.SIGKILL)

def faulty_replace(src, dst, replace=os.replace):
    if kind == "replace" and fnmatch.fnmatch(os.path.basename(dst), arg):
        raise OSError(5, os.strerror(5))
    if nth("rename"):
        kill()
    replace(src, dst)

def faulty_open(*args, **kwargs):
    f = open(*args, **kwargs)

    def writelines(lines):
        lines = list(lines)
        if nth("write"):
            f.write("".join(lines[:len(lines) // 2]))
            f.flush()
            kill()
        type(f).writelines(f, lines)

    f.writelines = writelines
    return f

os.replace = faulty_replace
cli.open = model.open = faulty_open
sys.exit(cli.main(argv))
"""


def _faulty_run(argv, cpus, fault="none", fsize=None):
    """(exit code, stderr) of _FAULTY running argv in a subprocess, whose
    files may grow to at most `fsize` bytes if given: past it a write fails
    with EFBIG, as CPython ignores SIGXFSZ."""
    limit = None
    if fsize is not None:
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]

        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, hard))

    proc = subprocess.run(
        [sys.executable, "-c", _FAULTY, str(cpus), fault, *map(str, argv)], env=_cli_env(),
        preexec_fn=limit, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr


class TestOutputsWholeOrAbsent:
    """Each file a command writes is written to a temp file and renamed over
    its target: a command that fails or is killed leaves each target with
    its old bytes, whole, or with its new ones, and a failing command leaves
    no temp file."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A model with its sidecar, hashtag files with gold tiers and their
        predictions, a grid config, and what each command writes from them
        in a run that does not fail, under clean/<command>."""
        root = tmp_path_factory.mktemp("outputs")
        corpus = root / "corpus"
        corpus.mkdir()
        write_tsv(corpus / "One.tsv", [(str(i), t) for i, t in enumerate(_TEXTS)])
        model, tags = _model_and_hashtags(corpus, root)
        read_arpa(model)
        (root / "grid").mkdir()
        grid = _grid_config(root / "grid", {"tweets": corpus}, [
            {"dataset": "tweets", "order": 2}, {"dataset": "tweets", "order": 3},
        ])
        argvs = {
            "train": lambda out: ["train", corpus, "-o", out / "m.arpa",
                                  "--fallback-discount", "0.5"],
            "rank": lambda out: ["rank", tags, "-m", model, "-d", out],
            "compare": lambda out: ["compare", tags, "-m", model, "-d", out],
            "evaluate": lambda out: ["evaluate", tags, "-p", root / "clean" / "predict",
                                     "-o", out / "report.tsv"],
            "grid": lambda out: ["grid", grid, "-d", out],
        }
        clean = root / "clean"
        for command in ("rank", "compare"):
            assert main([command, str(tags), "-m", str(model), "-d", str(clean / "predict")]) == 0
        for command, make in argvs.items():
            (clean / command).mkdir(exist_ok=True)
            assert main(list(map(str, make(clean / command)))) == 0
        return root, argvs

    @staticmethod
    def _seeded(root, command, out):
        """`out` with each file a clean run of `command` writes holding a
        marker; return {relative path: marker}."""
        seeded = {}
        for name in _tree(root / "clean" / command):
            seeded[name] = b"old " + name.encode() + b"\n"
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_bytes(seeded[name])
        return seeded

    @pytest.mark.parametrize("command, cpus", [
        ("train", 1), ("rank", 1), ("rank", 2), ("compare", 1), ("compare", 2),
        ("evaluate", 1), ("grid", 1), ("grid", 2),
    ])
    def test_a_write_past_the_file_size_limit(self, inputs, tmp_path, command, cpus):
        # 12 bytes are fewer than any output holds, and the report's one
        # write is buffered: its write fails only when it is closed.
        root, argvs = inputs
        out = tmp_path / "out"
        seeded = self._seeded(root, command, out)
        assert _faulty_run(argvs[command](out), cpus, fsize=12) == (
            1, "error: [Errno 27] File too large\n"
        )
        assert _tree(out) == seeded
        assert not list(tmp_path.rglob("*.tmp")) and not list(root.rglob("*.tmp"))

    @pytest.mark.parametrize("command, cpus, name", [
        ("train", 1, "*"), ("rank", 1, "*"), ("rank", 2, "*"), ("compare", 1, "*"),
        ("compare", 2, "*"), ("evaluate", 1, "*"), ("grid", 1, "model.arpa"),
        ("grid", 2, "*_PREDICT_A.tsv"), ("grid", 2, "report.tsv"), ("grid", 1, "grid_report.tsv"),
    ])
    def test_a_failing_rename(self, inputs, tmp_path, command, cpus, name):
        root, argvs = inputs
        out = tmp_path / "out"
        seeded = self._seeded(root, command, out)
        new = _tree(root / "clean" / command)
        assert _faulty_run(argvs[command](out), cpus, f"replace:{name}") == (
            1, "error: [Errno 5] Input/output error\n"
        )
        tree = _tree(out)
        assert set(tree) == set(seeded)
        # Each target matching `name` keeps its old bytes; others written
        # before the failure (or by another worker) are whole.
        assert all(tree[p] == seeded[p] for p in tree if fnmatch.fnmatch(Path(p).name, name))
        assert all(tree[p] in (seeded[p], new[p]) for p in tree)
        assert not list(tmp_path.rglob("*.tmp")) and not list(root.rglob("*.tmp"))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fault", ["write:1", "write:3", "rename:1", "rename:3"])
    def test_a_compare_killed_mid_write(self, inputs, tmp_path, cpus, fault):
        root, argvs = inputs
        out = tmp_path / "out"
        code, err = _faulty_run(argvs["compare"](out), cpus, fault)
        if cpus == 1:
            assert (code, err) == (-signal.SIGKILL, "")
        else:
            assert code == 1
            assert re.fullmatch(r"error: hashtags .*: worker process was killed by signal 9\n", err)
        left = _tree(out)
        for name, data in left.items():
            if not name.endswith(".tmp"):
                assert name.endswith("_PREDICT_A.tsv")
                assert cli_module._ranking_of_pairs(data.decode()) is not None
        assert any(p.endswith(".tmp") for p in left)
        # A second run succeeds; only the temp files of the first are left.
        assert main(list(map(str, argvs["compare"](out)))) == 0
        after = _tree(out)
        whole = {p: data for p, data in after.items() if not p.endswith(".tmp")}
        assert whole == _tree(root / "clean" / "compare")
        assert {p for p in after if p.endswith(".tmp")} == {p for p in left if p.endswith(".tmp")}


class TestDirectionsMirror:
    """The two directions through the commands: where no two tweets of a
    hashtag score alike, its least-like ranking is its most-like ranking
    reversed, so each pair of tweets in different gold tiers is right in
    exactly one of them, and the two accuracies, like the two distances,
    add to 1. Tweets that tie are ranked by ascending id in both, so such a
    pair is right in both or in neither, which the sums allow for."""

    def test_accuracies_and_distances_add_to_one(self, corpus_dir, tmp_path):
        model, tags = _model_and_hashtags(corpus_dir, tmp_path)
        reports = {}
        for direction in ("most-like", "least-like"):
            out = tmp_path / direction
            for command in ("rank", "compare"):
                assert main([command, str(tags), "-m", str(model), "-d", str(out),
                             "--direction", direction]) == 0
            assert main(["evaluate", str(tags), "-p", str(out), "-o", str(out / "report.tsv")]) == 0
            rows = (out / "report.tsv").read_text(encoding="utf-8").splitlines()[1:-1]
            reports[direction] = {name: (float(a), float(d))
                                  for name, a, d in (row.split("\t") for row in rows)}
        m = read_arpa(model)
        excesses = []
        for fp in sorted(tags.glob("*.tsv")):
            hs = load_hashtag_file(fp)
            score = {t.tweet_id: t.score for t in score_hashtag(hs, m, m.config)}
            gold = {t.tweet_id: t.gold for t in hs.tweets}
            most, least = (
                (tmp_path / d / f"{hs.hashtag_name}_PREDICT_B.tsv").read_text(encoding="utf-8").split()
                for d in ("most-like", "least-like")
            )
            # most-like ranks the likeliest tweet first.
            assert [score[i] for i in most] == sorted(score.values(), reverse=True)
            comparable = right_in_both = wrong_in_both = 0
            for a, b in itertools.combinations(sorted(score), 2):
                if gold[a] != gold[b]:
                    comparable += 1
                    if score[a] == score[b]:
                        if gold[a] > gold[b]:
                            right_in_both += 1
                        else:
                            wrong_in_both += 1
            if right_in_both == wrong_in_both == 0:
                assert least == most[::-1]
            excess = (right_in_both - wrong_in_both) / comparable
            excesses.append(excess)
            (acc_most, dist_most), (acc_least, dist_least) = (
                reports[d][hs.hashtag_name] for d in ("most-like", "least-like")
            )
            assert abs(acc_most + acc_least - (1 + excess)) <= 1e-12
            assert abs(dist_most + dist_least - (1 - excess)) <= 1e-12
            # Within one direction, the pair file and the ranking agree: a
            # comparable pair is right exactly when it is no inversion.
            assert abs(acc_most + dist_most - 1) <= 1e-12
            assert abs(acc_least + dist_least - 1) <= 1e-12
        # Both kinds of hashtag are checked: with no comparable pair tied,
        # and with some tied that are right in both or wrong in both.
        assert 0.0 in excesses and any(excesses)


class TestImportCheck:
    def test_valid_model(self, corpus_dir, tmp_path, capsys):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        rc = main(["import-check", str(model)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "order-3" in out and "metadata:" in out

    @pytest.mark.parametrize("metadata, want", [
        ("# humorlm order=1 direction=least-like\n",
         "metadata: direction=least-like (no prep flags; pass them to rank)"),
        ("", "metadata: none (foreign file; pass prep flags and --direction to rank)"),
    ])
    def test_model_without_flags(self, tmp_path, capsys, metadata, want):
        model = tmp_path / "m.arpa"
        model.write_text(metadata + "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\t<unk>\n\n\\end\\\n")
        assert main(["import-check", str(model)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == want

    def test_corrupt_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.arpa"
        bad.write_text("\\data\\\nngram 1=5\n\n\\1-grams:\n-0.5\t<unk>\n\n\\end\\\n")
        rc = main(["import-check", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}, line 2: ngram 1=5 declared but 1 entries found\n"

    @pytest.mark.parametrize("text, message", [
        ("# humorlm order=+1\n\\data\\\nngram 1=1\n\\1-grams:\n-0.5\t<unk>\n\\end\\\n",
         "line 1: bad metadata order field '+1'"),
        ("\\data\\\nngram 1=1\n\\1-grams:\n-0.5\t<unk>\n", "missing \\end\\ marker"),
    ], ids=["line", "whole-file"])
    def test_errors_name_the_file(self, tmp_path, capsys, text, message):
        bad = tmp_path / "b.arpa"
        bad.write_text(text, encoding="utf-8")
        assert main(["import-check", str(bad)]) == 1
        sep = ", " if message.startswith("line ") else ": "
        assert capsys.readouterr().err == f"error: {bad}{sep}{message}\n"

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["import-check", str(tmp_path / "nope.arpa")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_keys_past_64_bits_are_an_error(self, corpus_dir, tmp_path, capsys, monkeypatch, sidecar):
        # A real model this large would not fit in memory, so the limit on
        # N(k-1) * |V| is lowered to the size of this model's bigram keys.
        from humorlm import _trie

        model = _train(corpus_dir, tmp_path / "m.arpa")
        assert main(["import-check", str(model)]) == 0
        vocab = capsys.readouterr().out.split("vocab ")[1].split()[0]
        if not sidecar:
            (tmp_path / "m.arpa.cache").unlink()
        monkeypatch.setattr(_trie, "_KEY_LIMIT", 1)
        assert main(["import-check", str(model)]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: 2-gram keys do not fit in 64 bits: {vocab} 1-grams times {vocab} tokens\n"
        )


@pytest.mark.parametrize("command", ["rank", "compare", "evaluate", "grid-hashtags", "grid-gold"])
def test_same_hashtag_name_twice_is_an_error(corpus_dir, tmp_path, capsys, command):
    # Outputs are keyed by file stem, so the second file would overwrite
    # the first one's predictions, or replace its gold labels.
    model = _train(corpus_dir, tmp_path / "m.arpa")
    first, second = tmp_path / "a" / "T.tsv", tmp_path / "b" / "T.tsv"
    for path in (first, second):
        path.parent.mkdir()
        write_tsv(path, [("x", "the host", 2), ("y", "a donut", 0)])
    tags = [str(first), str(second)]
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "T_PREDICT_B.tsv").write_text("x\ny\n", encoding="utf-8")
    (preds / "T_PREDICT_A.tsv").write_text("x\ty\t1\n", encoding="utf-8")
    out = tmp_path / "out"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "corpora": {"tweets": str(corpus_dir)},
        "hashtags": tags if command == "grid-hashtags" else str(first),
        "gold": tags if command == "grid-gold" else str(first),
        "fallback_discount": 0.5,
        "rows": [{"dataset": "tweets", "order": 2}],
    }), encoding="utf-8")
    argv = {
        "rank": ["rank", *tags, "-m", str(model), "-d", str(out)],
        "compare": ["compare", *tags, "-m", str(model), "-d", str(out)],
        "evaluate": ["evaluate", *tags, "-p", str(preds), "-o", str(out)],
        "grid-hashtags": ["grid", str(grid), "-d", str(out)],
        "grid-gold": ["grid", str(grid), "-d", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {first} and {second} have the same hashtag name 'T'\n"
    assert captured.out == ""
    assert not out.exists()
    assert not (tmp_path / "m.arpa.cache").exists()


@pytest.mark.parametrize(
    "command", ["train", "rank", "compare", "evaluate", "grid-hashtags", "grid-corpus"]
)
def test_empty_path_is_an_error(corpus_dir, tmp_path, capsys, monkeypatch, command):
    # Path("") is ".", so an empty argument would read the working
    # directory, which here holds a hashtag file.
    model = _train(corpus_dir, tmp_path / "m.arpa")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    write_tsv(cwd / "Cwd_Tag.tsv", [("x", "the host", 2), ("y", "a donut", 0)])
    monkeypatch.chdir(cwd)
    out = tmp_path / "out"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "corpora": {"tweets": "" if command == "grid-corpus" else str(corpus_dir)},
        "hashtags": "" if command == "grid-hashtags" else str(cwd / "Cwd_Tag.tsv"),
        "fallback_discount": 0.5,
        "rows": [{"dataset": "tweets", "order": 2}],
    }), encoding="utf-8")
    argv = {
        "train": ["train", "", "-o", str(out), "--fallback-discount", "0.5"],
        "rank": ["rank", "", "-m", str(model), "-d", str(out)],
        "compare": ["compare", "", "-m", str(model), "-d", str(out)],
        "evaluate": ["evaluate", "", "-p", str(tmp_path), "-o", str(out)],
        "grid-hashtags": ["grid", str(grid), "-d", str(out)],
        "grid-corpus": ["grid", str(grid), "-d", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.endswith("empty path\n")
    assert captured.out == ""
    assert not out.exists()
    assert sorted(p.name for p in cwd.iterdir()) == ["Cwd_Tag.tsv"]


@pytest.mark.parametrize("blank", [" ", "\u2028"], ids=["space", "line-separator"])
@pytest.mark.parametrize("command", ["rank", "evaluate", "grid"])
def test_blank_tweet_id_is_an_error(corpus_dir, tmp_path, capsys, command, blank):
    # A prediction file holds one id a line, and its reader skips blank
    # lines, so a tweet whose id is only whitespace would vanish from the
    # ranking evaluate reads. Every tweet TSV rejects such an id, as it
    # does an empty one: here a hashtag file, a gold file and a hashtag
    # file of grid's; TestTrain checks a corpus TSV.
    model = _train(corpus_dir, tmp_path / "m.arpa")
    bad = tmp_path / "in" / "T.tsv"
    bad.parent.mkdir()
    bad.write_text(f"{blank}\tthe host\t2\ny\ta donut\t0\n", encoding="utf-8")
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "T_PREDICT_B.tsv").write_text("y\n", encoding="utf-8")
    (preds / "T_PREDICT_A.tsv").write_text("", encoding="utf-8")
    out = tmp_path / "out"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "corpora": {"tweets": str(corpus_dir)},
        "hashtags": str(bad),
        "gold": str(bad),
        "fallback_discount": 0.5,
        "rows": [{"dataset": "tweets", "order": 2}],
    }), encoding="utf-8")
    argv = {
        "rank": ["rank", str(bad), "-m", str(model), "-d", str(out)],
        "evaluate": ["evaluate", str(bad), "-p", str(preds), "-o", str(out)],
        "grid": ["grid", str(grid), "-d", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}, line 1: expected tweet_id<TAB>text[<TAB>gold_label]\n"
    assert captured.out == ""
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "target", ["corpus", "hashtags", "gold", "predictions", "arpa", "grid-config"]
)
def test_non_utf8_input_is_an_error(corpus_dir, hashtag_file, tmp_path, capsys, target):
    model = _train(corpus_dir, tmp_path / "m.arpa")
    gold = tmp_path / "gold"
    gold.mkdir()
    write_tsv(gold / "G.tsv", [("a", "x", 2), ("b", "y", 1), ("c", "z", 0)])
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "G_PREDICT_B.tsv").write_text("a\nb\nc\n", encoding="utf-8")
    (preds / "G_PREDICT_A.tsv").write_text("a\tb\t1\na\tc\t1\nb\tc\t1\n", encoding="utf-8")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "corpora": {"tweets": str(corpus_dir)},
        "hashtags": str(hashtag_file),
        "fallback_discount": 0.5,
        "rows": [{"dataset": "tweets", "order": 2}],
    }), encoding="utf-8")
    evaluate = ["evaluate", str(gold), "-p", str(preds)]
    path, argv = {
        "corpus": (corpus_dir / "One_Tag.tsv", ["train", str(corpus_dir), "-o",
                   str(tmp_path / "new.arpa"), "--fallback-discount", "0.5"]),
        "hashtags": (hashtag_file, ["rank", str(hashtag_file), "-m", str(model),
                     "-d", str(tmp_path / "out")]),
        "gold": (gold / "G.tsv", evaluate),
        "predictions": (preds / "G_PREDICT_A.tsv", evaluate),
        "arpa": (model, ["import-check", str(model)]),
        "grid-config": (grid, ["grid", str(grid), "-d", str(tmp_path / "out")]),
    }[target]
    assert main(argv) == 0
    capsys.readouterr()
    path.write_bytes(path.read_bytes() + "caf\u00e9\n".encode("latin-1"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    where = "hashtag G: " if target == "predictions" else ""
    assert err.startswith(f"error: {where}{path}: not UTF-8 text ("), err


def test_console_entry_point(corpus_dir, tmp_path):
    # pyproject's humorlm script calls the function `python -m humorlm.cli`
    # calls. Read without tomllib, which CPython 3.10 lacks.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    script = re.search(r'^humorlm\s*=\s*"([^"]*)"\s*$', scripts.group(1), re.M)
    tree = ast.parse(Path(cli_module.__file__).read_text(encoding="utf-8"))
    [main_block] = [
        node for node in tree.body if isinstance(node, ast.If)
        and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    called = [
        node.func.id for node in ast.walk(main_block)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert [script.group(1)] == [f"humorlm.cli:{name}" for name in called] == ["humorlm.cli:run"]

    out = tmp_path / "m.arpa"
    proc = subprocess.run(
        [
            sys.executable, "-m", "humorlm.cli",
            "train", str(corpus_dir), "-o", str(out),
            "--order", "2", "--fallback-discount", "0.5",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote" in proc.stdout


def _cli_env():
    """This environment, with the package on the path, dev mode off and
    stdout fully buffered."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    for var in ("PYTHONDEVMODE", "PYTHONUNBUFFERED"):
        env.pop(var, None)
    return env


def _cli_process(cwd, argv, dev_mode, stdout_closed=False):
    """(exit code, stdout, stderr) of `python -m humorlm.cli argv` run in
    `cwd` under _cli_env, with the interpreter's dev mode on or off. With
    stdout_closed, stdout is a pipe whose reader has gone."""
    env = _cli_env()
    cmd = [sys.executable, *(["-X", "dev"] if dev_mode else []), "-m", "humorlm.cli", *argv]
    if not stdout_closed:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), b"", err


# The three tweets of a hashtag file, with gold tiers: a directory of such
# files is also their gold directory.
_EXIT_TWEETS = [("a", "the host of singled out", 2), ("b", "a donut receipt", 1), ("c", "zzz", 0)]


class TestExitParity:
    """A command on the command line ends through cli.run: with os._exit
    after flushing stdout and stderr, and the normal way in dev mode. Both
    give the same exit code, stdout, stderr and files."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A directory of inputs every case reads through relative paths: a
        corpus, a model without its sidecar, hashtag files and their
        predictions, a grid config, a malformed hashtag file, and 150 gold
        files with long names, whose report outgrows a pipe's buffer."""
        root = tmp_path_factory.mktemp("exit_inputs")
        (root / "corpus").mkdir()
        write_tsv(root / "corpus" / "One.tsv", [(str(i), t) for i, t in enumerate(_TEXTS)])
        (root / "tags").mkdir()
        for name in ("T", "U", "V"):
            write_tsv(root / "tags" / f"{name}.tsv", [(name + i, t, g) for i, t, g in _EXIT_TWEETS])
        (root / "bad").mkdir()
        write_tsv(root / "bad" / "Bad.tsv", [("1", "the host"), ("2 no tab here",)])
        (root / "many").mkdir()
        (root / "many_preds").mkdir()
        for k in range(150):
            name = f"Tag_{k:03d}_" + "x" * 60
            write_tsv(root / "many" / f"{name}.tsv", [(name + i, t, g) for i, t, g in _EXIT_TWEETS])
        model = str(root / "m.arpa")
        assert main(["train", str(root / "corpus"), "-o", model, "--fallback-discount", "0.5"]) == 0
        for command in ("rank", "compare"):
            for tags, preds in (("tags", "preds"), ("many", "many_preds")):
                assert main([command, str(root / tags), "-m", model, "-d", str(root / preds)]) == 0
        os.remove(model + ".cache")
        (root / "grid.json").write_text(json.dumps({
            "corpora": {"c": "corpus"}, "hashtags": "tags", "gold": "tags",
            "fallback_discount": 0.5, "rows": [{"dataset": "c", "order": n} for n in (1, 2, 3)],
        }), encoding="utf-8")
        return root

    @pytest.mark.parametrize("argv, stdout_closed, code, stderr", [
        (["train", "corpus", "-o", "new.arpa", "--order", "2", "--fallback-discount", "0.5"],
         False, 0, ""),
        (["rank", "tags", "-m", "m.arpa", "-d", "out"], False, 0, ""),
        (["compare", "tags", "-m", "m.arpa", "-d", "out"], False, 0, ""),
        (["grid", "grid.json", "-d", "grid_out"], False, 0, ""),
        (["import-check", "m.arpa"], False, 0, ""),
        (["evaluate", "tags", "-p", "preds"], False, 0, ""),
        (["evaluate", "tags", "-p", "preds", "-o", "report.tsv"], False, 0, ""),
        (["rank", "bad", "-m", "m.arpa", "-d", "out"], False, 1, r"error: bad/Bad\.tsv, line 2: .*\n"),
        (["rank", "tags"], False, 2, r"usage: humorlm rank .*"),
        # The report fills the pipe's buffer: the write fails in main.
        (["evaluate", "many", "-p", "many_preds"], True, 1, r"error: \[Errno 32\] Broken pipe\n"),
        # The report fits in the buffer: flushing it fails, in run() and
        # again in the interpreter's teardown, which exits 120.
        (["evaluate", "tags", "-p", "preds"], True, 120,
         r"Exception ignored .*\nBrokenPipeError: \[Errno 32\] Broken pipe\n"),
    ], ids=[
        "train", "rank", "compare", "grid", "import-check", "evaluate-stdout", "evaluate-file",
        "input-error", "usage-error", "evaluate-closed-pipe", "evaluate-closed-pipe-at-flush",
    ])
    def test_both_exits_agree(self, inputs, tmp_path, argv, stdout_closed, code, stderr):
        outcomes, trees = [], []
        for dev_mode in (False, True):
            cwd = tmp_path / ("dev" if dev_mode else "hard")
            shutil.copytree(inputs, cwd)
            outcomes.append(_cli_process(cwd, argv, dev_mode, stdout_closed))
            trees.append(_tree(cwd))
        assert outcomes[0] == outcomes[1]
        assert trees[0] == trees[1]
        assert outcomes[0][0] == code
        assert re.fullmatch(stderr, outcomes[0][2].decode(), re.S), outcomes[0][2]

    def test_teardown_runs_only_in_dev_mode(self, inputs, tmp_path):
        # An atexit handler stands for the interpreter's teardown.
        shutil.copy(inputs / "m.arpa", tmp_path)
        probe = ("import atexit, sys; from humorlm import cli; "
                 "atexit.register(print, 'teardown', file=sys.stderr); cli.run()")
        seen = []
        for dev_mode in ([], ["-X", "dev"]):
            proc = subprocess.run(
                [sys.executable, *dev_mode, "-c", probe, "import-check", "m.arpa"],
                cwd=tmp_path, env=_cli_env(), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0 and proc.stdout.startswith("ok: order-3 model")
            seen.append(proc.stderr)
        assert seen == ["", "teardown\n"]
