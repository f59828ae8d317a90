import itertools
import json
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import write_tsv
from humorlm import cli as cli_module
from humorlm.cli import main
from humorlm.errors import HumorLMError


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

    def test_order_zero_is_usage_error(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", str(corpus_dir), "-o", str(tmp_path / "m"), "--order", "0"])
        assert exc.value.code == 2

    def test_bad_fallback_is_usage_error(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", str(corpus_dir), "-o", str(tmp_path / "m"),
                "--fallback-discount", "1.5",
            ])
        assert exc.value.code == 2

    def test_deterministic_bytes(self, corpus_dir, tmp_path):
        a = _train(corpus_dir, tmp_path / "a.arpa")
        b = _train(corpus_dir, tmp_path / "b.arpa")
        assert a.read_bytes() == b.read_bytes()

    def test_huge_order_is_an_error(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "m.arpa"
        rc = main(["train", str(corpus_dir), "-o", str(out), "--order", "20000"])
        assert rc == 1
        assert "error: order must be <= 10" in capsys.readouterr().err
        assert not out.exists()

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


class TestEvaluate:
    def _predictions(self, tmp_path, ranking):
        pred = tmp_path / "preds"
        pred.mkdir(exist_ok=True)
        with open(pred / "G_PREDICT_B.tsv", "w") as f:
            f.writelines(t + "\n" for t in ranking)
        with open(pred / "G_PREDICT_A.tsv", "w") as f:
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

    def test_missing_prediction_file(self, tmp_path, capsys):
        gold = self._gold(tmp_path)
        (tmp_path / "nothing").mkdir()
        rc = main(["evaluate", str(gold), "-p", str(tmp_path / "nothing")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: hashtag G: missing prediction file(s) in {tmp_path / 'nothing'}\n"
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
_PAIR_TEXT = "".join(f"{a}\t{b}\t1\n" for a, b in itertools.combinations(_PAIR_IDS, 2))
_PAIR_PAYLOADS = (
    "", "\t", "\t\t", " ", "\n", "\n\n", "\r", "\r\n", "\x0b", "\x85", "\u2028",
    "\ufeff", "0", "1", "2", "-", "\u00e9",
)


def _pairs_outcome(path):
    """What evaluate's pair reader makes of a file: the pairs or the error."""
    try:
        return cli_module._read_predictions_a(path)
    except HumorLMError as e:
        return str(e)


def _both_readers(path, data: bytes):
    """The pair reader's outcome on `data`, with the whole-file path, then
    with it declining every file."""
    path.write_bytes(data)
    bulk = _pairs_outcome(path)
    with mock.patch.object(cli_module, "_split_pairs", lambda data: None):
        per_line = _pairs_outcome(path)
    return bulk, per_line


class TestPairFileRead:
    def test_written_layout_takes_bulk_path(self, tmp_path):
        text = _PAIR_TEXT.replace("\t1\n", "\t0\n", 3)
        pairs = cli_module._split_pairs(text.encode("utf-8"))
        assert pairs is not None and [p[2] for p in pairs[:4]] == [0, 0, 0, 1]
        assert _both_readers(tmp_path / "T_PREDICT_A.tsv", text.encode("utf-8")) == (pairs, pairs)

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("blank-lines", "same"),
            ("crlf", "same"),
            ("no-final-newline", "same"),
            ("empty", []),
            ("empty-id", ("", "\u30c4 2", 1)),
            ("empty-label", "line 4"),
            ("three-tabs", "line 4"),
            ("one-tab", "line 4"),
            ("tab-moved", "line 4"),
            ("cr-in-id", "line 4"),
            ("trailing-text", "line 11"),
            ("label-2", "line 4"),
            ("not-utf8", "not UTF-8"),
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
        data = "".join(lines).encode("utf-8")
        if name == "not-utf8":
            data += b"caf\xe9\n"
        bulk, per_line = _both_readers(tmp_path / "T_PREDICT_A.tsv", data)
        assert bulk == per_line
        if expected == "same":
            assert bulk == _both_readers(tmp_path / "T_PREDICT_A.tsv", _PAIR_TEXT.encode())[0]
        elif isinstance(expected, str):
            assert expected in bulk
        elif isinstance(expected, tuple):
            # The per-line reader keeps an empty id; the metric rejects it.
            assert bulk[3] == expected
        else:
            assert bulk == expected

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bulk_matches_per_line_on_mutated_files(self, tmp_path, data):
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
        bulk, per_line = _both_readers(tmp_path / "T_PREDICT_A.tsv", raw)
        assert bulk == per_line


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
        ],
        ids=[
            "order", "fallback", "row", "corpora", "flag",
            "order-float", "order-bool", "order-string", "order-1e400", "fallback-bool",
            "order-huge",
        ],
    )
    def test_grid_malformed_config(self, corpus_dir, tmp_path, capsys, change, message):
        tags = tmp_path / "tags"
        tags.mkdir()
        write_tsv(tags / "T.tsv", [("x", "the host"), ("y", "donut")])
        cfg = {
            "corpora": {"tweets": str(corpus_dir)},
            "hashtags": str(tags),
            "fallback_discount": 0.5,
            "rows": [{"dataset": "tweets", "order": 2}],
            **change,
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["grid", str(cfg_path), "-d", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid") and message in err


class TestImportCheck:
    def test_valid_model(self, corpus_dir, tmp_path, capsys):
        model = _train(corpus_dir, tmp_path / "m.arpa")
        rc = main(["import-check", str(model)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "order-3" in out and "metadata:" in out

    def test_corrupt_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.arpa"
        bad.write_text("\\data\\\nngram 1=5\n\n\\1-grams:\n-0.5\t<unk>\n\n\\end\\\n")
        rc = main(["import-check", str(bad)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["import-check", str(tmp_path / "nope.arpa")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


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
    assert err.startswith("error:") and "utf-8" in err.lower(), err


def test_console_entry_point(corpus_dir, tmp_path):
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
