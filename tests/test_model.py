import io
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_random_corpus, random_sentence
from humorlm import model as model_module
from humorlm.counts import count_corpus
from humorlm.errors import ArpaParseError
from humorlm.model import read_arpa, write_arpa
from humorlm.smoothing import estimate_model
from humorlm.textprep import PrepConfig
from kn_reference import KNReference


def _toy_model(lines=("a b", "a c"), order=2, boundaries=True, direction=None):
    return estimate_model(
        count_corpus(list(lines), order, PrepConfig(boundaries=boundaries)),
        0.5,
        direction,
    )


def _dump(model) -> str:
    buf = io.StringIO()
    write_arpa(model, buf)
    return buf.getvalue()


class TestScoreWord:
    def test_backoff_chain_hand_trace(self):
        m = _toy_model()
        # "c b" is unstored; must equal backoff(c) + p(b) exactly.
        p_b, _ = m.prob_entry(["b"])
        _, bo_c = m.prob_entry(["c"])
        assert m.score_word(["c"], "b") == pytest.approx(bo_c + p_b, abs=1e-12)

    def test_unstored_context_backs_off_free(self):
        m = _toy_model()
        p_b, _ = m.prob_entry(["b"])
        # context "zzz" maps to <unk>, which was never a context: weight 1.
        assert m.score_word(["zzz"], "b") == pytest.approx(p_b, abs=1e-12)

    def test_context_truncated_to_order(self):
        m = _toy_model()
        long_ctx = ["x", "y", "z", "a"]
        assert m.score_word(long_ctx, "b") == m.score_word(["a"], "b")

    def test_oov_event_maps_to_unk(self):
        m = _toy_model()
        assert m.score_word([], "never-seen") == m.score_word([], "<unk>")


class TestScoreSequence:
    def test_empty_unbounded_is_zero(self):
        m = _toy_model(boundaries=False)
        assert m.score_sequence([], boundaries=False) == 0.0

    def test_bounded_matches_word_by_word(self):
        m = _toy_model()
        by_words = (
            m.score_word(["<s>"], "a")
            + m.score_word(["<s>", "a"], "b")
            + m.score_word(["a", "b"], "</s>")
        )
        assert m.score_sequence(["a", "b"]) == pytest.approx(by_words, abs=1e-12)

    def test_unigram_additivity(self):
        m = _toy_model(lines=["a b a b c"], order=1, boundaries=False)
        s1, s2 = ["a", "b"], ["c", "a", "zzz"]
        both = m.score_sequence(s1 + s2, boundaries=False)
        assert both == pytest.approx(
            m.score_sequence(s1, boundaries=False) + m.score_sequence(s2, boundaries=False),
            abs=1e-12,
        )

    def test_model_default_boundaries_from_config(self):
        m = _toy_model(boundaries=True)
        assert m.score_sequence(["a", "b"]) == m.score_sequence(["a", "b"], boundaries=True)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_matches_oracle_on_random_sequences(self, seed, boundaries):
        rng = random.Random(seed)
        lines = make_random_corpus(rng, 5, 60)
        assume(boundaries or any(len(l.split()) >= 3 for l in lines))
        m = estimate_model(
            count_corpus(lines, 3, PrepConfig(boundaries=boundaries)), 0.5
        )
        ref = KNReference(lines, 3, boundaries, fallback=0.5)
        words = ref.event_vocab + ["oov-token"]
        for _ in range(5):
            seq = random_sentence(rng, words)
            if not seq and boundaries is False:
                continue
            assert m.score_sequence(seq, boundaries=boundaries) == pytest.approx(
                ref.score_sequence(seq), abs=1e-9
            )


class TestArpaWrite:
    def test_layout(self):
        text = _dump(_toy_model(direction="most-like"))
        lines = text.splitlines()
        assert lines[0].startswith("# humorlm order=2 ")
        assert "direction=most-like" in lines[0]
        assert "\\data\\" in lines
        assert "ngram 1=6" in lines
        assert "ngram 2=5" in lines
        i1 = lines.index("\\1-grams:")
        i2 = lines.index("\\2-grams:")
        assert i1 < i2 < lines.index("\\end\\")

    def test_top_order_has_no_backoff_field(self):
        text = _dump(_toy_model())
        section = text.split("\\2-grams:")[1].split("\\end\\")[0].strip()
        for line in section.splitlines():
            assert len(line.split("\t")) == 2

    def test_floats_round_trip_textually(self):
        text = _dump(_toy_model())
        for line in text.splitlines():
            parts = line.split("\t")
            if len(parts) >= 2 and not line.startswith(("#", "\\", "ngram")):
                assert repr(float(parts[0])) == parts[0]


class TestArpaRoundTrip:
    def test_bytes_stable(self):
        m = _toy_model(direction="least-like")
        text = _dump(m)
        again = _dump(read_arpa(io.StringIO(text)))
        assert again == text

    def test_metadata_round_trips(self):
        m = _toy_model(direction="least-like")
        m2 = read_arpa(io.StringIO(_dump(m)))
        assert m2.config == m.config
        assert m2.direction == "least-like"
        assert m2.order == m.order

    def test_bad_metadata_direction_rejected(self):
        text = _dump(_toy_model(direction="least-like"))
        text = text.replace("direction=least-like", "direction=bogus")
        with pytest.raises(ArpaParseError, match="bogus"):
            read_arpa(io.StringIO(text))

    def test_crlf_tolerated(self):
        text = _dump(_toy_model()).replace("\n", "\r\n")
        m = read_arpa(io.StringIO(text))
        assert m.order == 2

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_scores_identical_after_round_trip(self, seed, boundaries):
        rng = random.Random(seed)
        lines = make_random_corpus(rng, 5, 80)
        assume(boundaries or any(len(l.split()) >= 3 for l in lines))
        m = estimate_model(
            count_corpus(lines, 3, PrepConfig(boundaries=boundaries)), 0.5
        )
        m2 = read_arpa(io.StringIO(_dump(m)))
        words = sorted(w for w in m.vocab if w != "<s>") + ["oov-x"]
        for _ in range(20):
            seq = random_sentence(rng, words)
            a = m.score_sequence(seq, boundaries=boundaries)
            b = m2.score_sequence(seq, boundaries=boundaries)
            assert b == pytest.approx(a, abs=1e-10)


class TestArpaRead:
    def test_foreign_space_separated(self):
        text = (
            "\\data\\\n"
            "ngram 1=3\n"
            "ngram 2=1\n"
            "\n\\1-grams:\n"
            "-0.5 <unk> 0.0\n"
            "-0.4 a -0.2\n"
            "-0.6 b\n"
            "\n\\2-grams:\n"
            "-0.3 a b\n"
            "\n\\end\\\n"
        )
        m = read_arpa(io.StringIO(text))
        assert m.order == 2
        assert m.config is None and m.direction is None
        assert m.prob_entry(["a"]) == (-0.4, -0.2)
        assert m.prob_entry(["b"]) == (-0.6, None)
        assert m.score_word(["a"], "b") == -0.3

    def test_count_mismatch_names_line(self):
        text = (
            "\\data\\\n"
            "ngram 1=3\n"
            "\n\\1-grams:\n"
            "-0.5\t<unk>\n"
            "-0.4\ta\n"
            "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="line 2"):
            read_arpa(io.StringIO(text))

    def test_non_numeric_prob_names_line(self):
        text = (
            "\\data\\\n"
            "ngram 1=1\n"
            "\n\\1-grams:\n"
            "oops\t<unk>\n"
            "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="line 5"):
            read_arpa(io.StringIO(text))

    def test_missing_data_header(self):
        with pytest.raises(ArpaParseError, match="data"):
            read_arpa(io.StringIO("\\1-grams:\n-0.5\t<unk>\n\\end\\\n"))

    def test_missing_end_marker(self):
        text = "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\t<unk>\n"
        with pytest.raises(ArpaParseError, match="end"):
            read_arpa(io.StringIO(text))

    def test_unknown_token_in_higher_order(self):
        text = (
            "\\data\\\n"
            "ngram 1=1\n"
            "ngram 2=1\n"
            "\n\\1-grams:\n"
            "-0.5\t<unk>\t0.0\n"
            "\n\\2-grams:\n"
            "-0.3\t<unk> mystery\n"
            "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="mystery"):
            read_arpa(io.StringIO(text))

    def test_closure_violation_detected(self):
        text = (
            "\\data\\\n"
            "ngram 1=2\n"
            "ngram 2=1\n"
            "\n\\1-grams:\n"
            "-0.5\t<unk>\t0.0\n"
            "-0.4\ta\t0.0\n"
            "\n\\2-grams:\n"
            "-0.3\ta a\n"
            "\n\\end\\\n"
        )
        # a a's prefix and suffix are stored; now break it at order 3.
        read_arpa(io.StringIO(text))  # sanity: this one is fine
        bad = (
            "\\data\\\n"
            "ngram 1=2\n"
            "ngram 2=1\n"
            "ngram 3=1\n"
            "\n\\1-grams:\n"
            "-0.5\t<unk>\t0.0\n"
            "-0.4\ta\t0.0\n"
            "\n\\2-grams:\n"
            "-0.3\ta a\t0.0\n"
            "\n\\3-grams:\n"
            "-0.2\ta <unk> a\n"
            "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="closure"):
            read_arpa(io.StringIO(bad))
        # Here only the suffix "a <unk>" is missing.
        bad_suffix = bad.replace("-0.2\ta <unk> a\n", "-0.2\ta a <unk>\n")
        with pytest.raises(ArpaParseError, match="2-gram 'a <unk>' is missing"):
            read_arpa(io.StringIO(bad_suffix))

    def test_missing_unk_rejected(self):
        text = (
            "\\data\\\n"
            "ngram 1=1\n"
            "\n\\1-grams:\n"
            "-0.1\ta\n"
            "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="<unk>"):
            read_arpa(io.StringIO(text))

    def test_duplicate_gram_rejected(self):
        text = (
            "\\data\\\n"
            "ngram 1=2\n"
            "\n\\1-grams:\n"
            "-0.5\t<unk>\n"
            "-0.5\t<unk>\n"
            "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="duplicate"):
            read_arpa(io.StringIO(text))

    def test_sections_must_ascend(self):
        text = (
            "\\data\\\n"
            "ngram 1=1\n"
            "ngram 2=0\n"
            "\n\\2-grams:\n"
            "\n\\1-grams:\n"
            "-0.5\t<unk>\t0.0\n"
            "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="expected"):
            read_arpa(io.StringIO(text))

    def test_wrong_gram_length_rejected(self):
        text = (
            "\\data\\\n"
            "ngram 1=1\n"
            "\n\\1-grams:\n"
            "-0.5\t<unk> extra\n"
            "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError, match="1-gram"):
            read_arpa(io.StringIO(text))


# An order-3 text whose sections span several chunks once _CHUNK_LINES is
# patched small.
_MULTI_SECTION = _dump(
    _toy_model(lines=("a b c d", "b c a", "c a b d", "d a c"), order=3, direction="most-like")
)
_PAYLOADS = (
    "", "\t", " ", "  ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
    "\u2028", "\u3000", "-", "0", "_1", "1e999", "nan", "inf", "x", "a", "\\end\\",
)


def _outcome(text: str):
    """What read_arpa makes of `text`: the model's vocabulary order, tables
    and metadata, or the error message."""
    try:
        m = read_arpa(io.StringIO(text))
    except ArpaParseError as e:
        return str(e)
    return (
        list(m.vocab),
        [repr(list(t.items())) for t in m._probs],
        [repr(list(t.items())) for t in m._backoffs],
        m.config,
        m.direction,
    )


def _both_parsers(text: str, chunk_lines: int):
    """read_arpa's outcome with the bulk chunk parser, then with it declining
    every chunk, both with `chunk_lines` lines per chunk."""
    with mock.patch.object(model_module, "_CHUNK_LINES", chunk_lines):
        bulk = _outcome(text)
        with mock.patch.object(model_module, "_parse_chunk", lambda *args: False):
            per_line = _outcome(text)
    return bulk, per_line


def _line_index(lines, prefix: str) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


class TestArpaBulkRead:
    def test_canonical_text_takes_bulk_path(self):
        accepted = []
        parse_chunk = model_module._parse_chunk

        def recording(*args):
            accepted.append(parse_chunk(*args))
            return accepted[-1]

        with mock.patch.object(model_module, "_CHUNK_LINES", 2), mock.patch.object(
            model_module, "_parse_chunk", recording
        ):
            read_arpa(io.StringIO(_MULTI_SECTION))
        assert len(accepted) > 3 and all(accepted)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), chunk_lines=st.sampled_from((1, 2, 3, 5, 4096)))
    def test_bulk_matches_per_line_on_mutated_text(self, data, chunk_lines):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
            op = data.draw(st.sampled_from(("edit", "duplicate", "delete", "move")))
            if op == "edit":
                j = data.draw(st.integers(min_value=0, max_value=len(lines[i])))
                cut = data.draw(st.integers(min_value=0, max_value=2))
                lines[i] = lines[i][:j] + data.draw(st.sampled_from(_PAYLOADS)) + lines[i][j + cut:]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            elif op == "delete":
                del lines[i]
            else:
                lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines) - 1)), lines.pop(i))
        bulk, per_line = _both_parsers("".join(lines), chunk_lines)
        assert bulk == per_line

    def test_duplicate_across_chunk_boundary(self):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        first = _line_index(lines, "\\2-grams:") + 1
        lines[first + 2] = lines[first]  # chunk 2 repeats chunk 1's first gram
        bulk, per_line = _both_parsers("".join(lines), 2)
        assert bulk == per_line
        assert bulk.startswith(f"line {first + 3}: duplicate 2-gram")

    @pytest.mark.parametrize(
        "name",
        ["blank-line", "crlf", "trailing-vt", "space-separated"],
    )
    def test_tolerated_layouts_read_as_canonical(self, name):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        top = _line_index(lines, "\\3-grams:") + 1
        if name == "blank-line":
            lines.insert(top + 3, "\n")
        elif name == "crlf":
            lines = [line.replace("\n", "\r\n") for line in lines]
        elif name == "trailing-vt":
            lines[top + 1] = lines[top + 1][:-1] + "\x0b\n"
        else:
            lines = [line.replace("\t", " ") for line in lines]
            assert sum(1 for line in lines if line.count(" ") >= 2) > 2
        bulk, per_line = _both_parsers("".join(lines), 2)
        assert bulk == per_line == _outcome(_MULTI_SECTION)

    def test_short_section_before_next_header(self):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        del lines[_line_index(lines, "\\3-grams:") - 2]  # last 2-gram
        bulk, per_line = _both_parsers("".join(lines), 2)
        assert bulk == per_line
        decl = _line_index(lines, "ngram 2=") + 1
        assert bulk.startswith(f"line {decl}: ngram 2=")

    @pytest.mark.parametrize("chunk_lines", [1, 2])
    def test_entries_after_end_marker(self, chunk_lines):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        end = lines.pop(_line_index(lines, "\\end\\"))
        lines.insert(len(lines) - 4, end)
        bulk, per_line = _both_parsers("".join(lines), chunk_lines)
        assert bulk == per_line == f"line {len(lines) - 3}: content after \\end\\"

    def test_error_after_multi_chunk_section_names_line(self):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        bad = _line_index(lines, "\\3-grams:") + 4
        assert _line_index(lines, "\\3-grams:") - _line_index(lines, "\\2-grams:") > 5
        lines[bad] = "oops" + lines[bad][lines[bad].index("\t"):]
        bulk, per_line = _both_parsers("".join(lines), 2)
        assert bulk == per_line
        assert bulk == f"line {bad + 1}: bad probability field 'oops'"
