import contextlib
import hashlib
import io
import json
import marshal
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    make_random_corpus, random_sentence, sidecar_arrays, sidecar_parts, stored_entry,
)
from humorlm import model as model_module
from humorlm._trie import Trie
from humorlm.counts import count_corpus, prepare_corpus
from humorlm.errors import ArpaParseError, HumorLMError
from humorlm.model import read_arpa, write_arpa
from humorlm.smoothing import estimate_model
from humorlm.textprep import PrepConfig
from humorlm.vocab import Vocabulary
from kn_reference import KNReference


def _toy_model(lines=("a b", "a c"), order=2, boundaries=True, direction=None):
    return estimate_model(
        count_corpus(prepare_corpus(list(lines), PrepConfig(boundaries=boundaries)), order),
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
        p_b, _ = stored_entry(m, ["b"])
        _, bo_c = stored_entry(m, ["c"])
        assert m.score_word(["c"], "b") == pytest.approx(bo_c + p_b, abs=1e-12)

    def test_unstored_context_backs_off_free(self):
        m = _toy_model()
        p_b, _ = stored_entry(m, ["b"])
        # context "zzz" maps to <unk>, which was never a context: weight 1.
        assert m.score_word(["zzz"], "b") == pytest.approx(p_b, abs=1e-12)

    def test_context_truncated_to_order(self):
        m = _toy_model()
        long_ctx = ["x", "y", "z", "a"]
        assert m.score_word(long_ctx, "b") == m.score_word(["a"], "b")

    def test_oov_event_maps_to_unk(self):
        m = _toy_model()
        assert m.score_word([], "never-seen") == m.score_word([], "<unk>")


class TestReservedTokensInLibraryCalls:
    """A <s> or </s> among the tokens a library caller scores reads as
    <unk>, as it does in the text the commands read: those two name the
    padding. score_sequence(["the", "<s>", "cat"], True) once scored <s>'s
    -99 sentinel. score_word keeps the padding where score_sequence puts
    it: a <s> opening the context, a </s> as the word."""

    @staticmethod
    def _model(read):
        lines = ["the cat sat on the mat", "the dog ran to the park", "a cat ran"]
        m = _toy_model(lines, order=3, boundaries=True)
        return read_arpa(io.StringIO(_dump(m))) if read else m

    @pytest.mark.parametrize("read", [False, True], ids=["estimated", "read"])
    @pytest.mark.parametrize("boundaries", [False, True], ids=["plain", "boundaries"])
    @pytest.mark.parametrize("token", ["<s>", "</s>"])
    def test_sequences_score_as_their_unk_twins(self, token, boundaries, read):
        m = self._model(read)
        seqs, twins = [], []
        for place in range(4):
            for inserted, out in ((token, seqs), ("<unk>", twins)):
                seq = ["the", "cat", "sat"]
                seq.insert(place, inserted)
                out.append(seq)
        for seq, twin in zip(seqs, twins):
            assert m.score_sequence(seq, boundaries).hex() == m.score_sequence(twin, boundaries).hex()
        got = [x.hex() for x in m.score_sequences(seqs, boundaries)]
        assert got == [x.hex() for x in m.score_sequences(twins, boundaries)]
        # Not the -99 sentinel of <s>'s unigram.
        assert all(x > -50 for x in m.score_sequences(seqs, boundaries))

    @pytest.mark.parametrize("read", [False, True], ids=["estimated", "read"])
    def test_words_score_as_their_unk_twins(self, read):
        m = self._model(read)
        for token in ("<s>", "</s>"):
            for context in (["the", token], ["the", token, "cat"]):
                twin = ["<unk>" if t == token else t for t in context]
                for word in ("cat", "sat", "zzz"):
                    assert m.score_word(context, word).hex() == m.score_word(twin, word).hex()
        assert m.score_word(["the"], "<s>").hex() == m.score_word(["the"], "<unk>").hex()
        assert m.score_word(["</s>"], "cat").hex() == m.score_word(["<unk>"], "cat").hex()
        # The padding itself: a sentence's start and its end.
        assert m.score_word(["<s>"], "the") != m.score_word(["<unk>"], "the")
        assert m.score_word(["the", "mat"], "</s>") != m.score_word(["the", "mat"], "<unk>")
        assert m.score_sequence(["the", "mat"], True) == (
            m.score_word(["<s>"], "the") + m.score_word(["<s>", "the"], "mat")
            + m.score_word(["the", "mat"], "</s>")
        )


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
            count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), 3), 0.5
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


class TestTrieScoring:
    """Every model scores through its trie. A model read from ARPA text
    fills it from the file, an estimated one from estimation's arrays: the
    two must give the same floats, bit for bit, and those the package gave
    before estimation made tries (tests/pinned_models.json)."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        order=st.integers(min_value=1, max_value=5),
        boundaries=st.booleans(),
        data=st.data(),
    )
    def test_read_trie_equals_estimated_trie(self, seed, order, boundaries, data):
        rng = random.Random(seed)
        lines = make_random_corpus(rng, 3, 60)
        assume(boundaries or any(len(line.split()) >= order for line in lines))
        estimated = estimate_model(count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), order), 0.5)
        read = read_arpa(io.StringIO(_dump(estimated)))
        assert type(read._tables) is Trie and type(estimated._tables) is Trie
        ref = KNReference(lines, order, boundaries, fallback=0.5)
        # Mostly out-of-vocabulary tokens, empty sequences and sequences
        # shorter than the order all occur.
        words = ref.event_vocab[:3] + ["oov-1", "oov-2", "oov-3"]
        seqs = data.draw(st.lists(st.lists(st.sampled_from(words), max_size=order + 3), max_size=8))
        start = 1 if boundaries else 0
        want = estimated._tables.score([estimated.vocab.sequence_ids(s, boundaries) for s in seqs], start)
        got = read._tables.score([read.vocab.sequence_ids(s, boundaries) for s in seqs], start)
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert list(map(float.hex, read.score_sequences(seqs, boundaries))) == list(map(float.hex, want))
        for s, score in zip(seqs, want):
            assert read.score_sequence(s, boundaries).hex() == score.hex()
            if s or boundaries:
                assert score == pytest.approx(ref.score_sequence(s), abs=1e-9)
            for i in range(len(s)):
                assert read.score_word(s[:i], s[i]).hex() == estimated.score_word(s[:i], s[i]).hex()

    @pytest.mark.parametrize(
        "pinned", json.loads((Path(__file__).parent / "pinned_models.json").read_text()),
        ids=lambda p: f"order{p['order']}-{'bounded' if p['boundaries'] else 'unbounded'}"
                      f"-fallback{p['fallback_discount']}",
    )
    def test_pinned_reference(self, pinned):
        # The sha256 of the ARPA text and the float.hex scores that the
        # package wrote and gave when estimated models kept dict tables,
        # at orders 1-5 with and without boundaries and a fallback
        # discount, or the error it raised.
        lines, seqs = _pinned_corpus(), _pinned_queries()
        boundaries = pinned["boundaries"]
        table = count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), pinned["order"])
        try:
            estimated = estimate_model(table, pinned["fallback_discount"])
        except HumorLMError as e:
            assert f"{type(e).__name__}: {e}" == pinned["error"]
            return
        text = _dump(estimated)
        assert hashlib.sha256(text.encode()).hexdigest() == pinned["arpa_sha256"]
        read = read_arpa(io.StringIO(text))
        for m in (estimated, read):
            assert [x.hex() for x in m.score_sequences(seqs, boundaries)] == pinned["scores"]

    def test_long_sequence_beside_short_ones(self):
        # Each sequence is summed over its own slice of the batch, so one
        # far longer than the rest changes none of theirs.
        estimated = _toy_model(_SIDECAR_LINES, order=3, boundaries=True)
        read = read_arpa(io.StringIO(_dump(estimated)))
        rng = random.Random(5)
        words = list(read.vocab) + ["oov"]
        seqs = [random_sentence(rng, words, 12) for _ in range(30)]
        seqs[7] = [rng.choice(words) for _ in range(5000)]
        got = read.score_sequences(seqs, True)
        assert [x.hex() for x in got] == [estimated.score_sequence(s, True).hex() for s in seqs]

    def test_long_sequence_beside_many_empty_ones(self):
        # Without boundaries a tweet that filters to nothing is an empty
        # sequence. However many stand beside a long one, each scores 0.0,
        # and each sequence scores as it does alone.
        estimated = _toy_model(_SIDECAR_LINES, order=3, boundaries=False)
        read = read_arpa(io.StringIO(_dump(estimated)))
        rng = random.Random(6)
        words = list(read.vocab) + ["oov"]
        seqs = [[rng.choice(words) for _ in range(60)]] + [[] for _ in range(100)]
        seqs.insert(40, random_sentence(rng, words, 5))
        want = [estimated.score_sequence(s, False) for s in seqs]
        got = read.score_sequences(seqs, False)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert want[1:40] + want[41:] == [0.0] * 100

    def test_empty_batch(self):
        read = read_arpa(io.StringIO(_dump(_toy_model())))
        assert read.score_sequences([], True) == []
        assert read.score_sequences([[], []], False) == [0.0, 0.0]


def _pinned_corpus() -> list[str]:
    """400 lines of 1-14 words over 120 words of Zipf-like frequency."""
    rng = random.Random(10)
    words = [f"w{i}" for i in range(120)]
    weights = [1 / (i + 1) for i in range(120)]
    return [" ".join(rng.choices(words, weights, k=rng.randint(1, 14))) for _ in range(400)]


def _pinned_queries() -> list[list[str]]:
    """Empty, one-word, OOV and reserved-token sequences, and six random ones."""
    rng = random.Random(11)
    words = [f"w{i}" for i in range(12)] + ["oov", "w119", "<s>", "</s>"]
    return [[], ["w0"], ["oov"], ["w1", "w0"]] + [
        [rng.choice(words) for _ in range(rng.randint(2, 9))] for _ in range(6)
    ]


class _StubTables:
    """The tables contract and nothing else, with answers no estimated or
    read model would give; `score` records what it was asked."""

    order = 2

    def __init__(self):
        self.asked = []

    def count(self, k):
        return {1: 3, 2: 1}[k]

    def storage(self, k):
        if k == 1:
            return (np.zeros(3, np.int64), np.arange(3), np.array([-1.5, -0.25, -2.0]),
                    np.array([-0.5, 0.0, 0.0]))
        return np.array([1]), np.array([2]), np.array([-0.125]), None

    def score(self, id_seqs, start):
        self.asked.append((id_seqs, start))
        return [len(ids) * 10.0 + start for ids in id_seqs]


class TestTablesContract:
    def test_model_answers_from_its_tables_alone(self):
        stub = _StubTables()
        m = model_module.NGramModel(
            Vocabulary.from_tokens(["<unk>", "a", "b"]), stub, PrepConfig(boundaries=True)
        )
        assert m.order == 2
        assert [m.ngram_count(k) for k in (1, 2)] == [3, 1]
        assert list(m.stored_ngrams(1)) == [
            (("<unk>",), -1.5, -0.5), (("a",), -0.25, None), (("b",), -2.0, None)
        ]
        assert list(m.stored_ngrams(2)) == [(("a", "b"), -0.125, None)]
        assert m.score_word(["zzz", "a"], "b") == 21.0
        assert m.score_sequence(["a"], boundaries=False) == 10.0
        # The model's own setting adds <s> and </s>, both <unk> here.
        assert m.score_sequences([["a", "zzz"], []]) == [41.0, 21.0]
        assert stub.asked == [
            ([[1, 2]], 1), ([[1]], 0), ([[0, 1, 0, 0], [0, 0]], 1)
        ]
        head, body = _dump(m).split("\\data\\\n")
        assert head.startswith("# humorlm order=2 ")
        assert body == (
            "ngram 1=3\nngram 2=1\n\n"
            "\\1-grams:\n-1.5\t<unk>\t-0.5\n-0.25\ta\t0.0\n-2.0\tb\t0.0\n\n"
            "\\2-grams:\n-0.125\ta b\n\n\\end\\\n"
        )

class TestKeySpace:
    def test_synthetic_sizes(self):
        from humorlm import _trie

        _trie.check_key_space(2**40, 2**22, 3)  # 2**62 keys fit
        with pytest.raises(ArpaParseError) as e:
            _trie.check_key_space(2**40, 2**23, 3)
        assert str(e.value) == (
            f"3-gram keys do not fit in 64 bits: {2**40} 2-grams times {2**23} tokens"
        )
        # 3,037,000,500 squared is just past 2**63.
        with pytest.raises(ArpaParseError):
            _trie.check_key_space(3_037_000_500, 3_037_000_500, 2)
        _trie.check_key_space(3_037_000_499, 3_037_000_499, 2)

    @pytest.mark.parametrize("boundaries", [False, True])
    def test_order_5_over_more_tokens_than_base_v_keys_hold(self, boundaries):
        # |V|^5 >= 2**63: a 5-gram packed as a base-|V| number would not fit
        # in 64 bits. Packed as prefix row * |V| + id, every key does. The
        # ARPA text and scores are those the package gave when estimated
        # models kept dict tables, which had no keys to pack.
        lines = [" ".join(f"k{i}" for i in range(j, 9000, 3)) + " a b c d e" for j in range(3)]
        lines.append("a b c d e a b c d e")
        table = count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), 5)
        assert len(table.vocab) ** 5 >= 2**63
        estimated = estimate_model(table, 0.5)
        text = _dump(estimated)
        sha256, scores = {
            False: ("69de0e9f05c59dfa3b45e7d7ba7655eaac8871b0b50e096f9709708c407bf077",
                    ["-0x1.114315c4a4228p+4", "-0x1.1d5953b66d154p+3", "-0x1.9889adf7b6081p+3"]),
            True: ("99168a88e98797f8cad0dda188cf9c3fb394a6353a1169b53854e5779419f3e0",
                   ["-0x1.950a3f09f9fbap+2", "-0x1.5848f82de9537p+3", "-0x1.105ec7ba8a5fbp+4"]),
        }[boundaries]
        assert hashlib.sha256(text.encode()).hexdigest() == sha256
        read = read_arpa(io.StringIO(text))
        assert _dump(read) == text
        seqs = [["k0", "k3", "k6", "k9", "k12", "k15"], ["a", "b", "c", "d", "e", "k1"], ["k8999", "k1", "zz"]]
        for m in (estimated, read):
            assert [x.hex() for x in m.score_sequences(seqs, boundaries)] == scores


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

    def test_sections_across_write_batches(self):
        # More grams per order than one write batch holds: every stored
        # entry is written once, in storage order.
        n = model_module._WRITE_BATCH + 7
        m = _toy_model([" ".join(f"w{i}" for i in range(j, j + 20)) for j in range(0, n, 10)])
        assert m.ngram_count(1) > model_module._WRITE_BATCH
        assert m.ngram_count(2) > model_module._WRITE_BATCH
        want = []
        for k in (1, 2):
            want.append(f"\\{k}-grams:")
            for gram, p, bo in m.stored_ngrams(k):
                tail = [repr(0.0 if bo is None else bo)] if k < m.order else []
                want.append("\t".join([repr(p), " ".join(gram), *tail]))
        lines = _dump(m).splitlines()
        body = lines[lines.index("\\1-grams:"):lines.index("\\end\\")]
        assert [line for line in body if line] == want

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

    def test_direction_without_flags_round_trips(self):
        # A metadata line that gives a direction and no prep flags.
        text = (
            "# humorlm order=1 direction=least-like\n\n"
            "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\t<unk>\n-0.4\ta\n\n\\end\\\n"
        )
        m = read_arpa(io.StringIO(text))
        assert (m.config, m.direction) == (None, "least-like")
        assert _dump(m) == text
        m2 = read_arpa(io.StringIO(_dump(m)))
        assert (m2.config, m2.direction) == (None, "least-like")

    def test_bad_metadata_direction_rejected(self):
        text = _dump(_toy_model(direction="least-like"))
        text = text.replace("direction=least-like", "direction=bogus")
        with pytest.raises(ArpaParseError, match="bogus"):
            read_arpa(io.StringIO(text))

    @pytest.mark.parametrize("field", ["lowercase=yes", "lowercase=TRUE", "lowercase=", "lowercase"])
    def test_bad_metadata_flag_rejected(self, field):
        text = _dump(_toy_model()).replace("lowercase=false", field, 1)
        value = field.partition("=")[2]
        with pytest.raises(ArpaParseError) as e:
            read_arpa(io.StringIO(text))
        assert str(e.value) == f"line 1: bad metadata lowercase field {value!r}"

    @pytest.mark.parametrize(
        "field, added",
        [("lowercase", "lowercase=true"), ("order", "order=2"), ("future", "future=1 future=2")],
    )
    def test_repeated_metadata_field_rejected(self, field, added):
        text = _dump(_toy_model(direction="least-like"))
        repeated = text.replace(" direction=", f" {added} direction=", 1)
        assert repeated != text
        with pytest.raises(ArpaParseError) as e:
            read_arpa(io.StringIO(repeated))
        assert str(e.value) == f"line 1: repeated metadata field {field!r}"

    def test_second_metadata_line_rejected(self):
        text = _dump(_toy_model(direction="least-like"))
        meta = text.splitlines()[0]
        for second in (meta, "# humorlm order=2", "# humorlm future=1"):
            with pytest.raises(ArpaParseError) as e:
                read_arpa(io.StringIO(text.replace("\\data\\", second + "\n\\data\\", 1)))
            assert str(e.value) == "line 3: second metadata line (the first is line 1)"

    def test_unknown_metadata_field_ignored(self):
        text = _dump(_toy_model(direction="least-like"))
        extended = text.replace(" direction=", " future=1 other direction=", 1)
        assert extended != text
        m = read_arpa(io.StringIO(extended))
        assert (m.config, m.direction) == (read_arpa(io.StringIO(text)).config, "least-like")

    def test_negative_zero_backoff_is_no_weight(self):
        text = (
            "\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n-0.5\t<unk>\t-0.0\n"
            "-0.4\ta\t0.0\n\n\\2-grams:\n-0.3\ta a\n\n\\end\\\n"
        )
        m = read_arpa(io.StringIO(text))
        assert [bo for _, _, bo in m.stored_ngrams(1)] == [None, None]
        assert _dump(m) == text.replace("-0.0", "0.0")

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
            count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), 3), 0.5
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
        assert stored_entry(m, ["a"]) == (-0.4, -0.2)
        assert stored_entry(m, ["b"]) == (-0.6, None)
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\\data\\\nngram 1=2\n\\1-grams:\n-0.5\t<unk>\n-0.4\ta\nngram 2=1\n\\end\\\n",
             "line 6: ngram declaration inside a grams section"),
            ("\\data\\\n\\1-grams:\n-0.5\t<unk>\n\\end\\\n",
             "line 2: grams section before any ngram declaration"),
            ("\\data\\\nngram 1=2\n\\1-grams:\n-0.5\t<unk>\n-0.4\ta\n\\2-grams:\n\\end\\\n",
             "line 6: section \\2-grams: was not declared"),
            ("\\data\\\n\\end\\\n", "no ngram declarations found"),
            ("\\data\\\nngram 1=1\nngram 2=0\n\\1-grams:\n-0.5\t<unk>\n\\end\\\n",
             "expected 2 grams sections, found 1"),
            ("# humorlm order=3\n\\data\\\nngram 1=1\nngram 2=0\n\\1-grams:\n-0.5\t<unk>\t0.0\n"
             "\\2-grams:\n\\end\\\n",
             "metadata order=3 disagrees with file structure (2)"),
            ("\\data\\\nngram 1=1\n\\1-grams:\n-0.5\t<unk>\t0.0\tx\n\\end\\\n",
             "line 4: expected 2 or 3 tab-separated fields, got 4"),
            ("\\data\\\nngram 1=1\n\\1-grams:\ninf\t<unk>\n\\end\\\n",
             "line 4: non-finite probability 'inf'"),
            ("\\data\\\nngram 1=1\nngram 2=0\n\\1-grams:\n-0.5\t<unk>\tnan\n\\end\\\n",
             "line 5: non-finite back-off 'nan'"),
            ("# humorlm order=x\n\\data\\\n", "line 1: bad metadata order field 'x'"),
            # Numbers are ASCII digits: int() and float() would read the
            # rest, and write_arpa would not give the file's bytes back.
            ("\\data\\\nngram 1=\u0661\n\\1-grams:\n-0.5\t<unk>\n\\end\\\n",
             "line 2: unexpected line outside any section: 'ngram 1=\u0661'"),
            ("\\data\\\nngram 1=1\n\\\u0661-grams:\n-0.5\t<unk>\n\\end\\\n",
             "line 3: unexpected line outside any section: '\\\\\u0661-grams:'"),
            ("# humorlm order=+1\n\\data\\\nngram 1=1\n\\1-grams:\n-0.5\t<unk>\n\\end\\\n",
             "line 1: bad metadata order field '+1'"),
            ("# humorlm order=\u0661\n\\data\\\nngram 1=1\n\\1-grams:\n-0.5\t<unk>\n\\end\\\n",
             "line 1: bad metadata order field '\u0661'"),
            ("# humorlm order=0_1\n\\data\\\nngram 1=1\n\\1-grams:\n-0.5\t<unk>\n\\end\\\n",
             "line 1: bad metadata order field '0_1'"),
            ("\\data\\\nngram 1=1\n\\1-grams:\n-0.5_0\t<unk>\n\\end\\\n",
             "line 4: bad probability field '-0.5_0'"),
            ("\\data\\\nngram 1=1\n\\1-grams:\n-\u0660.\u0665\t<unk>\n\\end\\\n",
             "line 4: bad probability field '-\u0660.\u0665'"),
            ("\\data\\\nngram 1=1\nngram 2=0\n\\1-grams:\n-0.5\t<unk>\t-0.5_0\n\\2-grams:\n\\end\\\n",
             "line 5: bad back-off field '-0.5_0'"),
            ("\\data\\\nngram 1=1\nngram 2=0\n\\1-grams:\n-0.5 <unk> -\u0660.\u0665\n\\2-grams:\n\\end\\\n",
             "line 5: bad back-off field '-\u0660.\u0665'"),
        ],
        ids=[
            "declaration-in-section", "section-first", "undeclared-section", "no-declarations",
            "missing-section", "metadata-order", "four-fields", "inf-prob", "nan-backoff",
            "metadata-order-field", "declared-count-digits", "section-digits",
            "metadata-order-sign", "metadata-order-digits", "metadata-order-underscore",
            "prob-underscore", "prob-digits", "backoff-underscore", "backoff-digits",
        ],
    )
    def test_structure_error_texts(self, text, message):
        with pytest.raises(ArpaParseError) as exc:
            read_arpa(io.StringIO(text))
        assert str(exc.value) == message

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

    @pytest.mark.parametrize(
        "grams, missing",
        [
            (["b b a"], "b b"),  # prefix and suffix both missing: the prefix
            (["a a b", "a b <unk>", "b a a"], "b <unk>"),  # the first gram in file order
        ],
    )
    def test_closure_names_the_first_missing_gram(self, grams, missing):
        text = (
            "\\data\\\nngram 1=3\nngram 2=2\n"
            f"ngram 3={len(grams)}\n"
            "\n\\1-grams:\n-0.5\t<unk>\t0.0\n-0.4\ta\t0.0\n-0.4\tb\t0.0\n"
            "\n\\2-grams:\n-0.3\ta a\t0.0\n-0.3\ta b\t0.0\n"
            "\n\\3-grams:\n" + "".join(f"-0.2\t{g}\n" for g in grams) + "\n\\end\\\n"
        )
        with pytest.raises(ArpaParseError) as e:
            read_arpa(io.StringIO(text))
        assert str(e.value) == f"back-off chain closure violated: 2-gram {missing!r} is missing"

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


# An order-3 text whose 2- and 3-gram sections run to several lines each.
_MULTI_SECTION = _dump(
    _toy_model(lines=("a b c d", "b c a", "c a b d", "d a c"), order=3, direction="most-like")
)
_PAYLOADS = (
    "", "\t", " ", "  ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
    "\u2028", "\u3000", "-", "0", "_1", "1e999", "nan", "inf", "x", "a", "\\end\\",
)


def _summary(m):
    """A model's vocabulary order, stored entries in storage order, and metadata."""
    return (
        list(m.vocab),
        [repr(list(m.stored_ngrams(k))) for k in range(1, m.order + 1)],
        m.config,
        m.direction,
    )


def _outcome(text: str, newline="\n"):
    """What read_arpa makes of `text`: the model's summary or the error
    message. newline=None reads it as a file opened in text mode would."""
    try:
        m = read_arpa(io.StringIO(text, newline=newline))
    except ArpaParseError as e:
        return str(e)
    return _summary(m)


def _named(path, message: str) -> str:
    """The error `message` that read_arpa raises on a text, as it reads
    when read_arpa is given the path of a file holding that text."""
    return f"{path}, {message}" if message.startswith("line ") else f"{path}: {message}"


def _line_index(lines, prefix: str) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


class TestArpaBulkRead:
    """Whole multi-section texts: repeats far apart, tolerated layouts,
    short sections and misplaced markers, each with its exact outcome."""

    def test_duplicate_across_chunk_boundary(self):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        first = _line_index(lines, "\\2-grams:") + 1
        lines[first + 2] = lines[first]  # two lines on, the section's first gram again
        gram = lines[first].split("\t")[1]
        assert _outcome("".join(lines)) == f"line {first + 3}: duplicate 2-gram {gram!r}"

    @pytest.mark.parametrize(
        "later",
        ["bad-prob", "unknown-token", "bad-backoff-same-line", "bad-header", "end-moved-up"],
    )
    def test_duplicate_before_a_later_error(self, later):
        # Repeats are found once a section is read, yet a repeat still
        # comes before any error on a later line, or on its own line after
        # the gram (the back-off field).
        lines = _MULTI_SECTION.splitlines(keepends=True)
        first = _line_index(lines, "\\2-grams:") + 1
        lines[first + 2] = lines[first]
        gram = lines[first].split("\t")[1]
        if later == "bad-prob":
            lines[first + 3] = "oops" + lines[first + 3][lines[first + 3].index("\t"):]
        elif later == "unknown-token":
            lines[first + 3] = "-0.5\tnever seen\t0.0\n"
        elif later == "bad-backoff-same-line":
            lines[first + 2] = lines[first].rsplit("\t", 1)[0] + "\tx\n"
        elif later == "bad-header":
            lines[_line_index(lines, "\\3-grams:")] = "\\4-grams:\n"
        else:
            lines.insert(first + 4, lines.pop(_line_index(lines, "\\end\\")))
        assert _outcome("".join(lines)) == f"line {first + 3}: duplicate 2-gram {gram!r}"

    def test_top_order_duplicate_with_backoff_field(self):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        first = _line_index(lines, "\\3-grams:") + 1
        lines[first + 1] = lines[first][:-1] + "\t-0.5\n"
        gram = lines[first].split("\t")[1].rstrip("\n")
        assert _outcome("".join(lines)) == f"line {first + 2}: duplicate 3-gram {gram!r}"

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
        assert _outcome("".join(lines)) == _outcome(_MULTI_SECTION)

    def test_short_section_before_next_header(self):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        del lines[_line_index(lines, "\\3-grams:") - 2]  # last 2-gram
        decl = _line_index(lines, "ngram 2=") + 1
        declared = int(lines[decl - 1].split("=")[1])
        assert _outcome("".join(lines)) == (
            f"line {decl}: ngram 2={declared} declared but {declared - 1} entries found"
        )

    @pytest.mark.parametrize("back", [1, 2, 3])
    def test_entries_after_end_marker(self, back):
        # \end\ moved up past `back` 3-grams; the first one after it is named.
        lines = _MULTI_SECTION.splitlines(keepends=True)
        end = lines.pop(_line_index(lines, "\\end\\"))
        lines.insert(len(lines) - 1 - back, end)
        assert _outcome("".join(lines)) == f"line {len(lines) - back}: content after \\end\\"

    def test_error_after_multi_chunk_section_names_line(self):
        lines = _MULTI_SECTION.splitlines(keepends=True)
        bad = _line_index(lines, "\\3-grams:") + 4
        assert _line_index(lines, "\\3-grams:") - _line_index(lines, "\\2-grams:") > 5
        lines[bad] = "oops" + lines[bad][lines[bad].index("\t"):]
        assert _outcome("".join(lines)) == f"line {bad + 1}: bad probability field 'oops'"


def _cached(path):
    """read_arpa(path) served from its sidecar; fails if it parses."""
    with mock.patch.object(model_module, "_read_arpa", side_effect=AssertionError("parsed")):
        return read_arpa(path)


def _read_counting_parses(path):
    """read_arpa(path)'s summary or error message, and how often it parsed."""
    parses = []
    parse = model_module._read_arpa

    def counting(f):
        parses.append(f)
        return parse(f)

    with mock.patch.object(model_module, "_read_arpa", counting):
        try:
            outcome = _summary(read_arpa(path))
        except ArpaParseError as e:
            outcome = str(e)
    return outcome, len(parses)


def _with_sidecar(tmp_path, text=_MULTI_SECTION):
    """An ARPA file holding `text`, read once so that its sidecar exists."""
    path = tmp_path / "m.arpa"
    path.write_text(text, encoding="utf-8")
    read_arpa(path)
    cache = tmp_path / "m.arpa.cache"
    assert cache.is_file()
    return path, cache


def _edit_first_prob(text: str) -> str:
    lines = text.splitlines(keepends=True)
    i = _line_index(lines, "\\1-grams:") + 1
    lines[i] = "-1.5" + lines[i][lines[i].index("\t"):]
    return "".join(lines)


_SIDECAR_LINES = ("a b c d e", "b c a", "c a b d", "d a c e b a", "e e a b", "b b c")


def _assert_served_like_parsed(path, text):
    """Write `text` to `path` and read it twice: the model its sidecar serves
    equals the one parsed from `text`, and its arrays are aligned."""
    path.write_text(text, encoding="utf-8")
    first = read_arpa(path)
    cached = _cached(path)
    parsed = read_arpa(io.StringIO(text))
    assert _summary(first) == _summary(cached) == _summary(parsed)
    assert (cached.order, cached.config, cached.direction) == (
        parsed.order, parsed.config, parsed.direction
    )
    for k in range(1, parsed.order + 1):
        assert repr(list(cached.stored_ngrams(k))) == repr(list(parsed.stored_ngrams(k)))
    assert _dump(cached) == text
    assert all(a.flags.aligned for a in cached._tables.arrays())
    rng = random.Random(parsed.order)
    words = list(parsed.vocab) + ["oov-x"]
    for _ in range(40):
        seq = random_sentence(rng, words)
        for b in (False, True):
            assert repr(cached.score_sequence(seq, boundaries=b)) == repr(
                parsed.score_sequence(seq, boundaries=b)
            )
        for i in range(len(seq)):
            assert repr(cached.score_word(seq[:i], seq[i])) == repr(
                parsed.score_word(seq[:i], seq[i])
            )


class TestArpaSidecar:
    @pytest.mark.parametrize("boundaries", [False, True])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_cached_model_matches_parsed(self, tmp_path, order, boundaries):
        text = _dump(_toy_model(_SIDECAR_LINES, order, boundaries, direction="least-like"))
        meta, rest = text.split("\n", 1)
        assert meta.startswith("# humorlm order=") and " lowercase=" in meta
        # Flags and a direction; a direction only; none, as in a foreign file.
        shapes = [text, f"# humorlm order={order} direction=least-like\n{rest}", rest.lstrip("\n")]
        for i, shaped in enumerate(shapes):
            (tmp_path / str(i)).mkdir()
            _assert_served_like_parsed(tmp_path / str(i) / "m.arpa", shaped)

    def test_tokens_that_split_lines_elsewhere(self, tmp_path):
        # str.splitlines() breaks a line at \x0c, \x1c, \x85 and \u2028.
        tokens = ["a\x0cb", "c\x1cd", "e\x85f", "g\u2028h", "i\U0001f600j", "k=l", "#m"]
        placeholders = [f"tok{i}" for i in range(len(tokens))]
        text = _dump(_toy_model([" ".join(placeholders), "tok0 tok6 tok3"], 3, True, "most-like"))
        for placeholder, token in zip(placeholders, tokens):
            text = text.replace(placeholder, token)
        assert set(tokens) <= set(read_arpa(io.StringIO(text)).vocab)
        _assert_served_like_parsed(tmp_path / "m.arpa", text)

    @pytest.mark.parametrize("name", ["crlf", "cr"])
    def test_path_reads_as_open_file(self, tmp_path, name):
        newline = {"crlf": "\r\n", "cr": "\r"}[name]
        path = tmp_path / "m.arpa"
        path.write_bytes(_MULTI_SECTION.replace("\n", newline).encode())
        with open(path, encoding="utf-8") as f:
            want = _summary(model_module._read_arpa(f))
        assert _read_counting_parses(path) == (want, 1)
        assert _summary(_cached(path)) == want

    @pytest.mark.parametrize(
        "damage",
        ["stale", "empty", "truncated", "one-byte-short", "appended", "other-byte-order",
         "other-code", "format-4"],
    )
    def test_damaged_sidecar_is_ignored(self, tmp_path, damage):
        path, cache = _with_sidecar(tmp_path)
        data = cache.read_bytes()
        text = _MULTI_SECTION
        code = model_module._code_sha256()
        stamp = f"humorlm model cache {code} {sys.byteorder}\n".encode()
        assert data.startswith(stamp)
        if damage == "stale":
            text = _edit_first_prob(text)
            path.write_text(text, encoding="utf-8")
        elif damage == "empty":
            cache.write_bytes(b"")
        elif damage == "truncated":
            cache.write_bytes(data[: len(data) // 2])
        elif damage == "one-byte-short":
            cache.write_bytes(data[:-1])
        elif damage == "appended":
            cache.write_bytes(data + b"\0")
        elif damage == "other-byte-order":
            other = {"little": "big", "big": "little"}[sys.byteorder]
            cache.write_bytes(f"humorlm model cache {code} {other}\n".encode() + data[len(stamp):])
        elif damage == "other-code":
            assert code != "0" * 64
            cache.write_bytes(data.replace(code.encode(), b"0" * 64, 1))
        else:
            # Format 4's stamp named the interpreter of its marshal metadata.
            old = (
                f"humorlm model cache 4 {sys.byteorder} "
                f"{sys.implementation.cache_tag} marshal {marshal.version}\n"
            )
            cache.write_bytes(old.encode() + data[len(stamp):])
        assert _read_counting_parses(path) == (_outcome(text), 1)
        # The parse left a sidecar, under this code's key, that serves the
        # file as it now is.
        assert cache.read_bytes().startswith(stamp)
        assert _summary(_cached(path)) == _outcome(text)

    def test_every_flipped_byte_is_caught(self, tmp_path):
        path, cache = _with_sidecar(tmp_path)
        data = cache.read_bytes()
        want = (_outcome(_MULTI_SECTION), 1)
        for i in range(len(data)):
            cache.write_bytes(data[:i] + bytes([data[i] ^ 0x20]) + data[i + 1:])
            assert _read_counting_parses(path) == want, f"byte {i}"

    @pytest.mark.parametrize(
        "reshape",
        [
            "unchanged", "meta-short", "order-not-int", "tokens-without-unk", "token-repeated", "token-not-str",
            "flags-short", "flags-not-bool", "bad-direction", "count-over", "count-under",
            "part-missing", "part-extra", "part-repeated", "part-is-dict", "key-repeated",
            "keys-short", "keys-long", "keys-are-lists", "keys-are-bytes", "probs-are-ints",
            "probs-short", "prob-nan", "backoff-inf", "backoffs-missing", "backoffs-short",
            "top-backoffs", "unigram-out-of-range", "unk-unigram-missing",
            "keys-reordered", "prefix-row-out-of-range", "rows-repeated", "rows-out-of-range",
        ],
    )
    def test_reshaped_payload_is_ignored(self, tmp_path, reshape):
        # The body: the header lines (metadata, an ngram line per order, the
        # tokens), then per order its keys, probs, back-offs (below the top
        # order) and file rows, rewritten with a matching hash.
        path, cache = _with_sidecar(tmp_path)
        header, orders = sidecar_arrays(read_arpa(io.StringIO(_MULTI_SECTION)))
        unigrams, bigrams, trigrams = orders
        assert header[1:4] == [f"ngram {k}={len(orders[k - 1]['keys'])}" for k in (1, 2, 3)]
        vocab_size = len(header) - 4

        def recount(k, delta):
            header[k] = f"ngram {k}={len(orders[k - 1]['keys']) + delta}"

        if reshape == "meta-short":
            del header[3]
        elif reshape == "order-not-int":
            header[0] = header[0].replace(" order=3 ", " order=3.0 ")
        elif reshape == "tokens-without-unk":
            header[4:] = header[4:][::-1]
        elif reshape == "token-repeated":
            header[-1] = header[5]
        elif reshape == "token-not-str":
            header[-1] = b"\xff"
        elif reshape == "flags-short":
            header[0] = header[0].replace(" lowercase=false ", " lowercase ")
        elif reshape == "flags-not-bool":
            header[0] = header[0].replace(" lowercase=false ", " lowercase=1 ")
        elif reshape == "bad-direction":
            header[0] = header[0].replace(" direction=most-like", " direction=sideways")
        elif reshape == "count-over":
            recount(2, 1)
        elif reshape == "count-under":
            recount(2, -1)
        elif reshape == "part-missing":
            del trigrams["rows"]
        elif reshape == "part-extra":
            trigrams["extra"] = trigrams["rows"]
        elif reshape == "part-repeated":
            # Every bigram array twice over, with the count to match.
            recount(2, len(bigrams["keys"]))
            for name, column in bigrams.items():
                bigrams[name] = np.concatenate([column, column])
        elif reshape == "part-is-dict":
            bigrams["keys"] = marshal.dumps(dict(enumerate(bigrams["keys"].tolist())))
        elif reshape == "key-repeated":
            # The count holds, but the last entry repeats a gram with another value.
            for name, column in bigrams.items():
                bigrams[name] = np.append(column, column[0])
            bigrams["probs"][-1] -= 1.0
            bigrams["rows"][-1] = len(bigrams["rows"]) - 1
            recount(2, 0)
        elif reshape == "keys-short":
            bigrams["keys"] = bigrams["keys"][:-1]
        elif reshape == "keys-long":
            bigrams["keys"] = np.append(bigrams["keys"], bigrams["keys"][-1] + 1)
        elif reshape == "keys-are-lists":
            bigrams["keys"] = bigrams["keys"].astype(np.int32)
        elif reshape == "keys-are-bytes":
            bigrams["keys"] = bigrams["keys"].byteswap()
        elif reshape == "probs-are-ints":
            bigrams["probs"] = np.floor(bigrams["probs"]).astype(np.int64)
        elif reshape == "probs-short":
            bigrams["probs"] = bigrams["probs"][:-1]
        elif reshape == "prob-nan":
            bigrams["probs"][0] = math.nan
        elif reshape == "backoff-inf":
            bigrams["backoffs"][0] = -math.inf
        elif reshape == "backoffs-missing":
            del bigrams["backoffs"]
        elif reshape == "backoffs-short":
            bigrams["backoffs"] = bigrams["backoffs"][:-1]
        elif reshape == "top-backoffs":
            trigrams["backoffs"] = trigrams["probs"]
        elif reshape == "unigram-out-of-range":
            # Every shape holds, but one vocabulary id has no unigram.
            unigrams["keys"][-1] = vocab_size
        elif reshape == "unk-unigram-missing":
            recount(1, -1)
            for name, column in unigrams.items():
                unigrams[name] = column[1:]
            unigrams["rows"] = np.argsort(unigrams["rows"])
        elif reshape == "keys-reordered":
            bigrams["keys"][[0, 1]] = bigrams["keys"][[1, 0]]
        elif reshape == "prefix-row-out-of-range":
            # The last trigram's prefix row is one past the last bigram.
            trigrams["keys"][-1] = len(bigrams["keys"]) * vocab_size
        elif reshape == "rows-repeated":
            bigrams["rows"][1] = bigrams["rows"][0]
        elif reshape == "rows-out-of-range":
            bigrams["rows"][0] = len(bigrams["rows"])
        model_module._write_cache(
            str(cache), model_module._file_sha256(path), *sidecar_parts(header, orders)
        )
        parses = 0 if reshape == "unchanged" else 1
        assert _read_counting_parses(path) == (_outcome(_MULTI_SECTION), parses)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_text_reads_alike_from_sidecar(self, data):
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
        text = "".join(lines)
        want = _outcome(text, newline=None)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.arpa")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            if isinstance(want, str):
                with pytest.raises(ArpaParseError) as e:
                    read_arpa(path)
                assert str(e.value) == _named(path, want)
                assert not os.path.exists(path + ".cache")
            else:
                assert _summary(read_arpa(path)) == want
                assert _summary(_cached(path)) == want

    @pytest.mark.parametrize(
        "change, error",
        [
            (("lowercase=false", "lowercase=yes"), "line 1: bad metadata lowercase field 'yes'"),
            (
                ("lowercase=false", "lowercase=false lowercase=true"),
                "line 1: repeated metadata field 'lowercase'",
            ),
            (
                ("\\data\\", "# humorlm order=3\n\\data\\"),
                "line 3: second metadata line (the first is line 1)",
            ),
            (("order=3", "order=+3"), "line 1: bad metadata order field '+3'"),
            (
                ("\\1-grams:", "\\\u0661-grams:"),
                "line 8: unexpected line outside any section: '\\\\\u0661-grams:'",
            ),
            (("\t<unk>\t", "_0\t<unk>\t"),
             "line 9: bad probability field '-1.526339277389844_0'"),
            (("\t<unk>\t0.0\n", "\t<unk>\t\u0660.\u0660\n"),
             "line 9: bad back-off field '\u0660.\u0660'"),
        ],
        ids=["flag-value", "repeated-field", "second-line", "order-sign", "section-digits",
             "prob-underscore", "backoff-digits"],
    )
    def test_sidecar_of_other_code_is_not_served(self, tmp_path, change, error):
        # Earlier parsers read each of these files without an error and
        # cached the model they read: a flag value other than true or false
        # as false, a repeated field or a second metadata line as replacing
        # the first, numbers with an underscore or in other scripts' digits.
        # Such a sidecar, written by other code, must never be served.
        path, cache = _with_sidecar(tmp_path)
        text = _MULTI_SECTION.replace(*change, 1)
        assert text != _MULTI_SECTION
        path.write_text(text, encoding="utf-8")
        other = "0" * 64
        assert model_module._code_sha256() != other
        with mock.patch.object(model_module, "_code_sha256", return_value=other):
            model_module._write_cache(
                str(cache),
                model_module._file_sha256(path),
                *sidecar_parts(*sidecar_arrays(read_arpa(io.StringIO(_MULTI_SECTION)))),
            )
            assert _summary(_cached(path)) == _outcome(_MULTI_SECTION)
        with pytest.raises(ArpaParseError) as e:
            read_arpa(path)
        assert str(e.value) == _named(path, error)

    def test_sourceless_install_keeps_its_sidecar(self, tmp_path):
        # A copy of the package built with `compileall -b`, then stripped of
        # its .py files: its key is the sha256 over its .pyc files.
        package = tmp_path / "lib" / "humorlm"
        shutil.copytree(Path(model_module.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        subprocess.run([sys.executable, "-m", "compileall", "-q", "-b", str(package)], check=True)
        for source in package.glob("*.py"):
            source.unlink()
        path = tmp_path / "m.arpa"
        path.write_text(_MULTI_SECTION, encoding="utf-8")
        script = (
            "import sys\n"
            "from humorlm import model\n"
            "assert model.__file__.endswith('.pyc'), model.__file__\n"
            "parse = model._read_arpa\n"
            "def counting(f):\n"
            "    print('parsed')\n"
            "    return parse(f)\n"
            "model._read_arpa = counting\n"
            "m = model.read_arpa(sys.argv[1])\n"
            "print(model._code_sha256())\n"
            "print(repr((list(m.vocab), [repr(list(m.stored_ngrams(k)))\n"
            "            for k in range(1, m.order + 1)], m.config, m.direction)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(tmp_path / "lib")}
        runs = [
            subprocess.run([sys.executable, "-c", script, str(path)], cwd=tmp_path, env=env,
                           capture_output=True, text=True, check=True).stdout.splitlines()
            for _ in range(2)
        ]
        code = runs[0][1]
        assert len(code) == 64 and code != model_module._code_sha256()
        want = repr(_outcome(_MULTI_SECTION))
        assert runs == [["parsed", code, want], [code, want]]
        stamp = f"humorlm model cache {code} {sys.byteorder}\n"
        assert (tmp_path / "m.arpa.cache").read_bytes().startswith(stamp.encode())

    @pytest.mark.parametrize("fault", ["bad-prob", "not-utf8"])
    def test_malformed_arpa_beside_old_sidecar(self, tmp_path, fault):
        path, cache = _with_sidecar(tmp_path)
        lines = _MULTI_SECTION.splitlines(keepends=True)
        bad = _line_index(lines, "\\3-grams:") + 2
        if fault == "bad-prob":
            lines[bad] = "oops" + lines[bad][lines[bad].index("\t"):]
            path.write_text("".join(lines), encoding="utf-8")
            want = f"line {bad + 1}: bad probability field 'oops'"
            assert _outcome("".join(lines)) == want
            want = _named(path, want)
        else:
            path.write_bytes(_MULTI_SECTION.encode() + b"caf\xe9\n")
            want = f"{path}: not UTF-8 text (invalid continuation byte)"
        with pytest.raises(ArpaParseError) as e:
            read_arpa(path)
        assert str(e.value) == want

    def test_edit_after_parse_is_not_cached(self, tmp_path):
        path = tmp_path / "m.arpa"
        path.write_text(_MULTI_SECTION, encoding="utf-8")
        edited = _edit_first_prob(_MULTI_SECTION)
        parse = model_module._read_arpa

        def parse_then_edit(f):
            m = parse(f)
            path.write_text(edited, encoding="utf-8")
            return m

        with mock.patch.object(model_module, "_read_arpa", parse_then_edit):
            assert _summary(read_arpa(path)) == _outcome(_MULTI_SECTION)
        # The sidecar is keyed to the bytes parsed, not to the file as edited.
        assert _read_counting_parses(path) == (_outcome(edited), 1)

    @pytest.mark.parametrize("obstacle", ["read-only-dir", "cache-is-dir", "replace-fails"])
    def test_unwritable_sidecar_still_loads(self, tmp_path, obstacle):
        folder = tmp_path / "models"
        folder.mkdir()
        path = folder / "m.arpa"
        path.write_text(_MULTI_SECTION, encoding="utf-8")
        want = _outcome(_MULTI_SECTION)
        fail_replace = contextlib.nullcontext()
        if obstacle == "read-only-dir":
            folder.chmod(0o555)
        elif obstacle == "cache-is-dir":
            (folder / "m.arpa.cache").mkdir()
        else:
            fail_replace = mock.patch.object(
                model_module.os, "replace", side_effect=PermissionError(13, "Permission denied")
            )
        try:
            with fail_replace:
                for _ in range(2):
                    outcome, parses = _read_counting_parses(path)
                    assert outcome == want
                    if obstacle != "read-only-dir":
                        assert parses == 1
            writable = os.access(folder, os.W_OK)
        finally:
            folder.chmod(0o755)
        assert not list(folder.glob("*.tmp"))
        if obstacle == "read-only-dir":
            # A superuser can write to a read-only directory.
            assert (folder / "m.arpa.cache").is_file() == writable

    def test_leftover_temp_files_do_not_block_a_write(self, tmp_path):
        # What a killed process with this process's pid would have left.
        path = tmp_path / "m.arpa"
        cache = tmp_path / "m.arpa.cache"
        for target in (path, cache):
            (tmp_path / f"{target.name}.{os.getpid()}.tmp").write_bytes(b"junk")
        write_arpa(read_arpa(io.StringIO(_MULTI_SECTION)), path)
        assert path.read_text(encoding="utf-8") == _MULTI_SECTION
        assert _read_counting_parses(path) == (_outcome(_MULTI_SECTION), 1)
        assert _summary(_cached(path)) == _outcome(_MULTI_SECTION)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.arpa", "m.arpa.cache"]
