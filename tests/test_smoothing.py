import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_random_corpus, stored_entry
from humorlm import _kernels
from humorlm._trie import Trie
from humorlm.counts import (
    CountOfCounts, CountTable, count_corpus, count_of_counts, prepare_corpus,
)
from humorlm.errors import DiscountEstimationError, EmptyCorpusError
from humorlm.smoothing import estimate_discounts, estimate_model
from humorlm.textprep import BOS, PrepConfig
from humorlm.vocab import Vocabulary
from kn_reference import KNReference


class TestEstimateDiscounts:
    def test_closed_form(self):
        d = estimate_discounts(CountOfCounts(3, 1, 1, 1))
        assert d.d1 == pytest.approx(0.6, abs=1e-12)
        assert d.d2 == pytest.approx(0.2, abs=1e-12)
        assert d.d3plus == pytest.approx(0.6, abs=1e-12)

    def test_closed_form_second(self):
        d = estimate_discounts(CountOfCounts(1, 1, 1, 1))
        assert d.d1 == pytest.approx(1 / 3, abs=1e-12)
        assert d.d2 == pytest.approx(1.0, abs=1e-12)
        assert d.d3plus == pytest.approx(5 / 3, abs=1e-12)

    @pytest.mark.parametrize("coc", [
        CountOfCounts(0, 1, 1, 1),
        CountOfCounts(1, 0, 1, 1),
        CountOfCounts(1, 1, 0, 1),
        CountOfCounts(0, 0, 0, 0),
    ])
    def test_sparse_buckets_fall_back(self, coc):
        d = estimate_discounts(coc, fallback_discount=0.5)
        assert (d.d1, d.d2, d.d3plus) == (0.5, 0.5, 0.5)
        with pytest.raises(DiscountEstimationError):
            estimate_discounts(coc)

    def test_out_of_range_falls_back(self):
        # d2 = 2 - 3*(1/3)*10 = -8, outside [0, 2].
        coc = CountOfCounts(1, 1, 10, 1)
        d = estimate_discounts(coc, fallback_discount=0.25)
        assert (d.d1, d.d2, d.d3plus) == (0.25, 0.25, 0.25)
        with pytest.raises(DiscountEstimationError):
            estimate_discounts(coc)

    def test_exact_zero_discount_is_degenerate(self):
        # d3plus = 3 - 4*(18/32)*(4/3) = 0 exactly. A zero discount would
        # strand a context whose continuations all have count >= 3 with no
        # held-out mass (gamma = 0), so it must trigger the fallback.
        coc = CountOfCounts(18, 7, 3, 4)
        d = estimate_discounts(coc, fallback_discount=0.5)
        assert (d.d1, d.d2, d.d3plus) == (0.5, 0.5, 0.5)
        with pytest.raises(DiscountEstimationError):
            estimate_discounts(coc)

    def test_zero_discount_corpus_trains_with_fallback(self):
        # Bigram corpus engineered so the closed form lands on d3plus = 0
        # (count-of-counts 18/7/3/4); with a fallback the model must build
        # and keep positive back-off mass everywhere.
        rng = random.Random(87)
        lines = make_random_corpus(rng, 3, 50)
        coc = count_of_counts(count_corpus(prepare_corpus(lines, PrepConfig(boundaries=True)), 2), 2)
        assert (coc.n1, coc.n2, coc.n3, coc.n4) == (18, 7, 3, 4)
        m = estimate_model(count_corpus(prepare_corpus(lines, PrepConfig(boundaries=True)), 2), 0.5)
        for gram, _, bo in m.stored_ngrams(1):
            if bo is not None:
                assert math.isfinite(bo)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001, 2.0])
    def test_fallback_range_validated(self, bad):
        with pytest.raises(ValueError):
            estimate_discounts(CountOfCounts(0, 0, 0, 0), fallback_discount=bad)

    @settings(max_examples=100)
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    def test_closed_form_respects_bounds_or_falls_back(self, n1, n2, n3, n4):
        d = estimate_discounts(CountOfCounts(n1, n2, n3, n4), fallback_discount=0.5)
        assert 0 < d.d1 <= 1
        assert 0 < d.d2 <= 2
        assert 0 < d.d3plus <= 3


class TestContextStats:
    def test_total_and_held_out_mass_per_context(self):
        # Grams (1, 2), (1, 3), (1, 4) and (2, 3) with counts 1, 2, 5 and 1,
        # by context code. Context 1: counts 1, 2, 5, so total 8 and gamma
        # (0.5*1 + 1.0*1 + 1.5*1) / 8; context 2: one count-1 gram; context
        # 0 has no continuations, and backs off with weight 1.
        contexts, counts = np.array([1, 1, 1, 2]), np.array([1, 2, 5, 1])
        totals, gammas = _kernels.context_stats(contexts, counts, 3, 0.5, 1.0, 1.5)
        assert totals.tolist() == [0, 8, 1]
        assert gammas.tolist() == [1.0, 0.375, 0.5]
        assert _kernels.backoff_weights(totals, gammas, np.array([2, 0, 1]), 2).tolist() == [
            math.log10(0.5), 0.0, math.log10(0.375),
        ]
        # Unigrams share the empty context.
        totals, gammas = _kernels.context_stats(np.zeros(2, np.int64), np.array([3, 1]), 1, 0.5, 1.0, 1.5)
        assert (totals.tolist(), gammas.tolist()) == ([4], [0.5])
        # A context with no held-out mass, and a probability that
        # underflowed to 0.0, fail the one check on what log10 is taken of.
        with pytest.raises(DiscountEstimationError, match="^order 2: discounts leave"):
            _kernels.backoff_weights(np.array([3]), np.array([0.0]), np.array([0]), 2)
        with pytest.raises(DiscountEstimationError, match="^order 1: discounts leave"):
            _kernels.log10_values(np.array([0.5, 0.0]), 1)


class TestEstimateModelHandValues:
    def test_unigram_hand_example(self):
        table = count_corpus(prepare_corpus(["a b a b"], PrepConfig()), 1)
        m = estimate_model(table, fallback_discount=0.5)
        # pseudo(a) = (2-0.5)/4, gamma = 1/4, |V| = 3
        p_a = 0.375 + 0.25 / 3
        p_unk = 0.25 / 3
        assert m.score_word([], "a") == pytest.approx(math.log10(p_a), abs=1e-12)
        assert m.score_word([], "b") == pytest.approx(math.log10(p_a), abs=1e-12)
        assert m.score_word([], "zzz") == pytest.approx(math.log10(p_unk), abs=1e-12)
        total = sum(10 ** m.score_word([], w) for w in ("a", "b", "<unk>"))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_bigram_context_matches_oracle(self):
        lines = ["a b", "a c"]
        m = estimate_model(count_corpus(prepare_corpus(lines, PrepConfig(boundaries=True)), 2), 0.5)
        ref = KNReference(lines, 2, True, fallback=0.5)
        assert m.score_word(["a"], "b") == pytest.approx(
            ref.score_word(["a"], "b"), abs=1e-9
        )
        assert m.score_sequence(["a", "b"]) == pytest.approx(
            ref.score_sequence(["a", "b"]), abs=1e-9
        )

    def test_bos_sentinel_and_backoff(self):
        m = estimate_model(count_corpus(prepare_corpus(["a b", "a c"], PrepConfig(boundaries=True)), 2), 0.5)
        p, bo = stored_entry(m, [BOS])
        assert p == -99.0
        # <s> was context of two bigram events; its gamma is real.
        assert bo is not None and math.isfinite(bo) and bo <= 0.0


class TestEstimateModelStructure:
    def test_every_vocab_token_has_unigram_entry(self):
        m = estimate_model(count_corpus(prepare_corpus(["x a"], PrepConfig()), 2), 0.5)
        # "x" occurs only line-initially: no predecessors, so its adjusted
        # unigram count is 0 and it lives purely on interpolated mass.
        assert m.ngram_count(1) == 3  # x, a, <unk>
        assert (m.in_vocab("x"), m.in_vocab("<unk>"), m.in_vocab("zzz")) == (True, True, False)
        p, _ = stored_entry(m, ["x"])
        p_unk, _ = stored_entry(m, ["<unk>"])
        assert p == p_unk

    def test_empty_table_rejected(self):
        empty = CountTable(1, PrepConfig(), Vocabulary(), [{}], 0, 0)
        with pytest.raises(EmptyCorpusError):
            estimate_model(empty, 0.5)

    def test_discount_error_propagates(self):
        with pytest.raises(DiscountEstimationError):
            estimate_model(count_corpus(prepare_corpus(["a b a b"], PrepConfig()), 1))
        # A fallback so small that the unigram floor underflows to 0.0.
        with pytest.raises(DiscountEstimationError, match="^order 1: "):
            estimate_model(count_corpus(prepare_corpus(["a " * 10], PrepConfig()), 2), 5e-324)

    def test_top_order_empty_still_estimates(self):
        m = estimate_model(count_corpus(prepare_corpus(["a"], PrepConfig(boundaries=True)), 4), 0.5)
        assert m.ngram_count(4) == 0
        assert math.isfinite(m.score_sequence(["a"]))

    def test_backoff_closure_structural(self):
        rng = random.Random(11)
        lines = make_random_corpus(rng, 30, 90)
        for boundaries in (False, True):
            m = estimate_model(
                count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), 3), 0.5
            )
            stored = [{g for g, _, _ in m.stored_ngrams(k)} for k in (1, 2, 3)]
            for k in (2, 3):
                for gram in stored[k - 1]:
                    assert gram[:-1] in stored[k - 2], gram
                    assert gram[1:] in stored[k - 2], gram


class TestModelInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    )
    def test_normalization_over_stored_contexts(self, seed, order, boundaries):
        rng = random.Random(seed)
        lines = make_random_corpus(rng, 3, 50)
        assume(boundaries or any(len(l.split()) >= order for l in lines))
        m = estimate_model(
            count_corpus(prepare_corpus(lines, PrepConfig(boundaries=boundaries)), order), 0.5
        )
        vocab = [w for w in m.vocab if w != BOS]
        contexts = [()]
        for k in range(1, order):
            contexts.extend(g for g, _, _ in m.stored_ngrams(k))
        for ctx in contexts:
            total = sum(10 ** m.score_word(list(ctx), w) for w in vocab)
            assert total == pytest.approx(1.0, abs=1e-9), ctx

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_probabilities_in_unit_interval(self, seed):
        rng = random.Random(seed)
        lines = make_random_corpus(rng, 5, 60)
        m = estimate_model(count_corpus(prepare_corpus(lines, PrepConfig(boundaries=True)), 3), 0.5)
        words = [w for w in m.vocab if w != BOS] + ["totally-oov"]
        for _ in range(25):
            ctx = [rng.choice(words) for _ in range(rng.randint(0, 2))]
            s = m.score_word(ctx, rng.choice(words))
            assert math.isfinite(s)
            assert s <= 0.0

    def test_backoff_weights_are_log_of_unit_interval(self):
        rng = random.Random(3)
        lines = make_random_corpus(rng, 20, 80)
        m = estimate_model(count_corpus(prepare_corpus(lines, PrepConfig(boundaries=True)), 3), 0.5)
        for k in (1, 2):
            for gram, _, bo in m.stored_ngrams(k):
                if bo is not None:
                    assert math.isfinite(bo)
                    assert bo <= 0.0  # gamma in (0, 1]


def _zipf_lines(n_lines: int) -> list[str]:
    """A fixed corpus of 5-20 word lines over 400 words of Zipf-like frequency."""
    rng = random.Random(7)
    words = [f"w{i}" for i in range(400)]
    weights = [1 / (i + 1) for i in range(400)]
    return [" ".join(rng.choices(words, weights, k=rng.randint(5, 20))) for _ in range(n_lines)]


class TestEstimateConsumesTable:
    """estimate_model rewrites the table's dicts into the model's, in place."""

    @staticmethod
    def _table():
        return count_corpus(prepare_corpus(_zipf_lines(200), PrepConfig(boundaries=True)), 3)

    def test_consumed_table_refuses_reads_and_a_second_estimate(self):
        table = self._table()
        sizes = (table.token_count, table.line_count)
        estimate_model(table, 0.5)
        assert (table.token_count, table.line_count) == sizes
        for use in (
            lambda: table.table(1),
            lambda: table.size(3),
            lambda: count_of_counts(table, 2),
            lambda: estimate_model(table, 0.5),
        ):
            with pytest.raises(RuntimeError, match="count table already consumed by estimate_model"):
                use()

    def test_model_holds_each_order_once(self):
        # What estimation leaves behind is the model's trie, whose arrays
        # own their data, and its vocabulary: less than one more copy of
        # its smallest order. The counts and the corpus ids are gone.
        lines = _zipf_lines(200)
        count_corpus(prepare_corpus(lines[:3], PrepConfig()), 3)  # numpy, imported
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = count_corpus(prepare_corpus(lines, PrepConfig(boundaries=True)), 3)
            trie = estimate_model(table, 0.5)._tables
            del table
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert type(trie) is Trie
        arrays = trie.arrays()
        assert all(a.base is None for a in arrays)
        sizes = [(32 - 8 * (k == trie.order)) * trie.count(k) for k in (1, 2, 3)]
        assert sum(a.nbytes for a in arrays) == sum(sizes)
        assert held - sum(sizes) < min(sizes), (held, sizes)

    def test_estimation_holds_no_second_copy_of_the_counts(self):
        lines = _zipf_lines(1000)
        count_corpus(prepare_corpus(lines[:3], PrepConfig()), 3)  # numpy, imported
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = count_corpus(prepare_corpus(lines, PrepConfig(boundaries=True)), 3)
            tracemalloc.reset_peak()
            estimate_model(table, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # When the counts were id-tuple dicts that estimation rewrote in
        # place, this peaked at 3,648,350 bytes on CPython 3.11 (1.81 times
        # their 2,013,437 bytes). The arrays peak at about 1.47 MB there.
        assert peak <= 3_648_350, peak
