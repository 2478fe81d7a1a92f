import numpy as np
import pytest

from conftest import make_corpus, make_sentence
from oracles import t_two_tailed_numeric
from synthdata import metrics_corpus, vocab_corpus
from varieties.bootstrap import (
    BootstrapConfig,
    d_dif_tests,
    d_total_tests,
    paired_ttest,
)
from varieties.bootstrap import test_d_dif as run_d_dif
from varieties.bootstrap import test_d_total as run_d_total
from varieties.metrics import (
    SentenceStats,
    collocation_types,
    mean_word_rank,
    pronouns,
    transitions,
    ttr,
)


class _Stub:
    """A Sample of one one-token sentence; every draw scores 0."""

    tokens = np.ones(1, dtype=np.int64)

    def values(self, indices):
        return (0.0,)


def observed_d_total(f_n, f_nn, f_t):
    """D_total of the observed values (one metric per corpus row)."""
    config = BootstrapConfig(sample_tokens=1, iterations=1)
    return d_total_tests(_Stub(), [[f_n], [f_nn], [f_t]], config)[0].observed


def chosen_k(f_n, f_nn, f_t):
    """The K that D_dif fixes from the observed values."""
    config = BootstrapConfig(sample_tokens=1, iterations=1)
    return d_dif_tests([_Stub()] * 3, [[f_n], [f_nn], [f_t]], config)[0].k_label


class TestDTotal:
    def test_arithmetic(self):
        assert observed_d_total(3.0, 1.0, 2.0) == pytest.approx(4.0)

    def test_identical_corpora_zero(self):
        assert observed_d_total(0.7, 0.7, 0.7) == 0.0

    def test_figure_coordinates(self):
        # normalized lexical-richness triple: N=0.356, NN=0.312, T=0.332
        assert observed_d_total(0.356, 0.312, 0.332) == pytest.approx(0.088, abs=1e-12)


class TestChooseK:
    def test_nn_closer(self):
        assert chosen_k(10.0, 9.0, 5.0) == "NN"

    def test_t_closer(self):
        assert chosen_k(10.0, 5.0, 9.0) == "T"

    def test_tie_goes_to_t(self):
        assert chosen_k(10.0, 8.0, 12.0) == "T"


def _ttr_metric(corpus):
    return ttr(corpus).raw


class TestTestDTotal:
    def test_null_generator_not_significant(self):
        corpora = [
            vocab_corpus(v, n_sentences=300, vocab_size=300, seed=s)
            for v, s in (("N", 1), ("NN", 2), ("T", 3))
        ]
        config = BootstrapConfig(sample_tokens=2400, iterations=300, seed=5)
        result = run_d_total(_ttr_metric, *corpora, config)
        assert result.p_value > 0.05
        assert not result.p_is_upper_bound

    def test_disjoint_vocabularies_highly_significant(self):
        c_n = vocab_corpus("N", 300, vocab_size=2000, seed=1, vocab_offset=0)
        c_nn = vocab_corpus("NN", 300, vocab_size=30, seed=2, vocab_offset=5000)
        c_t = vocab_corpus("T", 300, vocab_size=30, seed=3, vocab_offset=9000)
        config = BootstrapConfig(sample_tokens=2400, iterations=1000, seed=5)
        result = run_d_total(_ttr_metric, c_n, c_nn, c_t, config)
        assert result.observed > max(result.series)
        assert result.p_is_upper_bound
        assert result.p_value == pytest.approx(0.001)
        assert result.significant

    def test_single_iteration_degenerate(self):
        corpus = vocab_corpus("N", 50, 40, seed=0)
        config = BootstrapConfig(sample_tokens=200, iterations=1, seed=0)
        result = run_d_total(_ttr_metric, corpus, corpus, corpus, config)
        assert result.iterations == 1
        assert result.p_value in (1.0,)  # observed 0 can never exceed the draw

    def test_series_sorted_and_reproducible(self):
        corpora = [
            vocab_corpus(v, 100, 100, seed=s)
            for v, s in (("N", 1), ("NN", 2), ("T", 3))
        ]
        config = BootstrapConfig(sample_tokens=600, iterations=50, seed=12)
        first = run_d_total(_ttr_metric, *corpora, config)
        second = run_d_total(_ttr_metric, *corpora, config)
        assert first.series == second.series
        assert list(first.series) == sorted(first.series)

    def test_relabeling_symmetry(self):
        c1 = vocab_corpus("N", 150, 120, seed=1)
        c2 = vocab_corpus("NN", 150, 120, seed=2)
        c3 = vocab_corpus("T", 150, 120, seed=3)
        config = BootstrapConfig(sample_tokens=1000, iterations=400, seed=8)
        a = run_d_total(_ttr_metric, c1, c2, c3, config)
        b = run_d_total(_ttr_metric, c2, c3, c1, config)
        assert a.observed == pytest.approx(b.observed, abs=1e-12)
        assert abs(a.p_value - b.p_value) <= 0.1  # Monte-Carlo noise only

    def test_two_seeds_agree_within_noise(self):
        corpora = [
            vocab_corpus(v, 200, 150, seed=s)
            for v, s in (("N", 1), ("NN", 2), ("T", 3))
        ]
        config_a = BootstrapConfig(sample_tokens=1200, iterations=400, seed=1)
        config_b = BootstrapConfig(sample_tokens=1200, iterations=400, seed=2)
        p_a = run_d_total(_ttr_metric, *corpora, config_a).p_value
        p_b = run_d_total(_ttr_metric, *corpora, config_b).p_value
        # binomial CI at 400 iterations
        spread = 3 * np.sqrt(max(p_a, 1e-3) * (1 - min(p_a, 0.999)) / 400)
        assert abs(p_a - p_b) <= max(0.05, 2 * spread)


class TestTestDDif:
    def test_constrained_pair_flagged(self):
        # NN and T identically generated, N shifted to a much larger vocab
        c_n = vocab_corpus("N", 300, vocab_size=1500, seed=1)
        c_nn = vocab_corpus("NN", 300, vocab_size=60, seed=2)
        c_t = vocab_corpus("T", 300, vocab_size=60, seed=3)
        config = BootstrapConfig(sample_tokens=1600, iterations=400, seed=4)
        result = run_d_dif(_ttr_metric, c_n, c_nn, c_t, config)
        assert result.ci[0] > 0
        assert result.significant

    def test_identical_generators_not_flagged(self):
        corpora = [
            vocab_corpus(v, 300, 120, seed=s)
            for v, s in (("N", 1), ("NN", 2), ("T", 3))
        ]
        config = BootstrapConfig(sample_tokens=1600, iterations=400, seed=4)
        result = run_d_dif(_ttr_metric, *corpora, config)
        assert result.ci[0] <= 0 <= result.ci[1]
        assert not result.significant

    def test_k_fixed_from_originals(self):
        c_n = vocab_corpus("N", 200, vocab_size=500, seed=1)
        c_nn = vocab_corpus("NN", 200, vocab_size=300, seed=2)
        c_t = vocab_corpus("T", 200, vocab_size=50, seed=3)
        config = BootstrapConfig(sample_tokens=800, iterations=50, seed=0)
        result = run_d_dif(_ttr_metric, c_n, c_nn, c_t, config)
        assert result.k_label == chosen_k(*map(_ttr_metric, (c_n, c_nn, c_t))) == "NN"

    def test_ci_endpoints_are_nearest_rank(self):
        corpora = [
            vocab_corpus(v, 100, 80, seed=s)
            for v, s in (("N", 1), ("NN", 2), ("T", 3))
        ]
        config = BootstrapConfig(sample_tokens=600, iterations=200, seed=9)
        result = run_d_dif(_ttr_metric, *corpora, config)
        series = list(result.series)
        assert result.ci[0] == series[4]  # ceil(0.025*200)-1
        assert result.ci[1] == series[194]  # ceil(0.975*200)-1


class TestPairedTtest:
    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_shift_with_noise_is_extreme(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=40)
        b = a - 5.0 + rng.normal(size=40) * 1e-3
        result = paired_ttest(a, b)
        assert abs(result.t) > 100
        assert result.p_value < 1e-30

    def test_t_table_value(self):
        # build series whose paired t statistic is exactly 2.262 with df=9
        t_target, n = 2.262, 10
        d = np.array([1.0] * n)
        d[0] += np.sqrt(n - 1)  # mean 1+c/n, sd c/sqrt(n-1) with c = sqrt(n-1)
        # rescale to hit the target t
        current = d.mean() / (d.std(ddof=1) / np.sqrt(n))
        d = d + (0.0 if current == t_target else 0.0)
        shift = d.std(ddof=1) / np.sqrt(n) * t_target - d.mean()
        d = d + shift
        result = paired_ttest(d, np.zeros(n))
        assert result.t == pytest.approx(t_target, abs=1e-12)
        assert result.df == 9
        assert result.p_value == pytest.approx(0.0500, abs=0.001)

    def test_fifty_chunks_df(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        assert paired_ttest(a, b).df == 49

    def test_symmetry_and_monotonicity(self):
        for df in (1, 5, 9, 49):
            n = df + 1
            rng = np.random.default_rng(df)
            base = rng.normal(size=n)
            base -= base.mean()
            base /= base.std(ddof=1)

            def p_of(t):
                d = base * 1.0 + t / np.sqrt(n)
                return paired_ttest(d, np.zeros(n)).p_value

            previous = None
            for t in (0.2, 0.8, 1.5, 2.5, 4.0):
                p = p_of(t)
                p_neg = p_of(-t)
                assert p == pytest.approx(p_neg, rel=1e-9)
                if previous is not None:
                    assert p < previous
                previous = p

    def test_matches_numeric_integration(self):
        for df in (1, 5, 9, 49):
            n = df + 1
            rng = np.random.default_rng(100 + df)
            base = rng.normal(size=n)
            base -= base.mean()
            base /= base.std(ddof=1)
            for t in (0.5, 1.3, 2.262, 3.1):
                d = base + t / np.sqrt(n)
                result = paired_ttest(d, np.zeros(n))
                assert result.p_value == pytest.approx(
                    t_two_tailed_numeric(result.t, df), abs=1e-6
                )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            paired_ttest([1.0, 2.0], [1.0])


def metric_functions(resources):
    """The five metrics as corpus -> float, in METRIC_NAMES order."""
    markers = resources.sentence_transitions()
    return (
        lambda c: ttr(c).raw,
        lambda c: mean_word_rank(c, resources.word_ranks, resources.function_words).raw,
        lambda c: collocation_types(c, resources.idioms).raw,
        lambda c: transitions(c, markers).raw,
        lambda c: pronouns(c).raw,
    )


class TestStatsEngine:
    """One draw per iteration serves all five metrics; the corpus-callable
    tests run the same engine on the same draws."""

    @pytest.fixture(scope="class")
    def corpora(self):
        return [metrics_corpus(v, 60, seed=4) for v in ("N", "NN", "T")]

    def test_series_equal_the_callable_tests(self, resources, corpora):
        stats = [SentenceStats.of(c, resources) for c in corpora]
        observed = [s.values(np.arange(len(s))) for s in stats]
        config = BootstrapConfig(sample_tokens=500, iterations=25, seed=6)
        totals = d_total_tests(SentenceStats.concat(stats), observed, config)
        difs = d_dif_tests(stats, observed, config)
        for m, fm in enumerate(metric_functions(resources)):
            assert totals[m] == run_d_total(fm, *corpora, config)
            assert difs[m] == run_d_dif(fm, *corpora, config)

    def test_draw_without_ranked_token_raises(self, resources):
        ranked = make_sentence(["the", "world"], pos=["DT", "NN"])
        unranked = make_sentence(["zyzzyva", "the"], pos=["NN", "DT"])
        corpus = make_corpus([ranked, unranked, unranked])
        stats = SentenceStats.of(corpus, resources)
        observed = [stats.values(np.arange(len(stats)))] * 3
        # one-sentence samples: some draw of 50 holds only unranked sentences
        config = BootstrapConfig(sample_tokens=1, iterations=50, seed=0)
        with pytest.raises(ValueError, match="rank list"):
            d_dif_tests([stats] * 3, observed, config)
        fm = metric_functions(resources)[1]
        with pytest.raises(ValueError, match="rank list"):
            run_d_dif(fm, corpus, corpus, corpus, config)
