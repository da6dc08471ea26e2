"""Tests for the Zipf sampler."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import ZipfSampler, zipf_weights


class TestWeights:
    def test_classic_zipf(self):
        weights = zipf_weights(4, 1.0)
        assert weights == [1.0, 0.5, 1 / 3, 0.25]

    def test_uniform_when_exponent_zero(self):
        assert zipf_weights(5, 0.0) == [1.0] * 5

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0)

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            zipf_weights(3, -0.5)


class TestSampler:
    def test_samples_in_range(self):
        sampler = ZipfSampler(10, rng=random.Random(0))
        for _ in range(1000):
            assert 0 <= sampler.sample() < 10

    def test_rank_ordering(self):
        """More popular ranks are sampled more often."""
        sampler = ZipfSampler(50, exponent=1.0, rng=random.Random(0))
        counts = Counter(sampler.sample() for _ in range(20000))
        assert counts[0] > counts[10] > counts[40]

    def test_frequencies_match_probabilities(self):
        sampler = ZipfSampler(5, exponent=1.0, rng=random.Random(7))
        counts = Counter(sampler.sample() for _ in range(50000))
        for index in range(5):
            observed = counts[index] / 50000
            assert observed == pytest.approx(sampler.probability(index), abs=0.01)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(100, exponent=0.8)
        assert sum(sampler.probability(i) for i in range(100)) == pytest.approx(1.0)

    def test_probability_out_of_range(self):
        sampler = ZipfSampler(3)
        with pytest.raises(IndexError):
            sampler.probability(3)

    def test_deterministic_given_seed(self):
        a, b = (ZipfSampler(20, rng=random.Random(5)) for _ in range(2))
        assert [a.sample() for _ in range(100)] == [b.sample() for _ in range(100)]

    def test_single_item(self):
        sampler = ZipfSampler(1, rng=random.Random(0))
        assert [sampler.sample() for _ in range(10)] == [0] * 10


@given(
    n=st.integers(min_value=1, max_value=500),
    exponent=st.floats(min_value=0.0, max_value=2.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=100, deadline=None)
def test_sampler_always_in_range(n, exponent, seed):
    sampler = ZipfSampler(n, exponent=exponent, rng=random.Random(seed))
    samples = [sampler.sample() for _ in range(50)]
    assert all(0 <= s < n for s in samples)
