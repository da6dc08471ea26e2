"""Tests for the partitioned cache (Experiment 4)."""

import pytest

from repro.core import (
    KeyPolicy,
    PartitionedCache,
    SIZE,
    SimCache,
    audio_partition,
    replay,
    simulate_partitioned,
)
from repro.trace import DocumentType, Request


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


AUDIO = "http://s/a/song.au"
PAGE = "http://s/p/page.html"


class TestClassifier:
    def test_audio(self):
        assert audio_partition(req(0, AUDIO, 10)) == "audio"

    def test_non_audio(self):
        assert audio_partition(req(0, PAGE, 10)) == "non-audio"


class TestPartitionedCache:
    def make(self, audio_cap=1000, other_cap=1000):
        return PartitionedCache({
            "audio": SimCache(capacity=audio_cap, policy=KeyPolicy([SIZE])),
            "non-audio": SimCache(capacity=other_cap, policy=KeyPolicy([SIZE])),
        })

    def test_requires_partitions(self):
        with pytest.raises(ValueError):
            PartitionedCache({})

    def test_requests_routed_by_class(self):
        cache = self.make()
        cache.access_code(req(0, AUDIO, 100))
        cache.access_code(req(1, PAGE, 100))
        assert AUDIO in cache.partitions["audio"]
        assert PAGE in cache.partitions["non-audio"]
        assert AUDIO not in cache.partitions["non-audio"]

    def test_classes_do_not_displace_each_other(self):
        """The whole point of partitioning: a huge audio file cannot push
        pages out of the non-audio partition."""
        cache = self.make(audio_cap=500, other_cap=500)
        cache.access_code(req(0, PAGE, 400))
        cache.access_code(req(1, AUDIO, 450))
        cache.access_code(req(2, "http://s/b.au", 400))  # evicts inside audio only
        assert PAGE in cache.partitions["non-audio"]

    def test_rates_over_all_requests(self):
        """Audio HR divides audio hits by total references (paper's
        Figures 19-20 convention)."""
        cache = self.make()
        replay([
            req(0, AUDIO, 100),
            req(1, AUDIO, 100),   # audio hit
            req(2, PAGE, 100),
            req(3, PAGE, 100),    # non-audio hit
        ], cache.access_run, cache.overall, [])
        audio = cache.class_metrics["audio"]
        assert audio.total_requests == 4
        assert audio.total_hits == 1
        assert audio.hit_rate == pytest.approx(25.0)
        assert cache.overall.hit_rate == pytest.approx(50.0)

    def test_unknown_partition_raises(self):
        cache = PartitionedCache(
            {"audio": SimCache(capacity=10)}, classify=lambda r: "video",
        )
        with pytest.raises(KeyError):
            cache.access_code(req(0, AUDIO, 5))


class TestSimulatePartitioned:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            simulate_partitioned(
                [], total_capacity=100,
                fractions={"audio": 0.5, "non-audio": 0.4},
                policy_factory=lambda: KeyPolicy([SIZE]),
            )

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            simulate_partitioned(
                [], total_capacity=0,
                fractions={"audio": 0.5, "non-audio": 0.5},
                policy_factory=lambda: KeyPolicy([SIZE]),
            )

    def test_partition_capacities_split(self):
        result = simulate_partitioned(
            [], total_capacity=1000,
            fractions={"audio": 0.75, "non-audio": 0.25},
            policy_factory=lambda: KeyPolicy([SIZE]),
        )
        assert result.partitions["audio"].capacity == 750
        assert result.partitions["non-audio"].capacity == 250

    def test_bigger_audio_partition_helps_audio(self):
        """Experiment 4's direction: growing the audio partition raises
        audio WHR and lowers non-audio WHR."""
        from repro.workloads import generate_valid
        from repro.core.experiments import max_needed_for, run_partitioned_sweep
        trace = generate_valid("BR", seed=9, scale=0.03)
        sweep = run_partitioned_sweep(
            trace, max_needed_for(trace), fraction=0.10,
            audio_fractions=(0.25, 0.75),
        )
        audio_small = sweep[0.25].class_metrics["audio"].weighted_hit_rate
        audio_large = sweep[0.75].class_metrics["audio"].weighted_hit_rate
        other_small = sweep[0.25].class_metrics["non-audio"].weighted_hit_rate
        other_large = sweep[0.75].class_metrics["non-audio"].weighted_hit_rate
        assert audio_large > audio_small
        assert other_small > other_large
