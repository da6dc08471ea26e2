"""Unit tests for the metrics registry: families, labels, histogram
bucket semantics, the two quantile functions, snapshots/merge, and the
Prometheus exposition."""

import pytest

from repro.obs.metrics import (
    CardinalityError,
    DuplicateMetricError,
    MetricError,
    Registry,
    histogram_quantile,
    render_prometheus,
    sample_quantile,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = Registry()
        c = registry.counter("repro_test_ops_total", "ops")
        c.inc()
        c.inc(4)
        assert c.value == 5.0
        assert registry.value("repro_test_ops_total") == 5.0

    def test_counters_only_go_up(self):
        c = Registry().counter("repro_test_ops_total", "ops")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labelled_children_are_independent(self):
        registry = Registry()
        c = registry.counter(
            "repro_test_ops_total", "ops", labelnames=("kind",),
        )
        c.labels(kind="read").inc(3)
        c.labels(kind="write").inc()
        assert registry.value("repro_test_ops_total", kind="read") == 3.0
        assert registry.value("repro_test_ops_total", kind="write") == 1.0
        # Never-touched label sets read as zero, not KeyError.
        assert registry.value("repro_test_ops_total", kind="other") == 0.0

    def test_labelled_family_rejects_bare_inc(self):
        c = Registry().counter(
            "repro_test_ops_total", "ops", labelnames=("kind",),
        )
        with pytest.raises(MetricError):
            c.inc()

    def test_wrong_label_names_rejected(self):
        c = Registry().counter(
            "repro_test_ops_total", "ops", labelnames=("kind",),
        )
        with pytest.raises(MetricError):
            c.labels(flavour="x")


class TestRegistration:
    def test_idempotent_same_signature(self):
        registry = Registry()
        a = registry.counter("repro_test_ops_total", "ops")
        b = registry.counter("repro_test_ops_total", "ops")
        assert a is b

    def test_duplicate_different_help(self):
        registry = Registry()
        registry.counter("repro_test_ops_total", "ops")
        with pytest.raises(DuplicateMetricError):
            registry.counter("repro_test_ops_total", "different help")

    def test_duplicate_different_kind(self):
        registry = Registry()
        registry.counter("repro_test_ops_total", "ops")
        with pytest.raises(DuplicateMetricError):
            registry.gauge("repro_test_ops_total", "ops")

    def test_invalid_names_rejected(self):
        registry = Registry()
        with pytest.raises(MetricError):
            registry.counter("0bad", "x")
        with pytest.raises(MetricError):
            registry.counter("repro_test_total", "x", labelnames=("0bad",))


class TestCardinality:
    def test_label_set_budget_enforced(self):
        registry = Registry(max_label_sets=3)
        c = registry.counter(
            "repro_test_ops_total", "ops", labelnames=("url",),
        )
        for i in range(3):
            c.labels(url=f"u{i}").inc()
        with pytest.raises(CardinalityError):
            c.labels(url="one-too-many")
        # Existing children keep working under a full budget.
        c.labels(url="u0").inc()
        assert registry.value("repro_test_ops_total", url="u0") == 2.0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        registry = Registry()
        h = registry.histogram(
            "repro_test_seconds", "t", buckets=(0.1, 1.0, 10.0),
        )
        # A value exactly on an edge lands in that edge's bucket.
        h.observe(0.1)
        h.observe(0.05)
        h.observe(1.0)
        h.observe(5.0)
        h.observe(100.0)  # beyond the last edge: +Inf only
        child = h._require_default()
        assert child.counts == [2, 1, 1]
        assert child.inf_count == 1
        assert child.count == 5
        assert child.sum == pytest.approx(106.15)
        assert child.cumulative() == [(0.1, 2), (1.0, 3), (10.0, 4)]

    def test_edges_sorted_and_deduplicated_rejected(self):
        registry = Registry()
        with pytest.raises(MetricError):
            registry.histogram("repro_test_seconds", "t", buckets=())
        with pytest.raises(MetricError):
            registry.histogram(
                "repro_test2_seconds", "t", buckets=(1.0, 1.0),
            )

    def test_unsorted_edges_are_sorted(self):
        h = Registry().histogram(
            "repro_test_seconds", "t", buckets=(5.0, 1.0),
        )
        assert h.buckets == (1.0, 5.0)


class TestHistogramQuantile:
    def test_empty_is_zero(self):
        assert histogram_quantile(0.5, [0.001, 0.01], [0, 0]) == 0.0

    def test_interpolates_within_bucket(self):
        # 10 observations all landing in (0.0, 1.0]: p50 -> 0.5.
        assert histogram_quantile(0.5, [1.0], [10]) == pytest.approx(0.5)

    def test_spans_buckets(self):
        # 5 in (0,1], 5 in (1,2]: p95 lands in the second bucket.
        value = histogram_quantile(0.95, [1.0, 2.0], [5, 5])
        assert 1.0 < value <= 2.0

    def test_inf_bucket_clamps_to_highest_edge(self):
        assert histogram_quantile(
            0.99, [1.0, 2.0], [1, 0], inf_count=99,
        ) == 2.0


class TestSampleQuantile:
    def test_empty_is_zero(self):
        assert sample_quantile([], 0.95) == 0.0

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.95, 1.0])
    def test_one_sample_is_every_quantile(self, fraction):
        assert sample_quantile([0.25], fraction) == 0.25

    @pytest.mark.parametrize("fraction, expected", [
        (0.0, 1), (0.5, 11), (0.95, 20), (1.0, 20),
    ])
    def test_nearest_rank_of_twenty(self, fraction, expected):
        # index min(n - 1, int(f * n)), as bench/harness.quantile; the
        # retired int(f * (n - 1)) read 10 at the median and 19 at p95.
        ordered = list(range(1, 21))
        assert sample_quantile(ordered, fraction) == expected


class TestSnapshotMerge:
    def test_counters_and_histograms_add_gauges_last_write(self):
        worker = Registry()
        worker.counter("repro_w_ops_total", "ops").inc(2)
        worker.gauge("repro_w_depth", "d").set(7)
        worker.histogram(
            "repro_w_seconds", "t", buckets=(1.0, 2.0),
        ).observe(1.5)

        parent = Registry()
        parent.counter("repro_w_ops_total", "ops").inc(1)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())

        assert parent.value("repro_w_ops_total") == 5.0
        assert parent.value("repro_w_depth") == 7.0
        h = parent.get("repro_w_seconds")
        assert h.count == 2
        assert h.sum == pytest.approx(3.0)

    def test_merge_registers_unknown_families(self):
        worker = Registry()
        worker.counter(
            "repro_w_ops_total", "ops", labelnames=("kind",),
        ).labels(kind="x").inc(3)
        parent = Registry()
        parent.merge(worker.snapshot())
        assert parent.value("repro_w_ops_total", kind="x") == 3.0

    def test_merge_bucket_layout_mismatch_fails_loudly(self):
        a = Registry()
        a.histogram("repro_w_seconds", "t", buckets=(1.0,)).observe(0.5)
        snapshot = a.snapshot()
        snapshot["repro_w_seconds"]["buckets_le"] = [1.0, 2.0]
        b = Registry()
        with pytest.raises(MetricError):
            b.merge(snapshot)

    def test_snapshot_is_plain_data(self):
        import json

        registry = Registry()
        registry.counter(
            "repro_w_ops_total", "ops", labelnames=("kind",),
        ).labels(kind="x").inc()
        registry.histogram("repro_w_seconds", "t").observe(0.2)
        json.dumps(registry.snapshot())  # must not raise


class TestExposition:
    def test_golden_output(self):
        """The full text format, nailed down byte for byte."""
        registry = Registry()
        registry.counter(
            "repro_t_requests_total", "Requests", labelnames=("outcome",),
        ).labels(outcome="hit").inc(3)
        registry.get("repro_t_requests_total").labels(outcome="miss").inc(1)
        registry.gauge("repro_t_depth", "Depth").set(2.5)
        h = registry.histogram(
            "repro_t_seconds", "Latency", buckets=(0.1, 1.0),
        )
        h.observe(0.05)
        h.observe(0.5)
        h.observe(9.0)
        expected = "\n".join([
            "# HELP repro_t_depth Depth",
            "# TYPE repro_t_depth gauge",
            "repro_t_depth 2.5",
            "# HELP repro_t_requests_total Requests",
            "# TYPE repro_t_requests_total counter",
            'repro_t_requests_total{outcome="hit"} 3',
            'repro_t_requests_total{outcome="miss"} 1',
            "# HELP repro_t_seconds Latency",
            "# TYPE repro_t_seconds histogram",
            'repro_t_seconds_bucket{le="0.1"} 1',
            'repro_t_seconds_bucket{le="1"} 2',
            'repro_t_seconds_bucket{le="+Inf"} 3',
            "repro_t_seconds_sum 9.55",
            "repro_t_seconds_count 3",
        ]) + "\n"
        assert registry.render() == expected

    def test_label_values_escaped(self):
        registry = Registry()
        registry.counter(
            "repro_t_ops_total", "ops", labelnames=("name",),
        ).labels(name='he said "hi"\n').inc()
        text = registry.render()
        assert r'name="he said \"hi\"\n"' in text

    def test_render_is_deterministic(self):
        registry = Registry()
        c = registry.counter(
            "repro_t_ops_total", "ops", labelnames=("k",),
        )
        for key in ("b", "a", "c"):
            c.labels(k=key).inc()
        assert registry.render() == render_prometheus(registry.snapshot())
        lines = registry.render().splitlines()
        samples = [line for line in lines if not line.startswith("#")]
        assert samples == sorted(samples)
