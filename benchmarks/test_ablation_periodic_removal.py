"""Ablation (Section 1.3): on-demand vs periodic vs hybrid removal.

The paper argues periodic removal "reduces hit rate (because documents are
removed earlier than required and more are removed than is required)" and
therefore studies on-demand only.  This ablation quantifies the trade.
"""

from repro.analysis.report import render_table
from repro.core import KeyPolicy, PeriodicRemovalCache, SIZE, SimCache, simulate


def run_modes(trace, capacity):
    rows = {}
    on_demand = simulate(
        trace, SimCache(capacity=capacity, policy=KeyPolicy([SIZE])),
    )
    rows["on-demand"] = (
        on_demand.hit_rate, on_demand.weighted_hit_rate,
        on_demand.cache.eviction_count,
    )
    for label, flag, comfort in (
        ("hybrid (daily sweep + on-demand)", True, 0.8),
        ("pure periodic (daily sweep only)", False, 0.8),
        ("pure periodic, aggressive (comfort 0.5)", False, 0.5),
    ):
        periodic = PeriodicRemovalCache(
            capacity, KeyPolicy([SIZE]),
            period=86400.0, comfort_level=comfort, on_demand=flag,
        )
        result = simulate(trace, periodic)
        rows[label] = (
            result.hit_rate, result.weighted_hit_rate,
            periodic.eviction_count,
        )
    return rows


def test_ablation_periodic_removal(once, traces, infinite_results,
                                   write_artifact):
    trace = traces["U"]
    capacity = max(1, int(0.10 * infinite_results["U"].max_used_bytes))
    rows = once(run_modes, trace, capacity)

    table = render_table(
        ["mode", "HR%", "WHR%", "evictions"],
        [
            [name, f"{hr:.2f}", f"{whr:.2f}", evictions]
            for name, (hr, whr, evictions) in rows.items()
        ],
        title="Removal timing ablation (workload U, 10% of MaxNeeded, SIZE)",
    )
    write_artifact("ablation_periodic_removal", table)

    on_demand_hr = rows["on-demand"][0]
    # Pure periodic pays a clear hit-rate cost.
    assert rows["pure periodic (daily sweep only)"][0] < on_demand_hr
    # Hybrid changes HR only marginally while evicting far more.
    hybrid = rows["hybrid (daily sweep + on-demand)"]
    assert abs(hybrid[0] - on_demand_hr) < 5.0
    assert hybrid[2] > rows["on-demand"][2]
