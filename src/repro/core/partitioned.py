"""Partitioned caches (Experiment 4).

Should a cache be split by media type so that huge audio/video files cannot
displace everything else?  Experiment 4 divides a cache into an audio
partition and a non-audio partition and varies the audio fraction over
{1/4, 1/2, 3/4} of the total size.

Per the paper's note on Figures 19-20, partition hit rates are reported
**over all requests**: the audio WHR is audio bytes served from cache
divided by *total* requested bytes, so the two partitions' curves are
directly comparable to the unpartitioned WHR.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, Iterable, List

from repro.core.cache import HIT, SimCache
from repro.core.metrics import MetricsCollector, Series, moving_average
from repro.core.policy import RemovalPolicy
from repro.core.simulator import replay
from repro.trace.record import DocumentType, Request

__all__ = [
    "PartitionedCache",
    "audio_partition",
    "simulate_partitioned",
]


def audio_partition(request: Request) -> str:
    """The Experiment 4 classifier: ``audio`` vs ``non-audio``."""
    if request.media_type == DocumentType.AUDIO:
        return "audio"
    return "non-audio"


class PartitionedCache:
    """A cache split into independent fixed-size partitions.

    The replay loop drives it through :meth:`access_run` and counts
    ``overall``.  ``class_metrics[name]`` holds hits for that class; it
    is fed *every* request (hits only possible for the class's own
    requests), so HR/WHR are fractions of total traffic, as the paper
    plots them.

    Args:
        partitions: partition name -> its cache.
        classify: maps a request to a partition name; called once per
            distinct (URL, size, type), with its first row's timestamp.
        name: label for reports.
    """

    def __init__(
        self,
        partitions: Dict[str, SimCache],
        classify: Callable[[Request], str] = audio_partition,
        name: str = "",
    ) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        self.partitions = partitions
        self.classify = classify
        self.name = name
        self.class_metrics = {part: MetricsCollector() for part in partitions}
        self.overall = MetricsCollector()
        self._classified: Dict[tuple, str] = {}  # (url, size, type) -> name

    #: One request, as a one-row run (as for a single cache).
    access_code = SimCache.access_code

    def access_run(self, urls, sizes, stamps, types, codes, evicted=None):
        """Answer one day's run of rows (as :func:`replay` passes them):
        each partition answers the run of the rows classified into it,
        and each row's code is appended in row order."""
        picked: Dict[str, List[int]] = {name: [] for name in self.partitions}
        classified = self._classified
        for index, row in enumerate(zip(urls, sizes, types)):
            name = classified.get(row)
            if name is None:
                name = self.classify(Request(stamps[index], *row[:2], doc_type=row[2]))
                if name not in picked:
                    raise KeyError(f"classifier produced unknown partition {name!r}")
                classified[row] = name
            picked[name].append(index)
        mark = len(codes)
        codes += bytes(len(urls))
        day = int(stamps[0] // 86400)
        requested = sum(sizes)
        for name, rows in picked.items():
            part_sizes = [sizes[i] for i in rows]
            part_codes = bytearray()
            self.partitions[name].access_run(
                [urls[i] for i in rows], part_sizes,
                [stamps[i] for i in rows], [types[i] for i in rows],
                part_codes, evicted,
            )
            for index, code in zip(rows, part_codes):
                codes[mark + index] = code
            # Every class's collector sees every request, so rates are
            # over total traffic (the Figures 19-20 convention).
            self.class_metrics[name].add(
                day, len(urls), part_codes.count(HIT), requested,
                sum(part_sizes) - sum(compress(part_sizes, part_codes)),
            )

    @property
    def timeseries(self):
        """Per-day sample stream with one stream per partition class
        (each counting every request, the Figures 19-20 convention) plus
        an ``overall`` stream, built from the collectors on every read."""
        from repro.obs.timeseries import recorder_from_collectors

        return recorder_from_collectors(
            [*self.class_metrics.items(), ("overall", self.overall)]
        )

    def class_whr_series(self, class_name: str, window: int = 7) -> Series:
        """Smoothed WHR-over-all-requests series for one class."""
        return moving_average(
            self.class_metrics[class_name].whr_series(), window
        )


def simulate_partitioned(
    trace: Iterable[Request],
    total_capacity: int,
    fractions: Dict[str, float],
    policy_factory: Callable[[], RemovalPolicy],
    classify: Callable[[Request], str] = audio_partition,
    name: str = "",
    seed: int = 0,
) -> PartitionedCache:
    """Drive a partitioned cache over a valid trace.

    Args:
        trace: the valid request stream.
        total_capacity: combined size of all partitions, in bytes.
        fractions: partition name -> fraction of ``total_capacity``; must
            sum to 1 (e.g. ``{"audio": 0.75, "non-audio": 0.25}``).
        policy_factory: builds a fresh removal policy per partition.
        classify: request -> partition name.
        name: label for reports.
        seed: tie-break seed for the partition caches.
    """
    if total_capacity <= 0:
        raise ValueError("total_capacity must be positive")
    total_fraction = sum(fractions.values())
    if abs(total_fraction - 1.0) > 1e-9:
        raise ValueError(
            f"partition fractions must sum to 1, got {total_fraction}"
        )
    partitions = {}
    for index, (part_name, fraction) in enumerate(sorted(fractions.items())):
        capacity = max(1, int(total_capacity * fraction))
        partitions[part_name] = SimCache(
            capacity=capacity, policy=policy_factory(), seed=seed + index,
        )
    cache = PartitionedCache(partitions, classify, name=name)
    replay(trace, cache.access_run, cache.overall, [
        (cache.class_metrics[part_name], partition)
        for part_name, partition in partitions.items()
    ])
    return cache
