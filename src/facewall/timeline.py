"""Calendar bucketing, per-class emotion series, and the behavioural-shift
detectors (rolling z-score per class, Jensen-Shannon divergence on the class
mix).

All boundaries are computed in UTC and weeks start on Monday, so bucket
ranges are identical regardless of host timezone. Baselines are trailing
windows: the detectors stay usable in forensic/streaming order.
"""

from __future__ import annotations

import csv
import math
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import accumulate
from operator import sub
from pathlib import Path
from typing import Iterable, Mapping, TypeVar

from .lexicon import ALL_CLASSES, EmotionClass

GRANULARITIES = ("week", "month", "quarter", "year")

# Pseudo-class for the post-volume series (the per-user activity chart).
VOLUME = "volume"

SERIES_HEADER = ["bucket_start", "class", "count", "total", "proportion"]
OCCURRENCE_HEADER = ["bucket_start", "class", "count"]

# Row order within one bucket of the series CSV.
SERIES_CLASS_KEYS = tuple(c.value for c in ALL_CLASSES) + (VOLUME,)

T = TypeVar("T")


def bucket_start(stamp: datetime, granularity: str) -> datetime:
    """UTC start of the calendar period containing stamp."""
    if stamp.tzinfo is None:
        raise ValueError("naive timestamps cannot be bucketed")
    stamp = stamp.astimezone(timezone.utc)
    if granularity == "week":
        day = stamp.date() - timedelta(days=stamp.weekday())
        return datetime(day.year, day.month, day.day, tzinfo=timezone.utc)
    if granularity == "month":
        return datetime(stamp.year, stamp.month, 1, tzinfo=timezone.utc)
    if granularity == "quarter":
        month = ((stamp.month - 1) // 3) * 3 + 1
        return datetime(stamp.year, month, 1, tzinfo=timezone.utc)
    if granularity == "year":
        return datetime(stamp.year, 1, 1, tzinfo=timezone.utc)
    raise ValueError(f"unknown granularity: {granularity!r}")


def next_bucket_start(start: datetime, granularity: str) -> datetime:
    if granularity == "week":
        return start + timedelta(days=7)
    if granularity in ("month", "quarter"):
        step = 1 if granularity == "month" else 3
        month = start.month - 1 + step
        return start.replace(year=start.year + month // 12, month=month % 12 + 1)
    if granularity == "year":
        return start.replace(year=start.year + 1)
    raise ValueError(f"unknown granularity: {granularity!r}")


@dataclass(frozen=True)
class TimeBucket:
    start: datetime
    index: int
    granularity: str

    @property
    def key(self) -> str:
        return self.start.date().isoformat()


def bucketize(
    items: Iterable[tuple[datetime, T]], granularity: str
) -> tuple[list[TimeBucket], list[list[T]]]:
    """Assign items to calendar buckets, materializing empty buckets so the
    range from first to last item is contiguous and gap-free."""
    stamped = [(bucket_start(ts, granularity), value) for ts, value in items]
    if not stamped:
        return [], []
    first = min(s for s, _ in stamped)
    last = max(s for s, _ in stamped)
    buckets: list[TimeBucket] = []
    index_of: dict[datetime, int] = {}
    cursor = first
    while True:
        index_of[cursor] = len(buckets)
        buckets.append(TimeBucket(cursor, len(buckets), granularity))
        if cursor == last:
            break
        cursor = next_bucket_start(cursor, granularity)
    groups: list[list[T]] = [[] for _ in buckets]
    for start, value in stamped:
        groups[index_of[start]].append(value)
    return buckets, groups


@dataclass
class BucketSeries:
    scope: str
    class_key: str
    buckets: Sequence[TimeBucket]
    counts: list[int]
    totals: list[int]

    @property
    def proportions(self) -> list[float]:
        return [c / t if t else 0.0 for c, t in zip(self.counts, self.totals)]


def emotion_series(
    buckets: Sequence[TimeBucket],
    bucket_labels: Sequence[Sequence[frozenset[EmotionClass]]],
    cls: EmotionClass | str,
    scope: str = "all",
) -> BucketSeries:
    """Post counts per bucket for one class (or VOLUME for all posts).

    A multi-labeled post counts once in each of its classes, so class counts
    may exceed the bucket total; proportions are per-class rates, not a
    partition.
    """
    class_key = cls.value if isinstance(cls, EmotionClass) else cls
    totals = [len(group) for group in bucket_labels]
    if class_key == VOLUME:
        counts = list(totals)
    else:
        target = EmotionClass(class_key)
        counts = [sum(1 for labels in group if target in labels) for group in bucket_labels]
    return BucketSeries(scope, class_key, list(buckets), counts, totals)


@dataclass(frozen=True)
class Flag:
    bucket_index: int
    bucket_start: datetime
    signal: str  # "zscore" | "jsd"
    class_key: str | None
    value: float
    threshold: float

    @property
    def severity(self) -> float:
        return self.value / self.threshold

    def sort_key(self) -> tuple:
        return (self.bucket_index, self.signal, self.class_key or "")


@dataclass(frozen=True)
class DetectorConfig:
    window: int = 6
    z_thresh: float = 2.0
    jsd_thresh: float = 0.25
    min_hits: int = 3
    min_total: int = 5

    def validate(self) -> None:
        if self.window < 2:
            raise ValueError("bad-window")
        for thresh in (self.z_thresh, self.jsd_thresh):
            if not (math.isfinite(thresh) and thresh > 0):
                raise ValueError("thresholds must be positive and finite")
        if self.min_hits < 0 or self.min_total < 0:
            raise ValueError("minimum counts must be non-negative")


# Bits of the integer square root in _sqrt_of_frac: more than twice the float
# mantissa, so one round-to-odd step followed by the float conversion rounds
# correctly.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_frac(n: int, m: int) -> float:
    """Correctly rounded float square root of the positive rational n/m.

    This is the round-to-odd integer method of CPython 3.11+
    statistics.stdev, so the sample std it gives equals that function's
    bitwise (3.10's stdev is not correctly rounded).
    """
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    # the one rounding to 53 bits; scaling by 2**q is exact
    return math.ldexp(root, q)


def zscore_flags(
    series: BucketSeries,
    window: int = DetectorConfig.window,
    z_thresh: float = DetectorConfig.z_thresh,
    min_hits: int = DetectorConfig.min_hits,
) -> list[Flag]:
    """Flag buckets whose count departs from the trailing-window baseline.

    Baseline is mean/sample-stdev of the W previous buckets, taken from
    prefix sums of the counts and of their squares, so each bucket costs
    O(1): sigma is the correctly rounded sqrt of the exact rational
    (W*sxx - sx^2) / (W*(W-1)). A flat baseline (sigma = 0) with a strictly
    higher count is flagged with value infinity: any departure from a
    constant history is a departure at every z.
    """
    if window < 2:
        raise ValueError("bad-window")
    flags: list[Flag] = []
    counts = series.counts
    sums = list(accumulate(counts, initial=0))
    squares = list(accumulate((c * c for c in counts), initial=0))
    dof = window * (window - 1)
    for t in range(window, len(counts)):
        count = counts[t]
        if count < min_hits:
            continue
        sx = sums[t] - sums[t - window]
        spread = window * (squares[t] - squares[t - window]) - sx * sx
        mu = sx / window
        if spread:
            z = (count - mu) / _sqrt_of_frac(spread, dof)
            flagged = z >= z_thresh
        else:
            z, flagged = math.inf, count > mu
        if flagged:
            flags.append(Flag(t, series.buckets[t].start, "zscore", series.class_key, z, z_thresh))
    return flags


def jsd(p: Sequence[float], q: Sequence[float]) -> float:
    """Jensen-Shannon divergence, base 2, so the value lives in [0, 1].

    Inputs are renormalized; a distribution summing to zero is an error.
    """
    if len(p) != len(q):
        raise ValueError("length-mismatch")
    if any(x < 0 for x in p) or any(x < 0 for x in q):
        raise ValueError("negative probability mass")
    sum_p, sum_q = sum(p), sum(q)
    if sum_p == 0 or sum_q == 0:
        raise ValueError("empty-distribution")
    return _jsd(p, q, sum_p, sum_q)


def _jsd(p: Sequence[float], q: Sequence[float], sum_p: float, sum_q: float) -> float:
    """jsd of two checked, non-empty distributions given their masses.

    shift_flags passes integer counts: x / sum of integers below 2**53
    rounds exactly as the float division of their float values does, so
    both callers get the same bits.
    """
    div = 0.0
    # accumulate per index so jsd(P,Q) and jsd(Q,P) add the same terms in the
    # same order: symmetry holds bitwise, not just within rounding
    for x, y in zip(p, q):
        a = x / sum_p
        b = y / sum_q
        mid = (a + b) / 2
        term = 0.0
        if a > 0:
            term += 0.5 * a * math.log2(a / mid)
        if b > 0:
            term += 0.5 * b * math.log2(b / mid)
        div += term
    return div


def shift_flags(
    class_counts: Mapping[str, Sequence[int]],
    totals: Sequence[int],
    buckets: Sequence[TimeBucket],
    window: int = DetectorConfig.window,
    jsd_thresh: float = DetectorConfig.jsd_thresh,
    min_total: int = DetectorConfig.min_total,
) -> list[Flag]:
    """Flag buckets whose class mix diverges from the pooled trailing mix.

    The distribution runs over all five classes including Neutral; buckets
    with fewer than min_total posts are never flagged, and buckets whose
    entire trailing window is empty have no baseline to compare against.
    """
    if window < 2:
        raise ValueError("bad-window")
    columns = [class_counts[c.value] for c in ALL_CLASSES]
    if any(column and min(column) < 0 for column in columns):
        raise ValueError("negative probability mass")
    # per bucket: the class counts, and the running class sums before it
    rows = list(zip(*columns))
    prefix = list(zip(*(accumulate(column, initial=0) for column in columns)))
    flags: list[Flag] = []
    for t in range(window, len(totals)):
        if totals[t] < min_total:
            continue
        current = rows[t]
        pooled = list(map(sub, prefix[t], prefix[t - window]))
        mass, pooled_mass = sum(current), sum(pooled)
        if mass == 0 or pooled_mass == 0:
            continue
        value = _jsd(current, pooled, mass, pooled_mass)
        if value >= jsd_thresh:
            flags.append(Flag(t, buckets[t].start, "jsd", None, value, jsd_thresh))
    return flags


@dataclass(frozen=True)
class DeviationReport:
    user_id: str
    config: DetectorConfig
    flags: tuple[Flag, ...]


def build_report(user_id: str, flags: Iterable[Flag], config: DetectorConfig) -> DeviationReport:
    ordered = sorted(flags, key=Flag.sort_key)
    seen = set()
    for flag in ordered:
        key = flag.sort_key()
        if key in seen:
            raise ValueError("duplicate-flag")
        seen.add(key)
    return DeviationReport(user_id, config, tuple(ordered))


def report_to_dict(report: DeviationReport, granularity: str) -> dict:
    return {
        "user_id": report.user_id,
        "config": {"granularity": granularity, **asdict(report.config)},
        "flags": [
            {
                "bucket_index": f.bucket_index,
                "bucket_start": f.bucket_start.date().isoformat(),
                "signal": f.signal,
                "class": f.class_key,
                "value": f.value,
                "threshold": f.threshold,
                "severity": f.severity,
            }
            for f in report.flags
        ],
    }


def write_series_csv(path: str | Path, series_list: Sequence[BucketSeries]) -> None:
    """Bit-exact series export: one row per (bucket, class), proportions with
    exactly six decimals (half-even, from the binary double)."""
    by_key = {series.class_key: series for series in series_list}
    ordered = [by_key[key] for key in SERIES_CLASS_KEYS if key in by_key]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SERIES_HEADER)
        if not ordered:
            return
        proportions = [series.proportions for series in ordered]
        for i in range(len(ordered[0].buckets)):
            for series, shares in zip(ordered, proportions):
                writer.writerow(
                    [
                        series.buckets[i].key,
                        series.class_key,
                        series.counts[i],
                        series.totals[i],
                        f"{shares[i]:.6f}",
                    ]
                )


@dataclass
class SeriesTable:
    """Parsed series.csv: bucket starts plus per-class count columns."""

    bucket_starts: list[str]
    counts: dict[str, list[int]]
    totals: list[int]

    def buckets(self, granularity: str) -> Sequence[TimeBucket]:
        return _TableBuckets(self.bucket_starts, granularity)

    def to_series(self, class_key: str, scope: str, granularity: str) -> BucketSeries:
        counts, totals = list(self.counts[class_key]), list(self.totals)
        return BucketSeries(scope, class_key, self.buckets(granularity), counts, totals)


class _TableBuckets(Sequence):
    """A SeriesTable's buckets, each built on first use: the detectors read
    a bucket's start only for the buckets they flag."""

    def __init__(self, starts: list[str], granularity: str) -> None:
        self._starts = starts
        self._granularity = granularity
        self._built: dict[int, TimeBucket] = {}

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index: int) -> TimeBucket:
        bucket = self._built.get(index)
        if bucket is None:
            start = datetime.fromisoformat(self._starts[index]).replace(tzinfo=timezone.utc)
            bucket = self._built[index] = TimeBucket(start, index, self._granularity)
        return bucket


def read_series_csv(path: str | Path) -> SeriesTable:
    """Parse series.csv column by column; a file that deviates from the
    layout write_series_csv gives raises ValueError."""
    fields = _bucket_fields(path, SERIES_HEADER, SERIES_CLASS_KEYS)
    width = len(SERIES_HEADER)
    stride = width * len(SERIES_CLASS_KEYS)
    counts = {
        key: _counts(fields[2 + width * k :: stride]) for k, key in enumerate(SERIES_CLASS_KEYS)
    }
    return SeriesTable(fields[0::stride], counts, _counts(fields[3::stride]))


def write_occurrence_csv(
    path: str | Path,
    buckets: Sequence[TimeBucket],
    occurrences: Sequence[Mapping[EmotionClass, int]],
) -> None:
    """One row per (bucket, class): the lexicon occurrences of the bucket's
    posts, classes in ALL_CLASSES order."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(OCCURRENCE_HEADER)
        for bucket, counts in zip(buckets, occurrences):
            for cls in ALL_CLASSES:
                writer.writerow([bucket.key, cls.value, counts.get(cls, 0)])


def read_occurrence_csv(path: str | Path) -> tuple[list[str], dict[str, list[int]]]:
    """Bucket starts and per-class counts of occurrences.csv; a file that
    deviates from its layout raises ValueError."""
    keys = [c.value for c in ALL_CLASSES]
    fields = _bucket_fields(path, OCCURRENCE_HEADER, keys)
    width = len(OCCURRENCE_HEADER)
    stride = width * len(keys)
    counts = {key: _counts(fields[2 + width * k :: stride]) for k, key in enumerate(keys)}
    return fields[0::stride], counts


def _bucket_fields(path: str | Path, header: list[str], keys: Sequence[str]) -> list[str]:
    """The body fields of a derived CSV with one row per bucket and key,
    the keys in the given order within each bucket. Field i of key k's rows
    is then the stride fields[i + len(header) * k :: len(header) * len(keys)].
    Raises ValueError for a wrong header, a cut or ragged body, rows out of
    key order, or bucket starts that are not ISO dates."""
    with open(path, "r", encoding="utf-8") as handle:
        head, _, body = handle.read().partition("\n")
    if head.split(",") != header:
        raise ValueError(f"unexpected CSV header: {head!r}")
    width, depth = len(header), len(keys)
    rows = body.count("\n")
    fields = body.replace("\n", ",").split(",")
    # a whole body ends in a newline, which leaves one empty last field
    if fields.pop() or len(fields) != width * rows:
        raise ValueError("cut or ragged CSV body")
    days = fields[0::width]
    starts = days[0::depth]
    # also rejects a last bucket with fewer rows than keys
    if fields[1::width] != list(keys) * len(starts):
        raise ValueError("CSV rows out of bucket and key order")
    if any(days[k::depth] != starts for k in range(1, depth)):
        raise ValueError("CSV rows of one bucket differ in bucket start")
    for day in starts:
        date.fromisoformat(day)
    return fields


def _counts(column: list[str]) -> list[int]:
    """A CSV column of counts as ints; a negative count raises ValueError."""
    counts = list(map(int, column))
    if counts and min(counts) < 0:
        raise ValueError("negative count in CSV")
    return counts
