"""Calendar bucketing, per-class emotion series, and the behavioural-shift
detectors (rolling z-score per class, Jensen-Shannon divergence on the class
mix).

All boundaries are computed in UTC and weeks start on Monday, so bucket
ranges are identical regardless of host timezone. Baselines are trailing
windows: the detectors stay usable in forensic/streaming order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, ge, gt, lt, mul, sub
from pathlib import Path
from typing import Iterable, Mapping, TypeVar

from .lexer import _Memo
from .lexicon import ALL_CLASSES, EmotionClass
from .store import replacing

# the months of one bucket of each granularity but week, which is 7 days
_MONTHS = {"month": 1, "quarter": 3, "year": 12}
GRANULARITIES = ("week", *_MONTHS)

# Pseudo-class for the post-volume series (the per-user activity chart).
VOLUME = "volume"

SERIES_HEADER = ["bucket_start", "class", "count", "total", "proportion"]
OCCURRENCE_HEADER = ["bucket_start", "class", "count"]

# Row order within one bucket of the series CSV and of the occurrence CSV.
OCCURRENCE_CLASS_KEYS = tuple(c.value for c in ALL_CLASSES)
SERIES_CLASS_KEYS = OCCURRENCE_CLASS_KEYS + (VOLUME,)

T = TypeVar("T")


def _months(granularity: str) -> int:
    """The months of one bucket of a granularity but week; ValueError for
    a name that is not in GRANULARITIES."""
    if granularity not in _MONTHS:
        raise ValueError(f"unknown granularity: {granularity!r}")
    return _MONTHS[granularity]


def bucket_start(stamp: date, granularity: str) -> date:
    """Start date of the calendar period containing stamp: an aware
    datetime, read in UTC, or a date, read as a UTC day."""
    if isinstance(stamp, datetime):  # a datetime is also a date
        if stamp.tzinfo is None:
            raise ValueError("naive timestamps cannot be bucketed")
        stamp = stamp.astimezone(timezone.utc).date()
    if granularity == "week":
        return stamp - timedelta(days=stamp.weekday())
    k = _months(granularity)
    return date(stamp.year, (stamp.month - 1) // k * k + 1, 1)


def bucket_start_memo(granularity: str) -> dict[date, date]:
    """starts[stamp] is bucket_start(stamp, granularity), computed once a
    stamp; the stamp is anything bucket_start takes. Every granularity's
    periods start at a UTC midnight, so keyed by UTC day it is one shared
    date per day. Filled on first look-up."""
    return _Memo(lambda stamp: bucket_start(stamp, granularity))


def next_bucket_start(start: date, granularity: str) -> date:
    if granularity == "week":
        return start + timedelta(days=7)
    month = start.month - 1 + _months(granularity)
    return start.replace(year=start.year + month // 12, month=month % 12 + 1)


def _periods(first: date, last: date, granularity: str) -> int:
    """The number of buckets from the one starting at first to last's, both counted."""
    if granularity == "week":
        return (last - first).days // 7 + 1
    return ((last.year - first.year) * 12 + last.month - first.month) // _months(granularity) + 1


def bucketize(
    items: Iterable[tuple[date, T]], granularity: str
) -> tuple[list[date], list[list[T]]]:
    """Assign items, each stamped with an aware datetime or a UTC day, to
    calendar buckets given by their start dates, materializing empty
    buckets so the range from first to last item is contiguous and
    gap-free. Each distinct stamp's start is computed once a call."""
    start_of = bucket_start_memo(granularity)
    stamped = [(start_of[ts], value) for ts, value in items]
    if not stamped:
        return [], []
    last = max(s for s, _ in stamped)
    buckets = [min(s for s, _ in stamped)]
    while buckets[-1] != last:
        buckets.append(next_bucket_start(buckets[-1], granularity))
    index_of = {start: i for i, start in enumerate(buckets)}
    groups: list[list[T]] = [[] for _ in buckets]
    for start, value in stamped:
        groups[index_of[start]].append(value)
    return buckets, groups


@dataclass
class BucketSeries:
    class_key: str
    buckets: Sequence[date]
    counts: list[int]
    totals: list[int]

    @property
    def proportions(self) -> list[float]:
        return [c / t if t else 0.0 for c, t in zip(self.counts, self.totals)]


def emotion_series(
    buckets: Sequence[date],
    bucket_labels: Sequence[Sequence[frozenset[EmotionClass]]],
    cls: EmotionClass | str,
) -> BucketSeries:
    """Post counts per bucket for one class (or VOLUME for all posts).

    A multi-labeled post counts once in each of its classes, so class counts
    may sum past the bucket total, though none exceeds it; proportions are
    per-class rates, not a partition.
    """
    class_key = cls.value if isinstance(cls, EmotionClass) else cls
    totals = [len(group) for group in bucket_labels]
    if class_key == VOLUME:
        counts = list(totals)
    else:
        target = EmotionClass(class_key)
        counts = [sum(1 for labels in group if target in labels) for group in bucket_labels]
    return BucketSeries(class_key, list(buckets), counts, totals)


@dataclass(frozen=True)
class Flag:
    bucket_index: int
    bucket_start: date
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
        _check_detector(
            self.window, (self.z_thresh, self.jsd_thresh), (self.min_hits, self.min_total)
        )


def _check_detector(window: int, thresholds: Iterable[float], *counts: Sequence[int]) -> None:
    """The detectors' one input check: ValueError unless the window is at
    least 2, each threshold finite and positive, and no count negative."""
    if window < 2:
        raise ValueError("bad-window")
    if not all(math.isfinite(thresh) and thresh > 0 for thresh in thresholds):
        raise ValueError("thresholds must be positive and finite")
    if any(min(column, default=0) < 0 for column in counts):
        raise ValueError("counts must be non-negative")


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
    spread / (W*(W-1)), spread = W*sxx - sx^2. A flat baseline (sigma = 0)
    with a strictly higher count is flagged with value infinity: any
    departure from a constant history is a departure at every z.

    Buckets that cannot flag are ruled out in integers, before any float
    work. With e = W*count - sx, the exact z has
    z^2 = e^2*W*(W-1) / (W^2*spread), so a bucket is skipped when e <= 0,
    or when e^2*W*(W-1) < z_thresh^2*W^2*spread*(1 - 2^-30), with z_thresh
    as an exact ratio, and sx < e*2^20. Counts are non-negative (the inputs
    DetectorConfig rejects and a negative count raise ValueError), so under
    that last condition the float z is within about 2^-32 of the exact z,
    relatively, and stays below the threshold too.
    """
    counts = series.counts
    _check_detector(window, (z_thresh,), (min_hits,), counts)
    flags: list[Flag] = []
    sums = list(accumulate(counts, initial=0))
    squares = list(accumulate(map(mul, counts, counts), initial=0))
    dof = window * (window - 1)
    # skip when e*e*e_scale < spread_scale*spread
    num, den = z_thresh.as_integer_ratio()
    e_scale = dof * den * den << 30
    spread_scale = (num * window) ** 2 * ((1 << 30) - 1)
    for t in range(window, len(counts)):
        count = counts[t]
        if count < min_hits:
            continue
        sx = sums[t] - sums[t - window]
        spread = window * (squares[t] - squares[t - window]) - sx * sx
        if spread:
            e = window * count - sx
            if e <= 0 or (e * e * e_scale < spread_scale * spread and sx >> 20 < e):
                continue
            z = (count - sx / window) / _sqrt_of_frac(spread, dof)
            flagged = z >= z_thresh
        else:
            z, flagged = math.inf, count > sx / window
        if flagged:
            flags.append(Flag(t, series.buckets[t], "zscore", series.class_key, z, z_thresh))
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
    buckets: Sequence[date],
    window: int = DetectorConfig.window,
    jsd_thresh: float = DetectorConfig.jsd_thresh,
    min_total: int = DetectorConfig.min_total,
) -> list[Flag]:
    """Flag buckets whose class mix diverges from the pooled trailing mix.

    The distribution runs over all five classes including Neutral; buckets
    with fewer than min_total posts are never flagged, and buckets whose
    entire trailing window is empty have no baseline to compare against.

    Base-2 JSD is at most the total variation distance, which for current
    counts x with mass P and pooled counts y with mass Q is
    sum_k |x_k*Q - y_k*P| / (2*P*Q). A bucket whose distance is below
    jsd_thresh - 2^-32 (tested in integers, the threshold as an exact
    ratio) cannot flag: the float rounding in _jsd adds a few units of
    2^-53, far less than the 2^-32 margin. Only the other buckets run _jsd.
    The inputs DetectorConfig rejects and a negative count raise ValueError.
    """
    columns = [class_counts[c.value] for c in ALL_CLASSES]
    _check_detector(window, (jsd_thresh,), (min_total,), *columns)
    if len(totals) <= window:
        return []
    # per bucket from t = window on: the class counts and their mass, and
    # the pooled class counts of the window before it and their mass
    current = [column[window:] for column in columns]
    pooled = [_trailing(column, window) for column in columns]
    rows, pooled_rows = list(zip(*current)), list(zip(*pooled))
    masses, pooled_masses = list(map(sum, rows)), list(map(sum, pooled_rows))
    # the threshold less a 2^-32 margin, as the exact ratio num/den
    n, d = jsd_thresh.as_integer_ratio()
    num, den = (n << 32) - d, d << 32
    # |x*Q - y*P| per class, summed per bucket
    gaps = [
        map(abs, map(sub, map(mul, x, pooled_masses), map(mul, y, masses)))
        for x, y in zip(current, pooled)
    ]
    distances = map(mul, map(sum, zip(*gaps)), repeat(den))
    scales = map(mul, map(mul, masses, pooled_masses), repeat(2 * num))
    flags: list[Flag] = []
    for t in compress(range(window, len(totals)), map(ge, distances, scales)):
        i = t - window
        mass, pooled_mass = masses[i], pooled_masses[i]
        if totals[t] < min_total or mass == 0 or pooled_mass == 0:
            continue
        value = _jsd(rows[i], pooled_rows[i], mass, pooled_mass)
        if value >= jsd_thresh:
            flags.append(Flag(t, buckets[t], "jsd", None, value, jsd_thresh))
    return flags


def _trailing(column: Sequence[int], window: int) -> list[int]:
    """Sums of column over the window before each index from window on."""
    first = sum(column[:window])
    return list(accumulate(map(sub, column[window:-1], column[: -window - 1]), initial=first))


def report_entry(
    user_id: str, detector: DetectorConfig, flags: Iterable[Flag], granularity: str
) -> dict:
    """One user's entry of report.json: the detector config with the bucket
    granularity, and the user's flags in Flag.sort_key order."""
    return {
        "user_id": user_id,
        "config": {"granularity": granularity, **asdict(detector)},
        "flags": [
            {
                "bucket_index": f.bucket_index,
                "bucket_start": f.bucket_start.isoformat(),
                "signal": f.signal,
                "class": f.class_key,
                "value": f.value,
                "threshold": f.threshold,
                "severity": f.severity,
            }
            for f in sorted(flags, key=Flag.sort_key)
        ],
    }


def write_series_csv(
    path: str | Path, buckets: Sequence[date], counts: Mapping[str, Sequence[int]]
) -> None:
    """Bit-exact series.csv of the bucket starts and class columns that
    read_series_csv returns, the VOLUME column being the bucket totals: one
    row per (bucket, class) in SERIES_CLASS_KEYS order, proportions with
    exactly six decimals (half-even, from the binary double)."""
    columns = [counts[key] for key in SERIES_CLASS_KEYS]  # the totals last
    with replacing(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(SERIES_HEADER)
        for i, (start, total) in enumerate(zip(map(date.isoformat, buckets), columns[-1])):
            for key, column in zip(SERIES_CLASS_KEYS, columns):
                count = column[i]
                share = count / total if total else 0.0
                writer.writerow([start, key, count, total, f"{share:.6f}"])


def read_series_csv(data: bytes, granularity: str) -> tuple[list[date], dict[str, list[int]]]:
    """Bucket start dates and per-class counts of the bytes of a series.csv
    of the given granularity, read column by column; a file that deviates
    from the layout write_series_csv gives raises ValueError. So does one
    whose redundancy does not hold: every start is the start of its bucket,
    no bucket is missing between the first and the last, and within a
    bucket, every row gives the same total, the volume count is that total,
    and no class count exceeds it."""
    starts, counts, totals, _ = _bucket_columns(data, SERIES_HEADER, SERIES_CLASS_KEYS)
    if granularity == "week":
        off_grid = any(map(date.weekday, starts))  # Monday is 0
    else:
        firsts = {(1, month) for month in range(1, 13, _months(granularity))}
        off_grid = not firsts.issuperset(map(attrgetter("day", "month"), starts))
    if off_grid:
        raise ValueError("a CSV bucket start that does not start its bucket")
    # strictly increasing starts of buckets, as many as the periods they
    # span, are the granularity's consecutive buckets: none is missing
    if starts and len(starts) != _periods(starts[0], starts[-1], granularity):
        raise ValueError("a bucket missing from CSV")
    if totals.count(counts[-1]) != len(totals):  # the volume row is last
        raise ValueError("CSV rows of one bucket differ in total")
    counts = dict(zip(SERIES_CLASS_KEYS, _counts(counts)))
    volume = counts[VOLUME]
    if any(any(map(gt, counts[key], volume)) for key in OCCURRENCE_CLASS_KEYS):
        raise ValueError("a class count in CSV exceeds its bucket's total")
    return starts, counts


def write_occurrence_csv(
    path: str | Path, buckets: Sequence[date], counts: Mapping[str, Sequence[int]]
) -> None:
    """occurrences.csv of the bucket starts and class columns that
    read_occurrence_csv returns: one row per (bucket, class), classes in
    OCCURRENCE_CLASS_KEYS order."""
    with replacing(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(OCCURRENCE_HEADER)
        for i, start in enumerate(map(date.isoformat, buckets)):
            for key in OCCURRENCE_CLASS_KEYS:
                writer.writerow([start, key, counts[key][i]])


def read_occurrence_csv(data: bytes) -> tuple[list[date], dict[str, list[int]]]:
    """Bucket start dates and per-class counts of the bytes of an
    occurrences.csv; a file that deviates from its layout raises ValueError."""
    starts, counts = _bucket_columns(data, OCCURRENCE_HEADER, OCCURRENCE_CLASS_KEYS)
    return starts, dict(zip(OCCURRENCE_CLASS_KEYS, _counts(counts)))


def _bucket_columns(data: bytes, header: list[str], keys: Sequence[str]) -> list:
    """The bucket start dates of the bytes of a derived CSV with one row
    per bucket and key, the keys in the given order within each bucket,
    then the columns of each field after the key: [k] holds the field of key
    k's rows, one a bucket. The bytes are decoded as a text-mode open reads
    a file: UTF-8, universal newlines. Raises ValueError for a wrong header,
    a cut or ragged body, rows out of key order, or bucket starts that are
    not YYYY-MM-DD dates in strictly increasing order."""
    head, _, body = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read().partition("\n")
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
    # date.fromisoformat also reads other ISO forms from Python 3.11 on
    if not _START_TEXT.fullmatch(",".join(starts)):
        raise ValueError("a CSV bucket start that is not YYYY-MM-DD")
    days = list(map(date.fromisoformat, starts))
    if not all(map(lt, days, days[1:])):
        raise ValueError("CSV bucket starts out of increasing order")
    stride = width * depth
    return [days] + [
        [fields[i + width * k :: stride] for k in range(depth)] for i in range(2, width)
    ]


_DATE_TEXT = "[0-9]{4}-[0-9]{2}-[0-9]{2}"
_START_TEXT = re.compile(f"(?:{_DATE_TEXT}(?:,{_DATE_TEXT})*)?")
_COUNT_TEXT = re.compile(r"[0-9,]*")


def _counts(columns: list[list[str]]) -> list[list[int]]:
    """Columns of CSV counts, all of one length, as ints, read as one JSON
    array of the comma-joined counts: JSON takes no empty number and no
    leading zero. A count the writer never writes but int() would read (a
    sign, a space, an underscore, another script's digits, a leading zero)
    raises ValueError."""
    text = ",".join(chain.from_iterable(columns))
    if not _COUNT_TEXT.fullmatch(text):
        raise ValueError("a count in CSV that is not ASCII digits")
    counts = json.loads(f"[{text}]")
    n = len(columns[0])
    return [counts[k * n : k * n + n] for k in range(len(columns))]
