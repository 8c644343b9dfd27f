import csv
import io
import json
import math
import random
import statistics
import sys
from dataclasses import fields
from itertools import accumulate
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from facewall import timeline
from facewall.lexicon import ALL_CLASSES, EmotionClass
from facewall.store import write_json
from facewall.timeline import (
    GRANULARITIES,
    OCCURRENCE_CLASS_KEYS,
    SERIES_CLASS_KEYS,
    VOLUME,
    BucketSeries,
    DetectorConfig,
    Flag,
    bucket_start,
    bucket_start_memo,
    bucketize,
    emotion_series,
    jsd,
    next_bucket_start,
    read_occurrence_csv,
    read_series_csv,
    report_entry,
    shift_flags,
    write_occurrence_csv,
    write_series_csv,
    zscore_flags,
)

UTC = timezone.utc

HAPPY = EmotionClass.HAPPY
SAD = EmotionClass.SAD
LOVE = EmotionClass.LOVE
NEUTRAL = EmotionClass.NEUTRAL


def ts(year, month, day=1, hour=0):
    return datetime(year, month, day, hour, tzinfo=UTC)


def month_buckets(n, year=2015, month=1):
    buckets = [date(year, month, 1)]
    while len(buckets) < n:
        buckets.append(next_bucket_start(buckets[-1], "month"))
    return buckets[:n]


# -- bucket arithmetic ---------------------------------------------------------


def test_bucket_start_boundaries():
    stamp = datetime(2015, 8, 19, 13, 45, tzinfo=UTC)
    assert bucket_start(stamp, "month") == date(2015, 8, 1)
    assert bucket_start(stamp, "quarter") == date(2015, 7, 1)
    assert bucket_start(stamp, "year") == date(2015, 1, 1)
    # 2015-08-19 is a Wednesday; the week starts Monday the 17th
    assert bucket_start(stamp, "week") == date(2015, 8, 17)
    for granularity in GRANULARITIES:
        assert type(bucket_start(stamp, granularity)) is date


def test_bucket_start_respects_utc_offsets():
    # local wall date is Feb 1 01:00 at +02:00, but the UTC instant is still
    # Jan 31 23:00; the UTC instant decides the bucket
    local = datetime(2015, 2, 1, 1, 0, tzinfo=timezone(timedelta(hours=2)))
    assert bucket_start(local, "month") == date(2015, 1, 1)


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_a_naive_datetime_cannot_be_bucketed(granularity):
    with pytest.raises(ValueError, match="naive"):
        bucket_start(datetime(2015, 3, 30, 12), granularity)
    with pytest.raises(ValueError, match="naive"):
        bucketize([(datetime(2015, 3, 30), "x")], granularity)


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_the_bucket_start_memo_is_bucket_start(granularity):
    starts = bucket_start_memo(granularity)
    plus_two = timezone(timedelta(hours=2))
    stamps = [
        # Sunday 2015-03-29 23:59:59.999999Z, then Monday 00:00Z
        datetime(2015, 3, 29, 23, 59, 59, 999999, tzinfo=UTC),
        datetime(2015, 3, 30, tzinfo=UTC),
        datetime(2015, 3, 30, 12, tzinfo=UTC),
        datetime(2015, 3, 31, 23, 59, 59, 999999, tzinfo=UTC),
        datetime(2015, 4, 1, tzinfo=UTC),
        datetime(2015, 12, 31, 23, 59, 59, 999999, tzinfo=UTC),
        datetime(2016, 1, 1, tzinfo=UTC),
        # Monday 01:00 at +02:00 is Sunday 23:00Z
        datetime(2015, 3, 30, 1, tzinfo=plus_two),
        datetime(2015, 3, 30, 2, tzinfo=plus_two),
    ]
    for stamp in stamps + stamps[::-1]:
        day = stamp.astimezone(UTC).date()
        assert starts[day] == bucket_start(stamp, granularity)
        # a date is read as a UTC day: its start is its UTC midnight's
        midnight = datetime(day.year, day.month, day.day, tzinfo=UTC)
        assert bucket_start(day, granularity) == bucket_start(midnight, granularity)
        assert type(starts[day]) is date
    # one shared date per day
    assert starts[stamps[1].date()] is starts[stamps[2].date()]


def test_bucketize_zero_fills_gaps():
    posts = [(ts(2015, 1, 10), "a"), (ts(2015, 1, 20), "b"), (ts(2015, 3, 5), "c")]
    buckets, groups = bucketize(posts, "month")
    assert buckets == [date(2015, 1, 1), date(2015, 2, 1), date(2015, 3, 1)]
    assert [len(g) for g in groups] == [2, 0, 1]


def test_bucketize_single_and_empty():
    buckets, groups = bucketize([(ts(2012, 6, 15), "x")], "month")
    assert len(buckets) == 1 and groups == [["x"]]
    assert bucketize([], "month") == ([], [])


def test_monthly_range_2010_to_2016_is_84_buckets():
    buckets, _ = bucketize([(ts(2010, 1, 5), 1), (ts(2016, 12, 30), 2)], "month")
    assert len(buckets) == 84


# -- series ---------------------------------------------------------------------


@given(
    st.sampled_from(GRANULARITIES),
    st.dates(date(1900, 1, 1), date(2100, 12, 31)),
    st.dates(date(1900, 1, 1), date(2100, 12, 31)),
)
def test_periods_counts_the_buckets_that_bucketize_spans(granularity, a, b):
    a, b = min(a, b), max(a, b)
    first, last = bucket_start(a, granularity), bucket_start(b, granularity)
    want = len(bucketize([(a, 0), (b, 0)], granularity)[0])
    assert timeline._periods(first, last, granularity) == want


# a series.csv of one empty bucket, 2015-01-01
ONE_BUCKET_SERIES = "".join(
    f"{line}\r\n"
    for line in [",".join(timeline.SERIES_HEADER)]
    + [f"2015-01-01,{key},0,0,0.000000" for key in SERIES_CLASS_KEYS]
).encode()

# one call of each calendar function, made with the given granularity
CALENDAR_CALLS = {
    "bucket_start": lambda granularity: bucket_start(date(2015, 1, 1), granularity),
    "next_bucket_start": lambda granularity: next_bucket_start(date(2015, 1, 1), granularity),
    "_periods": lambda granularity: timeline._periods(
        date(2015, 1, 1), date(2015, 3, 1), granularity
    ),
    "bucketize": lambda granularity: bucketize([(date(2015, 1, 1), "x")], granularity),
    "read_series_csv": lambda granularity: read_series_csv(ONE_BUCKET_SERIES, granularity),
}


@pytest.mark.parametrize("call", list(CALENDAR_CALLS))
def test_the_calendar_rejects_an_unknown_granularity(call):
    with pytest.raises(ValueError, match="unknown granularity: 'fortnight'"):
        CALENDAR_CALLS[call]("fortnight")
    CALENDAR_CALLS[call]("month")


def test_emotion_series_counts_and_proportions():
    buckets = month_buckets(1)
    labels = [[frozenset({HAPPY}), frozenset({HAPPY, LOVE}), frozenset({NEUTRAL})]]
    series = emotion_series(buckets, labels, HAPPY)
    assert series.counts == [2] and series.totals == [3]
    assert series.proportions[0] == pytest.approx(2 / 3)
    volume = emotion_series(buckets, labels, VOLUME)
    assert volume.counts == [3]
    love = emotion_series(buckets, labels, LOVE)
    assert love.counts == [1]


def test_emotion_series_empty_bucket():
    series = emotion_series(month_buckets(1), [[]], HAPPY)
    assert series.counts == [0] and series.totals == [0]
    assert series.proportions == [0.0]


# -- z-score detector -------------------------------------------------------------


def make_series(counts, class_key="disappointment"):
    return BucketSeries(class_key, month_buckets(len(counts)), list(counts), [30] * len(counts))


def test_zscore_hand_computed_example():
    flags = zscore_flags(make_series([4, 5, 6, 5, 5, 20]), window=5, z_thresh=2, min_hits=3)
    assert len(flags) == 1
    flag = flags[0]
    assert flag.bucket_index == 5
    assert flag.value == pytest.approx((20 - 5) / math.sqrt(0.5), abs=1e-9)
    assert flag.value == pytest.approx(21.2132, abs=1e-3)
    assert flag.signal == "zscore" and flag.class_key == "disappointment"


def test_zscore_constant_series_never_flags():
    assert zscore_flags(make_series([5] * 12), window=6, z_thresh=2, min_hits=3) == []


def test_zscore_short_series_has_no_baseline():
    assert zscore_flags(make_series([1, 2, 3]), window=5, z_thresh=2, min_hits=0) == []


def test_zscore_degenerate_flat_baseline_flags_any_rise():
    flags = zscore_flags(make_series([3, 3, 3, 3, 3, 3, 4]), window=6, z_thresh=2, min_hits=3)
    assert len(flags) == 1
    assert flags[0].value == math.inf
    assert flags[0].severity == math.inf


def test_zscore_min_hits_guard():
    flags = zscore_flags(make_series([0, 0, 0, 0, 0, 0, 2]), window=6, z_thresh=2, min_hits=3)
    assert flags == []


def test_zscore_bad_window():
    with pytest.raises(ValueError, match="bad-window"):
        zscore_flags(make_series([1, 2, 3]), window=1, z_thresh=2, min_hits=3)


def test_zscore_flags_rejects_negative_counts():
    # On negative counts the integer skip bound, whose proof assumes counts
    # of at least 0, would rule out bucket 2 that the unskipped loop flags.
    series = make_series([-(2**60 + 128), -(2**60 + 129), -(2**60 + 128)])
    assert [f.bucket_index for f in rolling_zscore_flags(series, 2, 2.0, -(2**61))] == [2]
    with pytest.raises(ValueError, match="non-negative"):
        zscore_flags(series, window=2, z_thresh=2.0, min_hits=-(2**61))
    with pytest.raises(ValueError, match="non-negative"):
        zscore_flags(make_series([1, 2, 3, 4]), window=2, z_thresh=2.0, min_hits=-1)


@pytest.mark.parametrize("field", ["z_thresh", "jsd_thresh"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_detector_config_rejects_non_finite_and_non_positive_thresholds(field, value):
    with pytest.raises(ValueError, match="thresholds"):
        DetectorConfig(**{field: value}).validate()
    DetectorConfig(**{field: 1e300}).validate()


# -- rolling kernels against their slice-per-bucket references ---------------------


def reference_zscore_flags(series, window, z_thresh, min_hits):
    """The slice + fmean/stdev loop that zscore_flags replaced."""
    flags = []
    counts = series.counts
    for t in range(window, len(counts)):
        count = counts[t]
        if count < min_hits:
            continue
        base = counts[t - window : t]
        mu = statistics.fmean(base)
        sigma = statistics.stdev(base)
        start = series.buckets[t]
        if sigma > 0:
            z = (count - mu) / sigma
            if z >= z_thresh:
                flags.append(Flag(t, start, "zscore", series.class_key, z, z_thresh))
        elif count > mu:
            flags.append(Flag(t, start, "zscore", series.class_key, math.inf, z_thresh))
    return flags


def rolling_zscore_flags(series, window, z_thresh, min_hits):
    """The prefix-sum loop before zscore_flags ruled buckets out: every
    bucket with a spread takes _sqrt_of_frac. Exact on every Python."""
    flags = []
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
            z = (count - mu) / timeline._sqrt_of_frac(spread, dof)
            flagged = z >= z_thresh
        else:
            z, flagged = math.inf, count > mu
        if flagged:
            flags.append(Flag(t, series.buckets[t], "zscore", series.class_key, z, z_thresh))
    return flags


def reference_shift_flags(class_counts, totals, buckets, window, jsd_thresh, min_total):
    """The slice-sum pooling that shift_flags replaced."""
    keys = [c.value for c in ALL_CLASSES]
    flags = []
    for t in range(window, len(totals)):
        if totals[t] < min_total:
            continue
        current = [float(class_counts[k][t]) for k in keys]
        pooled = [float(sum(class_counts[k][t - window : t])) for k in keys]
        if sum(current) == 0 or sum(pooled) == 0:
            continue
        value = jsd(current, pooled)
        if value >= jsd_thresh:
            flags.append(Flag(t, buckets[t], "jsd", None, value, jsd_thresh))
    return flags


def bitwise(flags):
    """Flags as tuples whose floats compare by their exact bits."""
    return [
        (f.bucket_index, f.bucket_start, f.signal, f.class_key, f.value.hex(), f.threshold.hex())
        for f in flags
    ]


def random_counts(rng, length):
    """Integer counts from 0 up to 10**6 with flat and all-zero stretches."""
    top = rng.choice((1, 3, 10, 100, 10**4, 10**6))
    counts = []
    while len(counts) < length:
        run = rng.randint(1, 12)
        kind = rng.random()
        if kind < 0.2:
            counts.extend([0] * run)
        elif kind < 0.4:
            counts.extend([rng.randint(0, top)] * run)
        else:
            counts.extend(rng.randint(0, top) for _ in range(run))
    return counts[:length]


# 6 and 8 rule out nearly every bucket before its square root; inf, nan,
# 0 and -1 are thresholds the detectors reject with ValueError
Z_THRESHOLDS = (0.25, 1.0, 2.0, 3.5, 6.0, 8.0, math.inf, math.nan, -1.0)
JSD_THRESHOLDS = (0.01, 0.1, 0.25, 0.5, 0.7, 1.0, 0.0, -1.0, math.nan)


def valid_threshold(thresh):
    return math.isfinite(thresh) and thresh > 0


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="statistics.stdev is correctly rounded from 3.11 on"
)
def test_zscore_flags_match_the_stdev_reference_bitwise():
    rng = random.Random(4242)
    seen = {"finite": 0, "flat": 0, "short": 0}
    for _ in range(400):
        window = rng.randint(2, 30)
        counts = random_counts(rng, rng.randint(0, 3 * window))
        series = make_series(counts)
        z_thresh = rng.choice(Z_THRESHOLDS)
        min_hits = rng.randint(0, 3)
        if not valid_threshold(z_thresh):
            with pytest.raises(ValueError, match="thresholds"):
                zscore_flags(series, window, z_thresh, min_hits)
            continue
        got = zscore_flags(series, window, z_thresh, min_hits)
        want = reference_zscore_flags(series, window, z_thresh, min_hits)
        assert bitwise(got) == bitwise(want), (window, counts)
        seen["finite"] += sum(math.isfinite(f.value) for f in got)
        seen["flat"] += sum(f.value == math.inf for f in got)
        seen["short"] += len(counts) <= window
    assert all(seen.values()), seen


def test_shift_flags_match_the_slice_sum_reference_bitwise():
    rng = random.Random(2424)
    keys = [c.value for c in ALL_CLASSES]
    seen = {"flags": 0, "empty_window": 0, "short": 0}
    for _ in range(300):
        window = rng.randint(2, 30)
        length = rng.randint(0, 3 * window)
        counts = {key: random_counts(rng, length) for key in keys}
        if rng.random() < 0.5:
            # an all-zero stretch in every class: a window with no baseline
            gap = rng.randrange(length + 1)
            end = min(length, gap + window + rng.randint(0, 3))
            for column in counts.values():
                column[gap:end] = [0] * (end - gap)
        totals = [sum(column[t] for column in counts.values()) for t in range(length)]
        buckets = month_buckets(length)
        jsd_thresh = rng.choice(JSD_THRESHOLDS)
        min_total = rng.randint(0, 5)
        if not valid_threshold(jsd_thresh):
            with pytest.raises(ValueError, match="thresholds"):
                shift_flags(counts, totals, buckets, window, jsd_thresh, min_total)
            continue
        got = shift_flags(counts, totals, buckets, window, jsd_thresh, min_total)
        want = reference_shift_flags(counts, totals, buckets, window, jsd_thresh, min_total)
        assert bitwise(got) == bitwise(want), (window, counts)
        seen["flags"] += len(got)
        seen["empty_window"] += any(
            totals[t] >= min_total and not any(totals[t - window : t])
            for t in range(window, length)
        )
        seen["short"] += length <= window
    assert all(seen.values()), seen


def test_zscore_flags_match_the_rolling_reference_bitwise():
    rng = random.Random(4343)
    seen = {"finite": 0, "flat": 0, "short": 0, "offset": 0}
    for _ in range(400):
        window = rng.randint(2, 30)
        # a large offset puts small departures on a huge baseline, where the
        # float mean is least exact
        offset = rng.choice((0, 0, 10**7, 2**40))
        counts = [offset + c for c in random_counts(rng, rng.randint(0, 3 * window))]
        series = make_series(counts)
        z_thresh = rng.choice(Z_THRESHOLDS)
        min_hits = rng.randint(0, 3)
        if not valid_threshold(z_thresh):
            with pytest.raises(ValueError, match="thresholds"):
                zscore_flags(series, window, z_thresh, min_hits)
            continue
        got = zscore_flags(series, window, z_thresh, min_hits)
        want = rolling_zscore_flags(series, window, z_thresh, min_hits)
        assert bitwise(got) == bitwise(want), (window, counts, z_thresh)
        seen["finite"] += sum(math.isfinite(f.value) for f in got)
        seen["flat"] += sum(f.value == math.inf for f in got)
        seen["short"] += len(counts) <= window
        seen["offset"] += bool(offset and got)
    assert all(seen.values()), seen


def counted(monkeypatch, name):
    """Replace timeline.<name> with a wrapper that counts its calls."""
    calls = [0]
    kernel = getattr(timeline, name)

    def counting(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(timeline, name, counting)
    return calls


def test_zscore_pre_test_skips_only_at_a_positive_threshold(monkeypatch):
    sqrt_calls = counted(monkeypatch, "_sqrt_of_frac")
    rng = random.Random(77)
    for z_thresh in (6.0, -1.0, 0.0, math.nan):
        fitted = sqrt_calls[0] = 0
        for _ in range(100):
            window = rng.randint(2, 12)
            counts = random_counts(rng, rng.randint(0, 4 * window))
            series = make_series(counts)
            # the buckets whose baseline has a spread: each needs a sigma
            fitted += sum(
                counts[t] >= 1 and len(set(counts[t - window : t])) > 1
                for t in range(window, len(counts))
            )
            if not valid_threshold(z_thresh):
                with pytest.raises(ValueError, match="thresholds"):
                    zscore_flags(series, window, z_thresh, 1)
                continue
            got = zscore_flags(series, window, z_thresh, 1)
            calls = sqrt_calls[0]
            want = rolling_zscore_flags(series, window, z_thresh, 1)
            sqrt_calls[0] = calls
            assert bitwise(got) == bitwise(want)
        if z_thresh > 0:
            assert sqrt_calls[0] < fitted / 2, (sqrt_calls, fitted)
        else:
            # a rejected threshold does no float work
            assert sqrt_calls[0] == 0 < fitted, (z_thresh, sqrt_calls, fitted)


def test_shift_pre_test_skips_only_at_a_positive_threshold(monkeypatch):
    jsd_calls = counted(monkeypatch, "_jsd")
    rng = random.Random(78)
    keys = [c.value for c in ALL_CLASSES]
    for jsd_thresh in (0.5, -1.0, 0.0, math.nan):
        tested = jsd_calls[0] = 0
        flagged = 0
        for _ in range(100):
            window = rng.randint(2, 12)
            length = rng.randint(0, 4 * window)
            counts = {key: random_counts(rng, length) for key in keys}
            totals = [sum(column[t] for column in counts.values()) for t in range(length)]
            # the buckets with a mass and a pooled mass: each has a JSD
            tested += sum(
                totals[t] > 0 and any(totals[t - window : t]) for t in range(window, length)
            )
            buckets = month_buckets(length)
            if not valid_threshold(jsd_thresh):
                with pytest.raises(ValueError, match="thresholds"):
                    shift_flags(counts, totals, buckets, window, jsd_thresh, 0)
                continue
            got = shift_flags(counts, totals, buckets, window, jsd_thresh, 0)
            calls = jsd_calls[0]
            want = reference_shift_flags(counts, totals, buckets, window, jsd_thresh, 0)
            jsd_calls[0] = calls
            assert bitwise(got) == bitwise(want)
            flagged += len(got)
        if jsd_thresh > 0:
            assert flagged and jsd_calls[0] < tested / 2, (jsd_calls, tested)
        else:
            # a rejected threshold does no float work
            assert jsd_calls[0] == 0 < tested, (jsd_thresh, jsd_calls, tested)


def test_zscore_flags_a_bucket_at_exactly_the_threshold():
    # base [0, 1, 2]: mean 1, sample sigma 1, so a count of 3 is z = 2.0
    flags = zscore_flags(make_series([0, 1, 2, 3]), window=3, z_thresh=2.0, min_hits=0)
    assert [(f.bucket_index, f.value) for f in flags] == [(3, 2.0)]
    assert zscore_flags(make_series([0, 1, 2, 3]), 3, math.nextafter(2.0, 3.0), 0) == []


def test_shift_flags_a_bucket_at_exactly_the_total_variation_bound():
    # current (1,1,0,0,0) against pooled (1,0,1,0,0): the two halves that
    # differ have disjoint support, so JSD = TV = 0.5 exactly
    rows = [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [1, 1, 0, 0, 0]]
    counts, totals = class_counts(rows), [1, 1, 2]
    assert jsd(rows[2], [1, 0, 1, 0, 0]) == 0.5
    flags = shift_flags(counts, totals, month_buckets(3), window=2, jsd_thresh=0.5, min_total=0)
    assert [(f.bucket_index, f.value) for f in flags] == [(2, 0.5)]
    above = math.nextafter(0.5, 1.0)
    assert shift_flags(counts, totals, month_buckets(3), 2, above, 0) == []


def test_sqrt_of_frac_is_correctly_rounded():
    from facewall.timeline import _sqrt_of_frac

    rng = random.Random(99)
    for _ in range(5000):
        window = rng.randint(2, 30)
        counts = random_counts(rng, window)
        sx, sxx = sum(counts), sum(c * c for c in counts)
        n, m = window * sxx - sx * sx, window * (window - 1)
        if n == 0:
            continue
        s = _sqrt_of_frac(n, m)
        below = (Fraction(math.nextafter(s, 0.0)) + Fraction(s)) / 2
        above = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
        assert below * below < Fraction(n, m) < above * above, (n, m, s)


# -- Jensen-Shannon divergence -----------------------------------------------------


def test_jsd_identity_and_disjoint():
    assert jsd([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert jsd([1, 0], [0, 1]) == 1.0


def test_jsd_hand_computed_value():
    assert jsd([0.5, 0.5], [1, 0]) == pytest.approx(0.31128, abs=1e-4)


def test_jsd_renormalizes_counts():
    assert jsd([5, 5], [10, 0]) == pytest.approx(0.31128, abs=1e-4)


def test_jsd_random_pairs_properties():
    rng = random.Random(404)
    for _ in range(200):
        p = [rng.random() for _ in range(5)]
        q = [rng.random() for _ in range(5)]
        if rng.random() < 0.3:
            p[rng.randrange(5)] = 0.0
            q[rng.randrange(5)] = 0.0
        value = jsd(p, q)
        assert -1e-12 <= value <= 1 + 1e-12
        assert value == jsd(q, p)
        assert jsd(p, p) <= 1e-12


def test_jsd_errors():
    with pytest.raises(ValueError, match="empty-distribution"):
        jsd([0, 0], [1, 0])
    with pytest.raises(ValueError, match="length-mismatch"):
        jsd([1], [0.5, 0.5])
    with pytest.raises(ValueError):
        jsd([-0.1, 1.1], [0.5, 0.5])


# -- shift detector ------------------------------------------------------------------


def class_counts(rows):
    keys = [c.value for c in EmotionClass]
    return {key: [row[i] for row in rows] for i, key in enumerate(keys)}


def test_shift_flags_identical_mix_is_quiet():
    rows = [[10, 5, 3, 2, 10]] * 9
    totals = [30] * 9
    flags = shift_flags(class_counts(rows), totals, month_buckets(9), window=6)
    assert flags == []


def test_shift_flags_disjoint_mix_fires():
    rows = [[10, 0, 0, 0, 0]] * 6 + [[0, 10, 0, 0, 0]]
    totals = [10] * 7
    flags = shift_flags(class_counts(rows), totals, month_buckets(7), window=6, jsd_thresh=0.25)
    assert len(flags) == 1
    assert flags[0].signal == "jsd" and flags[0].class_key is None
    assert flags[0].value == pytest.approx(1.0, abs=1e-12)


def test_shift_flags_rejects_negative_counts():
    counts = {c.value: [1] * 8 for c in ALL_CLASSES}
    counts["sad"][2] = -1
    with pytest.raises(ValueError):
        shift_flags(counts, [5] * 8, month_buckets(8), window=3, min_total=0)
    counts["sad"][2] = 1
    with pytest.raises(ValueError, match="non-negative"):
        shift_flags(counts, [5] * 8, month_buckets(8), window=3, min_total=-1)


def test_shift_flags_min_total_guard():
    rows = [[10, 0, 0, 0, 0]] * 6 + [[0, 4, 0, 0, 0]]
    totals = [10] * 6 + [4]
    flags = shift_flags(class_counts(rows), totals, month_buckets(7), window=6, min_total=5)
    assert flags == []


# -- reports -----------------------------------------------------------------------


def test_report_entry_sorts_and_computes_severity():
    buckets = month_buckets(8)
    config = DetectorConfig()
    z_flag = zscore_flags(
        BucketSeries("happy", buckets, [4, 4, 4, 4, 4, 4, 4, 12], [20] * 8),
        window=6,
        z_thresh=2.0,
        min_hits=3,
    )[0]
    entry = report_entry("u1", config, [z_flag], "month")
    assert entry["flags"][0]["severity"] == pytest.approx(z_flag.value / 2.0)
    assert report_entry("u1", config, [], "month")["flags"] == []


def test_report_dict_is_deterministic_and_ordered():
    buckets = month_buckets(9)
    series_a = BucketSeries("happy", buckets, [4] * 6 + [12, 4, 12], [20] * 9)
    series_b = BucketSeries("sad", buckets, [4] * 6 + [12, 4, 12], [20] * 9)
    flags = zscore_flags(series_b, 6, 2.0, 3) + zscore_flags(series_a, 6, 2.0, 3)
    config = DetectorConfig()
    payload = report_entry("u1", config, flags, "month")
    keys = [(f["bucket_index"], f["signal"], f["class"]) for f in payload["flags"]]
    assert keys == sorted(keys) and len(keys) == len(flags)
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        report_entry("u1", config, reversed(flags), "month"), sort_keys=True
    )
    assert payload["flags"][0]["bucket_start"] == "2015-07-01"
    # the config lists every detector field, plus the bucket granularity
    assert set(payload["config"]) == {f.name for f in fields(DetectorConfig)} | {"granularity"}
    assert payload["config"]["granularity"] == "month"
    for field in fields(DetectorConfig):
        assert payload["config"][field.name] == getattr(config, field.name)


EDGE_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1)
report_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
user_ids = st.one_of(
    st.sampled_from(
        ['a "quoted" id', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "Zoë 🙂 \u2028"]
    ),
    st.text(),
)
flags_st = st.builds(
    Flag,
    bucket_index=st.integers(0, 10**6),
    bucket_start=st.dates(),
    signal=st.sampled_from(("zscore", "jsd")),
    class_key=st.one_of(st.none(), st.sampled_from([c.value for c in ALL_CLASSES]), st.text()),
    value=report_floats,
    # severity divides by the threshold
    threshold=report_floats.filter(bool),
)
# report_entry's arguments but the granularity: a user id, a config, flags
reports_st = st.tuples(
    user_ids,
    st.builds(
        DetectorConfig,
        window=st.integers(2, 60),
        z_thresh=report_floats,
        jsd_thresh=report_floats,
        min_hits=st.integers(0, 10),
        min_total=st.integers(0, 10),
    ),
    st.lists(flags_st, max_size=4),
)


def report_json(entries) -> str:
    """report.json's text, as detect writes it."""
    handle = io.StringIO()
    write_json(handle, entries)
    return handle.getvalue()


@given(st.lists(reports_st, max_size=4), st.sampled_from(GRANULARITIES))
def test_write_json_writes_reports_as_json_dumps_with_indent(reports, granularity):
    entries = [report_entry(*report, granularity) for report in reports]
    want = json.dumps(entries, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    assert report_json(entries) == want


def test_write_json_report_edge_cases():
    assert report_json([]) == "[]\n"
    config = DetectorConfig(z_thresh=math.inf, jsd_thresh=5e-324)
    start = date(2015, 1, 1)
    loud = [
        Flag(i, start, "jsd", key, value, 1e308)
        for i, (key, value) in enumerate([(None, -0.0), ("happy", math.inf), ("x\ny", 5e-324)])
    ]
    entries = [
        report_entry('"\\\x01é🙂', config, [], "week"), report_entry("u", config, loud, "week")
    ]
    text = report_json(entries)
    assert text == json.dumps(entries, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    assert '"flags": [],' in text and "Infinity" in text and "-0.0" in text and "null" in text


# -- CSV ---------------------------------------------------------------------------


def labeled_table(buckets, labels):
    """The bucket starts and series columns of bucketed labels, as analyze
    builds a user's."""
    counts = {key: emotion_series(buckets, labels, key).counts for key in SERIES_CLASS_KEYS}
    return buckets, counts


def test_series_csv_round_trip_and_formatting(tmp_path):
    buckets = month_buckets(2)
    labels = [
        [frozenset({HAPPY}), frozenset({HAPPY, LOVE}), frozenset({NEUTRAL})],
        [frozenset({SAD})],
    ]
    written = labeled_table(buckets, labels)
    path = tmp_path / "series.csv"
    write_series_csv(path, *written)

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bucket_start,class,count,total,proportion"
    assert lines[1] == "2015-01-01,happy,2,3,0.666667"
    assert "2015-01-01,volume,3,3,1.000000" in lines

    table = read_series_csv(path.read_bytes(), "month")
    assert table == written
    starts, counts = table
    assert starts == [date(2015, 1, 1), date(2015, 2, 1)]
    assert counts["happy"] == [2, 0]
    assert counts["volume"] == [3, 1]


def test_proportion_half_even_formatting(tmp_path):
    buckets = month_buckets(1)
    labels = [[frozenset({HAPPY})] * 1 + [frozenset({NEUTRAL})] * 7]
    path = tmp_path / "series.csv"
    write_series_csv(path, *labeled_table(buckets, labels))
    assert path.read_text(encoding="utf-8").splitlines()[1].endswith("0.125000")


def reference_read_series_csv(path):
    """The csv.reader loop that read_series_csv replaced."""
    bucket_starts = []
    counts = {key: [] for key in SERIES_CLASS_KEYS}
    totals = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        assert next(reader) == ["bucket_start", "class", "count", "total", "proportion"]
        for row in reader:
            day, class_key, count, total = row[0], row[1], int(row[2]), int(row[3])
            if not bucket_starts or bucket_starts[-1] != day:
                bucket_starts.append(day)
                totals.append(total)
            counts[class_key].append(count)
    assert totals == counts[VOLUME]
    return list(map(date.fromisoformat, bucket_starts)), counts


def random_table(rng, length):
    """The month bucket starts and series columns of one scope, as analyze
    writes them: totals up to 10**9, the volume column equal to them, no
    class count above them."""
    buckets = month_buckets(length, year=rng.randint(1990, 2030), month=rng.randint(1, 12))
    top = rng.choice((1, 10, 10**4, 10**9))
    totals = [rng.randint(0, top) for _ in range(length)]
    counts = {
        key: list(totals) if key == VOLUME else [rng.randint(0, total) for total in totals]
        for key in SERIES_CLASS_KEYS
    }
    return buckets, counts


def test_read_series_csv_matches_the_csv_reader_reference(tmp_path):
    rng = random.Random(5151)
    path = tmp_path / "series.csv"
    lengths = [0, 1, 2] + [rng.randint(3, 400) for _ in range(60)]
    for length in lengths:
        table = random_table(rng, length)
        write_series_csv(path, *table)
        want = reference_read_series_csv(path)
        assert read_series_csv(path.read_bytes(), "month") == want == table, length
        assert len(want[0]) == length


def series_lines(tmp_path, granularity="month"):
    """A series.csv of three buckets of the granularity, week or month."""
    path = tmp_path / "series.csv"
    starts, counts = random_table(random.Random(7), 3)
    if granularity == "week":
        starts = [bucket_start(starts[0], "week") + timedelta(weeks=i) for i in range(3)]
    write_series_csv(path, starts, counts)
    return path, path.read_text(encoding="utf-8").splitlines(keepends=True)


def with_field(line, index, value):
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


def split_row(line):
    day, _, rest = line.partition(",")
    return [day + "\r\n", rest]


SERIES_DAMAGE = {
    "cut-mid-row": lambda lines: lines[:-3] + [lines[-3][:9]],
    "cut-after-a-comma": lambda lines: lines[:-1] + [lines[-1][:11]],
    "cut-at-a-row-boundary-in-a-bucket": lambda lines: lines[:-2],
    # the second of the three buckets' six-row blocks deleted
    "a-middle-bucket-dropped": lambda lines: lines[:7] + lines[13:],
    # the second bucket's start moved off the first day of its bucket,
    # still between its neighbours' and as many starts as periods
    "a-bucket-start-off-its-month": lambda lines: with_second_start(lines, timedelta(days=1)),
    "a-bucket-start-off-its-week": lambda lines: with_second_start(lines, timedelta(days=1)),
    "non-integer-count": lambda lines: lines[:2] + [with_field(lines[2], 2, "1.5")] + lines[3:],
    "empty-count": lambda lines: lines[:2] + [with_field(lines[2], 2, "")] + lines[3:],
    "negative-count": lambda lines: lines[:2] + [with_field(lines[2], 2, "-1")] + lines[3:],
    "non-integer-total": lambda lines: [lines[0], with_field(lines[1], 3, "n/a")] + lines[2:],
    "classes-out-of-order": lambda lines: [lines[0], lines[2], lines[1]] + lines[3:],
    "bucket-start-differs-in-a-bucket": (
        lambda lines: lines[:3] + [with_field(lines[3], 0, "1980-01-01")] + lines[4:]
    ),
    "bucket-start-not-a-date": (
        lambda lines: [lines[0]] + [with_field(line, 0, "2015-13-01") for line in lines[1:7]]
        + lines[7:]
    ),
    # the same date in other ISO 8601 forms, which date.fromisoformat reads
    # from Python 3.11 on
    "bucket-start-in-iso-week-form": lambda lines: with_first_start(lines, iso_week_date),
    "bucket-start-in-basic-form": lambda lines: with_first_start(lines, "{:%Y%m%d}".format),
    "extra-field": lambda lines: lines[:4] + [lines[4].rstrip("\r\n") + ",x\r\n"] + lines[5:],
    "row-split-in-two": lambda lines: lines[:4] + split_row(lines[4]) + lines[5:],
    "bad-header": lambda lines: ["bucket_start,class,count,total\r\n"] + lines[1:],
    "empty-file": lambda lines: [],
    # counts int() reads but the writer never writes
    "arabic-indic-digit-count": lambda lines: with_second_count(lines, "\u0663"),
    "underscored-count": lambda lines: with_second_count(lines, "0_0"),
    "space-before-a-count": lambda lines: with_second_count(lines, " 0"),
    "plus-signed-count": lambda lines: with_second_count(lines, "+0"),
    "zero-padded-count": lambda lines: with_second_count(lines, "00"),
    # the file's own redundancy
    "class-count-above-the-total": lambda lines: [lines[0], above_total(lines[1])] + lines[2:],
    "total-differs-in-a-bucket": lambda lines: lines[:2] + [total_plus_one(lines[2])] + lines[3:],
    "volume-count-is-not-the-total": (
        lambda lines: lines[:6] + [with_field(lines[6], 2, total_of(lines[6]) + "0")] + lines[7:]
    ),
}


def iso_week_date(day):
    return "{}-W{:02d}-{}".format(*day.isocalendar())


def with_first_start(lines, render):
    """The first bucket's six rows with their start date rendered by render."""
    start = render(date.fromisoformat(lines[1].split(",")[0]))
    return [lines[0]] + [with_field(line, 0, start) for line in lines[1:7]] + lines[7:]


def with_second_start(lines, shift):
    """The second bucket's six rows with their start date shifted."""
    start = (date.fromisoformat(lines[7].split(",")[0]) + shift).isoformat()
    return lines[:7] + [with_field(line, 0, start) for line in lines[7:13]] + lines[13:]


def with_second_count(lines, count):
    return lines[:2] + [with_field(lines[2], 2, count)] + lines[3:]


def total_of(line):
    return line.split(",")[3]


def above_total(line):
    return with_field(line, 2, str(int(total_of(line)) + 1))


def total_plus_one(line):
    return with_field(line, 3, str(int(total_of(line)) + 1))


@pytest.mark.parametrize("damage", sorted(SERIES_DAMAGE))
def test_read_series_csv_rejects_a_damaged_file(tmp_path, damage):
    granularity = "week" if damage.endswith("-week") else "month"
    path, lines = series_lines(tmp_path, granularity)
    assert read_series_csv(path.read_bytes(), granularity)
    path.write_text("".join(SERIES_DAMAGE[damage](lines)), encoding="utf-8", newline="")
    with pytest.raises(ValueError):
        read_series_csv(path.read_bytes(), granularity)


@pytest.mark.parametrize(
    "granularity, start",
    [
        ("week", date(2015, 1, 6)),
        ("month", date(2015, 1, 2)),
        ("quarter", date(2015, 2, 1)),
        ("year", date(2015, 4, 1)),
    ],
    ids=GRANULARITIES,
)
def test_read_series_csv_takes_only_the_starts_of_buckets(tmp_path, granularity, start):
    path = tmp_path / "series.csv"
    counts = {key: [1] for key in SERIES_CLASS_KEYS}
    first = bucket_start(start, granularity)
    write_series_csv(path, [first], counts)
    assert read_series_csv(path.read_bytes(), granularity) == ([first], counts)
    # one bucket, so only its start can be wrong
    write_series_csv(path, [start], counts)
    with pytest.raises(ValueError, match="does not start its bucket"):
        read_series_csv(path.read_bytes(), granularity)


@pytest.mark.parametrize("count", ["\u0663", "\uff13", "1_6", " 7", "7 ", "+7", "-0", "07", ""])
def test_read_occurrence_csv_takes_only_ascii_digit_counts(tmp_path, count):
    path = tmp_path / "occurrences.csv"
    write_occurrence_csv(path, [date(2015, 1, 1)], {key: [3] for key in OCCURRENCE_CLASS_KEYS})
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(
        "".join(lines[:2] + [with_field(lines[2], 2, count + "\r\n")] + lines[3:]),
        encoding="utf-8",
        newline="",
    )
    with pytest.raises(ValueError):
        read_occurrence_csv(path.read_bytes())


def test_read_series_csv_accepts_lf_line_ends(tmp_path):
    path, lines = series_lines(tmp_path)
    want = read_series_csv(path.read_bytes(), "month")
    path.write_text("".join(line.replace("\r\n", "\n") for line in lines), encoding="utf-8")
    assert read_series_csv(path.read_bytes(), "month") == want


def test_read_occurrence_csv_columns_and_damage(tmp_path):
    path = tmp_path / "occurrences.csv"
    rows = ["bucket_start,class,count"]
    for day, counts in (("2015-01-01", (3, 0, 1, 0, 7)), ("2015-02-01", (0, 2, 0, 5, 0))):
        rows += [f"{day},{c.value},{n}" for c, n in zip(ALL_CLASSES, counts)]
    text = "\r\n".join(rows) + "\r\n"
    path.write_text(text, encoding="utf-8", newline="")
    starts, counts = read_occurrence_csv(path.read_bytes())
    assert starts == [date(2015, 1, 1), date(2015, 2, 1)]
    assert counts == {"happy": [3, 0], "sad": [0, 2], "love": [1, 0],
                      "disappointment": [0, 5], "neutral": [7, 0]}
    path.write_text(text[:-9], encoding="utf-8", newline="")
    with pytest.raises(ValueError):
        read_occurrence_csv(path.read_bytes())


# -- properties of the series file -------------------------------------------------


def bucket_starts(draw):
    """A granularity and the start dates of up to 12 consecutive buckets
    of it."""
    granularity = draw(st.sampled_from(GRANULARITIES))
    length = draw(st.integers(0, 12))
    starts = [bucket_start(draw(st.dates(date(1900, 1, 1), date(2100, 12, 31))), granularity)]
    while len(starts) < length:
        starts.append(next_bucket_start(starts[-1], granularity))
    return granularity, starts[:length]


def count_columns(draw, keys, length):
    column = st.lists(st.integers(0, 10**12), min_size=length, max_size=length)
    return {key: draw(column) for key in keys}


@st.composite
def series_tables(draw):
    """The granularity, bucket starts and series columns of one scope with
    arbitrary counts, as analyze writes them: the volume column equal to
    the totals, no class count above them."""
    granularity, starts = bucket_starts(draw)
    totals = count_columns(draw, [VOLUME], len(starts))[VOLUME]
    counts = {key: [draw(st.integers(0, total)) for total in totals] for key in SERIES_CLASS_KEYS}
    counts[VOLUME] = totals
    return granularity, starts, counts


# the file is rewritten for every example, so sharing tmp_path is harmless
reuses_tmp_path = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@reuses_tmp_path
@given(series_tables())
def test_series_csv_round_trips(tmp_path, table):
    granularity, starts, counts = table
    path = tmp_path / "series.csv"
    write_series_csv(path, starts, counts)
    assert read_series_csv(path.read_bytes(), granularity) == (starts, counts)


@reuses_tmp_path
@given(series_tables(), st.data())
def test_damaged_series_csv_parses_or_raises_value_error(tmp_path, written, data):
    granularity, *table = written
    path = tmp_path / "series.csv"
    write_series_csv(path, *table)
    body = path.read_bytes()
    at = data.draw(st.integers(0, len(body)))
    if data.draw(st.booleans()) or at == len(body):
        damaged = body[:at]
    else:
        damaged = body[:at] + bytes([body[at] ^ data.draw(st.integers(1, 255))]) + body[at + 1 :]
    path.write_bytes(damaged)
    try:
        starts, counts = read_series_csv(path.read_bytes(), granularity)
    except ValueError:
        return
    assert list(counts) == list(SERIES_CLASS_KEYS)
    # the starts that parse are the granularity's consecutive buckets
    assert all(bucket_start(start, granularity) == start for start in starts)
    assert all(next_bucket_start(a, granularity) == b for a, b in zip(starts, starts[1:]))
    for column in counts.values():
        assert len(column) == len(starts)
        assert all(type(count) is int and count >= 0 for count in column)


@st.composite
def occurrence_tables(draw):
    """One scope's bucket starts and class columns of lexicon occurrences."""
    _, starts = bucket_starts(draw)
    return starts, count_columns(draw, OCCURRENCE_CLASS_KEYS, len(starts))


@reuses_tmp_path
@given(occurrence_tables(), st.data())
def test_damaged_occurrence_csv_parses_or_raises_value_error(tmp_path, table, data):
    path = tmp_path / "occurrences.csv"
    write_occurrence_csv(path, *table)
    assert read_occurrence_csv(path.read_bytes()) == table
    body = path.read_bytes()
    at = data.draw(st.integers(0, len(body)))
    if data.draw(st.booleans()) or at == len(body):
        damaged = body[:at]
    else:
        damaged = body[:at] + bytes([body[at] ^ data.draw(st.integers(1, 255))]) + body[at + 1 :]
    path.write_bytes(damaged)
    try:
        starts, counts = read_occurrence_csv(path.read_bytes())
    except ValueError:
        return
    assert list(counts) == [cls.value for cls in ALL_CLASSES]
    for column in counts.values():
        assert len(column) == len(starts)
        assert all(type(count) is int and count >= 0 for count in column)
