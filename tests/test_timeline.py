import csv
import json
import math
import random
import statistics
import sys
from dataclasses import fields
from datetime import datetime, timezone
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from facewall.lexicon import ALL_CLASSES, LEXICON_CLASSES, EmotionClass
from facewall.timeline import (
    SERIES_CLASS_KEYS,
    VOLUME,
    BucketSeries,
    DetectorConfig,
    Flag,
    SeriesTable,
    TimeBucket,
    bucket_start,
    bucketize,
    build_report,
    emotion_series,
    jsd,
    next_bucket_start,
    read_occurrence_csv,
    read_series_csv,
    report_to_dict,
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
    buckets = []
    start = ts(year, month)
    for i in range(n):
        buckets.append(TimeBucket(start, i, "month"))
        start = next_bucket_start(start, "month")
    return buckets


# -- bucket arithmetic ---------------------------------------------------------


def test_bucket_start_boundaries():
    stamp = datetime(2015, 8, 19, 13, 45, tzinfo=UTC)
    assert bucket_start(stamp, "month") == ts(2015, 8)
    assert bucket_start(stamp, "quarter") == ts(2015, 7)
    assert bucket_start(stamp, "year") == ts(2015, 1)
    # 2015-08-19 is a Wednesday; the week starts Monday the 17th
    assert bucket_start(stamp, "week") == ts(2015, 8, 17)


def test_bucket_start_respects_utc_offsets():
    # local wall date is Feb 1 01:00 at +02:00, but the UTC instant is still
    # Jan 31 23:00; the UTC instant decides the bucket
    from datetime import timedelta

    local = datetime(2015, 2, 1, 1, 0, tzinfo=timezone(timedelta(hours=2)))
    assert bucket_start(local, "month") == ts(2015, 1)


def test_bucketize_zero_fills_gaps():
    posts = [(ts(2015, 1, 10), "a"), (ts(2015, 1, 20), "b"), (ts(2015, 3, 5), "c")]
    buckets, groups = bucketize(posts, "month")
    assert [b.start for b in buckets] == [ts(2015, 1), ts(2015, 2), ts(2015, 3)]
    assert [len(g) for g in groups] == [2, 0, 1]
    assert [b.index for b in buckets] == [0, 1, 2]


def test_bucketize_single_and_empty():
    buckets, groups = bucketize([(ts(2012, 6, 15), "x")], "month")
    assert len(buckets) == 1 and groups == [["x"]]
    assert bucketize([], "month") == ([], [])


def test_monthly_range_2010_to_2016_is_84_buckets():
    buckets, _ = bucketize([(ts(2010, 1, 5), 1), (ts(2016, 12, 30), 2)], "month")
    assert len(buckets) == 84


# -- series ---------------------------------------------------------------------


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
    return BucketSeries("u1", class_key, month_buckets(len(counts)), list(counts), [30] * len(counts))


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
        start = series.buckets[t].start
        if sigma > 0:
            z = (count - mu) / sigma
            if z >= z_thresh:
                flags.append(Flag(t, start, "zscore", series.class_key, z, z_thresh))
        elif count > mu:
            flags.append(Flag(t, start, "zscore", series.class_key, math.inf, z_thresh))
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
            flags.append(Flag(t, buckets[t].start, "jsd", None, value, jsd_thresh))
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
        # inf, nan and a negative threshold tell apart a fitted z (flagged
        # at or above the threshold) from a flat baseline (flagged on any
        # rise, whatever the threshold)
        z_thresh = rng.choice((0.25, 1.0, 2.0, 3.5, math.inf, math.nan, -1.0))
        min_hits = rng.randint(0, 3)
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
        jsd_thresh = rng.choice((0.01, 0.1, 0.25))
        min_total = rng.randint(0, 5)
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


def test_shift_flags_min_total_guard():
    rows = [[10, 0, 0, 0, 0]] * 6 + [[0, 4, 0, 0, 0]]
    totals = [10] * 6 + [4]
    flags = shift_flags(class_counts(rows), totals, month_buckets(7), window=6, min_total=5)
    assert flags == []


# -- reports -----------------------------------------------------------------------


def test_build_report_sorts_and_computes_severity():
    buckets = month_buckets(8)
    config = DetectorConfig()
    z_flag = zscore_flags(
        BucketSeries("u1", "happy", buckets, [4, 4, 4, 4, 4, 4, 4, 12], [20] * 8),
        window=6,
        z_thresh=2.0,
        min_hits=3,
    )[0]
    report = build_report("u1", [z_flag], config)
    assert report.flags[0].severity == pytest.approx(z_flag.value / 2.0)
    empty = build_report("u1", [], config)
    assert empty.flags == ()


def test_build_report_rejects_duplicates():
    buckets = month_buckets(8)
    flag = zscore_flags(
        BucketSeries("u1", "happy", buckets, [4, 4, 4, 4, 4, 4, 4, 12], [20] * 8),
        window=6,
        z_thresh=2.0,
        min_hits=3,
    )[0]
    with pytest.raises(ValueError, match="duplicate-flag"):
        build_report("u1", [flag, flag], DetectorConfig())


def test_report_dict_is_deterministic_and_ordered():
    buckets = month_buckets(9)
    series_a = BucketSeries("u1", "happy", buckets, [4] * 6 + [12, 4, 12], [20] * 9)
    series_b = BucketSeries("u1", "sad", buckets, [4] * 6 + [12, 4, 12], [20] * 9)
    flags = zscore_flags(series_b, 6, 2.0, 3) + zscore_flags(series_a, 6, 2.0, 3)
    report = build_report("u1", flags, DetectorConfig())
    keys = [(f.bucket_index, f.signal, f.class_key) for f in report.flags]
    assert keys == sorted(keys)
    payload = report_to_dict(report, "month")
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        report_to_dict(report, "month"), sort_keys=True
    )
    assert payload["flags"][0]["bucket_start"] == "2015-07-01"
    # the config lists every detector field, plus the bucket granularity
    assert set(payload["config"]) == {f.name for f in fields(DetectorConfig)} | {"granularity"}
    assert payload["config"]["granularity"] == "month"
    for field in fields(DetectorConfig):
        assert payload["config"][field.name] == getattr(report.config, field.name)


# -- CSV ---------------------------------------------------------------------------


def test_series_csv_round_trip_and_formatting(tmp_path):
    buckets = month_buckets(2)
    labels = [
        [frozenset({HAPPY}), frozenset({HAPPY, LOVE}), frozenset({NEUTRAL})],
        [frozenset({SAD})],
    ]
    series_list = [emotion_series(buckets, labels, cls) for cls in EmotionClass]
    series_list.append(emotion_series(buckets, labels, VOLUME))
    path = tmp_path / "series.csv"
    write_series_csv(path, series_list)

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bucket_start,class,count,total,proportion"
    assert lines[1] == "2015-01-01,happy,2,3,0.666667"
    assert "2015-01-01,volume,3,3,1.000000" in lines

    table = read_series_csv(path)
    assert table.bucket_starts == ["2015-01-01", "2015-02-01"]
    assert table.counts["happy"] == [2, 0]
    assert table.counts["volume"] == [3, 1]
    assert table.totals == [3, 1]

    series = table.to_series("happy", "u1", "month")
    assert series.counts == [2, 0]
    assert series.buckets[1].start == ts(2015, 2)


def test_proportion_half_even_formatting(tmp_path):
    buckets = month_buckets(1)
    labels = [[frozenset({HAPPY})] * 1 + [frozenset({NEUTRAL})] * 7]
    series = emotion_series(buckets, labels, HAPPY)
    path = tmp_path / "series.csv"
    write_series_csv(path, [series])
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
    return SeriesTable(bucket_starts, counts, totals)


def random_series_list(rng, length):
    """The six series of one scope, as analyze writes them: counts up to
    10**9, each bucket's total shared by every class."""
    buckets = month_buckets(length, year=rng.randint(1990, 2030), month=rng.randint(1, 12))
    top = rng.choice((1, 10, 10**4, 10**9))
    totals = [rng.randint(0, top) for _ in range(length)]
    series_list = []
    for key in SERIES_CLASS_KEYS:
        counts = list(totals) if key == VOLUME else [rng.randint(0, top) for _ in range(length)]
        series_list.append(BucketSeries("u1", key, buckets, counts, totals))
    return series_list


def test_read_series_csv_matches_the_csv_reader_reference(tmp_path):
    rng = random.Random(5151)
    path = tmp_path / "series.csv"
    lengths = [0, 1, 2] + [rng.randint(3, 400) for _ in range(60)]
    for length in lengths:
        write_series_csv(path, random_series_list(rng, length))
        want = reference_read_series_csv(path)
        assert read_series_csv(path) == want, length
        assert len(want.bucket_starts) == length


def series_lines(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, random_series_list(random.Random(7), 3))
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
    "extra-field": lambda lines: lines[:4] + [lines[4].rstrip("\r\n") + ",x\r\n"] + lines[5:],
    "row-split-in-two": lambda lines: lines[:4] + split_row(lines[4]) + lines[5:],
    "bad-header": lambda lines: ["bucket_start,class,count,total\r\n"] + lines[1:],
    "empty-file": lambda lines: [],
}


@pytest.mark.parametrize("damage", sorted(SERIES_DAMAGE))
def test_read_series_csv_rejects_a_damaged_file(tmp_path, damage):
    path, lines = series_lines(tmp_path)
    path.write_text("".join(SERIES_DAMAGE[damage](lines)), encoding="utf-8", newline="")
    with pytest.raises(ValueError):
        read_series_csv(path)


def test_read_series_csv_accepts_lf_line_ends(tmp_path):
    path, lines = series_lines(tmp_path)
    want = read_series_csv(path)
    path.write_text("".join(line.replace("\r\n", "\n") for line in lines), encoding="utf-8")
    assert read_series_csv(path) == want


def test_read_occurrence_csv_columns_and_damage(tmp_path):
    path = tmp_path / "occurrences.csv"
    rows = ["bucket_start,class,count"]
    for day, counts in (("2015-01-01", (3, 0, 1, 0, 7)), ("2015-02-01", (0, 2, 0, 5, 0))):
        rows += [f"{day},{c.value},{n}" for c, n in zip(ALL_CLASSES, counts)]
    text = "\r\n".join(rows) + "\r\n"
    path.write_text(text, encoding="utf-8", newline="")
    starts, counts = read_occurrence_csv(path)
    assert starts == ["2015-01-01", "2015-02-01"]
    assert counts == {"happy": [3, 0], "sad": [0, 2], "love": [1, 0],
                      "disappointment": [0, 5], "neutral": [7, 0]}
    path.write_text(text[:-9], encoding="utf-8", newline="")
    with pytest.raises(ValueError):
        read_occurrence_csv(path)


# -- properties of the series file -------------------------------------------------


@st.composite
def series_lists(draw):
    """The six series of one scope with arbitrary counts, as analyze writes them."""
    length = draw(st.integers(0, 12))
    year, month = draw(st.integers(1900, 2100)), draw(st.integers(1, 12))
    buckets = month_buckets(length, year=year, month=month)
    counts = st.lists(st.integers(0, 10**12), min_size=length, max_size=length)
    totals = draw(counts)
    return [
        BucketSeries("u1", key, buckets, list(totals) if key == VOLUME else draw(counts), totals)
        for key in SERIES_CLASS_KEYS
    ]


# the file is rewritten for every example, so sharing tmp_path is harmless
reuses_tmp_path = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@reuses_tmp_path
@given(series_lists())
def test_series_csv_round_trips(tmp_path, series_list):
    path = tmp_path / "series.csv"
    write_series_csv(path, series_list)
    table = read_series_csv(path)
    assert table.bucket_starts == [bucket.key for bucket in series_list[0].buckets]
    assert table.counts == {series.class_key: series.counts for series in series_list}
    assert table.totals == series_list[0].totals


@reuses_tmp_path
@given(series_lists(), st.data())
def test_damaged_series_csv_parses_or_raises_value_error(tmp_path, series_list, data):
    path = tmp_path / "series.csv"
    write_series_csv(path, series_list)
    body = path.read_bytes()
    at = data.draw(st.integers(0, len(body)))
    if data.draw(st.booleans()) or at == len(body):
        damaged = body[:at]
    else:
        damaged = body[:at] + bytes([body[at] ^ data.draw(st.integers(1, 255))]) + body[at + 1 :]
    path.write_bytes(damaged)
    try:
        table = read_series_csv(path)
    except ValueError:
        return
    assert isinstance(table, SeriesTable)


@st.composite
def occurrence_tables(draw):
    """One scope's buckets and per-bucket lexicon occurrences, as analyze writes them."""
    length = draw(st.integers(0, 12))
    year, month = draw(st.integers(1900, 2100)), draw(st.integers(1, 12))
    buckets = month_buckets(length, year=year, month=month)
    counts = st.integers(0, 10**12)
    return buckets, [{cls: draw(counts) for cls in LEXICON_CLASSES} for _ in buckets]


@reuses_tmp_path
@given(occurrence_tables(), st.data())
def test_damaged_occurrence_csv_parses_or_raises_value_error(tmp_path, table, data):
    buckets, occurrences = table
    path = tmp_path / "occurrences.csv"
    write_occurrence_csv(path, buckets, occurrences)
    assert read_occurrence_csv(path) == (
        [bucket.key for bucket in buckets],
        {cls.value: [row.get(cls, 0) for row in occurrences] for cls in ALL_CLASSES},
    )
    body = path.read_bytes()
    at = data.draw(st.integers(0, len(body)))
    if data.draw(st.booleans()) or at == len(body):
        damaged = body[:at]
    else:
        damaged = body[:at] + bytes([body[at] ^ data.draw(st.integers(1, 255))]) + body[at + 1 :]
    path.write_bytes(damaged)
    try:
        starts, counts = read_occurrence_csv(path)
    except ValueError:
        return
    assert list(counts) == [cls.value for cls in ALL_CLASSES]
    for column in counts.values():
        assert len(column) == len(starts)
        assert all(type(count) is int and count >= 0 for count in column)
