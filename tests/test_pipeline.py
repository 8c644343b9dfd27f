import json
import random
import statistics
from collections import Counter
from datetime import date

import pytest

from facewall.lexicon import default_lexicon
from facewall.pipeline import (
    AnalysisConfig,
    analyze_store,
    detect_store,
    load_occurrence_counts,
    load_series,
    resolve_analysis,
)
from facewall.ingest import load_corpus, user_scope
from facewall.store import ALL_SCOPE, Store
from facewall.timeline import BucketSeries, DetectorConfig, next_bucket_start, zscore_flags
from helpers import ngram_rows, post_record, write_jsonl

LEX = default_lexicon()


@pytest.fixture
def analyzed(tmp_path):
    records = []
    rng = random.Random(12)
    for month in range(1, 13):
        for i in range(4):
            records.append(
                post_record("u1", f"2015-{month:02d}-{(i % 27) + 1:02d}T08:00:00Z", "great fun :-)")
            )
        for i in range(2):
            records.append(
                post_record("u1", f"2015-{month:02d}-{(i % 27) + 1:02d}T09:00:00Z", "gloomy tears :(")
            )
        records.append(
            post_record("u2", f"2015-{month:02d}-05T10:00:00Z", rng.choice(["errands commute", "love <3"]))
        )
    corpus = write_jsonl(tmp_path / "c.jsonl", records)
    store = Store.open(tmp_path / "store", create=True)
    store.append_batch(load_corpus(corpus, "jsonl"))
    config = AnalysisConfig(lexicon_digest=LEX.digest())
    summary = analyze_store(store, LEX, config)
    return store, config, summary, records


def test_volume_conservation_per_user_and_aggregate(analyzed):
    store, config, summary, records = analyzed
    per_user = Counter(record["user_id"] for record in records)
    # per (file, column): bucket start -> the sum over the users
    sums: dict[tuple[str, str], Counter] = {}

    def add(name, starts, columns):
        for key, column in columns.items():
            sums.setdefault((name, key), Counter()).update(dict(zip(starts, column)))

    for user, expected in per_user.items():
        starts, counts = load_series(store, config, user_scope(user))
        assert sum(counts["volume"]) == expected
        add("series", starts, counts)
        add("occurrences", starts, load_occurrence_counts(store, config, user_scope(user), starts))
    starts, all_counts = load_series(store, config, ALL_SCOPE)
    assert sum(all_counts["volume"]) == len(records)

    # every @all column is the bucket-wise sum of its users' columns
    occurrences = load_occurrence_counts(store, config, ALL_SCOPE, starts)
    columns = {("series", key): column for key, column in all_counts.items()}
    columns.update((("occurrences", key), column) for key, column in occurrences.items())
    assert len(columns) == len(sums) == 11
    for name, column in columns.items():
        assert set(sums[name]) <= set(starts), name
        assert column == [sums[name][start] for start in starts], name


@pytest.mark.parametrize("granularity", ["week", "month"])
def test_a_post_is_bucketed_by_its_utc_date(tmp_path, granularity):
    # Monday 2015-03-02 01:00 at +02:00 is Sunday 2015-03-01 23:00Z: the
    # week of Monday 2015-02-23, the month of March; and the last instant of
    # Saturday 2015-02-28Z is the week of 2015-02-23, the month of February
    records = [
        post_record("u1", "2015-02-28T23:59:59.999999Z", "one"),
        post_record("u1", "2015-03-02T01:00:00+02:00", "two"),
        post_record("u1", "2015-03-02T00:00:00Z", "three"),
    ]
    store = Store.open(tmp_path / "store", create=True)
    store.append_batch(load_corpus(write_jsonl(tmp_path / "c.jsonl", records), "jsonl"))
    config = AnalysisConfig(granularity=granularity, lexicon_digest=LEX.digest())
    analyze_store(store, LEX, config)
    starts, counts = load_series(store, config, user_scope("u1"))
    by_start = dict(zip(starts, counts["volume"]))
    if granularity == "week":
        assert by_start == {date(2015, 2, 23): 2, date(2015, 3, 2): 1}
    else:
        assert by_start == {date(2015, 2, 1): 1, date(2015, 3, 1): 2}


def test_series_counts_can_exceed_totals_only_via_multilabel(analyzed):
    store, config, _, _ = analyzed
    _, counts = load_series(store, config, user_scope("u1"))
    for i, total in enumerate(counts["volume"]):
        class_sum = sum(
            counts[key][i] for key in ("happy", "sad", "love", "disappointment", "neutral")
        )
        # single-label fixture: label counts partition the bucket exactly
        assert class_sum == total


def test_occurrence_cache_readable(analyzed):
    store, config, _, _ = analyzed
    starts, _ = load_series(store, config, user_scope("u1"))
    counts = load_occurrence_counts(store, config, user_scope("u1"), starts)
    assert len(starts) == len(counts["happy"]) == 12
    assert sum(counts["happy"]) >= 48  # one emoticon occurrence per happy post


def test_meta_lists_sorted_users_and_matches_record_count(analyzed):
    store, config, summary, records = analyzed
    assert resolve_analysis(store, config) == ["u1", "u2"]
    meta_path = store.derived_dir("@meta", config.config_hash) / "analysis.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["users"] == sorted(meta["users"]) == ["u1", "u2"]
    assert meta["config"] == config.semantic_fields()
    assert meta["record_count"] == store.record_count == len(records)
    assert summary.users == 2


def test_reanalyze_same_config_is_byte_stable(analyzed):
    store, config, _, _ = analyzed
    series_path = store.derived_dir(user_scope("u1"), config.config_hash) / "series.csv"
    before = series_path.read_bytes()
    analyze_store(store, LEX, config)
    assert series_path.read_bytes() == before


def test_all_users_ngrams_are_the_sum_of_the_per_user_profiles(analyzed):
    store, config, _, records = analyzed
    users = {record["user_id"] for record in records}
    summed = Counter()
    for user in users:
        path = store.derived_dir(user_scope(user), config.config_hash) / "ngrams.csv"
        summed.update(ngram_rows(path))
    everyone = ngram_rows(store.derived_dir(ALL_SCOPE, config.config_hash) / "ngrams.csv")
    assert everyone == summed


def test_changed_granularity_lands_in_new_hash_dir(analyzed):
    store, config, _, _ = analyzed
    weekly = AnalysisConfig(granularity="week", lexicon_digest=LEX.digest())
    assert weekly.config_hash != config.config_hash
    analyze_store(store, LEX, weekly)
    monthly_dir = store.derived_dir(user_scope("u1"), config.config_hash)
    weekly_dir = store.derived_dir(user_scope("u1"), weekly.config_hash)
    assert monthly_dir.is_dir() and weekly_dir.is_dir()
    # prior results untouched
    assert (monthly_dir / "series.csv").is_file()


def test_detect_store_summary(analyzed):
    store, config, _, _ = analyzed
    entries = detect_store(store, config, DetectorConfig())
    assert [entry["user_id"] for entry in entries] == ["u1", "u2"]
    assert all(entry["config"]["granularity"] == "month" for entry in entries)


def test_model_export_is_reloadable(analyzed):
    store, config, _, _ = analyzed
    model_path = store.derived_dir("@model", config.config_hash) / "model.json"
    model = json.loads(model_path.read_text(encoding="utf-8"))
    assert model["n_max"] == 3
    assert model["alpha"] == 1.0
    assert model["vocabulary"] and model["vocabulary"] == sorted(set(model["vocabulary"]))
    assert set(model["doc_counts"]) == set(model["features"]) == set(model["classes"])


def test_detector_sensitivity_on_stationary_series():
    # inject mu + (z_thresh + 2) * sigma over the trailing window: always flagged
    rng = random.Random(2718)
    z_thresh, window, min_hits = 2.0, 6, 3
    start = None
    for _ in range(200):
        counts = [6 + rng.choice((-2, -1, 0, 1, 2)) + (0 if i % 2 else 1) for i in range(10)]
        t = rng.randrange(window, len(counts))
        base = counts[t - window : t]
        mu = statistics.fmean(base)
        sigma = statistics.stdev(base)
        if sigma == 0:
            continue
        injected = max(min_hits, int(mu + (z_thresh + 2) * sigma) + 1)
        counts[t] = injected
        cursor = date(2013, 1, 1)
        buckets = []
        for _ in counts:
            buckets.append(cursor)
            cursor = next_bucket_start(cursor, "month")
        series = BucketSeries("happy", buckets, counts, [50] * len(counts))
        flags = zscore_flags(series, window, z_thresh, min_hits)
        assert any(f.bucket_index == t for f in flags), (counts, t)
