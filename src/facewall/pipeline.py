"""Analysis orchestration: label every stored post, build per-user and
all-user series, n-gram profiles, and the trained model, then cache them
under the analysis config hash; detection replays the cached series through
the deviation detectors.

Derived artifacts are never shared between configs: a changed granularity,
n_max, or lexicon lands in a fresh hash directory, so prior runs stay
comparable. Detector thresholds deliberately do not enter the hash; they
shape reports, not cached series.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from . import classifier, ngrams
from .classifier import NBModel, UntrainableError
from .lexer import Token, prune, tokenize
from .lexicon import ALL_CLASSES, EmotionClass, EmotionLexicon, LEXICON_CLASSES
from .store import ALL_SCOPE, META_SCOPE, MODEL_SCOPE, Store, StoreError, user_scope
from .timeline import (
    VOLUME,
    BucketSeries,
    DetectorConfig,
    DeviationReport,
    OCCURRENCE_HEADER,
    SeriesTable,
    bucketize,
    build_report,
    emotion_series,
    read_series_csv,
    shift_flags,
    write_series_csv,
    zscore_flags,
)

SERIES_CSV = "series.csv"
OCCURRENCES_CSV = "occurrences.csv"
NGRAMS_CSV = "ngrams.csv"
MODEL_JSON = "model.json"
META_JSON = "analysis.json"

CONFIG_SCHEMA = 1


@dataclass(frozen=True)
class AnalysisConfig:
    granularity: str = "month"
    n_max: int = 3
    alpha: float = 1.0
    min_train_docs: int = 5
    lexicon_digest: str = ""

    def semantic_fields(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA,
            "granularity": self.granularity,
            "n_max": self.n_max,
            "alpha": self.alpha,
            "min_train_docs": self.min_train_docs,
            "lexicon": self.lexicon_digest,
        }

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_fields(), sort_keys=True)
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:12]


@dataclass
class AnalyzeSummary:
    users: int
    posts: int
    model_trained: bool
    config_hash: str


@dataclass
class _ScopedPost:
    stamp: datetime
    labels: frozenset[EmotionClass]
    occurrences: Counter


def analyze_store(store: Store, lexicon: EmotionLexicon, config: AnalysisConfig) -> AnalyzeSummary:
    """Classify all stored posts and write the derived cache.

    An empty store writes nothing (there is no bucket range to describe).
    The model trains when at least two classes have enough emoticon-labeled
    posts; otherwise the cascade runs rule-only. Users are then handled one
    at a time, and `@all` is the fold of their n-gram profiles and records.
    """
    config_hash = config.config_hash
    table = lexicon.emoticon_table()
    by_user: dict[str, list[tuple[datetime, list[Token]]]] = {}
    for post in store.iter_posts():
        tokens = prune(tokenize(post.text, table))
        by_user.setdefault(post.user_id, []).append((post.timestamp, tokens))
    if not by_user:
        return AnalyzeSummary(users=0, posts=0, model_trained=False, config_hash=config_hash)

    # The training pairs are not kept, so each user's tokens are released
    # once that user is written.
    pairs = (
        (tokens, classifier.emoticon_label(tokens, lexicon))
        for posts in by_user.values()
        for _, tokens in posts
    )
    model: NBModel | None
    try:
        model = classifier.train_nb(
            classifier.training_pairs(pairs),
            n_max=config.n_max,
            alpha=config.alpha,
            min_train_docs=config.min_train_docs,
        )
    except UntrainableError:
        model = None

    users = sorted(by_user)
    everything: list[_ScopedPost] = []
    everyone = ngrams.NGramProfile(owner="all")
    for user_id in users:
        records: list[_ScopedPost] = []
        profile = ngrams.NGramProfile(owner=user_id)
        for stamp, tokens in by_user.pop(user_id):
            label = classifier.classify_post(tokens, lexicon, model)
            records.append(_ScopedPost(stamp, label.labels, label.hits))
            ngrams.accumulate(profile, tokens, config.n_max)
        _write_scope(store, user_scope(user_id), user_id, records, profile, config, config_hash)
        everyone.counts.update(profile.counts)
        everyone.post_count += profile.post_count
        everything.extend(records)
    _write_scope(store, ALL_SCOPE, "all", everything, everyone, config, config_hash)

    if model is not None:
        model_dir = store.derived_dir(MODEL_SCOPE, config_hash)
        model_dir.mkdir(parents=True, exist_ok=True)
        (model_dir / MODEL_JSON).write_text(model.to_json(), encoding="utf-8")

    meta = {
        "schema": CONFIG_SCHEMA,
        "config": config.semantic_fields(),
        "config_hash": config_hash,
        "record_count": store.record_count,
        "users": users,
        "model_trained": model is not None,
    }
    meta_dir = store.derived_dir(META_SCOPE, config_hash)
    meta_dir.mkdir(parents=True, exist_ok=True)
    (meta_dir / META_JSON).write_text(
        json.dumps(meta, sort_keys=True, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
    store.register_analysis(
        config_hash, {"record_count": store.record_count, "users": len(users)}
    )
    return AnalyzeSummary(
        users=len(users),
        posts=len(everything),
        model_trained=model is not None,
        config_hash=config_hash,
    )


def _write_scope(
    store: Store,
    scope: str,
    scope_label: str,
    records: list[_ScopedPost],
    profile: ngrams.NGramProfile,
    config: AnalysisConfig,
    config_hash: str,
) -> None:
    out_dir = store.derived_dir(scope, config_hash)
    out_dir.mkdir(parents=True, exist_ok=True)

    buckets, groups = bucketize(((r.stamp, r) for r in records), config.granularity)
    label_groups = [[r.labels for r in group] for group in groups]

    series_list = [
        emotion_series(buckets, label_groups, cls, scope=scope_label) for cls in ALL_CLASSES
    ]
    series_list.append(emotion_series(buckets, label_groups, VOLUME, scope=scope_label))
    write_series_csv(out_dir / SERIES_CSV, series_list)

    _write_occurrences(out_dir / OCCURRENCES_CSV, buckets, groups)
    ngrams.write_ngram_csv(out_dir / NGRAMS_CSV, profile)


def _write_occurrences(path: Path, buckets, groups) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(OCCURRENCE_HEADER)
        for bucket, group in zip(buckets, groups):
            totals: Counter = Counter()
            for record in group:
                totals.update(record.occurrences)
            for cls in ALL_CLASSES:
                writer.writerow([bucket.key, cls.value, totals.get(cls, 0)])


# -- reading the cache ------------------------------------------------------


def resolve_analysis(store: Store, config: AnalysisConfig) -> dict:
    """Locate the analysis meta for this config; errors are store errors so
    the CLI maps them to exit 3."""
    meta_path = store.derived_dir(META_SCOPE, config.config_hash) / META_JSON
    if not meta_path.exists():
        raise StoreError("not-analyzed", "run `facewall analyze` first")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if meta.get("record_count") != store.record_count:
        raise StoreError(
            "stale-analysis",
            "store changed since analyze; re-run `facewall analyze`",
        )
    return meta


def scope_for(meta: dict, user_id: str | None) -> str:
    """Directory scope for a user (validated against the analysis) or the
    all-users aggregate."""
    if user_id is None:
        return ALL_SCOPE
    if user_id not in meta["users"]:
        raise KeyError(user_id)
    return user_scope(user_id)


def derived_file(store: Store, config: AnalysisConfig, scope: str, name: str) -> Path:
    """Path of one derived file of a resolved analysis; a missing file (a
    partial or crashed analyze) is a store error, not a traceback."""
    path = store.derived_dir(scope, config.config_hash) / name
    if not path.is_file():
        raise StoreError("missing-artifact", f"{scope}/{name}; re-run `facewall analyze`")
    return path


def load_series_table(store: Store, config: AnalysisConfig, scope: str) -> SeriesTable:
    return read_series_csv(derived_file(store, config, scope, SERIES_CSV))


def load_occurrence_counts(
    store: Store, config: AnalysisConfig, scope: str
) -> tuple[list[str], dict[str, list[int]]]:
    path = derived_file(store, config, scope, OCCURRENCES_CSV)
    starts: list[str] = []
    counts: dict[str, list[int]] = {c.value: [] for c in ALL_CLASSES}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != OCCURRENCE_HEADER:
            raise ValueError(f"unexpected occurrences CSV header: {header!r}")
        for day, class_key, count in reader:
            if not starts or starts[-1] != day:
                starts.append(day)
            counts[class_key].append(int(count))
    return starts, counts


# -- detection --------------------------------------------------------------


@dataclass
class DetectSummary:
    users: int
    flagged_users: int
    flags: int
    granularity: str
    zscore_flags: int
    jsd_flags: int


def detect_store(
    store: Store, config: AnalysisConfig, detector: DetectorConfig
) -> tuple[list[DeviationReport], DetectSummary]:
    detector.validate()
    meta = resolve_analysis(store, config)
    granularity = meta["config"]["granularity"]
    reports: list[DeviationReport] = []
    total_flags = 0
    flagged_users = 0
    signals: Counter[str] = Counter()
    for user_id in meta["users"]:
        table = load_series_table(store, config, user_scope(user_id))
        report = detect_user(user_id, table, granularity, detector)
        reports.append(report)
        total_flags += len(report.flags)
        flagged_users += bool(report.flags)
        signals.update(flag.signal for flag in report.flags)
    return reports, DetectSummary(
        len(reports), flagged_users, total_flags, granularity, signals["zscore"], signals["jsd"]
    )


def detect_user(
    user_id: str, table: SeriesTable, granularity: str, detector: DetectorConfig
) -> DeviationReport:
    """Run both detectors over one user's cached series."""
    flags = []
    volume = table.to_series(VOLUME, user_id, granularity)
    buckets = volume.buckets
    for cls in LEXICON_CLASSES:
        series = BucketSeries(
            user_id, cls.value, buckets, table.counts[cls.value], table.totals
        )
        flags.extend(
            zscore_flags(series, detector.window, detector.z_thresh, detector.min_hits)
        )
    flags.extend(
        shift_flags(
            {c.value: table.counts[c.value] for c in ALL_CLASSES},
            table.totals,
            buckets,
            detector.window,
            detector.jsd_thresh,
            detector.min_total,
        )
    )
    return build_report(user_id, flags, detector)
