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
from itertools import chain
from pathlib import Path

from . import classifier, ngrams
from .classifier import NBModel, UntrainableError
from .lexer import TokenInterner, TokenKind
# The per-token steps that TokenInterner takes at once; the benchmark's
# tracer (perfbench/tracing.py) wraps them at these bindings.
from .lexer import prune, tokenize  # noqa: F401
from .lexicon import ALL_CLASSES, EmotionClass, EmotionLexicon, LEXICON_CLASSES
from .store import ALL_SCOPE, META_SCOPE, MODEL_SCOPE, Store, StoreError, store_io, user_scope
from .timeline import (
    VOLUME,
    BucketSeries,
    DetectorConfig,
    DeviationReport,
    SeriesTable,
    TimeBucket,
    bucketize,
    build_report,
    emotion_series,
    read_occurrence_csv,
    read_series_csv,
    shift_flags,
    write_occurrence_csv,
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
    n_max: int = ngrams.DEFAULT_MAX_N
    lexicon_digest: str = ""

    def semantic_fields(self) -> dict:
        # The model's fixed smoothing and class cut-off stay in the hashed
        # fields, so the hash names everything the derived files depend on.
        return {
            "schema": CONFIG_SCHEMA,
            "granularity": self.granularity,
            "n_max": self.n_max,
            "alpha": classifier.DEFAULT_ALPHA,
            "min_train_docs": classifier.DEFAULT_MIN_TRAIN_DOCS,
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


# One classified post of a scope: its labels and its lexicon occurrences as
# counts in LEXICON_CLASSES order.
_Record = tuple[frozenset[EmotionClass], tuple[int, ...]]
# the occurrence row of a post without lexicon hits
_NO_HITS = (0,) * len(LEXICON_CLASSES)


def analyze_store(store: Store, lexicon: EmotionLexicon, config: AnalysisConfig) -> AnalyzeSummary:
    """Classify all stored posts and write the derived cache.

    An empty store writes nothing (there is no bucket range to describe).
    The model trains when at least two classes have enough emoticon-labeled
    posts; otherwise the cascade runs rule-only. Tokens are interned: a post
    is held as its token ids, the cascade sees the shared canonical tokens,
    and grams are tuples of ids, rendered once for all scopes. `@all` is
    the fold of the users' n-gram profiles and of their bucketed records.
    A write that fails raises a store-io StoreError.
    """
    config_hash = config.config_hash
    interner = TokenInterner(lexicon.emoticon_table())
    # Each post is its time and its token ids: tuples of ints and times,
    # which the cyclic garbage collector soon stops walking.
    by_user: dict[str, list[tuple[datetime, tuple[int, ...]]]] = {}
    for post in store.iter_posts():
        by_user.setdefault(post.user_id, []).append((post.timestamp, interner.ids(post.text)))
    if not by_user:
        return AnalyzeSummary(users=0, posts=0, model_trained=False, config_hash=config_hash)

    tokens_of = interner.tokens_of
    # Only a post that holds an emoticon can be a training document.
    emoticon = TokenKind.EMOTICON
    emoticons = frozenset(i for i, token in enumerate(interner.tokens) if token.kind is emoticon)
    with_emoticon = (
        ids for posts in by_user.values() for _, ids in posts if not emoticons.isdisjoint(ids)
    )
    pairs = (
        (tokens, classifier.emoticon_label(tokens, lexicon))
        for tokens in map(tokens_of, with_emoticon)
    )
    model: NBModel | None
    try:
        model = classifier.train_nb(classifier.training_pairs(pairs), n_max=config.n_max)
    except UntrainableError:
        model = None

    users = sorted(by_user)
    profiles = {}
    everyone = ngrams.NGramProfile(owner="all")
    for user_id in users:
        posts = [ids for _, ids in by_user[user_id]]
        profile = profiles[user_id] = ngrams.NGramProfile(owner=user_id, post_count=len(posts))
        profile.counts.update(ngrams.interned_grams(posts, config.n_max))
        everyone.counts.update(profile.counts)
        everyone.post_count += profile.post_count
    ranking = ngrams.GramRanking(everyone.counts, interner.tokens)

    # (bucket start, the user's records in that bucket) over all users
    user_buckets: list[tuple[datetime, list[_Record]]] = []
    # one object per distinct record: there are few, and @all holds them all
    shared: dict[_Record, _Record] = {}
    for user_id in users:
        records: list[tuple[datetime, _Record]] = []
        for stamp, ids in by_user.pop(user_id):
            label = classifier.classify_post(tokens_of(ids), lexicon, model)
            hits = label.hits
            row = tuple([hits.get(cls, 0) for cls in LEXICON_CLASSES]) if hits else _NO_HITS
            record = (label.labels, row)
            records.append((stamp, shared.setdefault(record, record)))
        buckets, groups = bucketize(records, config.granularity)
        _write_scope(
            store, user_scope(user_id), user_id, buckets, groups,
            profiles.pop(user_id), ranking, config_hash,
        )
        user_buckets.extend(zip([bucket.start for bucket in buckets], groups))
    buckets, nested = bucketize(user_buckets, config.granularity)
    groups = [list(chain.from_iterable(group)) for group in nested]
    _write_scope(store, ALL_SCOPE, "all", buckets, groups, everyone, ranking, config_hash)

    meta = {
        "schema": CONFIG_SCHEMA,
        "config": config.semantic_fields(),
        "config_hash": config_hash,
        "record_count": store.record_count,
        "users": users,
        "model_trained": model is not None,
    }
    with store_io():
        if model is not None:
            model_dir = store.derived_dir(MODEL_SCOPE, config_hash)
            model_dir.mkdir(parents=True, exist_ok=True)
            (model_dir / MODEL_JSON).write_text(model.to_json(), encoding="utf-8")
        meta_dir = store.derived_dir(META_SCOPE, config_hash)
        meta_dir.mkdir(parents=True, exist_ok=True)
        (meta_dir / META_JSON).write_text(
            json.dumps(meta, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )
    store.register_analysis(
        config_hash, {"record_count": store.record_count, "users": len(users)}
    )
    return AnalyzeSummary(
        users=len(users),
        posts=everyone.post_count,
        model_trained=model is not None,
        config_hash=config_hash,
    )


def _write_scope(
    store: Store,
    scope: str,
    scope_label: str,
    buckets: list[TimeBucket],
    groups: list[list[_Record]],
    profile: ngrams.NGramProfile,
    ranking: ngrams.GramRanking,
    config_hash: str,
) -> None:
    label_groups = [[labels for labels, _ in group] for group in groups]
    series_list = [
        emotion_series(buckets, label_groups, cls, scope=scope_label) for cls in ALL_CLASSES
    ]
    series_list.append(emotion_series(buckets, label_groups, VOLUME, scope=scope_label))
    occurrences = [
        dict(zip(LEXICON_CLASSES, map(sum, zip(*[row for _, row in group])))) for group in groups
    ]
    out_dir = store.derived_dir(scope, config_hash)
    with store_io():
        out_dir.mkdir(parents=True, exist_ok=True)
        write_series_csv(out_dir / SERIES_CSV, series_list)
        write_occurrence_csv(out_dir / OCCURRENCES_CSV, buckets, occurrences)
        ngrams.write_ngram_csv(out_dir / NGRAMS_CSV, profile, ranking)


# -- reading the cache ------------------------------------------------------


def resolve_analysis(store: Store, config: AnalysisConfig) -> dict:
    """Locate the analysis meta for this config; errors are store errors so
    the CLI maps them to exit 3."""
    meta_path = store.derived_dir(META_SCOPE, config.config_hash) / META_JSON
    if not meta_path.exists():
        raise StoreError("not-analyzed", "run `facewall analyze` first")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError:  # not JSON, or not UTF-8
        raise artifact_error("corrupt-artifact", META_SCOPE, META_JSON) from None
    if not _is_meta(meta):
        raise artifact_error("corrupt-artifact", META_SCOPE, META_JSON)
    if meta["record_count"] != store.record_count:
        raise StoreError(
            "stale-analysis",
            "store changed since analyze; re-run `facewall analyze`",
        )
    return meta


def _is_meta(meta: object) -> bool:
    """Whether parsed analysis.json has the fields the readers use."""
    return (
        isinstance(meta, dict)
        and isinstance(meta.get("record_count"), int)
        and isinstance(meta.get("config"), dict)
        and isinstance(meta["config"].get("granularity"), str)
        and isinstance(meta.get("users"), list)
        and all(isinstance(user, str) for user in meta["users"])
    )


def scope_for(meta: dict, user_id: str | None) -> str:
    """Directory scope for a user (validated against the analysis) or the
    all-users aggregate."""
    if user_id is None:
        return ALL_SCOPE
    if user_id not in meta["users"]:
        raise KeyError(user_id)
    return user_scope(user_id)


def artifact_error(reason: str, scope: str, name: str) -> StoreError:
    """A missing or unreadable derived file: a partial or crashed analyze
    (or damage since), which a fresh analyze repairs."""
    return StoreError(reason, f"{scope}/{name}; re-run `facewall analyze`")


def derived_file(store: Store, config: AnalysisConfig, scope: str, name: str) -> Path:
    """Path of one derived file of a resolved analysis; a missing file is a
    store error, not a traceback."""
    path = store.derived_dir(scope, config.config_hash) / name
    if not path.is_file():
        raise artifact_error("missing-artifact", scope, name)
    return path


def _load(store: Store, config: AnalysisConfig, scope: str, name: str, read):
    """read(path) of one derived file; a missing file or one read cannot
    parse is a store error."""
    path = derived_file(store, config, scope, name)
    try:
        return read(path)
    except (ValueError, csv.Error):
        raise artifact_error("corrupt-artifact", scope, name) from None


def load_series_table(store: Store, config: AnalysisConfig, scope: str) -> SeriesTable:
    return _load(store, config, scope, SERIES_CSV, read_series_csv)


def load_ngram_profile(store: Store, config: AnalysisConfig, scope: str) -> ngrams.NGramProfile:
    return _load(store, config, scope, NGRAMS_CSV, ngrams.read_ngram_csv)


def load_occurrence_counts(
    store: Store, config: AnalysisConfig, scope: str
) -> tuple[list[str], dict[str, list[int]]]:
    return _load(store, config, scope, OCCURRENCES_CSV, read_occurrence_csv)


# -- detection --------------------------------------------------------------


@dataclass
class DetectSummary:
    users: int
    flagged_users: int
    flags: int
    granularity: str
    zscore_flags: int
    jsd_flags: int
    # z-score flags per lexicon class, in LEXICON_CLASSES order
    zscore_by_class: dict[str, int]


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
    classes: Counter[str] = Counter()
    for user_id in meta["users"]:
        table = load_series_table(store, config, user_scope(user_id))
        report = detect_user(user_id, table, granularity, detector)
        reports.append(report)
        total_flags += len(report.flags)
        flagged_users += bool(report.flags)
        signals.update(flag.signal for flag in report.flags)
        classes.update(flag.class_key for flag in report.flags if flag.signal == "zscore")
    return reports, DetectSummary(
        len(reports),
        flagged_users,
        total_flags,
        granularity,
        signals["zscore"],
        signals["jsd"],
        {cls.value: classes[cls.value] for cls in LEXICON_CLASSES},
    )


def detect_user(
    user_id: str, table: SeriesTable, granularity: str, detector: DetectorConfig
) -> DeviationReport:
    """Run both detectors over one user's cached series."""
    flags = []
    buckets = table.buckets(granularity)
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
