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
import json
from array import array
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from itertools import repeat
from pathlib import Path

from . import classifier, ngrams
from .classifier import NBModel, UntrainableError
from .ingest import lacks_scope, sha256, user_scope
from .lexer import TokenInterner, TokenKind, _Memo
# The per-token steps that TokenInterner runs in lexer; the benchmark's
# tracer (perfbench/tracing.py) wraps them at these bindings.
from .lexer import prune, tokenize  # noqa: F401
from .lexicon import ALL_CLASSES, EmotionLexicon, LEXICON_CLASSES
from .store import (
    ALL_SCOPE, META_SCOPE, MODEL_SCOPE, Store, StoreError, replacing, store_io, write_json
)
from .timeline import (
    OCCURRENCE_CLASS_KEYS,
    SERIES_CLASS_KEYS,
    VOLUME,
    DetectorConfig,
    DeviationReport,
    SeriesTable,
    TimeBucket,
    bucket_start_memo,
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
        return sha256(blob.encode("ascii")).hexdigest()[:12]


@dataclass
class AnalyzeSummary:
    users: int
    posts: int
    model_trained: bool
    config_hash: str
    # logged user ids empty or too long for a directory name, whose posts are left out
    left_out: list[str]


# the occurrence row of a post without lexicon hits, in ALL_CLASSES order
_NO_HITS = (0,) * len(ALL_CLASSES)


def analyze_store(store: Store, lexicon: EmotionLexicon, config: AnalysisConfig) -> AnalyzeSummary:
    """Classify all stored posts and write the derived cache.

    An empty store writes nothing (there is no bucket range to describe).
    The model trains when at least two classes have enough emoticon-labeled
    posts; otherwise the cascade runs rule-only. Tokens are interned, and
    the cascade sees the shared canonical tokens. A user's posts are two
    lists filled as the log is read, their id tuples and their bucket
    starts, one shared datetime per UTC date (bucket_start_memo); the
    training documents are picked from them once the whole log is read.
    Each distinct id gram of the run gets a dense gram id, and a profile is
    two arrays, the dense ids of its grams and their counts, ranked and
    rendered once for all scopes. `@all`'s profile and its series and
    occurrence columns are the sums of its users'. A user id that names no
    directory (lacks_scope), which ingest rejects but an older or hand-edited
    log can hold, is left out of every derived file and named in the summary.
    A re-analyze first retires the config's analysis.json, which it writes
    last. Each file is written whole by replacing(); a failed write is store-io.
    """
    config_hash = config.config_hash
    interner = TokenInterner(lexicon.emoticon_table())
    # per user: the posts' id tuples and their bucket starts, in log order
    by_user: dict[str, tuple[list[tuple[int, ...]], list[datetime]]] = {}
    left_out: set[str] = set()
    # the log's timestamps are UTC (parse_rfc3339), so date() is the UTC date
    starts = bucket_start_memo(config.granularity)
    for user_id, timestamp, text, _, _ in store.iter_posts():
        user = by_user.get(user_id)
        if user is None:
            if lacks_scope(user_id):
                left_out.add(user_id)
                continue
            user = by_user[user_id] = ([], [])
        user[0].append(interner.ids(text))
        user[1].append(starts[timestamp.date()])
    meta_path = store.derived_dir(META_SCOPE, config_hash) / META_JSON
    # until the new one is written, no analysis.json vouches for old files
    with store_io():
        meta_path.unlink(missing_ok=True)
    if not by_user:
        return AnalyzeSummary(
            users=0, posts=0, model_trained=False, config_hash=config_hash,
            left_out=sorted(left_out),
        )

    tokens, tokens_of = interner.tokens, interner.tokens_of
    # Only a post that holds an emoticon can be a training document; they
    # go user by user in order of first post, each user's in log order.
    emoticons = {i for i, token in enumerate(tokens) if token.kind is TokenKind.EMOTICON}
    with_emoticon = (
        ids for posts, _ in by_user.values() for ids in posts if not emoticons.isdisjoint(ids)
    )
    model: NBModel | None
    try:
        # no local holds the pairs: they are freed once the model is trained
        model = classifier.train_nb(
            classifier.training_pairs(map(tokens_of, with_emoticon), lexicon), n_max=config.n_max
        )
    except UntrainableError:
        model = None
    trained = model is not None

    if model is not None:
        with replacing(store.derived_dir(MODEL_SCOPE, config_hash) / MODEL_JSON) as handle:
            model.to_json(handle)

    users = sorted(by_user)
    # the dense gram id of each id gram of the run, in order of first count
    gram_ids: dict[tuple[int, ...], int] = _Memo(lambda _: len(gram_ids))
    # per user: the dense ids of the user's grams, their counts, the posts
    profiles: dict[str, tuple[array, array, int]] = {}
    post_count = 0
    # @all's count of each dense gram id
    totals = array("Q")
    # (bucket start, the user's row of columns in that bucket) over all users
    user_rows: list[tuple[datetime, tuple[int, ...]]] = []
    for user_id in users:
        posts, starts = by_user.pop(user_id)
        counts = Counter(ngrams.interned_grams(posts, config.n_max))
        gids = array("I", map(gram_ids.__getitem__, counts))
        profiles[user_id] = (gids, array("I", counts.values()), len(posts))
        post_count += len(posts)
        totals.extend(repeat(0, len(gram_ids) - len(totals)))
        for gid, count in zip(gids, counts.values()):
            totals[gid] += count
        del counts
        records = []
        for start, ids in zip(starts, posts):
            label = classifier.classify_post(tokens_of(ids), lexicon, model)
            hits = label.hits
            row = tuple([hits.get(cls, 0) for cls in ALL_CLASSES]) if hits else _NO_HITS
            records.append((start, (label.labels, row)))
        buckets, groups = bucketize(records, config.granularity)
        label_groups = [[labels for labels, _ in group] for group in groups]
        sums = [emotion_series(buckets, label_groups, cls).counts for cls in ALL_CLASSES]
        sums.append(list(map(len, groups)))
        sums += _bucket_sums([[row for _, row in group] for group in groups])
        _write_series(store, user_scope(user_id), buckets, sums, config_hash)
        user_rows.extend(zip([bucket.start for bucket in buckets], zip(*sums)))
    # one bucketize over the users' bucket starts lines their rows up
    buckets, groups = bucketize(user_rows, config.granularity)
    _write_series(store, ALL_SCOPE, buckets, _bucket_sums(groups), config_hash)
    # The model and the records are done with: the ranking and the
    # ngrams.csv writes, analyze's last large allocations, run without them.
    del model, records, label_groups

    # the ranking empties gram_ids as it renders the grams
    ranking = ngrams.GramRanking(gram_ids, tokens)
    del gram_ids
    for user_id in users:
        gids, counts, user_posts = profiles.pop(user_id)
        profile = ngrams.NGramProfile(user_id, dict(zip(gids, counts)), user_posts)
        ngrams.write_ngram_csv(
            store.derived_dir(user_scope(user_id), config_hash) / NGRAMS_CSV, profile, ranking
        )
    pooled = ngrams.NGramProfile("all", dict(enumerate(totals)), post_count)
    ngrams.write_ngram_csv(store.derived_dir(ALL_SCOPE, config_hash) / NGRAMS_CSV, pooled, ranking)

    meta = {
        "schema": CONFIG_SCHEMA,
        "config": config.semantic_fields(),
        "config_hash": config_hash,
        "record_count": store.record_count,
        "users": users,
        "model_trained": trained,
    }
    with replacing(meta_path) as handle:
        write_json(handle, meta)
    return AnalyzeSummary(
        users=len(users),
        posts=post_count,
        model_trained=trained,
        config_hash=config_hash,
        left_out=sorted(left_out),
    )


def _bucket_sums(groups: list[list[tuple[int, ...]]]) -> list[list[int]]:
    """Column k holds, per bucket, the sum of field k of the bucket's rows.
    The first bucket of a bucketize is never empty."""
    zero = [0] * len(groups[0][0])
    sums = [list(map(sum, zip(*rows))) or zero for rows in groups]
    return [list(column) for column in zip(*sums)]


def _write_series(
    store: Store, scope: str, buckets: list[TimeBucket], columns: list[list[int]], config_hash: str
) -> None:
    """A scope's series.csv and occurrences.csv, from its columns: the series
    counts in SERIES_CLASS_KEYS order, then the occurrences in
    OCCURRENCE_CLASS_KEYS order."""
    starts = [bucket.key for bucket in buckets]
    series = dict(zip(SERIES_CLASS_KEYS, columns))
    occurrences = dict(zip(OCCURRENCE_CLASS_KEYS, columns[len(SERIES_CLASS_KEYS) :]))
    out_dir = store.derived_dir(scope, config_hash)
    write_series_csv(out_dir / SERIES_CSV, SeriesTable(starts, series, series[VOLUME]))
    write_occurrence_csv(out_dir / OCCURRENCES_CSV, starts, occurrences)


# -- reading the cache ------------------------------------------------------


def resolve_analysis(store: Store, config: AnalysisConfig) -> dict:
    """Locate the analysis meta for this config; errors are store errors so
    the CLI maps them to exit 3."""
    meta_path = store.derived_dir(META_SCOPE, config.config_hash) / META_JSON
    try:
        with store_io():
            if not meta_path.exists():
                raise StoreError("not-analyzed", "run `facewall analyze` first")
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError):  # not JSON or UTF-8; nested too deep
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
        # analyze lists no user id that is empty or too long for a directory name
        and all(isinstance(user, str) and not lacks_scope(user) for user in meta["users"])
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
    with store_io():
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
    for cls in LEXICON_CLASSES:
        series = table.to_series(cls.value, user_id, granularity)
        flags.extend(zscore_flags(series, detector.window, detector.z_thresh, detector.min_hits))
    flags.extend(
        shift_flags(
            table.counts, table.totals, table.buckets(granularity),
            detector.window, detector.jsd_thresh, detector.min_total,
        )
    )
    return build_report(user_id, flags, detector)
