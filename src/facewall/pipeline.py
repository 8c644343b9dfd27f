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
from datetime import date
from itertools import repeat

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
    BucketSeries,
    DetectorConfig,
    Flag,
    bucket_start_memo,
    bucketize,
    emotion_series,
    read_occurrence_csv,
    read_series_csv,
    report_entry,
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
        return sha256(_canonical_json(self.semantic_fields()).encode("ascii")).hexdigest()[:12]


def _canonical_json(value) -> str:
    """The text config_hash digests. Unlike ==, it tells true from 1 and
    3.0 from 3."""
    return json.dumps(value, sort_keys=True)


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
    starts, one shared date per UTC day (bucket_start_memo); the
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
    by_user: dict[str, tuple[list[tuple[int, ...]], list[date]]] = {}
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
    user_rows: list[tuple[date, tuple[int, ...]]] = []
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
        sums = [emotion_series(buckets, label_groups, key).counts for key in SERIES_CLASS_KEYS]
        sums += _bucket_sums([[row for _, row in group] for group in groups])
        _write_series(store, user_scope(user_id), buckets, sums, config_hash)
        user_rows.extend(zip(buckets, zip(*sums)))
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
    store: Store, scope: str, buckets: list[date], columns: list[list[int]], config_hash: str
) -> None:
    """A scope's series.csv and occurrences.csv, from its columns: the series
    counts in SERIES_CLASS_KEYS order, then the occurrences in
    OCCURRENCE_CLASS_KEYS order."""
    series = dict(zip(SERIES_CLASS_KEYS, columns))
    occurrences = dict(zip(OCCURRENCE_CLASS_KEYS, columns[len(SERIES_CLASS_KEYS) :]))
    out_dir = store.derived_dir(scope, config_hash)
    write_series_csv(out_dir / SERIES_CSV, buckets, series)
    write_occurrence_csv(out_dir / OCCURRENCES_CSV, buckets, occurrences)


# -- reading the cache ------------------------------------------------------


def resolve_analysis(store: Store, config: AnalysisConfig) -> list[str]:
    """The users of the analysis the config names, whose analysis.json must
    state that config; errors are store errors, so the CLI maps them to
    exit 3."""
    meta_path = store.derived_dir(META_SCOPE, config.config_hash) / META_JSON
    try:
        with store_io():
            if not meta_path.exists():
                raise StoreError("not-analyzed", "run `facewall analyze` first")
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        stated = _canonical_json(meta.get("config")) if isinstance(meta, dict) else None
    except (ValueError, RecursionError):  # not JSON or UTF-8; nested too deep
        raise artifact_error("corrupt-artifact", META_SCOPE, META_JSON) from None
    users = meta.get("users") if isinstance(meta, dict) else None
    if not (
        isinstance(users, list)
        and stated == _canonical_json(config.semantic_fields())
        and type(meta.get("record_count")) is int  # nor a bool
        # analyze lists ids sorted, each once, none empty or too long for a directory name
        and all(isinstance(user, str) and not lacks_scope(user) for user in users)
        and sorted(set(users)) == users
    ):
        raise artifact_error("corrupt-artifact", META_SCOPE, META_JSON)
    if meta["record_count"] != store.record_count:
        raise StoreError("stale-analysis", "store changed since analyze; re-run `facewall analyze`")
    return users


def artifact_error(reason: str, scope: str, name: str) -> StoreError:
    """A missing or unreadable derived file: a partial or crashed analyze
    (or damage since), which a fresh analyze repairs."""
    return StoreError(reason, f"{scope}/{name}; re-run `facewall analyze`")


def _load(store: Store, config: AnalysisConfig, scope: str, name: str, read):
    """read(data) of the bytes of one derived file, read once: a missing or
    not regular file is missing-artifact, a failed read is store-io, and
    bytes read cannot parse are corrupt-artifact."""
    path = store.derived_dir(scope, config.config_hash) / name
    with store_io():
        if not path.is_file():
            raise artifact_error("missing-artifact", scope, name)
        data = path.read_bytes()
    try:
        return read(data)
    except (ValueError, csv.Error):
        raise artifact_error("corrupt-artifact", scope, name) from None


def load_series(store: Store, config: AnalysisConfig, scope: str) -> tuple[list[date], dict]:
    read = lambda data: read_series_csv(data, config.granularity)  # noqa: E731
    return _load(store, config, scope, SERIES_CSV, read)


def load_occurrence_counts(
    store: Store, config: AnalysisConfig, scope: str, starts: list[date]
) -> dict[str, list[int]]:
    """A scope's occurrence columns; an occurrences.csv whose bucket starts
    are not the given starts of its series.csv is corrupt-artifact."""

    def read(data: bytes) -> dict[str, list[int]]:
        occurrence_starts, counts = read_occurrence_csv(data)
        if occurrence_starts != starts:
            raise ValueError("occurrences.csv and series.csv differ in bucket starts")
        return counts

    return _load(store, config, scope, OCCURRENCES_CSV, read)


def load_export(store: Store, config: AnalysisConfig, scope: str, what: str) -> bytes:
    """The bytes of a scope's series.csv (what "series") or ngrams.csv (what
    "ngrams"), read once and checked as detect and chart check what they
    read: the export is the bytes that passed."""

    def checked(data: bytes) -> bytes:
        if what == "series":
            read_series_csv(data, config.granularity)
        else:
            ngrams.read_ngram_csv(data)
        return data

    return _load(store, config, scope, SERIES_CSV if what == "series" else NGRAMS_CSV, checked)


# -- detection --------------------------------------------------------------


def detect_store(store: Store, config: AnalysisConfig, detector: DetectorConfig) -> list[dict]:
    """report.json's entries: one per analyzed user, in the analysis's
    user order, each the user's report_entry."""
    detector.validate()
    entries = []
    for user_id in resolve_analysis(store, config):
        buckets, counts = load_series(store, config, user_scope(user_id))
        flags = detect_user(buckets, counts, detector)
        entries.append(report_entry(user_id, detector, flags, config.granularity))
    return entries


def detect_user(
    buckets: list[date], counts: dict[str, list[int]], detector: DetectorConfig
) -> list[Flag]:
    """Both detectors' flags over one user's cached series."""
    flags = []
    for cls in LEXICON_CLASSES:
        series = BucketSeries(cls.value, buckets, counts[cls.value], counts[VOLUME])
        flags.extend(zscore_flags(series, detector.window, detector.z_thresh, detector.min_hits))
    flags.extend(
        shift_flags(
            counts, counts[VOLUME], buckets,
            detector.window, detector.jsd_thresh, detector.min_total,
        )
    )
    return flags
