"""The flat analyze kernels against the straightforward code they replaced,
kept here as references: the scanner with an explicit whitespace branch,
the frozen-dataclass token, per-post feature bags merged into the profile
and the class tables, Counter-based rule hits, the model stage on each
post's whole feature bag, per-item gram rendering in
model.json and in ngrams.csv, the whole of analyze built from the
per-token API, and ingest with each record parsed, keyed and written on its
own."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
import unicodedata
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, strategies as st

from facewall import classifier
from facewall.classifier import (
    METHOD_EMOTICON,
    METHOD_LEXICON,
    METHOD_MODEL,
    METHOD_NEUTRAL,
    PostLabel,
    UntrainableError,
    classify_post,
    train_nb,
    training_pairs,
)
from facewall.cli import main
from facewall.ingest import REQUIRED_FIELDS, RecordRejected, load_corpus, user_scope
from facewall.lexer import Token, TokenKind, prune, tokenize
from facewall.lexicon import ALL_CLASSES, EmotionClass, default_lexicon, lexicon_from_dict
from facewall.ngrams import (
    GRAM_SEP,
    NGramProfile,
    accumulate,
    ngrams_of_orders,
    render_gram,
    write_ngram_csv,
)
from facewall.pipeline import AnalysisConfig, analyze_store
from facewall.rfc3339 import canonical_text, format_rfc3339, parse_rfc3339
from facewall.store import ALL_SCOPE, MODEL_SCOPE, Store
from facewall.timeline import (
    SERIES_CLASS_KEYS,
    VOLUME,
    SeriesTable,
    bucketize,
    emotion_series,
    write_occurrence_csv,
    write_series_csv,
)
from helpers import emoticon, interned_profile, model_json, post_record, word, write_jsonl

LEX = default_lexicon()
TABLE = LEX.emoticon_table()
LEXICON_WORDS = sorted(w for ws in LEX.words.values() for w in ws)
EMOTICONS = sorted(LEX.all_emoticons()) + [";-)"]  # ";-)" is in no class
OTHER_WORDS = ["sun", "rain", "day", "3", "weather", "é"]


def random_post(rng: random.Random) -> list[Token]:
    tokens = []
    for at in range(rng.randrange(0, 9)):
        pick = rng.random()
        if pick < 0.2:
            tokens.append(emoticon(rng.choice(EMOTICONS), at * 16))
        elif pick < 0.4:
            tokens.append(word(rng.choice(LEXICON_WORDS), at * 16))
        elif pick < 0.5:
            tokens.append(Token(TokenKind.NUMBER, rng.choice(["3", "42"]), at * 16, at * 16 + 2))
        else:
            tokens.append(word(rng.choice(OTHER_WORDS), at * 16))
    return tokens


# -- tokens -----------------------------------------------------------------------


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The scanner with a whitespace branch that the loop skips."""
    branches = ["(?P<WS>\\s+)"]
    branches.append("(?P<EMOTICON>%s)" % "|".join(re.escape(e) for e in TABLE.entries))
    branches += [
        r"(?P<URL>(?i:https?://|www\.)\S*)",
        r"(?P<MENTION>@[\w.]{1,50})",
        r"(?P<NUMBER>\d+(?:[.,]\d+)*)",
        r"(?P<WORD>[^\W\d_]+(?:['\-][^\W\d_]+)*)",
        r"(?P<PUNCT>\S)",
    ]
    tokens = []
    for m in re.compile("|".join(branches)).finditer(unicodedata.normalize("NFC", text)):
        kind = m.lastgroup
        if kind == "WS":
            continue
        surface = m.group().casefold() if kind == "WORD" else m.group()
        tokens.append((kind, surface, m.start(), m.end()))
    return tokens


def test_tokenize_matches_the_whitespace_branch_scanner():
    rng = random.Random(2024)
    pieces = [" ", "  ", "\t", "\n", " ", "　", ":-)", ":(", "<3", "=(", "the", "Ünïcode",
              "don't", "1,234.5", "@bob", "http://x.y/z", "www.a.b", "!", "#", "-", "'", "λ"]
    for _ in range(500):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 12)))
        got = [(t.kind.name, t.surface, t.start, t.end) for t in tokenize(text, TABLE)]
        assert got == reference_tokenize(text), text


def test_token_keeps_its_value_surface():
    token = Token(TokenKind.WORD, "happy", 3, 8)
    assert (token.kind, token.surface, token.start, token.end) == (TokenKind.WORD, "happy", 3, 8)
    assert token.span == (3, 8)
    twin = Token(TokenKind.WORD, "happy", 3, 8)
    assert token == twin and hash(token) == hash(twin) and len({token, twin}) == 1
    assert token != Token(TokenKind.WORD, "happy", 4, 9)
    assert token != Token(TokenKind.EMOTICON, "happy", 3, 8)
    assert repr(token) == "Token(kind=<TokenKind.WORD: 'word'>, surface='happy', start=3, end=8)"
    for field in ("kind", "surface", "start", "end"):
        with pytest.raises(AttributeError):
            setattr(token, field, None)
    with pytest.raises(AttributeError):
        token.extra = 1
    assert tokenize("happy", TABLE) == [Token(TokenKind.WORD, "happy", 0, 5)]


def test_token_hash_is_the_frozen_dataclass_hash():
    # a frozen dataclass hashes the tuple of its fields
    token = Token(TokenKind.EMOTICON, ":-)", 0, 3)
    assert hash(token) == hash((TokenKind.EMOTICON, ":-)", 0, 3))


def test_enum_members_hash_by_identity_and_stay_distinct():
    for enum in (TokenKind, EmotionClass):
        assert len({*enum}) == len(enum)
        for member in enum:
            assert hash(member) == object.__hash__(member)
            assert {member: 1}[enum[member.name]] == 1


# -- n-gram profiles and the model's class tables -------------------------------------


def reference_bag(tokens, n_max: int) -> Counter:
    """A post's feature bag, window by window from slices."""
    keys = [(t.kind.name, t.surface) for t in tokens]
    return Counter(
        tuple(keys[i : i + n]) for n in range(1, n_max + 1) for i in range(len(keys) - n + 1)
    )


def reference_accumulate(profile: NGramProfile, tokens, n_max: int) -> None:
    profile.counts.update(reference_bag(tokens, n_max))
    profile.post_count += 1


def test_feature_bag_matches_the_sliced_windows():
    rng = random.Random(303)
    for _ in range(300):
        tokens = random_post(rng)
        for n_max in (0, 1, 2, 3, 4):
            bag = ngrams_of_orders(tokens, n_max)
            assert bag == reference_bag(tokens, n_max)
            assert list(bag) == list(reference_bag(tokens, n_max))


def test_accumulate_matches_merging_each_bag():
    rng = random.Random(606)
    for n_max in (1, 2, 3, 5):
        fast, slow = NGramProfile("u"), NGramProfile("u")
        for _ in range(60):
            tokens = prune(random_post(rng))
            accumulate(fast, tokens, n_max)
            reference_accumulate(slow, tokens, n_max)
        assert fast.counts == slow.counts and fast.post_count == slow.post_count
        assert list(fast.counts) == list(slow.counts)


def reference_feature_tables(docs, n_max: int) -> dict[EmotionClass, Counter]:
    features: dict[EmotionClass, Counter] = {}
    for tokens, cls in docs:
        content = [t for t in tokens if t.kind is not TokenKind.EMOTICON]
        features.setdefault(cls, Counter()).update(reference_bag(content, n_max))
    return features


def reference_to_json(model) -> str:
    payload = {
        "schema": 1,
        "alpha": model.alpha,
        "n_max": model.n_max,
        "classes": [cls.value for cls in model.classes],
        "doc_counts": {cls.value: model.doc_counts[cls] for cls in model.classes},
        "vocabulary": sorted(render_gram(gram) for gram in model.vocabulary),
        "features": {
            cls.value: {
                render_gram(gram): count
                for gram, count in sorted(
                    model.feature_counts[cls].items(), key=lambda kv: render_gram(kv[0])
                )
            }
            for cls in model.classes
        },
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def test_train_nb_tables_match_the_per_document_bags():
    rng = random.Random(909)
    classes = [EmotionClass.HAPPY, EmotionClass.SAD, EmotionClass.LOVE]
    for n_max in (1, 2, 3):
        docs = [(random_post(rng), rng.choice(classes)) for _ in range(80)]
        model = train_nb(docs, n_max=n_max, min_train_docs=1)
        reference = reference_feature_tables(docs, n_max)
        for cls in model.classes:
            table = model.feature_counts[cls]
            assert table == reference[cls]
            # key order feeds the model's float sums, so it must not move
            assert list(table) == list(reference[cls])
        assert model_json(model) == reference_to_json(model)


# -- the cascade's rule hits ----------------------------------------------------------


def reference_rule_label(tokens, lexicon=LEX):
    """The emoticon and keyword stages as Counters, as before the one-pass count."""
    def hits(kind, lookup):
        counted = Counter()
        for token in tokens:
            if token.kind is kind and token.surface in lookup:
                counted[lookup[token.surface]] += 1
        return counted

    e_hits = hits(TokenKind.EMOTICON, lexicon.emoticon_to_class)
    w_hits = hits(TokenKind.WORD, lexicon.word_to_class)
    if e_hits:
        scores = {c: float(n) for c, n in e_hits.items()}
        return frozenset(e_hits), METHOD_EMOTICON, scores, e_hits + w_hits
    if w_hits:
        best = max(w_hits.values())
        winners = frozenset(c for c, n in w_hits.items() if n == best)
        return winners, METHOD_LEXICON, {c: float(n) for c, n in w_hits.items()}, w_hits
    return None


def test_rule_stages_match_the_counter_cascade():
    rng = random.Random(1313)
    for _ in range(800):
        tokens = random_post(rng)
        expected = reference_rule_label(tokens)
        label = classify_post(tokens, LEX)
        if expected is None:
            assert label.method == "neutral" and not label.hits
            continue
        labels, method, scores, hits = expected
        assert (label.labels, label.method, label.scores) == (labels, method, scores)
        assert list(label.scores) == list(scores)
        assert isinstance(label.hits, Counter)
        assert label.hits == hits and list(label.hits) == list(hits)


def reference_classify(tokens, lexicon, model) -> PostLabel:
    """The cascade with the model stage on the post's whole feature bag and
    each likelihood computed where it is added, as before the unigram
    pre-test and the cached likelihood rows."""
    rules = reference_rule_label(tokens, lexicon)
    if rules is not None:
        return PostLabel(*rules)
    neutral = frozenset({EmotionClass.NEUTRAL})
    bag = reference_bag(tokens, model.n_max) if model is not None else {}
    if not any(gram in model.vocabulary for gram in bag):
        return PostLabel(neutral, METHOD_NEUTRAL, {}, Counter())
    logs = {cls: math.log(model.doc_counts[cls]) for cls in model.classes}
    for gram, count in bag.items():
        if gram in model.vocabulary:
            for cls in model.classes:
                logs[cls] += count * model.log_likelihood(gram, cls)
    top = max(logs.values())
    weights = {cls: math.exp(score - top) for cls, score in logs.items()}
    total = sum(weights.values())
    posterior = {cls: weights[cls] / total for cls in model.classes}
    winners = frozenset(cls for cls in model.classes if logs[cls] == top)
    if len(winners) == 1:
        return PostLabel(winners, METHOD_MODEL, posterior, Counter())
    return PostLabel(neutral, METHOD_NEUTRAL, posterior, Counter())


def assert_same_label(got: PostLabel, want: PostLabel) -> None:
    assert got == want
    assert list(got.scores) == list(want.scores)
    assert isinstance(got.hits, Counter) and list(got.hits) == list(want.hits)


# emoticons and words of the default lexicon's classes (";-)" is in none),
# and words and numbers outside it
CASCADE_TOKENS = (
    [(TokenKind.EMOTICON, e) for e in (":-)", ":(", "<3", ";-)")]
    + [(TokenKind.WORD, w) for w in ("happy", "sad", "love", "sigh")]
    + [(TokenKind.WORD, w) for w in ("sun", "rain", "day", "weather", "é", "3")]
    + [(TokenKind.NUMBER, n) for n in ("3", "42")]
)


def as_tokens(picks) -> list[Token]:
    """(kind, surface) pairs as tokens at spaced positions."""
    return [
        Token(kind, surface, at * 16, at * 16 + len(surface))
        for at, (kind, surface) in enumerate(picks)
    ]


posts_of = st.lists(st.sampled_from(CASCADE_TOKENS), max_size=8).map(as_tokens)


trainable_classes = st.sampled_from([EmotionClass.HAPPY, EmotionClass.SAD, EmotionClass.LOVE])


@given(
    st.lists(st.tuples(posts_of, trainable_classes), max_size=12),
    st.lists(posts_of, min_size=1, max_size=6),
    st.integers(1, 4),
)
# an exact tie, which is Neutral with a posterior, and a post out of vocabulary
@example(
    [(as_tokens([(TokenKind.WORD, "sun"), (TokenKind.WORD, "day")]), EmotionClass.HAPPY),
     (as_tokens([(TokenKind.WORD, "rain"), (TokenKind.WORD, "day")]), EmotionClass.SAD)],
    [as_tokens([(TokenKind.WORD, "day")]), as_tokens([(TokenKind.WORD, "weather")])],
    2,
)
def test_classify_post_is_the_full_bag_cascade(docs, posts, n_max):
    try:
        model = train_nb(docs, n_max=n_max, min_train_docs=1)
    except UntrainableError:
        model = None
    for tokens in posts:
        assert_same_label(classify_post(tokens, LEX, model), reference_classify(tokens, LEX, model))


# -- ngrams.csv rows -------------------------------------------------------------------


def reference_ngram_csv(profile: NGramProfile) -> bytes:
    """Every row rendered, then all rows sorted, as before grams were ranked."""
    rows = sorted((len(gram), render_gram(gram), count) for gram, count in profile.counts.items())
    out = io.StringIO(newline="")
    csv.writer(out).writerows([["n", "gram", "count"]] + rows)
    return out.getvalue().encode("utf-8")


# grams whose CSV field needs quoting: a comma, a quote, a line break
QUOTED_GRAMS = [
    (("NUMBER", "1,000"),),
    (("EMOTICON", ':"('), ("WORD", "x")),
    (("EMOTICON", "a\nb"), ("NUMBER", "2.5"), ("WORD", "y")),
]


def test_ngram_csv_is_the_sorted_rendered_rows(tmp_path):
    rng = random.Random(4242)
    # two bigrams that render alike (an emoticon holding GRAM_SEP), with
    # different counts: the rows must still come out by count
    left = (("EMOTICON", f"x{GRAM_SEP}EMOTICON:y"), ("WORD", "z"))
    right = (("EMOTICON", "x"), ("EMOTICON", f"y{GRAM_SEP}WORD:z"))
    assert render_gram(left) == render_gram(right)
    path = tmp_path / "ngrams.csv"
    for _ in range(40):
        profile = NGramProfile("u")
        for _ in range(rng.randrange(0, 6)):
            accumulate(profile, random_post(rng), rng.choice((1, 2, 3)))
        profile.counts[left] += rng.randrange(1, 4)
        profile.counts[right] += rng.randrange(1, 4)
        for quoted in QUOTED_GRAMS:
            profile.counts[quoted] += rng.randrange(0, 3)
        write_ngram_csv(path, *interned_profile(profile))
        assert path.read_bytes() == reference_ngram_csv(profile)


# -- analyze from the per-token API ----------------------------------------------------

# Emoticons that are also a word ("xo"), hold a CSV quote (':"('), or render
# alike in a gram (the GRAM_SEP pair); a keyword that case-folds from "ß".
ORACLE_CLASSES = {
    "happy": {"words": ["happy", "great", "xo"], "emoticons": [":-)", ":)"]},
    "sad": {"words": ["sad", "gloomy", "Straße"], "emoticons": [":(", ':"(']},
    "love": {"words": ["love"], "emoticons": ["<3", "xo", f"x{GRAM_SEP}EMOTICON:y"]},
    "disappointment": {"words": ["sigh"], "emoticons": [f"y{GRAM_SEP}WORD:z", "x"]},
}
ORACLE_LEXICON = lexicon_from_dict({"classes": ORACLE_CLASSES})
# Emoticons with whitespace inside, whose matches span two words, so the
# interner scans each whole text.
SPACED_EMOTICONS = {"happy": [": )"], "love": ["o\u3000o"]}
SPACED_LEXICON = lexicon_from_dict(
    {
        "classes": {
            name: {**entry, "emoticons": entry["emoticons"] + SPACED_EMOTICONS.get(name, [])}
            for name, entry in ORACLE_CLASSES.items()
        }
    }
)

ORACLE_PIECES = [
    "The", "AN", "the", "a", "café", "cafe\u0301", "ß", "SS", "Straße", "STRASSE", "xo", "XO",
    "<3", "3", "1,000", '"quoted"', ':"(', ":-)", ":)", ":(", "happy", "great", "sad", "gloomy",
    "love", "sigh", "sun", "rain", "http://a.b/c?d=1,2", "@bob", "!", f"x{GRAM_SEP}EMOTICON:y",
    f"y{GRAM_SEP}WORD:z", "x", "z",
]
ORACLE_ONLY = [":-)", "<3", "xo", "http://a.b/c?d=1,2", "@bob", "@bob http://x.y", "The AN a", ""]
SPACED_PIECES = ORACLE_PIECES + [": )", "o\u3000o", ":", ")", "o", "o\u3000o\u3000o"]


def adversarial_records(seed: int, pieces: list[str], only: list[str]) -> list[dict]:
    rng = random.Random(seed)
    start = datetime(2014, 12, 30, tzinfo=timezone.utc)
    records = []
    for i in range(240):
        # months with no posts in between, so buckets must be filled in
        day = rng.choice([0, 1, 3, 40, 41, 120, 300, 301, 700])
        stamp = start + timedelta(days=day, hours=rng.randrange(24))
        if i % 9 == 0:
            text = rng.choice(only)
        else:
            text = " ".join(rng.choice(pieces) for _ in range(rng.randrange(1, 8)))
        user = rng.choice(["u1", "u2", "ü/3", ".hidden"])
        records.append(post_record(user, stamp.strftime("%Y-%m-%dT%H:%M:%SZ"), text))
    return records


def with_edge_posts(records: list[dict], emoticon: str) -> list[dict]:
    """The records after a first post that holds the emoticon, so its token
    is interned by the post that must see it as an emoticon, and before
    the posts of a user whose every post prunes to no tokens and of a user
    with a single post."""
    first = post_record("u1", "2015-01-02T00:00:00Z", f"sun {emoticon} rain")
    mute = [
        post_record("mute", f"2015-0{month}-05T00:00:00Z", text)
        for month, text in enumerate(["@bob http://x.y", "The AN a", "! !", ""], 1)
    ]
    once = post_record("once", "2016-02-29T12:00:00Z", "gloomy sun :(")
    return [first, *records, *mute, once]


def reference_scope(out, records, profile, granularity) -> None:
    """A scope's derived files, its series and occurrences bucketed from
    its own posts."""
    out.mkdir(parents=True)
    buckets, groups = bucketize(records, granularity)
    starts = [bucket.key for bucket in buckets]
    labels = [[label.labels for label in group] for group in groups]
    counts = {key: emotion_series(buckets, labels, key).counts for key in SERIES_CLASS_KEYS}
    write_series_csv(out / "series.csv", SeriesTable(starts, counts, counts[VOLUME]))
    hits = [sum((label.hits for label in group), Counter()) for group in groups]
    occurrences = {cls.value: [bucket[cls] for bucket in hits] for cls in ALL_CLASSES}
    write_occurrence_csv(out / "occurrences.csv", starts, occurrences)
    (out / "ngrams.csv").write_bytes(reference_ngram_csv(profile))


def reference_training_pairs(docs, lexicon):
    """Distant supervision as the rule states it: the set of classes that a
    document's emoticons assert; a one-class set labels the document."""
    lookup = lexicon.emoticon_to_class
    pairs = []
    for tokens in docs:
        classes = {
            lookup[t.surface] for t in tokens
            if t.kind is TokenKind.EMOTICON and t.surface in lookup
        }
        if len(classes) == 1:
            pairs.append((tokens, classes.pop()))
    return pairs


# the cascade's tokens plus the oracle lexicon's: "xo" a keyword of one class
# and an emoticon of another, "x" an emoticon, "great" and "gloomy" keywords
TRAINING_TOKENS = CASCADE_TOKENS + [
    (kind, surface)
    for kind in (TokenKind.EMOTICON, TokenKind.WORD)
    for surface in ("xo", ":)", "x", "great", "gloomy")
]


@given(
    st.sampled_from([LEX, ORACLE_LEXICON]),
    st.lists(st.lists(st.sampled_from(TRAINING_TOKENS), max_size=8).map(as_tokens), max_size=12),
)
def test_training_pairs_is_the_one_class_emoticon_rule(lexicon, docs):
    assert training_pairs(docs, lexicon) == reference_training_pairs(docs, lexicon)


def reference_analyze(store, lexicon, granularity, n_max, out) -> Counter:
    """The derived files, post by post through tokenize, prune, the
    full-bag cascade and the sliced-window feature bags, every scope
    bucketed from its own posts, every ngrams.csv row rendered and sorted.
    Returns how many posts took each cascade route."""
    table = lexicon.emoticon_table()
    by_user: dict = {}
    for user_id, timestamp, text, _, _ in store.iter_posts():
        tokens = prune(tokenize(text, table))
        by_user.setdefault(user_id, []).append((timestamp, tokens))
    docs = [tokens for posts in by_user.values() for _, tokens in posts]
    try:
        model = train_nb(reference_training_pairs(docs, lexicon), n_max=n_max)
    except UntrainableError:
        model = None
    everyone = NGramProfile("all")
    every_record = []
    routes = Counter()
    for user in sorted(by_user):
        profile = NGramProfile(user)
        records = []
        for stamp, tokens in by_user[user]:
            label = reference_classify(tokens, lexicon, model)
            routes[cascade_route(label, tokens)] += 1
            records.append((stamp, label))
            reference_accumulate(profile, tokens, n_max)
            reference_accumulate(everyone, tokens, n_max)
        reference_scope(out / user_scope(user), records, profile, granularity)
        every_record += records
    reference_scope(out / ALL_SCOPE, every_record, everyone, granularity)
    if model is not None:
        (out / MODEL_SCOPE).mkdir()
        (out / MODEL_SCOPE / "model.json").write_text(model_json(model), encoding="utf-8")
    return routes


def cascade_route(label: PostLabel, tokens) -> str:
    """The method, with the two ways to Neutral in the model stage told apart."""
    if label.method != METHOD_NEUTRAL:
        return label.method
    if label.scores:
        return "tie"
    return "out-of-vocabulary" if tokens else "no-tokens"


def tie_records() -> list[dict]:
    """Two equal classes that share a word: alone, "day" is an exact tie,
    and so are "sun rain" and "rain sun"; "zebra" and "42" were never seen
    in training."""
    texts = ["sun day :-)"] * 5 + ["rain day :("] * 5 + [
        "day", "Day!", "sun rain", "rain sun", "zebra", "zebra 42 @bob", "sun", "rain day",
        "happy day", "", "@bob http://x.y",
    ]
    start = datetime(2015, 1, 3, tzinfo=timezone.utc)
    return [
        post_record(["u1", "u2"][i % 2], (start + timedelta(days=37 * i)).strftime(
            "%Y-%m-%dT%H:%M:%SZ"), text)
        for i, text in enumerate(texts)
    ]


def derived_files(root, config_hash=None) -> dict[str, bytes]:
    """scope/name -> bytes, of a store's derived files or a reference tree."""
    files = {}
    for scope in sorted(root.iterdir()):
        directory = scope / config_hash if config_hash else scope
        for path in sorted(directory.iterdir()):
            files[f"{scope.name}/{path.name}"] = path.read_bytes()
    return files


@pytest.mark.parametrize(
    "corpus, granularity, n_max, trained",
    [
        ("adversarial", "month", 3, True),
        ("adversarial", "week", 1, True),
        ("adversarial", "quarter", 4, True),
        ("one-class", "month", 3, False),
        ("ties", "month", 3, True),
        ("ties", "week", 1, True),
        ("inner-space", "month", 3, True),
    ],
)
def test_analyze_matches_the_per_token_reference(tmp_path, corpus, granularity, n_max, trained):
    lexicon = SPACED_LEXICON if corpus == "inner-space" else ORACLE_LEXICON
    if corpus == "adversarial":
        records = with_edge_posts(adversarial_records(77, ORACLE_PIECES, ORACLE_ONLY), "<3")
    elif corpus == "inner-space":
        records = with_edge_posts(
            adversarial_records(79, SPACED_PIECES, ORACLE_ONLY + [": )", "o\u3000o"]), ": )"
        )
    elif corpus == "ties":
        records = tie_records()
    else:
        # every emoticon asserts happy: one trainable class
        emoticons = ORACLE_LEXICON.emoticon_to_class
        happy = EmotionClass.HAPPY
        pieces = [p for p in ORACLE_PIECES if emoticons.get(p, happy) is happy]
        records = with_edge_posts(adversarial_records(78, pieces, ["", ":-)", "@bob"]), ":)")
    store = Store.open(tmp_path / "store", create=True)
    store.append_batch(load_corpus(write_jsonl(tmp_path / "corpus.jsonl", records), "jsonl"))
    config = AnalysisConfig(granularity, n_max, lexicon.digest())
    summary = analyze_store(store, lexicon, config)
    assert summary.model_trained is trained

    routes = reference_analyze(store, lexicon, granularity, n_max, tmp_path / "reference")
    if corpus == "ties":
        assert routes["tie"] == 4 and routes["out-of-vocabulary"] == 2
        assert routes[METHOD_MODEL] == 2 and routes["no-tokens"] == 2
    got = derived_files(store.derived_root, config.config_hash)
    del got["@meta/analysis.json"]
    want = derived_files(tmp_path / "reference")
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("lexicon", [LEX, SPACED_LEXICON], ids=["default", "inner-space"])
def test_analyze_trains_on_the_reference_documents_in_order(tmp_path, monkeypatch, lexicon):
    # model.json does not depend on the order of the documents, so this
    # checks the documents themselves: user by user in order of first post,
    # each user's in log order.
    pieces = SPACED_PIECES + sorted(LEX.all_emoticons())
    records = adversarial_records(80, pieces, ORACLE_ONLY + [": )"])
    store = Store.open(tmp_path / "store", create=True)
    store.append_batch(load_corpus(write_jsonl(tmp_path / "corpus.jsonl", records), "jsonl"))
    trained = []

    def capture(docs, **kwargs):
        trained.append(list(docs))
        return train_nb(trained[-1], **kwargs)

    monkeypatch.setattr(classifier, "train_nb", capture)
    analyze_store(store, lexicon, AnalysisConfig("month", 3, lexicon.digest()))

    table = lexicon.emoticon_table()
    by_user: dict = {}
    for user_id, _, text, _, _ in store.iter_posts():
        by_user.setdefault(user_id, []).append(prune(tokenize(text, table)))
    posts = [tokens for user_posts in by_user.values() for tokens in user_posts]

    def keys(docs):
        return [([(t.kind, t.surface) for t in tokens], cls) for tokens, cls in docs]

    [docs] = trained
    assert len(docs) > 20
    assert keys(docs) == keys(reference_training_pairs(posts, lexicon))


# -- the record path: ingest and the post-log read ------------------------------------

REFERENCE_TIMESTAMP_RE = re.compile(
    r"""^(\d{4})-(\d{2})-(\d{2})
        [Tt\ ]
        (\d{2}):(\d{2}):(\d{2})
        (?:\.(\d+))?
        (?:([Zz])|([+-])(\d{2}):(\d{2}))$""",
    re.VERBOSE | re.ASCII,  # RFC 3339's DIGIT: 0-9 only
)


def reference_parse_rfc3339(text: str) -> datetime:
    """Every stamp through the general pattern, then converted to UTC. It
    raises OverflowError where the conversion leaves years 1-9999."""
    if not isinstance(text, str):
        raise ValueError("timestamp must be a string")
    m = REFERENCE_TIMESTAMP_RE.match(text.strip())
    if m is None:
        raise ValueError(text)
    *fields, frac, zulu, sign, hours, minutes = m.groups()
    year, month, day, hour, minute, second = map(int, fields)
    micro = int(frac[:6].ljust(6, "0")) if frac else 0
    if zulu:
        tz = timezone.utc
    else:
        offset = timedelta(hours=int(hours), minutes=int(minutes))
        tz = timezone(offset if sign == "+" else -offset)
    stamp = datetime(year, month, day, hour, minute, second, micro, tzinfo=tz)
    return stamp.astimezone(timezone.utc)


def reference_fields(obj) -> tuple[str, datetime, str, str | None]:
    """A record's validated fields, or RecordRejected in the documented
    precedence: missing fields in field order, malformed, blank user id,
    bad timestamp."""
    for name in REQUIRED_FIELDS:
        if obj.get(name) is None:
            raise RecordRejected(f"missing-field:{name}")
    user_id, timestamp, text = (obj[name] for name in REQUIRED_FIELDS)
    source = obj.get("source")
    if not all(isinstance(v, str) for v in (user_id, timestamp, text)):
        raise RecordRejected("malformed")
    if source is not None and not isinstance(source, str):
        raise RecordRejected("malformed")
    try:
        "".join((user_id, timestamp, text, source or "")).encode("utf-8")
    except UnicodeEncodeError:
        raise RecordRejected("malformed") from None
    user_id = user_id.strip()
    if not user_id:
        raise RecordRejected("missing-field:user_id")
    try:
        stamp = reference_parse_rfc3339(timestamp)
    except (ValueError, OverflowError):
        raise RecordRejected("bad-timestamp") from None
    return user_id, stamp, text, source


def reference_record(user_id, stamp, text, source) -> tuple[tuple[str, str, str], str]:
    """The dedupe key, formatted stamp and all, and the log line."""
    stamp_text = format_rfc3339(stamp)
    key = (user_id, stamp_text, hashlib.sha256(text.encode("utf-8")).hexdigest())
    record = {"user_id": user_id, "timestamp": stamp_text, "text": text}
    if source is not None:
        record["source"] = source
    return key, json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def reference_ingest(log: str, corpus: str, fmt: str) -> tuple[str, list, int]:
    """The log after ingesting the corpus into a store holding `log`, the
    rejections and the duplicates, each record parsed, keyed and written
    on its own. A line json.loads cannot decode for any reason, and an
    instant past the calendar, are rejections here as in ingest."""
    keys = set()
    for line in io.StringIO(log):
        obj = json.loads(line)
        stamp = reference_parse_rfc3339(obj["timestamp"])
        keys.add(reference_record(obj["user_id"], stamp, obj["text"], obj.get("source"))[0])
    if fmt == "jsonl":
        rows = enumerate((line.rstrip("\n") for line in io.StringIO(corpus)), start=1)
    else:
        reader = csv.DictReader(io.StringIO(corpus, newline=""))
        rows = ((reader.line_num, row) for row in reader)
    written, rejected, duplicates = [], [], 0
    for number, raw in rows:
        try:
            if fmt == "jsonl":
                try:
                    raw = json.loads(raw)
                except (ValueError, RecursionError):
                    raise RecordRejected("malformed") from None
                if not isinstance(raw, dict):
                    raise RecordRejected("malformed")
            raw.pop(None, None)
            key, line = reference_record(*reference_fields(raw))
        except RecordRejected as rejection:
            rejected.append((number, rejection.reason))
            continue
        if key in keys:
            duplicates += 1
            continue
        keys.add(key)
        written.append(line)
    return log + "".join(written), rejected, duplicates


RECORD_PATH_STAMPS = [
    "2015-03-02T10:00:00Z",
    # the same instant as the first, written other ways
    "2015-03-02T15:30:00+05:30", "2015-03-02T10:00:00-00:00", "2015-03-02T10:00:00.000000Z",
    "2015-03-02t10:00:00z", "2015-03-02 10:00:00Z", " 2015-03-02T10:00:00Z\t",
    "２０１５-03-02T10:00:00Z", "2015-03-02T10:00:0٠Z",
    # other instants
    "2015-03-02T10:00:00.5Z", "2015-03-02T10:00:00.123456789+01:00", "2016-02-29T23:59:59Z",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "0999-05-06T07:08:09-23:59",
    # not instants
    "2015-13-01T00:00:00Z", "2015-02-29T00:00:00Z", "2015-03-02T10:00:60Z",
    "2015-03-02T24:00:00Z", "2015-03-02T10:00:00", "2015-03-02T10:00:00+24:00",
    "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-00:01", "2015-3-02T10:00:00Z", "",
]


def record_path_corpus(seed: int) -> list[dict]:
    rng = random.Random(seed)
    texts = ["hi", "hi", "", "x\u2028y", 'q"\\', "\U0001f600 \x00", "line\r\nbreak", "a,b"]
    records = []
    for stamp in RECORD_PATH_STAMPS * 3:
        record = post_record(rng.choice(["u1", " u1 ", "u/2"]), stamp, rng.choice(texts))
        if rng.random() < 0.5:
            record["source"] = rng.choice(["web", "", "ü"])
        records.append(record)
    rng.shuffle(records)
    return records + [
        {"timestamp": "2015-03-02T10:00:00Z", "text": "no user"},
        post_record("u1", None, "null stamp"),
        post_record("u1", "2015-03-02T10:00:00Z", None),
        post_record("  ", "2015-03-02T10:00:00Z", "blank user"),
        post_record(7, "2015-03-02T10:00:00Z", "int user"),
        post_record("u1", 20150302, "int stamp"),
        post_record("u1", "2015-03-02T10:00:00Z", ["list text"]),
        post_record("u1", "2015-03-02T10:00:00Z", "int source", source=3),
        post_record(7, None, "missing beats malformed"),
        post_record("  ", "bad", "blank user beats bad stamp"),
    ]


def record_path_lines(seed: int) -> list[str]:
    lines = [json.dumps(record, ensure_ascii=seed % 2 == 0) for record in record_path_corpus(seed)]
    good = json.dumps(post_record("u3", "2015-03-02T10:00:00Z", "raw"))
    return lines + [
        good,
        "  " + good + " ",
        good.replace('"raw"', '"\\ud800"'),
        good.replace('"u3"', '"\\udfff"'),
        good.replace("raw", "new") + "\r",
        "[1]", "null", "", "not json", '"u1"', "[" * 50_000, "\ufeff" + good,
        good.replace("}", ', "n": ' + "1" * 5000 + "}"),
    ]


def record_path_csv(seed: int) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["user_id", "timestamp", "text", "source", "extra"])
    for record in record_path_corpus(seed):
        row = [record.get(name) for name in ("user_id", "timestamp", "text", "source")]
        row = [value if value is None or isinstance(value, str) else str(value) for value in row]
        writer.writerow(row + ["x"])
    writer.writerow(["u1", "2015-03-02T10:00:00Z"])  # short row
    return out.getvalue()


def ingest_both_ways(tmp_path, log: str, corpus: str, fmt: str) -> None:
    """Ingest through load_corpus and Store.append_batch into a store
    holding `log`, and compare with reference_ingest."""
    root = tmp_path / f"store-{len(list(tmp_path.iterdir()))}"
    store = Store.open(root, create=True)
    store.posts_path.write_text(log, encoding="utf-8")
    path = root.with_suffix("." + fmt)
    path.write_text(corpus, encoding="utf-8")
    batch = load_corpus(path, fmt)
    receipt = store.append_batch(batch)
    want_log, want_rejected, want_duplicates = reference_ingest(log, corpus, fmt)
    assert store.posts_path.read_text(encoding="utf-8") == want_log
    assert batch.rejected == want_rejected
    assert batch.duplicates_dropped + len(batch.posts) - receipt.written == want_duplicates
    assert store.record_count == want_log.count("\n")


@pytest.mark.parametrize("seed", [91, 92])
def test_ingest_matches_the_per_record_reference(tmp_path, seed):
    lines = record_path_lines(seed)
    corpus = "\n".join(lines) + "\n"
    ingest_both_ways(tmp_path, "", corpus, "jsonl")
    # a re-ingest of the whole corpus into a store holding part of it
    part = reference_ingest("", "\n".join(lines[::2]) + "\n", "jsonl")[0]
    ingest_both_ways(tmp_path, part, corpus, "jsonl")
    ingest_both_ways(tmp_path, "", record_path_csv(seed), "csv")
    ingest_both_ways(tmp_path, part, record_path_csv(seed), "csv")


def test_a_hand_written_log_stamp_is_keyed_by_its_canonical_text(tmp_path):
    # the same instant as the corpus's records, in forms ingest never writes
    log = "".join(
        json.dumps(post_record("u1", stamp, "hi"), sort_keys=True) + "\n"
        for stamp in ["2015-03-02T10:00:00+00:00", "2015-03-02T11:00:00.000+01:00"]
    ) + json.dumps(post_record("u2", "2015-03-02 10:00:00z", "hi")) + "\n"
    corpus = "".join(
        json.dumps(post_record(user, "2015-03-02T10:00:00Z", "hi")) + "\n"
        for user in ["u1", "u2", "u3"]
    )
    ingest_both_ways(tmp_path, log, corpus, "jsonl")
    assert reference_ingest(log, corpus, "jsonl")[2] == 2


def batch_sequence(seed: int) -> list[str]:
    """Corpus files for one store, ingested in turn: records drawn from a
    small pool, so that a file repeats records of its own and of earlier
    files, and a few bad lines."""
    rng = random.Random(seed)
    users = ["u1", " u1 ", "a\x00b", "1:", "\U0001f600"]
    stamps = [
        "2015-03-02T10:00:00Z", "2015-03-02T10:00:00+00:00", "2015-03-02T11:00:00+01:00",
        "2016-01-01T00:00:00Z",
    ]
    texts = ["hi", "", "hi\x00", "2015-03-02T10:00:00Z\x00hi", "\U0001f600 :)"]
    bad = ["not json", json.dumps(post_record("u1", "bad", "x")), json.dumps({"text": "no user"})]
    files = []
    for _ in range(rng.randrange(2, 5)):
        lines = [
            json.dumps(
                post_record(rng.choice(users), rng.choice(stamps), rng.choice(texts)),
                ensure_ascii=rng.random() < 0.5,
            )
            for _ in range(rng.randrange(25))
        ] + rng.sample(bad, rng.randrange(3))
        rng.shuffle(lines)
        files.append(lines)
    # one post in two files, its instant written with "Z" and with "+00:00"
    files[0].append(json.dumps(post_record("u1", "2015-03-02T10:00:00Z", "same")))
    files[-1].append(json.dumps(post_record("u1", "2015-03-02T10:00:00+00:00", "same")))
    return ["".join(line + "\n" for line in lines) for lines in files]


@pytest.mark.parametrize("seed", [93, 94, 95, 96])
def test_cli_ingests_of_a_batch_sequence_match_the_dedupe_key_reference(tmp_path, capsys, seed):
    # reference_ingest keys each record by the tuple helpers.dedupe_key returns
    store = tmp_path / "store"
    log = ""
    for number, corpus in enumerate(batch_sequence(seed)):
        path = tmp_path / f"batch-{number}.jsonl"
        path.write_text(corpus, encoding="utf-8")
        code = main(["ingest", "--input", str(path), "--format", "jsonl", "--store", str(store)])
        out, err = capsys.readouterr()
        want_log, rejected, duplicates = reference_ingest(log, corpus, "jsonl")
        written = want_log.count("\n") - log.count("\n")
        assert code == 0
        assert out == f"ingested={written} rejected={len(rejected)} duplicates={duplicates}\n"
        assert err == "".join(
            f"facewall: {path}:{line}: rejected ({reason})\n" for line, reason in rejected
        )
        assert (store / "posts.jsonl").read_bytes() == want_log.encode("utf-8")
        manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["record_count"] == want_log.count("\n")
        log = want_log


stamp_pieces = st.sampled_from(["2015", "0001", "9999", "２０１５", "٢٠١٥", "201"])
two_digits = st.sampled_from(
    ["00", "01", "02", "12", "13", "23", "24", "28", "29", "31", "59", "60", "٠٩", "1"]
)


@st.composite
def stamp_like(draw) -> str:
    text = (
        draw(stamp_pieces) + "-" + draw(two_digits) + "-" + draw(two_digits)
        + draw(st.sampled_from(["T", "t", " ", "_"]))
        + draw(two_digits) + ":" + draw(two_digits) + ":" + draw(two_digits)
        + draw(st.sampled_from(["", ".5", ".000000", ".123456789", ".", ".٥"]))
        + draw(st.sampled_from(["Z", "z", "", "+05:30", "-00:00", "+23:59", "-24:00", "+0530"]))
    )
    pad = draw(st.sampled_from(["", " ", "\n", "\t ", "\u3000"]))
    return draw(st.sampled_from([text, pad + text, text + pad]))


@given(st.one_of(stamp_like(), st.text(), st.sampled_from(RECORD_PATH_STAMPS)))
@example("0001-01-01T00:00:00+01:00")  # OverflowError, not ValueError, before the fix
def test_parse_rfc3339_is_the_regex_only_parse(text):
    try:
        want = reference_parse_rfc3339(text)
    except (ValueError, OverflowError):
        with pytest.raises(ValueError):
            parse_rfc3339(text)
        return
    got = parse_rfc3339(text)
    assert got == want and got.tzinfo is timezone.utc
    assert canonical_text(text, got) == format_rfc3339(want)
