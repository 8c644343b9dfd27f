"""Shared test builders: token lists without running the lexer, interned
n-gram profiles, JSONL corpus files, references for a post's log line and
dedupe key, and an independent brute-force naive-Bayes oracle."""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from facewall import ingest
from facewall.ingest import CorpusBatch, RawPost
from facewall.lexer import Token, TokenKind
from facewall.ngrams import GramRanking, NGramProfile
from facewall.rfc3339 import format_rfc3339


def word(surface: str, at: int = 0) -> Token:
    return Token(TokenKind.WORD, surface, at, at + max(len(surface), 1))


def words(*surfaces: str) -> list[Token]:
    out = []
    pos = 0
    for s in surfaces:
        out.append(word(s, pos))
        pos += len(s) + 1
    return out


def emoticon(surface: str, at: int = 0) -> Token:
    return Token(TokenKind.EMOTICON, surface, at, at + len(surface))


def interned_profile(profile: NGramProfile) -> tuple[NGramProfile, GramRanking]:
    """The profile as analyze counts it, each gram known by a dense gram id
    and made of ids of canonical tokens, and the ranking that writes its
    ngrams.csv."""
    ids: dict[tuple[str, str], int] = {}
    # the dense gram id of each id gram
    grams: dict[tuple[int, ...], int] = {}
    counts: Counter = Counter()
    for gram, count in profile.counts.items():
        id_gram = tuple([ids.setdefault(element, len(ids)) for element in gram])
        counts[grams.setdefault(id_gram, len(grams))] = count
    tokens = [Token(TokenKind[kind], surface, 0, len(surface)) for kind, surface in ids]
    interned = NGramProfile(profile.owner, counts, profile.post_count)
    return interned, GramRanking(grams, tokens)


def model_json(model) -> str:
    """The text NBModel.to_json writes, read back from an io.StringIO."""
    handle = io.StringIO()
    model.to_json(handle)
    return handle.getvalue()


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    return path


def post_record(user: str, stamp: str, text: str, **extra) -> dict:
    return {"user_id": user, "timestamp": stamp, "text": text, **extra}


# -- a post's log line and dedupe key ----------------------------------------


def log_record(post: RawPost) -> dict:
    """The post's post-log record: the stamp in canonical form, no source
    key for a None source."""
    stamp = format_rfc3339(post.timestamp)
    record = {"user_id": post.user_id, "timestamp": stamp, "text": post.text}
    if post.source is not None:
        record["source"] = post.source
    return record


def log_line(post: RawPost) -> str:
    """The post's post-log line, as json.dumps renders its record."""
    return json.dumps(log_record(post), sort_keys=True, ensure_ascii=False) + "\n"


def dedupe_key(post: RawPost) -> tuple[str, str, str]:
    """(user id, canonical stamp, hex sha256 of the text): posts with equal
    keys are duplicates."""
    text_hash = hashlib.sha256(post.text.encode("utf-8")).hexdigest()
    return (post.user_id, format_rfc3339(post.timestamp), text_hash)


def key_digest(post: RawPost) -> bytes:
    """The key digest ingest gives the post."""
    return ingest._key_digest(post.user_id, format_rfc3339(post.timestamp), post.text)


def batch_of(posts) -> CorpusBatch:
    """A batch holding each post's log line and key digest, as ingest
    renders them, duplicates and all."""
    posts = list(posts)
    lines = [
        ingest._log_line(post.user_id, format_rfc3339(post.timestamp), post.text, post.source)
        for post in posts
    ]
    return CorpusBatch(lines=lines, digests=list(map(key_digest, posts)))


def logged_posts(store) -> list[RawPost]:
    """The store's post log read back as RawPosts."""
    return [RawPost(*fields[:4]) for fields in store.iter_posts()]


# -- independent naive-Bayes oracle ------------------------------------------
#
# Deliberately re-derives everything: its own window extraction, exact
# Fraction arithmetic in linear space, no imports from the package's model.


def _windows(surfaces: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(surfaces[i : i + n]) for i in range(len(surfaces) - n + 1)]


def oracle_posteriors(
    docs: list[tuple[list[str], str]],
    query: list[str],
    n_max: int,
    alpha: Fraction,
) -> dict[str, float]:
    """Smoothed multinomial Bayes posterior by direct enumeration."""
    classes = sorted({label for _, label in docs})
    doc_counts = {c: 0 for c in classes}
    feats: dict[str, dict[tuple[str, ...], int]] = {c: {} for c in classes}
    for surfaces, label in docs:
        doc_counts[label] += 1
        for n in range(1, n_max + 1):
            for gram in _windows(surfaces, n):
                feats[label][gram] = feats[label].get(gram, 0) + 1
    vocab = {g for table in feats.values() for g in table}
    v = len(vocab)
    mass = {c: sum(feats[c].values()) for c in classes}
    total_docs = sum(doc_counts.values())

    query_grams: list[tuple[str, ...]] = []
    for n in range(1, n_max + 1):
        query_grams.extend(_windows(query, n))

    unnormalized = {}
    for c in classes:
        score = Fraction(doc_counts[c], total_docs)
        for gram in query_grams:
            if gram not in vocab:
                continue
            score *= (feats[c].get(gram, 0) + alpha) / (mass[c] + alpha * v)
        unnormalized[c] = score
    total = sum(unnormalized.values())
    return {c: float(unnormalized[c] / total) for c in classes}
