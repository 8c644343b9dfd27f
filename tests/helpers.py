"""Shared test builders: token lists without running the lexer, interned
n-gram profiles, JSONL corpus files, and an independent brute-force
naive-Bayes oracle."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from facewall.lexer import Token, TokenKind
from facewall.ngrams import GramRanking, NGramProfile


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
    """The profile with each gram element an id of a canonical token, as
    analyze counts it, and the ranking that writes its ngrams.csv."""
    ids: dict[tuple[str, str], int] = {}
    counts: Counter = Counter()
    for gram, count in profile.counts.items():
        counts[tuple([ids.setdefault(element, len(ids)) for element in gram])] = count
    tokens = [Token(TokenKind[kind], surface, 0, len(surface)) for kind, surface in ids]
    interned = NGramProfile(profile.owner, counts, profile.post_count)
    return interned, GramRanking(counts, tokens)


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    return path


def post_record(user: str, stamp: str, text: str, **extra) -> dict:
    return {"user_id": user, "timestamp": stamp, "text": text, **extra}


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
