"""Contiguous n-gram extraction and mergeable per-owner count profiles.

Gram keys are kind-tagged token surfaces, so WORD "3" and NUMBER "3" stay
distinct. No padding and no crossing of post boundaries: a post of pruned
length L contributes exactly max(0, L-n+1) grams of order n.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .lexer import Token, TokenKind

# One gram element is (kind name, surface); a gram is a tuple of them.
GramElement = tuple[str, str]
Gram = tuple[GramElement, ...]

# Joins gram elements in the CSV export (U+241F SYMBOL FOR UNIT SEPARATOR).
GRAM_SEP = "␟"

DEFAULT_MAX_N = 3

_KIND_NAME = {kind: kind.name for kind in TokenKind}


def _shifted_keys(tokens: Iterable[Token], n: int) -> list[list[GramElement]]:
    """The tokens' keys, then copies shifted left by 1..n-1: zipping the
    first k of them gives the in-order windows of length k."""
    keys = [(_KIND_NAME[t.kind], t.surface) for t in tokens]
    return [keys[i:] for i in range(n)]


def iter_grams(tokens: Iterable[Token], n_max: int) -> Iterator[Gram]:
    """The grams of orders 1..n_max, order by order, each order in window
    order: counted straight into a Counter, this sequence gives the keys
    in the same order as the feature bag."""
    shifted = _shifted_keys(tokens, n_max)
    return chain.from_iterable(zip(*shifted[:n]) for n in range(1, n_max + 1))


def extract_ngrams(tokens: Sequence[Token], n: int) -> Counter[Gram]:
    """All in-order windows of length n as a multiset; empty when len < n."""
    if n < 1:
        raise ValueError("bad-n")
    return Counter(zip(*_shifted_keys(tokens, n)))


@dataclass
class NGramProfile:
    owner: str
    counts: Counter[Gram] = field(default_factory=Counter)
    post_count: int = 0


def accumulate(profile: NGramProfile, tokens: Sequence[Token], n_max: int = DEFAULT_MAX_N) -> NGramProfile:
    """Fold one pruned post into the profile (orders 1..n_max)."""
    if n_max < 1:
        raise ValueError("bad-n")
    profile.counts.update(iter_grams(tokens, n_max))
    profile.post_count += 1
    return profile


def merge_profiles(a: NGramProfile, b: NGramProfile) -> NGramProfile:
    """Pointwise sum of two profiles for the same owner."""
    if a.owner != b.owner:
        raise ValueError("owner-mismatch")
    counts: Counter[Gram] = Counter(a.counts)
    counts.update(b.counts)
    return NGramProfile(owner=a.owner, counts=counts, post_count=a.post_count + b.post_count)


def render_gram(gram: Gram) -> str:
    return GRAM_SEP.join([f"{kind}:{surface}" for kind, surface in gram])


def parse_gram(text: str) -> Gram:
    elements = []
    for part in text.split(GRAM_SEP):
        kind, sep, surface = part.partition(":")
        if not sep:
            raise ValueError(f"malformed gram element: {part!r}")
        elements.append((kind, surface))
    return tuple(elements)


def profile_rows(profile: NGramProfile) -> Iterator[tuple[int, str, int]]:
    """(n, rendered gram, count) rows sorted by (n, gram) for stable export."""
    rendered = [(len(gram), render_gram(gram), count) for gram, count in profile.counts.items()]
    return iter(sorted(rendered))


def write_ngram_csv(path: str | Path, profile: NGramProfile) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "gram", "count"])
        writer.writerows(profile_rows(profile))


def read_ngram_csv(path: str | Path) -> NGramProfile:
    profile = NGramProfile(owner="")
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["n", "gram", "count"]:
            raise ValueError(f"unexpected ngram CSV header: {header!r}")
        for row in reader:
            _, gram_text, count = row
            profile.counts[parse_gram(gram_text)] = int(count)
    return profile


def ngrams_of_orders(tokens: Sequence[Token], n_max: int) -> Counter[Gram]:
    """Union multiset over orders 1..n_max (the classifier's feature bag)."""
    return Counter(iter_grams(tokens, n_max))
