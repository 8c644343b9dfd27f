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
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .lexer import Token, TokenKind

# One gram element is (kind name, surface); a gram is a tuple of them.
GramElement = tuple[str, str]
Gram = tuple[GramElement, ...]

# Joins gram elements in the CSV export (U+241F SYMBOL FOR UNIT SEPARATOR).
GRAM_SEP = "␟"

DEFAULT_MAX_N = 3

_KIND_NAME = {kind: kind.name for kind in TokenKind}


def _shifted(keys: list, n: int) -> list[list]:
    """The keys, then copies shifted left by 1..n-1: zipping the first k of
    them gives the in-order windows of length k."""
    return [keys[i:] for i in range(n)]


def _token_keys(tokens: Iterable[Token]) -> list[GramElement]:
    return [(_KIND_NAME[t.kind], t.surface) for t in tokens]


def _windows(keys: list, n_max: int) -> Iterator[tuple]:
    """The windows of orders 1..n_max, order by order, each order in window
    order: counted straight into a Counter, this sequence gives the keys
    in the same order as the feature bag."""
    shifted = _shifted(keys, n_max)
    return chain.from_iterable(zip(*shifted[:n]) for n in range(1, n_max + 1))


def iter_grams(tokens: Iterable[Token], n_max: int) -> Iterator[Gram]:
    """The grams of orders 1..n_max, in feature-bag order."""
    return _windows(_token_keys(tokens), n_max)


def interned_grams(posts: Sequence[Sequence[int]], n_max: int) -> Iterator[tuple[int, ...]]:
    """The grams of orders 1..n_max of each post given as token ids (see
    lexer.TokenInterner), a gram the tuple of its tokens' ids: post by
    post, each post's in feature-bag order."""
    shifted = [posts] + [list(map(itemgetter(slice(k, None)), posts)) for k in range(1, n_max)]
    # per post, one window iterator of each order
    per_post = zip(*[map(zip, *shifted[:n]) for n in range(1, n_max + 1)])
    return chain.from_iterable(chain.from_iterable(per_post))


def extract_ngrams(tokens: Sequence[Token], n: int) -> Counter[Gram]:
    """All in-order windows of length n as a multiset; empty when len < n."""
    if n < 1:
        raise ValueError("bad-n")
    return Counter(zip(*_shifted(_token_keys(tokens), n)))


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


# csv.writer's line end (the excel dialect)
_EOL = "\r\n"


class _Echo:
    """A file for csv.writer whose writerow returns the row's text."""

    def write(self, line: str) -> str:
        return line


class GramRanking:
    """The export order of a set of grams, each rendered once and ranked
    once by (n, text): a profile over any of them writes its ngrams.csv
    rows in rank order. Grams that render alike (only when a surface holds
    GRAM_SEP) share a rank, and their rows go by count, so the rows come
    out as sorted (n, text, count) rows do."""

    def __init__(self, grams: Iterable, render: Callable[[Any], str]) -> None:
        heads = {gram: (len(gram), render(gram)) for gram in grams}
        ranked: list[tuple[int, str]] = []
        self._rank: dict = {}
        for gram in sorted(heads, key=heads.__getitem__):
            head = heads[gram]
            if not ranked or ranked[-1] != head:
                ranked.append(head)
            self._rank[gram] = len(ranked) - 1
        # each rank's CSV row up to its count, quoted by the csv module
        writer = csv.writer(_Echo())
        self._csv_heads = [writer.writerow(head + ("",))[: -len(_EOL)] for head in ranked]

    @classmethod
    def of_tokens(cls, grams: Iterable[tuple[int, ...]], tokens: Sequence[Token]) -> "GramRanking":
        """Ranking of interned grams, the id grams of these canonical tokens."""
        elements = [render_gram((key,)) for key in _token_keys(tokens)]
        return cls(grams, lambda gram: GRAM_SEP.join([elements[i] for i in gram]))

    def csv_rows(self, counts: Mapping) -> str:
        """The (n, rendered gram, count) rows of counts over ranked grams,
        sorted, as the CSV text csv.writer gives."""
        heads = self._csv_heads
        ranked = sorted(zip(map(self._rank.__getitem__, counts), counts.values()))
        return "".join([f"{heads[rank]}{count}{_EOL}" for rank, count in ranked])


def write_ngram_csv(
    path: str | Path, profile: NGramProfile, ranking: GramRanking | None = None
) -> None:
    """Write the profile's rows in export order. A profile of interned
    grams needs the ranking of its grams; Gram keys are ranked here."""
    if ranking is None:
        ranking = GramRanking(profile.counts, render_gram)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(["n", "gram", "count"])
        handle.write(ranking.csv_rows(profile.counts))


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
