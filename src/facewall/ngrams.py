"""Contiguous n-gram extraction and mergeable per-owner count profiles.

Gram keys are kind-tagged token surfaces, so WORD "3" and NUMBER "3" stay
distinct. No padding and no crossing of post boundaries: a post of pruned
length L contributes exactly max(0, L-n+1) grams of order n.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter, itemgetter, lt
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TypeVar

from .lexer import GRAM_SEP, Token
from .store import replacing
from .timeline import _counts

# One gram element is (kind name, surface); a gram is a tuple of them.
GramElement = tuple[str, str]
Gram = tuple[GramElement, ...]

DEFAULT_MAX_N = 3

# A token's key, its gram element (kind name, surface). The kind's name is
# read as the member's _name_ attribute, in C, not through Enum's property.
_token_key = attrgetter("kind._name_", "surface")

# A gram element: a token id (see lexer.TokenInterner) or a GramElement.
E = TypeVar("E")


def interned_grams(posts: Sequence[Sequence[E]], n_max: int) -> Iterator[tuple[E, ...]]:
    """The grams of orders 1..n_max of each post, a gram the tuple of its
    elements: post by post, each post's in feature-bag order (order by
    order, each order in window order). The one place grams are formed."""
    # no post has a window of an order above the longest post's length
    n_max = min(n_max, max(map(len, posts), default=0))
    shifted = [posts] + [list(map(itemgetter(slice(k, None)), posts)) for k in range(1, n_max)]
    # per post, one window iterator of each order
    per_post = zip(*[map(zip, *shifted[:n]) for n in range(1, n_max + 1)])
    return chain.from_iterable(chain.from_iterable(per_post))


def extract_ngrams(tokens: Sequence[Token], n: int) -> Counter[Gram]:
    """All in-order windows of length n as a multiset; empty when len < n."""
    if n < 1:
        raise ValueError("bad-n")
    return Counter([g for g in interned_grams([list(map(_token_key, tokens))], n) if len(g) == n])


@dataclass
class NGramProfile:
    owner: str
    # each gram's count; in a profile that analyze writes, the grams are
    # the dense gram ids of a GramRanking
    counts: Counter[Gram] = field(default_factory=Counter)
    post_count: int = 0


def accumulate(profile: NGramProfile, tokens: Sequence[Token], n_max: int = DEFAULT_MAX_N) -> NGramProfile:
    """Fold one pruned post into the profile (orders 1..n_max)."""
    if n_max < 1:
        raise ValueError("bad-n")
    profile.counts.update(interned_grams([list(map(_token_key, tokens))], n_max))
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


# csv.writer's line end (the excel dialect)
_EOL = "\r\n"
# the most ngrams.csv rows GramRanking.csv_rows joins into one string
CSV_CHUNK_ROWS = 4096


class _Echo:
    """A file for csv.writer whose writerow returns the row's text."""

    def write(self, line: str) -> str:
        return line


class GramRanking:
    """The export order of the id grams of a run. A gram is a tuple of ids
    of these canonical tokens, known by its dense gram id. Each gram is
    rendered once and ranked once by (n, text), and rank_of[gid] is its
    rank: a profile whose counts are keyed by dense gram id writes its
    ngrams.csv rows in rank order. No two grams render alike (no kept
    token's surface holds GRAM_SEP), so each gram has a rank of its own.

    The ranking takes the grams dict over, each id gram mapped to its dense
    gram id (0 to len - 1), and empties it: each id gram is let go as its
    (n, text) head is rendered, and each head as its CSV row head is made,
    so the id grams, the heads and the CSV heads are never all held at once."""

    def __init__(self, grams: dict[tuple[int, ...], int], tokens: Sequence[Token]) -> None:
        elements = [render_gram((key,)) for key in map(_token_key, tokens)]
        # each gram's (n, text), by dense gram id
        heads: list[tuple[int, str] | None] = [None] * len(grams)
        while grams:
            gram, gid = grams.popitem()
            heads[gid] = (len(gram), GRAM_SEP.join([elements[i] for i in gram]))
        grams.clear()  # frees the emptied dict's table
        order = array("I", sorted(range(len(heads)), key=heads.__getitem__))
        rank_of = self.rank_of = array("I", [0]) * len(heads)
        # each rank's CSV row up to its count, quoted by the csv module
        writer = csv.writer(_Echo())
        csv_heads: list[str] = []
        for rank, gid in enumerate(order):
            head, heads[gid] = heads[gid], None
            csv_heads.append(writer.writerow(head + ("",))[: -len(_EOL)])
            rank_of[gid] = rank
        self._csv_heads = csv_heads

    def csv_rows(self, counts: Mapping[int, int]) -> Iterator[str]:
        """The (n, rendered gram, count) rows of counts keyed by dense gram
        id, sorted, as the CSV text csv.writer gives, in chunks of at most
        CSV_CHUNK_ROWS rows, so a large profile's text is never whole."""
        heads = self._csv_heads
        ranked = sorted(zip(map(self.rank_of.__getitem__, counts), counts.values()))
        for start in range(0, len(ranked), CSV_CHUNK_ROWS):
            chunk = ranked[start : start + CSV_CHUNK_ROWS]
            yield "".join([f"{heads[rank]}{count}{_EOL}" for rank, count in chunk])


def write_ngram_csv(path: str | Path, profile: NGramProfile, ranking: GramRanking) -> None:
    """Write the rows of a profile whose counts are keyed by the dense gram
    ids of the ranking, in export order."""
    with replacing(path) as handle:
        csv.writer(handle).writerow(["n", "gram", "count"])
        handle.writelines(ranking.csv_rows(profile.counts))


def read_ngram_csv(data: bytes) -> None:
    """Check the bytes of an ngrams.csv, decoded piece by piece, and keep
    nothing. Raises ValueError for a file that is not UTF-8 or does not end
    in "\r\n", a wrong header, a ragged row, an n or count _counts rejects,
    a gram element without a ":", or a row whose (n, gram) is not above the
    row before it: the writer writes each gram once, in (n, gram) order."""
    if not data.endswith(_EOL.encode("ascii")):
        raise ValueError("ngram CSV cut short: no line end after the last row")
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    header = next(reader, None)
    if header != ["n", "gram", "count"]:
        raise ValueError(f"unexpected ngram CSV header: {header!r}")
    last: tuple = ()
    while rows := list(islice(reader, 256)):  # 4,096 rows peaked 0.8 MB higher
        if set(map(len, rows)) != {3}:
            raise ValueError("an ngram CSV row without three fields")
        orders, grams, counts = zip(*rows)
        if not all(":" in part for gram in grams for part in gram.split(GRAM_SEP)):
            raise ValueError("an ngram CSV gram element without a ':'")
        orders, _ = _counts([orders, counts])
        keyed = [last, *zip(orders, grams)]
        if not all(map(lt, keyed, keyed[1:])):
            raise ValueError("ngram CSV rows out of strictly increasing (n, gram) order")
        last = keyed[-1]


def ngrams_of_orders(tokens: Sequence[Token], n_max: int) -> Counter[Gram]:
    """Union multiset over orders 1..n_max (the classifier's feature bag)."""
    return Counter(interned_grams([list(map(_token_key, tokens))], n_max))
