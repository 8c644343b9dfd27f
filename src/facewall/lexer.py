"""Emoticon-aware tokenizer for noisy wall-post text, plus content pruning.

Scan order at each position decides ties: EMOTICON > URL > MENTION > NUMBER >
WORD > PUNCT. Emoticons are matched verbatim (case-sensitive, longest entry
first) against the raw text before any punctuation splitting, otherwise
":-)" falls apart into junk punctuation. Words are case-folded; everything
else keeps its surface as written.
"""

from __future__ import annotations

import re
import unicodedata
from collections import namedtuple
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Iterator


# Joins gram elements in the ngrams.csv export (U+241F SYMBOL FOR UNIT
# SEPARATOR). No word or number holds it and the lexicon refuses an emoticon
# that does, so no two grams render alike.
GRAM_SEP = "␟"


class TokenKind(Enum):
    WORD = "word"
    EMOTICON = "emoticon"
    URL = "url"
    MENTION = "mention"
    NUMBER = "number"
    PUNCT = "punct"

    # Members are singletons, so identity hashing is exact; Enum's own
    # __hash__ is Python code, run for every token a kind set tests.
    __hash__ = object.__hash__


class Token(namedtuple("Token", "kind surface start end")):
    """One scanned token: a value, immutable, equal and hashed by its
    fields (kind, surface, start, end)."""

    __slots__ = ()

    def __new__(cls, kind: TokenKind, surface: str, start: int, end: int) -> "Token":
        if start >= end:
            raise ValueError("token span must be non-empty")
        return _new_token(cls, (kind, surface, start, end))

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


# Builds a Token without the span check; only for spans known non-empty.
_new_token = tuple.__new__


# URL: scheme or leading www. up to the next whitespace. MENTION: @ then up
# to 50 of letters/digits/./_. NUMBER: digit runs with internal , or .
# WORD: unicode letters with internal apostrophe or hyphen. PUNCT: any
# single leftover non-space character, one char at a time so an emoticon
# right after punctuation still gets its own scan position.
_URL = r"(?i:https?://|www\.)\S*"
_MENTION = r"@[\w.]{1,50}"
_NUMBER = r"\d+(?:[.,]\d+)*"
_WORD = r"[^\W\d_]+(?:['\-][^\W\d_]+)*"
_PUNCT = r"\S"


class EmoticonTable:
    """Ordered verbatim emoticon strings, longest first so ":-(" can never
    be shadowed by ":(" at the same position."""

    def __init__(self, emoticons: Iterable[str]):
        entries = list(emoticons)
        for entry in entries:
            if not isinstance(entry, str) or not entry:
                raise ValueError("emoticon table entries must be non-empty strings")
            if entry != entry.strip():
                raise ValueError(f"emoticon entry has surrounding whitespace: {entry!r}")
        if len(set(entries)) != len(entries):
            raise ValueError("duplicate emoticon table entry")
        self.entries: tuple[str, ...] = tuple(sorted(entries, key=lambda e: (-len(e), e)))
        self._scanner = _compile_scanner(self.entries)
        # token kind by scanner group number, the Match.lastindex of a token
        groups = self._scanner.groupindex
        self._group_kinds = (None,) + tuple(TokenKind[g] for g in sorted(groups, key=groups.get))

    def scan(self, text: str) -> Iterator[re.Match]:
        return self._scanner.finditer(text)


def _compile_scanner(emoticons: tuple[str, ...]) -> re.Pattern:
    # No branch matches at whitespace (each starts with a non-space
    # character), so the search steps over it and every match is a token.
    branches = []
    if emoticons:
        branches.append("(?P<EMOTICON>%s)" % "|".join(re.escape(e) for e in emoticons))
    branches += [
        f"(?P<URL>{_URL})",
        f"(?P<MENTION>{_MENTION})",
        f"(?P<NUMBER>{_NUMBER})",
        f"(?P<WORD>{_WORD})",
        f"(?P<PUNCT>{_PUNCT})",
    ]
    return re.compile("|".join(branches))


def tokenize(text: str, table: EmoticonTable) -> list[Token]:
    """Scan text left to right into typed tokens.

    Total function: every non-whitespace character of the NFC-normalized
    text lands in exactly one token span; spans index that normalized form.
    """
    norm = unicodedata.normalize("NFC", text)
    kinds, word = table._group_kinds, TokenKind.WORD
    tokens: list[Token] = []
    append = tokens.append
    for m in table.scan(norm):
        kind = kinds[m.lastindex]
        start, end = m.span()
        surface = norm[start:end]
        if kind is word:
            surface = surface.casefold()
        # every branch of the scanner matches at least one character
        append(_new_token(Token, (kind, surface, start, end)))
    return tokens


ARTICLES = frozenset({"a", "an", "the"})

_PRUNED_KINDS = frozenset({TokenKind.URL, TokenKind.MENTION, TokenKind.PUNCT})


def prune(tokens: Iterable[Token]) -> list[Token]:
    """Drop URLs, mentions, punctuation, and bare articles; keep order."""
    word = TokenKind.WORD
    return [
        t
        for t in tokens
        if t.kind not in _PRUNED_KINDS and not (t.kind is word and t.surface in ARTICLES)
    ]


class _Memo(dict):
    """A dict that fills a missing key with make(key), once."""

    def __init__(self, make) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _id_scanner(table: EmoticonTable, tokens: list[Token]) -> Callable[[str], tuple[int, ...]]:
    """A function giving the ids of prune(tokenize(text, table)); it
    interns each new (kind, surface) as the next id, with its canonical
    token appended to tokens."""

    def intern(key: tuple[TokenKind, str]) -> int:
        tokens.append(_new_token(Token, (*key, 0, len(key[1]))))
        return len(tokens) - 1

    ids = _Memo(intern)

    def scan_ids(text: str) -> tuple[int, ...]:
        return tuple([ids[t.kind, t.surface] for t in prune(tokenize(text, table))])

    return scan_ids


class TokenInterner:
    """Tokenize and prune with one shared Token and one dense int id per
    distinct (kind, surface), for a run over many posts.

    Each distinct whitespace-separated word of the NFC text goes through
    prune(tokenize(word, table)) once: a memo keyed on the word gives the
    ids of the tokens that prune keeps. A post is then a tuple of ids,
    which holds no Token of its own. A canonical token stands for all its
    occurrences, so its span is that of its surface alone,
    (0, len(surface)).

    Tokenizing word by word gives the tokens of the whole text because no
    scanner branch looks behind or matches whitespace, so every match ends
    before the next whitespace; str.split() splits at exactly the
    characters that the scanner's whitespace class matches, and such a
    word of NFC text is its own NFC form (tests pin both on each Python).
    An emoticon entry with whitespace inside, such as ": )", breaks that:
    its match spans two words. It can match only where the text holds it,
    so ids tokenizes the whole text of a post that holds such an entry,
    and splits any other post into words.
    """

    def __init__(self, table: EmoticonTable) -> None:
        # the canonical token of each id
        self.tokens: list[Token] = []
        # The scan and its word memo hold the interner's tables, not the
        # interner, so dropping the last reference to it frees it.
        self._scan_ids = _id_scanner(table, self.tokens)
        self._memo = _Memo(self._scan_ids)
        # the emoticon entries whose matches span words
        self._spaced = tuple(entry for entry in table.entries if any(map(str.isspace, entry)))

    def ids(self, text: str) -> tuple[int, ...]:
        """The ids of prune(tokenize(text, table)), token by token."""
        norm = unicodedata.normalize("NFC", text)
        if self._spaced and any(entry in norm for entry in self._spaced):
            return self._scan_ids(norm)
        return tuple(chain.from_iterable(map(self._memo.__getitem__, norm.split())))

    def tokens_of(self, ids: Iterable[int]) -> list[Token]:
        """The canonical tokens of a post's ids."""
        return list(map(self.tokens.__getitem__, ids))
