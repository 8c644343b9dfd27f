"""Emotion classes and the word/emoticon lexicon backing both the tokenizer
and the classifier.

One lexicon file is the single authority: the lexer's emoticon table is the
union of the per-class emoticon sets, so the table and the classes cannot
drift apart. Neutral carries no lexicon content by construction; it marks
the absence of evidence.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping

from .ingest import sha256
from .lexer import GRAM_SEP, EmoticonTable, TokenKind, prune, tokenize


class EmotionClass(Enum):
    HAPPY = "happy"
    SAD = "sad"
    LOVE = "love"
    DISAPPOINTMENT = "disappointment"
    NEUTRAL = "neutral"

    # Identity hashing, exact for singleton members: hit tables, label sets
    # and series tests hash a class per post (Enum.__hash__ is Python code).
    __hash__ = object.__hash__


# Canonical ordering for reports, CSV rows, and tie-free iteration.
LEXICON_CLASSES: tuple[EmotionClass, ...] = (
    EmotionClass.HAPPY,
    EmotionClass.SAD,
    EmotionClass.LOVE,
    EmotionClass.DISAPPOINTMENT,
)
ALL_CLASSES: tuple[EmotionClass, ...] = LEXICON_CLASSES + (EmotionClass.NEUTRAL,)

_CLASS_BY_KEY = {c.value: c for c in LEXICON_CLASSES}


class LexiconError(ValueError):
    """Raised for structurally or semantically invalid lexicon files."""


@dataclass(frozen=True)
class EmotionLexicon:
    words: Mapping[EmotionClass, frozenset[str]]
    emoticons: Mapping[EmotionClass, frozenset[str]]

    def __post_init__(self) -> None:
        # Reverse lookups; disjointness is validated at load so these are maps.
        object.__setattr__(
            self, "word_to_class", {w: c for c, ws in self.words.items() for w in ws}
        )
        object.__setattr__(
            self,
            "emoticon_to_class",
            {e: c for c, es in self.emoticons.items() for e in es},
        )

    def all_emoticons(self) -> frozenset[str]:
        return frozenset(self.emoticon_to_class)

    def emoticon_table(self) -> EmoticonTable:
        return EmoticonTable(sorted(self.all_emoticons()))

    def canonical_dict(self) -> dict:
        return {
            "classes": {
                c.value: {
                    "words": sorted(self.words.get(c, frozenset())),
                    "emoticons": sorted(self.emoticons.get(c, frozenset())),
                }
                for c in LEXICON_CLASSES
            }
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, ensure_ascii=True)
        return sha256(blob.encode("ascii")).hexdigest()


def lexicon_from_dict(obj: object) -> EmotionLexicon:
    """Build and validate a lexicon from parsed JSON of shape
    {"classes": {"<name>": {"words": [...], "emoticons": [...]}}}."""
    if not isinstance(obj, dict) or not isinstance(obj.get("classes"), dict):
        raise LexiconError('lexicon must be an object with a "classes" mapping')
    words: dict[EmotionClass, frozenset[str]] = {}
    emoticons: dict[EmotionClass, frozenset[str]] = {}
    # Emoticons aside, a keyword must scan as one word token that prune
    # keeps: no post can hit any other.
    plain = EmoticonTable(())
    for name, entry in obj["classes"].items():
        cls = _CLASS_BY_KEY.get(str(name).lower())
        if cls is None:
            raise LexiconError(f"unknown emotion class: {name!r}")
        if cls in words:
            raise LexiconError(f"class listed twice: {name!r}")
        if not isinstance(entry, dict):
            raise LexiconError(f"class {name!r} must map to an object")
        words[cls] = frozenset(
            _clean_surface(w, name, fold=True) for w in _string_list(entry, "words", name)
        )
        for word in sorted(words[cls]):
            if [(t.kind, t.surface) for t in prune(tokenize(word, plain))] != [(TokenKind.WORD, word)]:
                raise LexiconError(f"class {name!r}: word {word!r} is not one word a post can hit")
        emoticons[cls] = frozenset(
            _clean_surface(e, name, fold=False) for e in _string_list(entry, "emoticons", name)
        )
        # the one kept token kind whose surface can hold the gram separator
        for emoticon in sorted(emoticons[cls]):
            if GRAM_SEP in emoticon:
                raise LexiconError(f"class {name!r}: emoticon {emoticon!r} holds {GRAM_SEP!r}")
    for cls in LEXICON_CLASSES:
        words.setdefault(cls, frozenset())
        emoticons.setdefault(cls, frozenset())
    _check_disjoint(words, "word")
    _check_disjoint(emoticons, "emoticon")
    return EmotionLexicon(words=words, emoticons=emoticons)


def _string_list(entry: dict, key: str, name: object) -> list[str]:
    value = entry.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LexiconError(f"class {name!r}: {key} must be a list of strings")
    return value


def _clean_surface(surface: str, name: object, *, fold: bool) -> str:
    surface = unicodedata.normalize("NFC", surface)
    if fold:
        surface = surface.casefold()
    if not surface or surface != surface.strip():
        raise LexiconError(f"class {name!r}: blank or padded entry {surface!r}")
    return surface


def _check_disjoint(table: Mapping[EmotionClass, frozenset[str]], what: str) -> None:
    seen: dict[str, EmotionClass] = {}
    for cls in LEXICON_CLASSES:
        for surface in table[cls]:
            if surface in seen:
                raise LexiconError(
                    f"{what} {surface!r} appears in both "
                    f"{seen[surface].value} and {cls.value}"
                )
            seen[surface] = cls


def load_lexicon(path: str | Path) -> EmotionLexicon:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LexiconError(f"cannot read lexicon file: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an overlong integer; too deep
        raise LexiconError(f"lexicon file is not valid JSON: {exc}") from exc
    return lexicon_from_dict(obj)


@lru_cache(maxsize=1)
def default_lexicon() -> EmotionLexicon:
    """The lexicon shipped with the package (four classes, nine emoticons)."""
    data = resources.files(__package__).joinpath("data/default_lexicon.json")
    return lexicon_from_dict(json.loads(data.read_text(encoding="utf-8")))
