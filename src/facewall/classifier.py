"""Post emotion labeling: emoticon rule, keyword lexicon, and a distantly
supervised multinomial naive-Bayes model over n-gram features.

The cascade is deliberate: an emoticon labels the whole post and wins
outright; keyword hits come next; the model only sees posts with no rule
evidence, and abstains to Neutral on exact posterior ties or when none of
the post's features were ever seen in training.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence, TextIO

from .lexer import Token, TokenKind, _Memo
from .lexicon import EmotionClass, EmotionLexicon, LEXICON_CLASSES
from .ngrams import (
    DEFAULT_MAX_N, Gram, GramElement, _token_key, interned_grams, ngrams_of_orders, render_gram
)
from .store import write_json

METHOD_EMOTICON = "emoticon"
METHOD_LEXICON = "lexicon"
METHOD_MODEL = "model"
METHOD_NEUTRAL = "neutral"

_NEUTRAL = frozenset({EmotionClass.NEUTRAL})

DEFAULT_ALPHA = 1.0
DEFAULT_MIN_TRAIN_DOCS = 5


class UntrainableError(ValueError):
    """Fewer than two classes have enough emoticon-labeled posts."""


class PostLabel(namedtuple("PostLabel", "labels method scores hits")):
    """A post's classes (a frozenset), the cascade stage that decided
    (method), that stage's per-class scores, and the post's emoticon plus
    word hits per class (a Counter): its lexicon occurrences. An immutable
    value, equal by its fields, and as a named tuple also equal to the
    plain tuple of them; scores default to {} and hits to an empty
    Counter."""

    __slots__ = ()

    def __new__(
        cls,
        labels: frozenset[EmotionClass],
        method: str,
        scores: Mapping[EmotionClass, float] | None = None,
        hits: Counter[EmotionClass] | None = None,
    ) -> "PostLabel":
        scores = {} if scores is None else scores
        return _new_label(cls, (labels, method, scores, Counter() if hits is None else hits))


# Builds a PostLabel of the four given fields, with no defaults filled in.
_new_label = tuple.__new__
# An empty Counter, without Counter.__init__ and its Mapping test.
_new_counter = dict.__new__


def _rule_hits(
    tokens: Iterable[Token], lexicon: EmotionLexicon
) -> tuple[Counter[EmotionClass], Counter[EmotionClass]]:
    """Emoticon and word hits per class in one pass, each Counter in order
    of first hit."""
    emoticons, words = lexicon.emoticon_to_class, lexicon.word_to_class
    word, emoticon = TokenKind.WORD, TokenKind.EMOTICON
    e_hits: Counter[EmotionClass] = _new_counter(Counter)
    w_hits: Counter[EmotionClass] = _new_counter(Counter)
    for token in tokens:
        kind = token.kind
        if kind is word:
            cls = words.get(token.surface)
            if cls is not None:
                w_hits[cls] = w_hits.get(cls, 0) + 1
        elif kind is emoticon:
            cls = emoticons.get(token.surface)
            if cls is not None:
                e_hits[cls] = e_hits.get(cls, 0) + 1
    return e_hits, w_hits


def occurrence_hits(tokens: Sequence[Token], lexicon: EmotionLexicon) -> Counter[EmotionClass]:
    """Emoticon plus word lexicon occurrences per class, outside the
    cascade: always equal to the hits classify_post returns."""
    e_hits, w_hits = _rule_hits(tokens, lexicon)
    return _add_into(e_hits, w_hits)


def _add_into(
    hits: Counter[EmotionClass], more: Mapping[EmotionClass, int]
) -> Counter[EmotionClass]:
    """Adds more's counts into hits, new classes after the old as
    Counter.update adds them, and returns hits."""
    for cls, n in more.items():
        hits[cls] = hits.get(cls, 0) + n
    return hits


def _smoothed_log(count: int, mass: int, alpha: float, vocab_size: int) -> float:
    """log P(gram | class) with add-alpha smoothing, from the gram's count
    in the class and the class's feature mass."""
    return math.log((count + alpha) / (mass + alpha * vocab_size))


@dataclass(frozen=True)
class NBModel:
    """A trained model. Its tables must not change once it scores a post:
    it caches per-gram likelihoods and the elements of its vocabulary
    grams."""

    classes: tuple[EmotionClass, ...]
    doc_counts: Mapping[EmotionClass, int]
    feature_counts: Mapping[EmotionClass, Mapping[Gram, int]]
    feature_mass: Mapping[EmotionClass, int]
    vocabulary: frozenset[Gram]
    alpha: float = DEFAULT_ALPHA
    n_max: int = DEFAULT_MAX_N

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def log_likelihood(self, gram: Gram, cls: EmotionClass) -> float:
        count = self.feature_counts[cls].get(gram, 0)
        return _smoothed_log(count, self.feature_mass[cls], self.alpha, self.vocab_size)

    @cached_property
    def _log_likelihood_rows(self) -> dict[Gram, tuple[float, ...]]:
        """A gram's log_likelihood per class, in class order, computed once.
        The memo holds the model's tables, not the model, so dropping the
        last reference to the model frees it."""
        tables = [(self.feature_counts[cls], self.feature_mass[cls]) for cls in self.classes]
        alpha, vocab_size = self.alpha, self.vocab_size
        return _Memo(
            lambda gram: tuple([
                _smoothed_log(counts.get(gram, 0), mass, alpha, vocab_size)
                for counts, mass in tables
            ])
        )

    @cached_property
    def _gram_elements(self) -> frozenset[GramElement]:
        """Every element of every vocabulary gram: a post holding none of
        them holds no vocabulary gram. For a trained model these are its
        vocabulary unigrams."""
        return frozenset(chain.from_iterable(self.vocabulary))

    def _may_score(self, tokens: Sequence[Token]) -> bool:
        """False only when no gram of the post can be in the vocabulary."""
        return not self._gram_elements.isdisjoint(map(_token_key, tokens))

    def features_of(self, tokens: Sequence[Token]) -> Counter[Gram]:
        return ngrams_of_orders(tokens, self.n_max)

    def log_posteriors(self, features: Mapping[Gram, int]) -> dict[EmotionClass, float]:
        """Unnormalized log posterior per class; out-of-vocabulary grams are
        skipped."""
        classes, vocabulary = self.classes, self.vocabulary
        rows = self._log_likelihood_rows
        scores = {cls: math.log(self.doc_counts[cls]) for cls in classes}
        for gram, count in features.items():
            if gram not in vocabulary:
                continue
            for cls, log_likelihood in zip(classes, rows[gram]):
                scores[cls] += count * log_likelihood
        return scores

    def to_dict(self) -> dict:
        text = {gram: render_gram(gram) for gram in self.vocabulary}
        return {
            "schema": 1,
            "alpha": self.alpha,
            "n_max": self.n_max,
            "classes": [cls.value for cls in self.classes],
            "doc_counts": {cls.value: self.doc_counts[cls] for cls in self.classes},
            "vocabulary": sorted(text.values()),
            "features": {
                cls.value: {text[gram]: count for gram, count in self.feature_counts[cls].items()}
                for cls in self.classes
            },
        }

    def to_json(self, handle: TextIO) -> None:
        """Write model.json's text to handle: to_dict() as
        json.dumps(..., sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        writes it, in pieces of a bounded size (store.write_json)."""
        write_json(handle, self.to_dict())


def train_nb(
    docs: Iterable[tuple[Sequence[Token], EmotionClass]],
    n_max: int = DEFAULT_MAX_N,
    alpha: float = DEFAULT_ALPHA,
    min_train_docs: int = DEFAULT_MIN_TRAIN_DOCS,
) -> NBModel:
    """Train on (pruned tokens, emoticon-derived class) pairs.

    Emoticon tokens are stripped from the features: they define the labels,
    and leaving them in would leak the label into the model. Classes with
    fewer than min_train_docs documents are dropped; fewer than two
    surviving classes raises UntrainableError.
    """
    if n_max < 1:
        raise ValueError("bad-n")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if min_train_docs < 1:
        raise ValueError("min_train_docs must be at least 1")
    # Each distinct token key gets an int id, in order of first sight; a
    # document is the list of its content tokens' ids.
    ids: dict[GramElement, int] = {}
    emoticon = TokenKind.EMOTICON
    doc_counts: Counter[EmotionClass] = Counter()
    class_docs: dict[EmotionClass, list[list[int]]] = {}
    for tokens, cls in docs:
        if cls is EmotionClass.NEUTRAL:
            raise ValueError("neutral is not a trainable class")
        doc_counts[cls] += 1
        content = [
            ids.setdefault(_token_key(t), len(ids)) for t in tokens if t.kind is not emoticon
        ]
        class_docs.setdefault(cls, []).append(content)
    survivors = tuple(
        cls for cls in LEXICON_CLASSES if doc_counts.get(cls, 0) >= min_train_docs
    )
    if len(survivors) < 2:
        raise UntrainableError("untrainable")
    # A class's grams are counted as id tuples, document by document and
    # each in feature-bag order, so its table has the keys in the order
    # that counting each document's feature bag gives; each distinct id
    # gram then becomes its Gram once.
    elements = list(ids)
    gram_of = _Memo(lambda key: tuple([elements[i] for i in key]))
    feature_counts = {}
    for cls in survivors:
        counts = Counter(interned_grams(class_docs.get(cls, []), n_max))
        feature_counts[cls] = dict(zip(map(gram_of.__getitem__, counts), counts.values()))
    return NBModel(
        classes=survivors,
        doc_counts={cls: doc_counts[cls] for cls in survivors},
        feature_counts=feature_counts,
        feature_mass={cls: sum(counts.values()) for cls, counts in feature_counts.items()},
        vocabulary=frozenset(g for counts in feature_counts.values() for g in counts),
        alpha=alpha,
        n_max=n_max,
    )


def nb_predict(model: NBModel, tokens: Sequence[Token]) -> dict[EmotionClass, float]:
    """Normalized posterior over the model's classes (log-space softmax)."""
    return _softmax(model, model.log_posteriors(model.features_of(tokens)))


def _softmax(model: NBModel, logs: Mapping[EmotionClass, float]) -> dict[EmotionClass, float]:
    top = max(logs.values())
    weights = {cls: math.exp(score - top) for cls, score in logs.items()}
    total = sum(weights.values())
    return {cls: weights[cls] / total for cls in model.classes}


def classify_post(
    tokens: Sequence[Token],
    lexicon: EmotionLexicon,
    model: NBModel | None = None,
) -> PostLabel:
    """Cascade: emoticon rule, then keyword lexicon, then the model, then
    Neutral. Both rule counts come first: the label carries all the hits."""
    e_hits, w_hits = _rule_hits(tokens, lexicon)
    if e_hits:
        labels, scores = frozenset(e_hits), {c: float(n) for c, n in e_hits.items()}
        # the word hits join e_hits only once labels and scores are taken
        return _new_label(PostLabel, (labels, METHOD_EMOTICON, scores, _add_into(e_hits, w_hits)))
    if w_hits:
        best = max(w_hits.values())
        winners = frozenset(cls for cls, n in w_hits.items() if n == best)
        scores = {c: float(n) for c, n in w_hits.items()}
        return _new_label(PostLabel, (winners, METHOD_LEXICON, scores, w_hits))
    # no hits: e_hits is the label's empty Counter
    if model is not None and model._may_score(tokens):
        features = model.features_of(tokens)
        if any(gram in model.vocabulary for gram in features):
            logs = model.log_posteriors(features)
            posterior = _softmax(model, logs)
            top = max(logs.values())
            winners = [cls for cls in model.classes if logs[cls] == top]
            if len(winners) == 1:
                return _new_label(PostLabel, (frozenset(winners), METHOD_MODEL, posterior, e_hits))
            return _new_label(PostLabel, (_NEUTRAL, METHOD_NEUTRAL, posterior, e_hits))
    return _new_label(PostLabel, (_NEUTRAL, METHOD_NEUTRAL, {}, e_hits))


def expand_lexicon(
    model: NBModel, k: int = 50, theta: float = 1.0
) -> dict[EmotionClass, list[tuple[Gram, float]]]:
    """Per class, grams whose smoothed log2 likelihood ratio against all
    other classes pooled reaches theta; top k, best first."""
    result: dict[EmotionClass, list[tuple[Gram, float]]] = {}
    total_mass = sum(model.feature_mass[cls] for cls in model.classes)
    v = model.vocab_size
    for cls in model.classes:
        if k <= 0:
            result[cls] = []
            continue
        rest_mass = total_mass - model.feature_mass[cls]
        scored: list[tuple[float, str, Gram]] = []
        for gram in model.vocabulary:
            count_in = model.feature_counts[cls].get(gram, 0)
            count_rest = sum(
                model.feature_counts[other].get(gram, 0)
                for other in model.classes
                if other is not cls
            )
            score = math.log2(
                (count_in + model.alpha) / (model.feature_mass[cls] + model.alpha * v)
            ) - math.log2((count_rest + model.alpha) / (rest_mass + model.alpha * v))
            if score >= theta:
                scored.append((-score, render_gram(gram), gram))
        scored.sort()
        result[cls] = [(gram, -neg) for neg, _, gram in scored[:k]]
    return result


def training_pairs(
    docs: Iterable[Sequence[Token]], lexicon: EmotionLexicon
) -> list[tuple[Sequence[Token], EmotionClass]]:
    """Distant-supervision selection: each document whose emoticons assert
    exactly one class (the cascade's emoticon count), paired with that
    class, in order; a document whose emoticons assert two or more classes
    is ambiguous and left out."""
    return [
        (tokens, *e_hits) for tokens in docs if len(e_hits := _rule_hits(tokens, lexicon)[0]) == 1
    ]
