"""Post emotion labeling: emoticon rule, keyword lexicon, and a distantly
supervised multinomial naive-Bayes model over n-gram features.

The cascade is deliberate: an emoticon labels the whole post and wins
outright; keyword hits come next; the model only sees posts with no rule
evidence, and abstains to Neutral on exact posterior ties or when none of
the post's features were ever seen in training.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .lexer import Token, TokenKind
from .lexicon import EmotionClass, EmotionLexicon, LEXICON_CLASSES
from .ngrams import Gram, iter_grams, ngrams_of_orders, render_gram

METHOD_EMOTICON = "emoticon"
METHOD_LEXICON = "lexicon"
METHOD_MODEL = "model"
METHOD_NEUTRAL = "neutral"

DEFAULT_ALPHA = 1.0
DEFAULT_MIN_TRAIN_DOCS = 5


class UntrainableError(ValueError):
    """Fewer than two classes have enough emoticon-labeled posts."""


@dataclass(frozen=True)
class PostLabel:
    labels: frozenset[EmotionClass]
    method: str
    scores: Mapping[EmotionClass, float] = field(default_factory=dict)
    # Emoticon plus word hits per class: the post's lexicon occurrences.
    hits: Counter[EmotionClass] = field(default_factory=Counter)


def _rule_hits(
    tokens: Iterable[Token], lexicon: EmotionLexicon
) -> tuple[dict[EmotionClass, int], dict[EmotionClass, int]]:
    """Emoticon and word hits per class in one pass, each dict in order of
    first hit."""
    emoticons, words = lexicon.emoticon_to_class, lexicon.word_to_class
    word, emoticon = TokenKind.WORD, TokenKind.EMOTICON
    e_hits: dict[EmotionClass, int] = {}
    w_hits: dict[EmotionClass, int] = {}
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


def emoticon_label(tokens: Iterable[Token], lexicon: EmotionLexicon) -> set[EmotionClass]:
    """Classes asserted by any emoticon in the post (whole-post rule)."""
    lookup = lexicon.emoticon_to_class
    return {
        lookup[t.surface] for t in tokens if t.kind is TokenKind.EMOTICON and t.surface in lookup
    }


def occurrence_hits(tokens: Sequence[Token], lexicon: EmotionLexicon) -> Counter[EmotionClass]:
    """Emoticon plus word lexicon occurrences per class, outside the
    cascade: always equal to the hits classify_post returns."""
    e_hits, w_hits = _rule_hits(tokens, lexicon)
    hits = Counter(e_hits)
    hits.update(w_hits)
    return hits


@dataclass(frozen=True)
class NBModel:
    classes: tuple[EmotionClass, ...]
    doc_counts: Mapping[EmotionClass, int]
    feature_counts: Mapping[EmotionClass, Mapping[Gram, int]]
    feature_mass: Mapping[EmotionClass, int]
    vocabulary: frozenset[Gram]
    alpha: float = DEFAULT_ALPHA
    n_max: int = 3

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def log_likelihood(self, gram: Gram, cls: EmotionClass) -> float:
        count = self.feature_counts[cls].get(gram, 0)
        return math.log(
            (count + self.alpha) / (self.feature_mass[cls] + self.alpha * self.vocab_size)
        )

    def features_of(self, tokens: Sequence[Token]) -> Counter[Gram]:
        return ngrams_of_orders(tokens, self.n_max)

    def log_posteriors(self, features: Mapping[Gram, int]) -> dict[EmotionClass, float]:
        """Unnormalized log posterior per class; out-of-vocabulary grams are
        skipped."""
        scores = {cls: math.log(self.doc_counts[cls]) for cls in self.classes}
        for gram, count in features.items():
            if gram not in self.vocabulary:
                continue
            for cls in self.classes:
                scores[cls] += count * self.log_likelihood(gram, cls)
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
                cls.value: {
                    text[gram]: count
                    for gram, count in sorted(
                        self.feature_counts[cls].items(), key=lambda kv: text[kv[0]]
                    )
                }
                for cls in self.classes
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def train_nb(
    docs: Iterable[tuple[Sequence[Token], EmotionClass]],
    n_max: int = 3,
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
    doc_counts: Counter[EmotionClass] = Counter()
    features: dict[EmotionClass, Counter[Gram]] = {}
    for tokens, cls in docs:
        if cls is EmotionClass.NEUTRAL:
            raise ValueError("neutral is not a trainable class")
        content = [t for t in tokens if t.kind is not TokenKind.EMOTICON]
        doc_counts[cls] += 1
        bag = features.get(cls)
        if bag is None:  # a class's first document
            bag = features[cls] = Counter()
        bag.update(iter_grams(content, n_max))
    survivors = tuple(
        cls for cls in LEXICON_CLASSES if doc_counts.get(cls, 0) >= min_train_docs
    )
    if len(survivors) < 2:
        raise UntrainableError("untrainable")
    feature_counts = {cls: dict(features.get(cls, {})) for cls in survivors}
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
        scores = {c: float(n) for c, n in e_hits.items()}
        hits = Counter(e_hits)
        hits.update(w_hits)
        return PostLabel(frozenset(e_hits), METHOD_EMOTICON, scores, hits)
    if w_hits:
        best = max(w_hits.values())
        winners = frozenset(cls for cls, n in w_hits.items() if n == best)
        scores = {c: float(n) for c, n in w_hits.items()}
        return PostLabel(winners, METHOD_LEXICON, scores, Counter(w_hits))
    if model is not None:
        features = model.features_of(tokens)
        if any(gram in model.vocabulary for gram in features):
            logs = model.log_posteriors(features)
            posterior = _softmax(model, logs)
            top = max(logs.values())
            winners = [cls for cls in model.classes if logs[cls] == top]
            if len(winners) == 1:
                return PostLabel(frozenset(winners), METHOD_MODEL, posterior)
            return PostLabel(frozenset({EmotionClass.NEUTRAL}), METHOD_NEUTRAL, posterior)
    return PostLabel(frozenset({EmotionClass.NEUTRAL}), METHOD_NEUTRAL, {})


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
    labeled: Iterable[tuple[Sequence[Token], set[EmotionClass]]],
) -> list[tuple[Sequence[Token], EmotionClass]]:
    """Distant-supervision selection: keep posts whose emoticons assert
    exactly one class; multi-class posts are ambiguous and excluded."""
    return [(tokens, next(iter(classes))) for tokens, classes in labeled if len(classes) == 1]
