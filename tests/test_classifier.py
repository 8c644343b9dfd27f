import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from facewall.classifier import (
    NBModel,
    PostLabel,
    UntrainableError,
    classify_post,
    emoticon_label,
    expand_lexicon,
    nb_predict,
    occurrence_hits,
    train_nb,
    training_pairs,
)
from facewall.lexer import TokenKind
from facewall.lexicon import (
    EmotionClass,
    LexiconError,
    default_lexicon,
    lexicon_from_dict,
    load_lexicon,
)
from helpers import emoticon, oracle_posteriors, word, words

LEX = default_lexicon()

HAPPY = EmotionClass.HAPPY
SAD = EmotionClass.SAD
LOVE = EmotionClass.LOVE
DISAPPOINTMENT = EmotionClass.DISAPPOINTMENT
NEUTRAL = EmotionClass.NEUTRAL


# -- lexicon ------------------------------------------------------------------


def test_default_lexicon_is_exactly_the_shipped_lists():
    assert LEX.words[HAPPY] == frozenset({"happy"})
    assert LEX.emoticons[HAPPY] == frozenset({":-)", ":)", "=)", ":D"})
    assert LEX.words[SAD] == frozenset({"sad"})
    assert LEX.emoticons[SAD] == frozenset({"☹", ":-(", ":(", "=("})
    assert LEX.words[LOVE] == frozenset({"love"})
    assert LEX.emoticons[LOVE] == frozenset({"<3"})
    assert LEX.words[DISAPPOINTMENT] == frozenset({"disappointed", "anger"})
    assert LEX.emoticons[DISAPPOINTMENT] == frozenset()
    assert len(LEX.all_emoticons()) == 9


def test_lexicon_union_matches_lexer_table():
    assert set(LEX.emoticon_table().entries) == set(LEX.all_emoticons())


def test_lexicon_rejects_surface_in_two_classes():
    with pytest.raises(LexiconError):
        lexicon_from_dict(
            {"classes": {"happy": {"words": ["glad"]}, "sad": {"words": ["glad"]}}}
        )
    with pytest.raises(LexiconError):
        lexicon_from_dict(
            {"classes": {"happy": {"emoticons": [":-)"]}, "sad": {"emoticons": [":-)"]}}}
        )


def test_lexicon_rejects_unknown_class_and_bad_shapes():
    with pytest.raises(LexiconError):
        lexicon_from_dict({"classes": {"neutral": {"words": ["meh"]}}})
    with pytest.raises(LexiconError):
        lexicon_from_dict({"classes": {"happy": {"words": [7]}}})
    with pytest.raises(LexiconError):
        lexicon_from_dict([])


def test_load_lexicon_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(LexiconError):
        load_lexicon(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(bad)


def test_lexicon_digest_stable_across_orderings():
    a = lexicon_from_dict({"classes": {"happy": {"words": ["x", "y"]}, "sad": {"words": ["z"]}}})
    b = lexicon_from_dict({"classes": {"sad": {"words": ["z"]}, "happy": {"words": ["y", "x"]}}})
    assert a.digest() == b.digest()


# -- rule layers ---------------------------------------------------------------


def test_emoticon_label_examples():
    assert emoticon_label([emoticon(":-)")], LEX) == {HAPPY}
    assert emoticon_label([emoticon(":("), emoticon("<3", at=3)], LEX) == {SAD, LOVE}
    assert emoticon_label([word("happy")], LEX) == set()


def test_lexicon_match_examples():
    # word-only posts: the occurrences are the keyword matches
    assert dict(occurrence_hits([word("anger")], LEX)) == {DISAPPOINTMENT: 1}
    assert dict(occurrence_hits(words("love", "love"), LEX)) == {LOVE: 2}
    assert dict(occurrence_hits([word("weather")], LEX)) == {}


def test_classify_emoticon_beats_keyword():
    label = classify_post([word("happy"), emoticon(":(", at=6)], LEX)
    assert label.labels == {SAD}
    assert label.method == "emoticon"


def test_classify_lexicon_route():
    label = classify_post(words("i", "love", "mondays"), LEX)
    assert label.labels == {LOVE}
    assert label.method == "lexicon"


def test_classify_lexicon_tie_keeps_all_maximal_classes():
    label = classify_post(words("love", "anger"), LEX)
    assert label.labels == {LOVE, DISAPPOINTMENT}


def test_classify_no_evidence_is_neutral():
    label = classify_post(words("weather"), LEX)
    assert label.labels == {NEUTRAL}
    assert label.method == "neutral"


def test_cascade_hits_are_the_post_occurrences():
    rng = random.Random(5150)
    model = train_nb(
        [(words("sun", "day"), HAPPY), (words("rain", "day"), SAD), (words("sun", "sun"), HAPPY)],
        n_max=2,
        min_train_docs=1,
    )
    lexicon_words = ["happy", "sad", "love", "disappointed", "anger"]
    other_words = ["sun", "rain", "day", "weather"]
    emoticons = [":-)", ":(", "<3", "=(", ";-)"]  # ";-)" is in no class
    seen = set()
    for _ in range(500):
        tokens = []
        for at in range(rng.randrange(0, 8)):
            pool = rng.choice([lexicon_words, other_words, other_words, emoticons])
            make = emoticon if pool is emoticons else word
            tokens.append(make(rng.choice(pool), at * 16))
        for trained in (None, model):
            label = classify_post(tokens, LEX, trained)
            assert label.hits == occurrence_hits(tokens, LEX)
            keywords = occurrence_hits([t for t in tokens if t.kind is TokenKind.WORD], LEX)
            seen.add((label.method, bool(keywords)))
    assert ("emoticon", True) in seen  # emoticon post that also has lexicon words
    assert {method for method, _ in seen} == {"emoticon", "lexicon", "model", "neutral"}


# -- naive Bayes ----------------------------------------------------------------


def toy_model(alpha=1.0):
    docs = [(words("great", "day"), HAPPY), (words("bad", "day"), SAD)]
    return train_nb(docs, n_max=1, alpha=alpha, min_train_docs=1)


def test_toy_model_counts_and_likelihoods():
    model = toy_model()
    assert model.vocab_size == 3
    g = (("WORD", "great"),)
    d = (("WORD", "day"),)
    b = (("WORD", "bad"),)
    assert math.exp(model.log_likelihood(g, HAPPY)) == pytest.approx(2 / 5, abs=1e-15)
    assert math.exp(model.log_likelihood(d, HAPPY)) == pytest.approx(2 / 5, abs=1e-15)
    assert math.exp(model.log_likelihood(b, HAPPY)) == pytest.approx(1 / 5, abs=1e-15)
    assert math.exp(model.log_likelihood(b, SAD)) == pytest.approx(2 / 5, abs=1e-15)


def test_toy_posterior_two_thirds():
    posterior = nb_predict(toy_model(), [word("great")])
    assert posterior[HAPPY] == pytest.approx(2 / 3, abs=1e-12)
    assert posterior[SAD] == pytest.approx(1 / 3, abs=1e-12)


def test_exact_tie_routes_to_neutral():
    model = toy_model()
    posterior = nb_predict(model, [word("day")])
    assert posterior[HAPPY] == posterior[SAD] == pytest.approx(0.5, abs=1e-15)
    label = classify_post([word("day")], LEX, model)
    assert label.labels == {NEUTRAL}
    assert label.method == "neutral"


def test_out_of_vocabulary_post_gets_prior_posterior_and_neutral_label():
    docs = [(words("great", "day"), HAPPY)] * 2 + [(words("bad", "day"), SAD)]
    model = train_nb(docs, n_max=1, min_train_docs=1)
    posterior = nb_predict(model, [word("zebra")])
    assert posterior[HAPPY] == pytest.approx(2 / 3, abs=1e-12)
    label = classify_post([word("zebra")], LEX, model)
    assert label.labels == {NEUTRAL}
    assert label.method == "neutral"


def test_a_vocabulary_bigram_without_its_unigrams_still_scores_the_post():
    # No token of "great day" is a vocabulary unigram, yet its bigram is in
    # the vocabulary, so the model must see it: a pre-test on the
    # vocabulary's unigrams alone would leave the post unscored.
    bigram = (("WORD", "great"), ("WORD", "day"))
    other = (("WORD", "bad"),)
    # a gram of a kind no token has: no post holds it
    unknown = (("EMOJI", "x"),)
    model = NBModel(
        classes=(HAPPY, SAD),
        doc_counts={HAPPY: 1, SAD: 1},
        feature_counts={HAPPY: {bigram: 1}, SAD: {other: 1, unknown: 1}},
        feature_mass={HAPPY: 1, SAD: 2},
        vocabulary=frozenset({bigram, other, unknown}),
        n_max=2,
    )
    post = words("great", "day")
    label = classify_post(post, LEX, model)
    assert (label.labels, label.method) == ({HAPPY}, "model")
    assert dict(label.scores) == nb_predict(model, post)
    # (1/2) / (1/2 + 1/5): the bigram's smoothed likelihood per class
    assert label.scores[HAPPY] == pytest.approx(5 / 7, abs=1e-12)
    # a post with no vocabulary gram at all stays unscored
    assert classify_post(words("great"), LEX, model).scores == {}
    assert classify_post(words("x"), LEX, model).scores == {}


def test_post_label_is_an_immutable_value():
    label = PostLabel(frozenset({HAPPY}), "lexicon", {HAPPY: 1.0}, Counter({HAPPY: 1}))
    twin = PostLabel(
        labels=frozenset({HAPPY}), method="lexicon", scores={HAPPY: 1.0}, hits=Counter({HAPPY: 1})
    )
    assert label == twin and label != label._replace(method="emoticon")
    # a named tuple: it also equals the plain tuple of its four fields
    assert label == (frozenset({HAPPY}), "lexicon", {HAPPY: 1.0}, Counter({HAPPY: 1}))
    with pytest.raises(AttributeError):
        label.method = "model"
    bare = PostLabel(frozenset({NEUTRAL}), "neutral")
    assert bare.scores == {} and type(bare.hits) is Counter and not bare.hits


def test_untrainable_cases():
    with pytest.raises(UntrainableError):
        train_nb([], min_train_docs=1)
    with pytest.raises(UntrainableError):
        train_nb([(words("x"), HAPPY)], min_train_docs=1)
    # default threshold: four docs per class is still too few
    docs = [(words("x"), HAPPY)] * 4 + [(words("y"), SAD)] * 4
    with pytest.raises(UntrainableError):
        train_nb(docs)
    assert train_nb(docs, min_train_docs=4) is not None


@pytest.mark.parametrize(
    "bad",
    [{"n_max": 0}, {"alpha": 0.0}, {"alpha": -1.0}, {"min_train_docs": 0}, {"min_train_docs": -3}],
)
def test_train_nb_rejects_parameters_it_cannot_train_with(bad):
    # A class kept with no documents would make log_posteriors take log(0).
    docs = [(words("x"), HAPPY), (words("y"), SAD)]
    with pytest.raises(ValueError) as raised:
        train_nb(docs, **bad)
    assert type(raised.value) is ValueError


def test_training_pairs_excludes_multi_class_posts():
    labeled = [
        (words("a"), {HAPPY}),
        (words("b"), {HAPPY, SAD}),
        (words("c"), set()),
        (words("d"), {SAD}),
    ]
    pairs = training_pairs(labeled)
    assert [cls for _, cls in pairs] == [HAPPY, SAD]


def test_emoticons_are_excluded_from_training_features():
    docs = [
        ([word("great"), emoticon(":-)", at=7)], HAPPY),
        ([word("bad"), emoticon(":(", at=5)], SAD),
    ]
    model = train_nb(docs, n_max=2, min_train_docs=1)
    assert all(all(kind == "WORD" for kind, _ in gram) for gram in model.vocabulary)


def test_posteriors_sum_to_one_on_random_models():
    rng = random.Random(1009)
    vocab = ["a", "b", "c", "d"]
    for _ in range(50):
        docs = []
        for cls in (HAPPY, SAD):
            for _ in range(rng.randrange(1, 4)):
                docs.append((words(*[rng.choice(vocab) for _ in range(rng.randrange(0, 4))]), cls))
        model = train_nb(docs, n_max=rng.choice([1, 2, 3]), min_train_docs=1)
        query = words(*[rng.choice(vocab) for _ in range(rng.randrange(1, 4))])
        posterior = nb_predict(model, query)
        assert abs(sum(posterior.values()) - 1.0) < 1e-12


def test_model_stage_scores_are_the_posterior():
    rng = random.Random(4242)
    vocab = ["a", "b", "c", "d"]
    methods = set()
    for _ in range(50):
        docs = []
        for cls in (HAPPY, SAD, LOVE):
            for _ in range(rng.randrange(1, 4)):
                docs.append((words(*[rng.choice(vocab) for _ in range(rng.randrange(0, 4))]), cls))
        model = train_nb(docs, n_max=rng.choice([1, 2, 3]), min_train_docs=1)
        query = words(*[rng.choice(vocab) for _ in range(rng.randrange(1, 4))])
        if not any(gram in model.vocabulary for gram in model.features_of(query)):
            continue
        label = classify_post(query, LEX, model)
        methods.add(label.method)
        assert dict(label.scores) == nb_predict(model, query)
    assert methods == {"model", "neutral"}


def test_matches_brute_force_oracle():
    rng = random.Random(2024)
    vocab = ["a", "b", "c", "d"]
    for _ in range(80):
        docs = []
        for cls in (HAPPY, SAD):
            for _ in range(rng.randrange(1, 3)):
                docs.append(
                    ([rng.choice(vocab) for _ in range(rng.randrange(0, 4))], cls.value)
                )
        n_max = rng.choice([1, 2, 3])
        alpha = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)])
        query = [rng.choice(vocab) for _ in range(rng.randrange(1, 4))]

        expected = oracle_posteriors(docs, query, n_max, alpha)
        model = train_nb(
            [(words(*surfaces), EmotionClass(cls)) for surfaces, cls in docs],
            n_max=n_max,
            alpha=float(alpha),
            min_train_docs=1,
        )
        got = nb_predict(model, words(*query))
        for cls, value in got.items():
            assert abs(value - expected[cls.value]) < 1e-12


def test_class_relabel_equivariance():
    rng = random.Random(5)
    vocab = ["a", "b", "c"]
    docs = [
        ([rng.choice(vocab) for _ in range(rng.randrange(1, 4))], cls)
        for cls in [HAPPY, HAPPY, SAD, SAD, SAD]
    ]
    query = words("a", "b")
    direct = nb_predict(train_nb([(words(*s), c) for s, c in docs], min_train_docs=1), query)
    swapped = nb_predict(
        train_nb(
            [(words(*s), SAD if c is HAPPY else HAPPY) for s, c in docs], min_train_docs=1
        ),
        query,
    )
    assert direct[HAPPY] == pytest.approx(swapped[SAD], abs=1e-15)
    assert direct[SAD] == pytest.approx(swapped[HAPPY], abs=1e-15)


def test_duplicating_corpus_keeps_priors_and_vocabulary():
    # Exact posterior invariance cannot hold under fixed-alpha smoothing
    # (doubling the counts halves the smoothing weight); the parts that are
    # genuinely duplication-invariant are the priors and the vocabulary.
    rng = random.Random(6)
    vocab = ["a", "b", "c"]
    for _ in range(25):
        docs = []
        for cls in (HAPPY, SAD):
            for _ in range(rng.randrange(1, 4)):
                docs.append((words(*[rng.choice(vocab) for _ in range(rng.randrange(1, 4))]), cls))
        model = train_nb(docs, min_train_docs=1)
        doubled = train_nb(docs + docs, min_train_docs=1)

        total = sum(model.doc_counts.values())
        total2 = sum(doubled.doc_counts.values())
        for cls in model.classes:
            assert model.doc_counts[cls] / total == doubled.doc_counts[cls] / total2
        assert doubled.vocabulary == model.vocabulary


def test_duplication_shifts_smoothed_posteriors_by_design():
    # Pins the counterexample: the toy posterior 2/3 moves to 3/4 when the
    # corpus is doubled, because smoothed likelihoods become (2c+a)/(2m+aV).
    single = toy_model()
    doubled = train_nb(
        [(words("great", "day"), HAPPY), (words("bad", "day"), SAD)] * 2,
        n_max=1,
        min_train_docs=1,
    )
    assert nb_predict(single, [word("great")])[HAPPY] == pytest.approx(2 / 3, abs=1e-12)
    assert nb_predict(doubled, [word("great")])[HAPPY] == pytest.approx(3 / 4, abs=1e-12)


def test_expand_lexicon_toy_scores():
    model = toy_model()
    expanded = expand_lexicon(model, k=50, theta=1.0)
    assert expanded[HAPPY] == [((("WORD", "great"),), pytest.approx(1.0, abs=1e-12))]
    assert expanded[SAD] == [((("WORD", "bad"),), pytest.approx(1.0, abs=1e-12))]
    # "day" scores exactly zero and stays below any positive theta
    low_theta = expand_lexicon(model, k=50, theta=-1.0)
    happy_grams = dict(low_theta[HAPPY])
    assert happy_grams[(("WORD", "day"),)] == pytest.approx(0.0, abs=1e-12)


def test_expand_lexicon_degenerate_arguments():
    model = toy_model()
    assert all(v == [] for v in expand_lexicon(model, k=0, theta=1.0).values())
    assert all(v == [] for v in expand_lexicon(model, k=50, theta=math.inf).values())


def test_model_json_round_trip():
    # model.json is an export: it names the smoothing, the order, the sorted
    # rendered vocabulary, and each class's documents and feature counts
    model = toy_model(alpha=0.5)
    text = model.to_json()
    payload = json.loads(text)
    assert payload["alpha"] == 0.5
    assert payload["n_max"] == 1
    assert payload["classes"] == ["happy", "sad"]
    assert payload["vocabulary"] == ["WORD:bad", "WORD:day", "WORD:great"]
    assert payload["doc_counts"] == {"happy": 1, "sad": 1}
    assert payload["features"] == {
        "happy": {"WORD:day": 1, "WORD:great": 1},
        "sad": {"WORD:bad": 1, "WORD:day": 1},
    }
    assert model.to_json() == text
