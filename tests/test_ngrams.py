import csv
import io
import random
from collections import Counter

import pytest

from facewall import ngrams
from facewall.ngrams import (
    NGramProfile,
    accumulate,
    extract_ngrams,
    interned_grams,
    merge_profiles,
    ngrams_of_orders,
    parse_gram,
    read_ngram_csv,
    render_gram,
    write_ngram_csv,
)
from helpers import emoticon, interned_profile, word, words


def gram(*surfaces):
    return tuple(("WORD", s) for s in surfaces)


def test_bigram_extraction():
    assert extract_ngrams(words("a", "b", "c"), 2) == Counter({gram("a", "b"): 1, gram("b", "c"): 1})


def test_repeated_unigrams():
    assert extract_ngrams(words("a", "a", "a"), 1) == Counter({gram("a"): 3})


def test_window_longer_than_list():
    assert extract_ngrams(words("a", "b"), 3) == Counter()


def test_bad_n():
    with pytest.raises(ValueError, match="bad-n"):
        extract_ngrams(words("a"), 0)


def test_kind_tag_keeps_word_and_number_apart():
    from facewall.lexer import Token, TokenKind

    three_word = Token(TokenKind.WORD, "3", 0, 1)
    three_num = Token(TokenKind.NUMBER, "3", 2, 3)
    counts = extract_ngrams([three_word, three_num], 1)
    assert len(counts) == 2


def test_accumulate_counts_and_post_count():
    profile = NGramProfile(owner="u1")
    accumulate(profile, words("a", "b"), n_max=2)
    assert profile.counts == Counter({gram("a"): 1, gram("b"): 1, gram("a", "b"): 1})
    assert profile.post_count == 1
    accumulate(profile, words("a"), n_max=2)
    assert profile.counts[gram("a")] == 2
    assert profile.post_count == 2
    empty = accumulate(NGramProfile(owner="u1"), [], n_max=3)
    assert empty.counts == Counter() and empty.post_count == 1


def test_merge_profiles_sums_and_identity():
    a = NGramProfile("u1", counts=Counter({gram("x"): 1}), post_count=1)
    b = NGramProfile("u1", counts=Counter({gram("x"): 2, gram("y"): 1}), post_count=2)
    merged = merge_profiles(a, b)
    assert merged.counts == Counter({gram("x"): 3, gram("y"): 1})
    assert merged.post_count == 3
    identity = merge_profiles(a, NGramProfile("u1"))
    assert identity.counts == a.counts and identity.post_count == a.post_count


def test_merge_owner_mismatch():
    with pytest.raises(ValueError, match="owner-mismatch"):
        merge_profiles(NGramProfile("u1"), NGramProfile("u2"))


def random_profile(rng, owner="u1"):
    profile = NGramProfile(owner)
    for _ in range(rng.randrange(0, 6)):
        token_list = words(*[rng.choice("abcd") for _ in range(rng.randrange(0, 6))])
        accumulate(profile, token_list, n_max=3)
    return profile


def test_merge_commutative_and_associative():
    rng = random.Random(55)
    for _ in range(60):
        a, b, c = (random_profile(rng) for _ in range(3))
        ab = merge_profiles(a, b)
        ba = merge_profiles(b, a)
        assert ab.counts == ba.counts and ab.post_count == ba.post_count
        left = merge_profiles(merge_profiles(a, b), c)
        right = merge_profiles(a, merge_profiles(b, c))
        assert left.counts == right.counts and left.post_count == right.post_count


def test_count_conservation_random_lists():
    rng = random.Random(31)
    for _ in range(200):
        length = rng.randrange(0, 25)
        token_list = words(*[rng.choice("abcdef") for _ in range(length)])
        for n in (1, 2, 3):
            total = sum(extract_ngrams(token_list, n).values())
            assert total == max(0, length - n + 1)


def test_feature_bag_is_the_sum_of_its_orders():
    rng = random.Random(404)
    for _ in range(300):
        token_list = [
            emoticon(":-)", at) if rng.random() < 0.2 else word(rng.choice("abc"), at)
            for at in range(rng.randrange(0, 7))
        ]
        for n in (1, 2, 3, 4):
            summed = sum((extract_ngrams(token_list, k) for k in range(1, n + 1)), Counter())
            bag = ngrams_of_orders(token_list, n)
            assert bag == summed
            # Same key order too, so the model's float sums over a bag do not move.
            assert list(bag) == list(summed)


def test_interned_grams_forms_no_order_above_the_longest_post():
    # An order above the longest post has no windows, so a huge n_max gives
    # the grams of n_max = the longest post's length, and takes no more
    # post slices than that would.
    taken = []

    class Post(list):
        def __getitem__(self, key):
            if isinstance(key, slice):
                taken.append(key)
            return super().__getitem__(key)

    lists = [[1, 2, 3], [4, 5, 6, 7, 8, 9], [], [1, 2]]
    grams = interned_grams([Post(ids) for ids in lists], 300)
    assert len(taken) <= len(lists) * 5
    assert list(grams) == list(interned_grams(lists, 6))


def test_accumulation_equals_merging_per_post_profiles():
    rng = random.Random(77)
    posts = [
        words(*[rng.choice("abc") for _ in range(rng.randrange(0, 5))]) for _ in range(8)
    ]
    folded = NGramProfile("u1")
    for post in posts:
        accumulate(folded, post, n_max=2)
    merged = NGramProfile("u1")
    for post in posts:
        merged = merge_profiles(merged, accumulate(NGramProfile("u1"), post, n_max=2))
    assert folded.counts == merged.counts and folded.post_count == merged.post_count


def test_gram_rendering_round_trip():
    mixed = (("WORD", "hi"), ("EMOTICON", ":-)"), ("WORD", "a:b"))
    assert parse_gram(render_gram(mixed)) == mixed


def test_profile_rows_sorted_and_csv_round_trip(tmp_path):
    profile = NGramProfile("u1")
    accumulate(profile, words("b", "a"), n_max=2)
    accumulate(profile, [emoticon(":-)")], n_max=2)
    path = tmp_path / "ngrams.csv"
    write_ngram_csv(path, *interned_profile(profile))
    with open(path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["n", "gram", "count"]
    rows = [(int(n), gram, int(count)) for n, gram, count in rows]
    assert rows == sorted(rows)
    assert len(rows) == len(profile.counts)
    back = read_ngram_csv(path)
    assert back.counts == profile.counts


def test_an_ngram_csv_of_many_rows_reads_back_its_profile(tmp_path):
    profile = NGramProfile("u1")
    accumulate(profile, words(*[f"w{i % 700}" for i in range(1000)]), 2)
    path = tmp_path / "ngrams.csv"
    write_ngram_csv(path, *interned_profile(profile))
    # more rows than the reader checks in one piece
    assert len(profile.counts) > 1000
    assert read_ngram_csv(path).counts == profile.counts


@pytest.mark.parametrize("chunk_rows", [1, 2, 7, 4096])
def test_ngram_csv_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, chunk_rows):
    rng = random.Random(1919)
    profile = NGramProfile("u1")
    for _ in range(30):
        accumulate(profile, words(*[rng.choice("abcd") for _ in range(rng.randrange(0, 6))]), 3)
    monkeypatch.setattr(ngrams, "CSV_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "ngrams.csv"
    write_ngram_csv(path, *interned_profile(profile))
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["n", "gram", "count"])
    writer.writerows(sorted((len(g), render_gram(g), n) for g, n in profile.counts.items()))
    assert len(profile.counts) > 7
    assert path.read_bytes() == want.getvalue().encode("utf-8")
