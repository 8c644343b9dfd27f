import random
import re
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from facewall.lexer import EmoticonTable, Token, TokenInterner, TokenKind, prune, tokenize
from facewall.lexicon import default_lexicon

TABLE = default_lexicon().emoticon_table()


def kinds_and_surfaces(text, table=TABLE):
    return [(t.kind.name, t.surface) for t in tokenize(text, table)]


def test_basic_scan():
    assert kinds_and_surfaces("I am happy :-)") == [
        ("WORD", "i"),
        ("WORD", "am"),
        ("WORD", "happy"),
        ("EMOTICON", ":-)"),
    ]


def test_heart_emoticon_single_token():
    assert kinds_and_surfaces("<3 u") == [("EMOTICON", "<3"), ("WORD", "u")]


def test_url_mention_punct():
    assert kinds_and_surfaces("see https://a.b @bob!") == [
        ("WORD", "see"),
        ("URL", "https://a.b"),
        ("MENTION", "@bob"),
        ("PUNCT", "!"),
    ]


def test_empty_input():
    assert tokenize("", TABLE) == []


def test_longest_emoticon_wins():
    assert kinds_and_surfaces(":-(") == [("EMOTICON", ":-(")]
    # ':-(' must not be eaten one punct at a time, and the stray ')' stays punct
    assert kinds_and_surfaces(":-()") == [("EMOTICON", ":-("), ("PUNCT", ")")]


def test_emoticons_case_sensitive():
    assert kinds_and_surfaces(":D") == [("EMOTICON", ":D")]
    assert kinds_and_surfaces(":d") == [("PUNCT", ":"), ("WORD", "d")]


def test_words_casefolded_emoticons_verbatim():
    assert kinds_and_surfaces("HAPPY :D") == [("WORD", "happy"), ("EMOTICON", ":D")]


def test_hashtag_splits_into_punct_and_word():
    assert kinds_and_surfaces("#fun") == [("PUNCT", "#"), ("WORD", "fun")]


def test_url_forms():
    assert kinds_and_surfaces("www.example.com/a?b=c") == [("URL", "www.example.com/a?b=c")]
    assert kinds_and_surfaces("HTTP://X y") == [("URL", "HTTP://X"), ("WORD", "y")]
    # no scheme, no leading www. -> not a URL
    assert ("URL", "example.com") not in kinds_and_surfaces("example.com")


def test_mention_rules():
    assert kinds_and_surfaces("@a_b.c9 hi") == [("MENTION", "@a_b.c9"), ("WORD", "hi")]
    # bare @ is punctuation
    assert kinds_and_surfaces("@ x") == [("PUNCT", "@"), ("WORD", "x")]
    # capped at 50 name characters
    long = "@" + "a" * 60
    tokens = tokenize(long, TABLE)
    assert tokens[0].kind is TokenKind.MENTION
    assert len(tokens[0].surface) == 51


def test_number_rules():
    assert kinds_and_surfaces("1,234.5") == [("NUMBER", "1,234.5")]
    assert kinds_and_surfaces("1.") == [("NUMBER", "1"), ("PUNCT", ".")]


def test_word_internal_apostrophe_and_hyphen():
    assert kinds_and_surfaces("don't burn-out") == [("WORD", "don't"), ("WORD", "burn-out")]
    # trailing connectors end the word
    assert kinds_and_surfaces("a- b'") == [
        ("WORD", "a"),
        ("PUNCT", "-"),
        ("WORD", "b"),
        ("PUNCT", "'"),
    ]


def test_nfc_normalization_unifies_composed_forms():
    composed = "café"
    decomposed = "café"
    assert kinds_and_surfaces(composed) == kinds_and_surfaces(decomposed)


def test_all_default_emoticons_survive_word_context():
    rng = random.Random(99)
    letters = "abcdefghijklmnopqrstuvwxyzäöüλнж"
    for emo in default_lexicon().all_emoticons():
        for _ in range(20):
            prefix = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
            suffix = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
            glue_l = rng.choice(["", " "])
            glue_r = rng.choice(["", " "])
            text = f"{prefix}{glue_l}{emo}{glue_r}{suffix}"
            surfaces = [t.surface for t in tokenize(text, TABLE) if t.kind is TokenKind.EMOTICON]
            assert surfaces == [emo], (text, surfaces)


def random_unicode_string(rng, max_len=60):
    chars = []
    for _ in range(rng.randrange(0, max_len)):
        bucket = rng.random()
        if bucket < 0.5:
            chars.append(chr(rng.randrange(0x20, 0x7F)))
        elif bucket < 0.7:
            chars.append(rng.choice(" \t\n:-()=<3@#."))
        else:
            code = rng.randrange(0xA0, 0x2FFFF)
            if 0xD800 <= code <= 0xDFFF:
                code = 0x20AC
            chars.append(chr(code))
    return "".join(chars)


def test_span_partition_on_random_strings():
    rng = random.Random(4213)
    for _ in range(300):
        text = random_unicode_string(rng)
        norm = unicodedata.normalize("NFC", text)
        tokens = tokenize(text, TABLE)
        rebuilt = []
        cursor = 0
        for token in tokens:
            gap = norm[cursor : token.start]
            assert gap.strip() == "", f"non-whitespace skipped: {gap!r}"
            rebuilt.append(gap)
            rebuilt.append(norm[token.start : token.end])
            assert token.start < token.end
            cursor = token.end
        rebuilt.append(norm[cursor:])
        assert norm[cursor:].strip() == ""
        assert "".join(rebuilt) == norm


def test_prune_drops_noise_and_is_idempotent():
    tokens = tokenize("the cat saw a dog http://x.y @zed, 42 times!", TABLE)
    pruned = prune(tokens)
    assert [(t.kind.name, t.surface) for t in pruned] == [
        ("WORD", "cat"),
        ("WORD", "saw"),
        ("WORD", "dog"),
        ("NUMBER", "42"),
        ("WORD", "times"),
    ]
    assert prune(pruned) == pruned


def test_prune_keeps_emoticons():
    pruned = prune(tokenize("the :-) wins", TABLE))
    assert ("EMOTICON", ":-)") in [(t.kind.name, t.surface) for t in pruned]


def test_tokenize_deterministic():
    rng = random.Random(7)
    for _ in range(50):
        text = random_unicode_string(rng)
        assert tokenize(text, TABLE) == tokenize(text, TABLE)


def test_empty_table_allows_scanning():
    table = EmoticonTable([])
    assert [(t.kind.name, t.surface) for t in tokenize(":-)", table)] == [
        ("PUNCT", ":"),
        ("PUNCT", "-"),
        ("PUNCT", ")"),
    ]


def test_table_rejects_bad_entries():
    with pytest.raises(ValueError):
        EmoticonTable([""])
    with pytest.raises(ValueError):
        EmoticonTable([":)", ":)"])
    with pytest.raises(ValueError):
        EmoticonTable([" :)"])


def test_token_span_must_be_nonempty():
    with pytest.raises(ValueError):
        Token(TokenKind.WORD, "x", 3, 3)


# -- properties --------------------------------------------------------------------

# Every character str.isspace() accepts, in code point order.
SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
          "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")

# Pieces that reach every scanner branch and the casefold and pruning
# rules, mixed with arbitrary characters; ": )" and "o\u3000o" are
# emoticons of SPACED_TABLE. A word may start with a mark that follows
# whitespace: combining marks (one pair out of canonical order), a Hangul
# vowel jamo after a leading jamo, a Devanagari vowel sign after a
# consonant. NFC composes none of them across the whitespace.
PIECES = [*SPACES, "  ", ":-)", ":(", ": )", ":", ")", "o\u3000o", "o", "<3", "☹", "The", "AN",
          "a", "café", "cafe\u0301", "ß", "SS", "Straße", "3", "1,000", "2.5", "@bob",
          "http://x.y/z", "www.a.b", "!", "'", "-", "don't", "λ", "e \u0301", " \u0301\u0323",
          "\u3000\u0308x", "\u1100 \u1161", "\u1100\u1161", "\u0915 \u093f", "\u0915\u093f"]
TEXTS = st.lists(st.one_of(st.sampled_from(PIECES), st.characters()), max_size=14).map("".join)

# Emoticons with whitespace inside: a match can span two words.
SPACED_TABLE = EmoticonTable(TABLE.entries + (": )", "o\u3000o"))


def test_split_and_the_scanner_agree_on_whitespace_at_every_code_point():
    # TokenInterner splits a text where str.split() finds whitespace, and
    # the scanner steps over what \s matches. Each code point stands alone
    # between two "a"s here, so each split falls at exactly one of them.
    every = "".join(map(chr, range(0x110000)))
    padded = "a" + "a".join(every) + "a"
    split_at = []
    at = -1
    for word in padded.split()[:-1]:
        at += len(word) + 1
        split_at.append(padded[at])
    by_split = "".join(split_at)
    assert by_split == "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))
    assert by_split == SPACES


@pytest.mark.parametrize("table", [TABLE, SPACED_TABLE], ids=["default", "inner-space"])
@given(texts=st.lists(TEXTS, max_size=6))
@example(texts=["e \u0301x \u0301\u0323 \u1100 \u1161 \u0915 \u093f", "\u0301 \u1161"])
def test_interned_posts_are_the_pruned_token_keys(table, texts):
    interner = TokenInterner(table)
    id_of: dict = {}
    for text in texts:
        ids = interner.ids(text)
        tokens = interner.tokens_of(ids)
        keys = [(t.kind, t.surface) for t in tokens]
        assert keys == [(t.kind, t.surface) for t in prune(tokenize(text, table))]
        assert all(interner.tokens[i] is token for i, token in zip(ids, tokens))
        for token_id, key in zip(ids, keys):
            assert id_of.setdefault(key, token_id) == token_id
    # one id per distinct key, and the ids are dense
    assert sorted(id_of.values()) == list(range(len(interner.tokens)))


def test_only_a_post_that_holds_an_inner_space_entry_is_scanned_whole():
    interner = TokenInterner(SPACED_TABLE)
    # a post with ": )", then posts without it whose words the memo gives
    texts = ["good : ) day :", "good : day )", ": ) :)", "day :) : )", "good )"]
    for text in texts:
        keys = [(t.kind, t.surface) for t in interner.tokens_of(interner.ids(text))]
        assert keys == [(t.kind, t.surface) for t in prune(tokenize(text, SPACED_TABLE))]
    # only the words of the posts without ": )" went through the memo
    assert sorted(interner._memo) == [")", ":", "day", "good"]


@given(TEXTS)
def test_token_spans_partition_the_non_space_characters(text):
    norm = unicodedata.normalize("NFC", text)
    covered = []
    cursor = 0
    for token in tokenize(text, TABLE):
        assert cursor <= token.start < token.end
        assert norm[cursor : token.start].strip() == ""
        covered.extend(range(token.start, token.end))
        cursor = token.end
    assert norm[cursor:].strip() == ""
    assert covered == [i for i, char in enumerate(norm) if not char.isspace()]
