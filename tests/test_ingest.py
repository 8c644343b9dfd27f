import copy
import csv
import hashlib
import json
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from facewall import ingest
from facewall.ingest import REQUIRED_FIELDS, RawPost, RecordRejected, load_corpus, parse_post_record
from facewall.rfc3339 import format_rfc3339, parse_rfc3339
from facewall.store import Store
from helpers import post_record, write_jsonl


def test_parse_jsonl_record():
    post = parse_post_record(
        '{"user_id":"u1","timestamp":"2015-03-02T10:00:00Z","text":"happy :-)"}', "jsonl"
    )
    assert post.user_id == "u1"
    assert post.timestamp == datetime(2015, 3, 2, 10, tzinfo=timezone.utc)
    assert post.text == "happy :-)"
    assert post.source is None


def test_raw_post_is_an_immutable_value():
    stamp = datetime(2015, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
    post = RawPost("u1", stamp, "hi", "wall")
    twin = RawPost(user_id="u1", timestamp=stamp, text="hi", source="wall")
    assert post == twin and hash(post) == hash(twin) and post != RawPost("u1", stamp, "hi")
    with pytest.raises(FrozenInstanceError):
        post.text = "bye"
    assert [f.name for f in fields(RawPost) if f.init] == ["user_id", "timestamp", "text", "source"]
    digest = hashlib.sha256(b"bye").hexdigest()
    assert replace(post, text="bye").dedupe_key() == ("u1", "2015-01-02T03:04:05Z", digest)
    for clone in (copy.copy(post), pickle.loads(pickle.dumps(post))):
        assert clone == post and clone.to_line() == post.to_line()


def test_bad_timestamp_rejected():
    with pytest.raises(RecordRejected) as err:
        parse_post_record('{"user_id":"u1","timestamp":"not-a-date","text":"x"}', "jsonl")
    assert err.value.reason == "bad-timestamp"


def test_timestamp_without_offset_rejected():
    with pytest.raises(RecordRejected) as err:
        parse_post_record(
            '{"user_id":"u1","timestamp":"2015-03-02T10:00:00","text":"x"}', "jsonl"
        )
    assert err.value.reason == "bad-timestamp"


def test_csv_row_normalizes_to_utc():
    post = parse_post_record(
        {"user_id": "u2", "timestamp": "2012-01-01T00:00:00+02:00", "text": "sad day"}, "csv"
    )
    assert post.timestamp == datetime(2011, 12, 31, 22, tzinfo=timezone.utc)
    assert format_rfc3339(post.timestamp) == "2011-12-31T22:00:00Z"


@pytest.mark.parametrize("missing", ["user_id", "timestamp", "text"])
def test_missing_field_rejections(missing):
    record = post_record("u1", "2015-03-02T10:00:00Z", "x")
    del record[missing]
    with pytest.raises(RecordRejected) as err:
        parse_post_record(json.dumps(record), "jsonl")
    assert err.value.reason == f"missing-field:{missing}"


@pytest.mark.parametrize(
    "line",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"user_id": 7, "timestamp": "2015-03-02T10:00:00Z", "text": "x"}',
        '{"user_id": "u", "timestamp": "2015-03-02T10:00:00Z", "text": 5}',
    ],
)
def test_malformed_rejections(line):
    with pytest.raises(RecordRejected) as err:
        parse_post_record(line, "jsonl")
    assert err.value.reason == "malformed"


def test_blank_user_id_is_missing_field():
    with pytest.raises(RecordRejected) as err:
        parse_post_record('{"user_id":"  ","timestamp":"2015-03-02T10:00:00Z","text":"x"}', "jsonl")
    assert err.value.reason == "missing-field:user_id"


@pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-00:01"])
def test_offset_past_the_calendar_is_a_bad_timestamp(stamp):
    with pytest.raises(RecordRejected) as err:
        parse_post_record(json.dumps(post_record("u1", stamp, "x")), "jsonl")
    assert err.value.reason == "bad-timestamp"


def test_empty_text_allowed_and_user_id_trimmed():
    post = parse_post_record(
        '{"user_id":" u1 ","timestamp":"2015-03-02T10:00:00Z","text":""}', "jsonl"
    )
    assert post.user_id == "u1"
    assert post.text == ""


def test_load_corpus_all_valid(tmp_path):
    path = write_jsonl(
        tmp_path / "corpus.jsonl",
        [post_record(f"u{i}", "2015-03-02T10:00:00Z", f"post {i}") for i in range(3)],
    )
    batch = load_corpus(path, "jsonl")
    assert len(batch.posts) == 3
    assert batch.rejected == []
    assert batch.duplicates_dropped == 0


def test_load_corpus_dedupes_identical_lines(tmp_path):
    record = post_record("u1", "2015-03-02T10:00:00Z", "same")
    path = write_jsonl(tmp_path / "corpus.jsonl", [record, record])
    batch = load_corpus(path, "jsonl")
    assert len(batch.posts) == 1
    assert batch.duplicates_dropped == 1


KEY_STAMP = datetime(2015, 1, 1, tzinfo=timezone.utc)
# digits, ":", NUL and characters outside the BMP: the pieces of a key's
# encoding, and those whose UTF-8 or UTF-16 length differs from one
hostile = st.text(st.sampled_from("09:\x00é\U0001f600\U00010000"), max_size=8)
# a canonical stamp holds no NUL
hostile_stamps = st.sampled_from(["2015-01-01T00:00:00Z", "2016-01-01T00:00:00Z"]) | st.text(
    st.sampled_from("09:-TZé\U0001f600\U00010000"), max_size=4
)


@st.composite
def cut_triples(draw) -> list[tuple[str, str, str]]:
    """(user id, stamp, text) triples cut from one hostile string at random
    points, so that many share their concatenation; the stamp drops the
    string's NULs."""
    whole = draw(hostile)
    cuts = st.lists(st.integers(0, len(whole)), min_size=2, max_size=2).map(sorted)
    return [
        (whole[:i], whole[i:j].replace("\x00", ""), whole[j:])
        for i, j in draw(st.lists(cuts, min_size=2, max_size=6))
    ]


@given(cut_triples() | st.lists(st.tuples(hostile, hostile_stamps, hostile), min_size=2, max_size=6))
def test_key_digests_are_equal_exactly_when_dedupe_keys_are(triples):
    # the first triple again: one pair of equal keys at least
    triples = triples + triples[:1]
    digests = [ingest._key_digest(*triple) for triple in triples]
    # RawPost.dedupe_key()'s form of each (user id, canonical stamp, text)
    keys = [
        (user_id, stamp, hashlib.sha256(text.encode("utf-8")).hexdigest())
        for user_id, stamp, text in triples
    ]
    assert all(type(digest) is bytes and len(digest) == 32 for digest in digests)
    for a, key_a in zip(digests, keys):
        for b, key_b in zip(digests, keys):
            assert (a == b) == (key_a == key_b)


def test_key_digests_tell_apart_keys_a_nul_separated_join_would_merge():
    first = RawPost("a\x002015-01-01T00:00:00Z", datetime(2016, 1, 1, tzinfo=timezone.utc), "x")
    second = RawPost("a", KEY_STAMP, "2016-01-01T00:00:00Z\x00x")
    joined = ["\x00".join([p.user_id, p.dedupe_key()[1], p.text]) for p in (first, second)]
    assert joined[0] == joined[1]
    assert first.dedupe_key() != second.dedupe_key()
    assert first.key_digest() != second.key_digest()


@given(st.text())
def test_sha256_gives_hashlibs_digests(text):
    data = text.encode("utf-8", "surrogatepass")
    assert ingest.sha256(data).digest() == hashlib.sha256(data).digest()
    assert ingest.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def fresh_python(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this facewall."""
    src = str(Path(ingest.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PYTHONHASHSEED": "0"},
    )
    return proc.stdout


def test_the_commands_do_not_load_openssl():
    # hashlib loads _hashlib, the OpenSSL binding; the builtin sha256 does not
    loaded = fresh_python(
        "import sys, facewall.cli\n"
        "print('_hashlib' in sys.modules, sys.modules['facewall.ingest'].sha256.__module__)"
    )
    assert loaded.split() == ["False", "_sha2" if sys.version_info >= (3, 12) else "_sha256"]


def test_sha256_falls_back_to_hashlib_without_the_builtin_modules():
    out = fresh_python(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib, facewall.cli\n"
        "from facewall import ingest\n"
        "print(ingest.sha256 is hashlib.sha256, ingest.sha256(b'bye').hexdigest())"
    )
    assert out.split() == ["True", hashlib.sha256(b"bye").hexdigest()]


def test_load_corpus_records_rejection_location(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"user_id":"u1","timestamp":"2015-03-02T10:00:00Z","text":"ok"}\nnot json\n',
        encoding="utf-8",
    )
    batch = load_corpus(path, "jsonl")
    assert len(batch.posts) == 1
    assert batch.rejected == [(2, "malformed")]


def test_load_corpus_accounting_invariant(tmp_path):
    lines = []
    record = post_record("u1", "2015-03-02T10:00:00Z", "dup")
    lines.append(json.dumps(record))
    lines.append(json.dumps(record))
    lines.append("garbage")
    lines.append(json.dumps(post_record("u2", "bad", "x")))
    lines.append(json.dumps(post_record("u3", "2015-03-02T10:00:00Z", "fine")))
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    batch = load_corpus(path, "jsonl")
    assert len(batch.posts) + len(batch.rejected) + batch.duplicates_dropped == 5


def test_load_csv_with_extra_columns_and_quoting(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "user_id,timestamp,text,mood\n"
        'u1,2015-03-02T10:00:00Z,"hello, world",ignored\n'
        'u2,2015-03-02T11:00:00Z,"line one\nline two",also\n',
        encoding="utf-8",
    )
    batch = load_corpus(path, "csv")
    assert [p.text for p in batch.posts] == ["hello, world", "line one\nline two"]
    assert batch.rejected == []


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_batch_holds_each_record_as_parsed_alone(tmp_path, fmt):
    records = [
        post_record(user, f"2015-03-0{day}T10:00:00Z", f"post {day}", source=source)
        for day, (user, source) in enumerate(
            [("u1", "wall"), (" u2", "wall"), ("u1", "mobile"), ("u2 ", "wall"), ("u1", "wall")], 1
        )
    ]
    records.append(post_record("u3", "2015-03-09T10:00:00Z", "no source"))
    path = write_corpus(tmp_path / f"corpus.{fmt}", records, fmt)
    posts = list(load_corpus(path, fmt).posts)
    # the same fields as each record parsed on its own
    alone = [parse_post_record(raw, fmt) for raw in _raw_records(path, fmt)]
    assert posts == alone
    assert [post.to_line() for post in posts] == [post.to_line() for post in alone]


def write_corpus(path, records: list[dict], fmt: str):
    """The records as a JSONL file, or as a CSV file whose rows leave a
    missing source empty."""
    if fmt == "jsonl":
        return write_jsonl(path, records)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, ["user_id", "timestamp", "text", "source"])
        writer.writeheader()
        writer.writerows(records)
    return path


def _raw_records(path, fmt) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        if fmt == "jsonl":
            return [line.rstrip("\n") for line in handle]
        return [row for row in csv.DictReader(handle)]


def first_seen_posts(path, fmt) -> list[RawPost]:
    """parse_post_record of each record of the file it takes, only the
    first of those with equal key digests."""
    posts: dict[bytes, RawPost] = {}
    for raw in _raw_records(path, fmt):
        try:
            post = parse_post_record(raw, fmt)
        except RecordRejected:
            continue
        posts.setdefault(post.key_digest(), post)
    return list(posts.values())


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_load_corpus_parses_each_stamp_once_and_the_len_of_its_posts_none(
    tmp_path, monkeypatch, fmt
):
    records = [
        post_record(f"u{i % 3}", f"2015-03-0{i % 4 + 1}T10:00:00+01:00", f"post {i % 5}")
        for i in range(12)
    ]
    records += records[:4] + [post_record("u9", "2015-03-02T10:00:00", "no offset")]
    path = write_corpus(tmp_path / f"corpus.{fmt}", records, fmt)
    calls: list[str] = []

    def counted(text):
        calls.append(text)
        return parse_rfc3339(text)

    monkeypatch.setattr(ingest, "parse_rfc3339", counted)
    batch = load_corpus(path, fmt)
    # one parse a record, the duplicates' and the bad stamp's too
    assert len(calls) == len(records) == 17
    assert batch.duplicates_dropped == 4 and len(batch.rejected) == 1
    # perfbench counts records by len(batch.posts), which decodes none
    assert len(batch.posts) == 12 and len(calls) == 17
    assert list(batch.posts) == first_seen_posts(path, fmt)


# Characters a JSON or CSV encoder must escape or quote, line breaks that
# str.splitlines() takes but the readers do not, and characters outside the
# BMP. CSV leaves NUL out: before Python 3.11 its reader cannot read one.
hostile_chars = ['"', "\\", "\x01", "\x1f", "\x7f", "\r", "\n", "\t", ",", " ", "\u2028", "\x85"]
hostile_chars += ["\ufeff", "\U0001f600", "\U00010000", "é", "a", "1", ":"]
# non-canonical forms of two instants, and a stamp that is no RFC 3339 one
record_stamps = st.sampled_from(
    [
        "2015-03-01T10:00:00Z",
        "2015-03-01T10:00:00z",
        "2015-03-01t10:00:00Z",
        "2015-03-01 10:00:00Z",
        "2015-03-01T12:00:00+02:00",
        "2015-03-01T09:30:00-00:30",
        "2015-03-01T10:00:00.000Z",
        "2015-03-01T10:00:00.5Z",
        "2015-03-01T12:00:00.500000+02:00",
        "2015-03-01T10:00:00",
    ]
)


def hostile_corpus(directory, fmt: str, data):
    """A corpus file of hostile records, in-file duplicates among them."""
    chars = hostile_chars + (["\x00"] if fmt == "jsonl" else [])
    field = st.text(st.sampled_from(chars), max_size=5)
    record = st.fixed_dictionaries(
        {"user_id": field, "timestamp": record_stamps, "text": field}, optional={"source": field}
    )
    records = data.draw(st.lists(record, min_size=1, max_size=6))
    # in-file duplicates, each drawn from the records before it
    records += data.draw(st.lists(st.sampled_from(records), max_size=4))
    return write_corpus(directory / f"corpus.{fmt}", records, fmt)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@given(data=st.data())
def test_a_batch_holds_the_line_and_key_digest_of_each_first_seen_post(
    tmp_path_factory, fmt, data
):
    path = hostile_corpus(tmp_path_factory.mktemp("corpus"), fmt, data)
    batch = load_corpus(path, fmt)
    want = first_seen_posts(path, fmt)
    assert batch.lines == [post.to_line() for post in want]
    assert batch.digests == [post.key_digest() for post in want]
    assert list(batch.posts) == want


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@given(data=st.data())
def test_the_store_reads_back_the_posts_of_the_batch_it_logged(tmp_path_factory, fmt, data):
    root = tmp_path_factory.mktemp("corpus")
    batch = load_corpus(hostile_corpus(root, fmt, data), fmt)
    store = Store.open(root / "store", create=True)
    store.append_batch(batch)
    assert list(store.iter_posts()) == list(batch.posts)
    # the store keys its log as the batch keys its lines: nothing is new
    assert store.append_batch(batch).written == 0


def test_load_csv_short_row_rejected(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("user_id,timestamp,text\nu1,2015-03-02T10:00:00Z\n", encoding="utf-8")
    batch = load_corpus(path, "csv")
    assert list(batch.posts) == []
    assert batch.rejected == [(2, "missing-field:text")]


@pytest.mark.parametrize("field", ["user_id", "timestamp", "text", "source"])
def test_lone_surrogate_is_malformed_and_the_batch_goes_on(tmp_path, field):
    from facewall.store import Store

    good = post_record("u1", "2015-03-02T10:00:00Z", "fine", source="web")
    bad = json.dumps(post_record("u2", "2015-03-02T11:00:00Z", "text", source="web"))
    bad = bad.replace(f'"{field}": "', f'"{field}": "\\ud800', 1)
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "\n".join([json.dumps(good), bad, json.dumps(good | {"user_id": "u3"})]) + "\n",
        encoding="utf-8",
    )
    batch = load_corpus(path, "jsonl")
    assert batch.rejected == [(2, "malformed")]
    store = Store.open(tmp_path / "store", create=True)
    assert store.append_batch(batch).written == 2
    assert [post.user_id for post in store.iter_posts()] == ["u1", "u3"]


def csv_corpus(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([["user_id", "timestamp", "text"], *rows])
    return path


def test_csv_field_over_the_csv_limit_is_malformed_and_the_batch_goes_on(tmp_path):
    huge = "x" * (csv.field_size_limit() + 1)
    rows = [
        ["u1", "2015-03-02T10:00:00Z", "fine"],
        ["u2", "2015-03-02T11:00:00Z", huge],
        ["u3", "2015-03-02T12:00:00Z", "multi\nline"],
        ["u4", "2015-03-02T13:00:00Z", "x" * 70_000 + "\n" + "x" * 70_000],
        ["u5", "2015-03-02T14:00:00Z", "fine"],
    ]
    limit = csv.field_size_limit()
    batch = load_corpus(csv_corpus(tmp_path / "corpus.csv", rows), "csv")
    # the reader fails on the line that takes a field past the limit: line 3
    # for u2, and for u4 (lines 6-7) the second line of its quoted field
    assert batch.rejected == [(3, "malformed"), (7, "malformed")]
    assert [post.user_id for post in batch.posts] == ["u1", "u3", "u5"]
    assert csv.field_size_limit() == limit
    # the same text is a valid JSONL record
    records = [post_record(*row) for row in rows]
    assert len(load_corpus(write_jsonl(tmp_path / "corpus.jsonl", records), "jsonl").posts) == 5


def test_csv_row_with_a_nul_byte_loads_or_is_malformed_and_the_batch_goes_on(tmp_path):
    rows = [
        ["u1", "2015-03-02T10:00:00Z", "fine"],
        ["u2", "2015-03-02T11:00:00Z", "a\x00b"],
        ["u3", "2015-03-02T12:00:00Z", "fine"],
    ]
    batch = load_corpus(csv_corpus(tmp_path / "corpus.csv", rows), "csv")
    if sys.version_info < (3, 11):  # the csv reader rejects NUL before 3.11
        assert batch.rejected == [(3, "malformed")]
        assert [post.user_id for post in batch.posts] == ["u1", "u3"]
    else:
        assert batch.rejected == []
        assert [post.text for post in batch.posts] == ["fine", "a\x00b", "fine"]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_byte_order_mark_is_not_part_of_the_first_record(tmp_path, fmt):
    rows = [["u1", "2015-03-02T10:00:00Z", "fine"], ["u2", "2015-03-02T11:00:00Z", "fine"]]
    if fmt == "csv":
        path = csv_corpus(tmp_path / "corpus.csv", rows)
    else:
        path = write_jsonl(tmp_path / "corpus.jsonl", [post_record(*row) for row in rows])
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    batch = load_corpus(path, fmt)
    assert batch.rejected == []
    assert [post.user_id for post in batch.posts] == ["u1", "u2"]


@pytest.mark.parametrize(
    "user_id, fits",
    [
        ("a" * 255, True),
        ("a" * 256, False),
        ("\u00e9" * 42, True),  # two UTF-8 bytes, six scope bytes each: 252
        ("\u00e9" * 43, False),
        ("." + "a" * 252, True),  # the leading dot is written %2E
        ("." + "a" * 253, False),
        ("\u5b57" * 30, False),  # 270 scope bytes
    ],
    ids=["ascii-255", "ascii-256", "latin-252", "latin-258", "dot-255", "dot-256", "cjk-270"],
)
def test_a_user_id_whose_scope_is_too_long_for_a_file_name_is_malformed(tmp_path, user_id, fits):
    from facewall.store import user_scope

    records = [
        post_record("u1", "2015-03-02T10:00:00Z", "fine"),
        post_record(user_id, "2015-03-02T11:00:00Z", "long"),
        post_record("u3", "2015-03-02T12:00:00Z", "fine"),
    ]
    batch = load_corpus(write_jsonl(tmp_path / "corpus.jsonl", records), "jsonl")
    assert len(batch.posts) == 2 + fits
    assert batch.rejected == ([] if fits else [(2, "malformed")])
    if fits:
        (tmp_path / user_scope(user_id)).mkdir()  # the scope is a valid file name


def test_load_corpus_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "nope.jsonl", "jsonl")


def test_zero_parseable_records_is_empty_batch(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("junk\nmore junk\n", encoding="utf-8")
    batch = load_corpus(path, "jsonl")
    assert list(batch.posts) == []
    assert len(batch.rejected) == 2


@pytest.mark.parametrize(
    "stamp",
    [
        "\uff12\uff10\uff11\uff15-03-02T10:00:00Z",  # fullwidth year
        "2015-03-02T10:00:00.\u0663Z",  # Arabic-Indic digit in the fraction
        "2015-03-02T10:00:00+\uff101:00",  # fullwidth digit in the offset
        "2015-03-02T1\u09e6:00:00Z",  # Bengali digit in the hour
    ],
)
def test_a_stamp_with_a_digit_outside_ascii_is_a_bad_timestamp(stamp):
    # RFC 3339's DIGIT is ASCII 0-9 only
    with pytest.raises(ValueError):
        parse_rfc3339(stamp)
    with pytest.raises(RecordRejected) as err:
        parse_post_record(json.dumps(post_record("u1", stamp, "x")), "jsonl")
    assert err.value.reason == "bad-timestamp"


def test_rfc3339_round_trip_random_instants():
    rng = random.Random(171)
    base = datetime(2010, 1, 1, tzinfo=timezone.utc)
    for _ in range(300):
        stamp = base + timedelta(
            days=rng.randrange(0, 2500),
            seconds=rng.randrange(0, 86400),
            microseconds=rng.choice([0, 0, rng.randrange(1_000_000)]),
        )
        assert parse_rfc3339(format_rfc3339(stamp)) == stamp


def test_rfc3339_fractional_and_lowercase_forms():
    assert parse_rfc3339("2015-03-02t10:00:00.5z") == datetime(
        2015, 3, 2, 10, 0, 0, 500000, tzinfo=timezone.utc
    )
    assert parse_rfc3339("2015-03-02 10:00:00-05:30") == datetime(
        2015, 3, 2, 15, 30, tzinfo=timezone.utc
    )


@pytest.mark.parametrize(
    "line",
    [
        "[" * 100_000,  # json.loads raises RecursionError
        '{"user_id": "u", "text": "x", "n": ' + "1" * 5000 + "}",  # int digit limit
    ],
    ids=["nested-too-deep", "int-too-long"],
)
def test_undecodable_json_is_malformed_and_the_batch_goes_on(tmp_path, line):
    good = json.dumps(post_record("u1", "2015-03-02T10:00:00Z", "fine"))
    path = tmp_path / "corpus.jsonl"
    path.write_text(f"{good}\n{line}\n{good.replace('u1', 'u2')}\n", encoding="utf-8")
    batch = load_corpus(path, "jsonl")
    assert batch.rejected == [(2, "malformed")]
    assert [post.user_id for post in batch.posts] == ["u1", "u2"]


REASONS = {"malformed", "bad-timestamp"} | {f"missing-field:{name}" for name in REQUIRED_FIELDS}

# Text a file can hold: no lone surrogates, no line breaks the reader splits on.
line_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | line_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(line_text, inner, max_size=3),
    max_leaves=8,
)
stamps = st.sampled_from(
    [
        "2015-03-02T10:00:00Z",
        "2015-03-02t10:00:00.5+05:30",
        " 2015-03-02T10:00:00Z",
        "2015-13-01T00:00:00Z",
    ]
)
# Each field mostly of its type; a null is a missing field.
record_fields = st.fixed_dictionaries(
    {
        "user_id": line_text | json_values,
        "timestamp": stamps | json_values,
        "text": line_text | json_values,
    },
    optional={"source": line_text | json_values},
)


@given(
    st.one_of(
        line_text,
        record_fields.map(json.dumps),
        record_fields.map(lambda record: json.dumps(record, ensure_ascii=False)),
    )
)
def test_any_jsonl_line_loads_or_is_rejected_for_a_documented_reason(tmp_path_factory, line):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    batch = load_corpus(path, "jsonl")
    assert len(batch.posts) + len(batch.rejected) == 1
    assert all(number == 1 and reason in REASONS for number, reason in batch.rejected)


csv_values = st.none() | stamps | st.text(st.characters(blacklist_categories=("Cs",)))


@given(st.lists(csv_values, min_size=1, max_size=5))
def test_any_csv_row_loads_or_is_rejected_for_a_documented_reason(tmp_path_factory, row):
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([["user_id", "timestamp", "text", "source"], row])
    batch = load_corpus(path, "csv")
    assert len(batch.posts) + len(batch.rejected) == 1
    assert all(reason in REASONS for _, reason in batch.rejected)


@pytest.mark.parametrize(
    "stamp",
    [
        "2015-03-01T10:00:00Z",
        "2015-03-01T10:00:00z",
        "2015-03-01t10:00:00Z",
        "2015-03-01 10:00:00Z",
        "2015-03-01T12:30:00+02:30",
        "2015-03-01T02:00:00-08:00",
        "2015-03-01T10:00:00.5Z",
        "2015-03-01T10:00:00.123456789+00:00",
        "2015-03-01T10:00:00.000000Z",
    ],
)
def test_a_keyed_post_keeps_its_line_record_and_dedupe_key(tmp_path, stamp):
    line = json.dumps(post_record("u1", stamp, "hello") | {"source": "feed"})
    fresh = parse_post_record(line, "jsonl")
    before = (fresh.to_line(), fresh.to_record(), fresh.dedupe_key())
    assert before[1]["timestamp"] == format_rfc3339(parse_rfc3339(stamp))
    digest = fresh.key_digest()
    assert (fresh.to_line(), fresh.to_record(), fresh.dedupe_key()) == before
    # load_corpus renders the line and the key as it reads the record; the
    # post read back from the batch gives the same
    (loaded,) = load_corpus(write_jsonl(tmp_path / "c.jsonl", [json.loads(line)]), "jsonl").posts
    assert (loaded.to_line(), loaded.to_record(), loaded.dedupe_key()) == before
    assert loaded.key_digest() == digest
    assert parse_post_record(line, "jsonl").key_digest() == digest
