import io
import json
from datetime import timezone
from unittest import mock
from urllib.parse import unquote

import pytest
from hypothesis import example, given, strategies as st

from facewall import store as store_module
from facewall.ingest import CorpusBatch, RawPost, load_corpus
from facewall.store import JSON_CHUNK_MEMBERS, Store, StoreError, user_scope, write_json
from helpers import post_record, write_jsonl


def corpus(tmp_path, n=3, name="c.jsonl"):
    return write_jsonl(
        tmp_path / name,
        [post_record(f"u{i}", f"2015-03-0{i + 1}T10:00:00Z", f"post {i}") for i in range(n)],
    )


def test_append_then_reappend_then_extend(tmp_path):
    store = Store.open(tmp_path / "store", create=True)
    batch = load_corpus(corpus(tmp_path, 3), "jsonl")

    receipt = store.append_batch(batch)
    assert (receipt.written, receipt.record_count) == (3, 3)

    receipt = store.append_batch(batch)
    assert (receipt.written, receipt.record_count) == (0, 3)

    more = write_jsonl(
        tmp_path / "more.jsonl",
        [post_record("u9", "2016-01-01T00:00:00Z", "a"), post_record("u9", "2016-01-02T00:00:00Z", "b")],
    )
    receipt = store.append_batch(load_corpus(more, "jsonl"))
    assert (receipt.written, receipt.record_count) == (2, 5)


def test_reingest_leaves_store_bytes_identical(tmp_path):
    root = tmp_path / "store"
    batch = load_corpus(corpus(tmp_path), "jsonl")

    store = Store.open(root, create=True)
    store.append_batch(batch)
    log_before = (root / "posts.jsonl").read_bytes()
    manifest_before = (root / "manifest.json").read_bytes()

    Store.open(root).append_batch(batch)
    assert (root / "posts.jsonl").read_bytes() == log_before
    assert (root / "manifest.json").read_bytes() == manifest_before


def test_manifest_count_matches_log(tmp_path):
    root = tmp_path / "store"
    store = Store.open(root, create=True)
    store.append_batch(load_corpus(corpus(tmp_path, 3), "jsonl"))
    lines = (root / "posts.jsonl").read_text().splitlines()
    assert store.record_count == len(lines) == 3


def test_stored_timestamps_round_trip(tmp_path):
    src = write_jsonl(
        tmp_path / "c.jsonl", [post_record("u1", "2012-01-01T00:00:00+02:00", "x")]
    )
    store = Store.open(tmp_path / "store", create=True)
    store.append_batch(load_corpus(src, "jsonl"))
    [post] = list(Store.open(tmp_path / "store").iter_posts())
    record = json.loads((tmp_path / "store" / "posts.jsonl").read_text())
    assert record["timestamp"] == "2011-12-31T22:00:00Z"
    assert post.timestamp.isoformat() == "2011-12-31T22:00:00+00:00"


def test_open_missing_store_fails(tmp_path):
    with pytest.raises(StoreError) as err:
        Store.open(tmp_path / "absent")
    assert err.value.reason == "store-io"


def test_schema_mismatch(tmp_path):
    root = tmp_path / "store"
    Store.open(root, create=True)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["schema_version"] = 99
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError) as err:
        Store.open(root)
    assert err.value.reason == "schema-mismatch"


def test_lock_is_exclusive(tmp_path):
    store = Store.open(tmp_path / "store", create=True)
    other = Store.open(tmp_path / "store")
    with store.lock():
        with pytest.raises(StoreError) as err:
            with other.lock():
                pass
        assert err.value.reason == "locked"
    with other.lock():
        pass


def test_user_scope_encoding_is_reversible_and_flat():
    for uid in ["plain", "with space", "a/b", "@all", "ü™er", "%40", ".", "..", ".hidden", "%2E"]:
        scope = user_scope(uid)
        assert "/" not in scope
        assert not scope.startswith(("@", "."))
        assert unquote(scope) == uid


@given(st.text())
def test_any_user_scope_is_reversible_and_flat(uid):
    scope = user_scope(uid)
    assert unquote(scope) == uid
    assert "/" not in scope
    assert not scope.startswith(("@", "."))


@pytest.mark.parametrize(
    "tail",
    [b"", b'{"text": "cut sh', b'{"user_id": "u9"}', b"x" * 70_000],
    ids=["whole", "partial", "no-newline", "past-one-chunk"],
)
def test_cut_torn_tail_keeps_every_whole_line(tmp_path, tail):
    store = Store.open(tmp_path / "store", create=True)
    store.append_batch(load_corpus(corpus(tmp_path, 3), "jsonl"))
    whole = store.posts_path.read_bytes()
    store.posts_path.write_bytes(whole + tail)
    assert store.cut_torn_tail() == len(tail)
    assert store.posts_path.read_bytes() == whole
    assert len(list(store.iter_posts())) == 3


def test_cut_torn_tail_of_a_log_without_newline(tmp_path):
    store = Store.open(tmp_path / "store", create=True)
    store.posts_path.write_bytes(b'{"user_id": "u1", "te')
    assert store.cut_torn_tail() == 21
    assert store.posts_path.read_bytes() == b""
    assert store.cut_torn_tail() == 0


# Characters a line-oriented log must carry inside a record's strings.
hostile_text = st.text(
    st.sampled_from(["\u2028", "\u2029", "\r", "\n", "\x00", '"', "\\", "\U0001f600", "\x85", "a"])
    | st.characters(blacklist_categories=("Cs",))
)
utc_instants = st.datetimes(timezones=st.just(timezone.utc))
posts = st.builds(
    RawPost,
    user_id=hostile_text,
    timestamp=utc_instants,
    text=hostile_text,
    source=st.none() | hostile_text,
)


@given(st.lists(posts, max_size=5))
def test_appended_posts_read_back_equal(tmp_path_factory, batch_posts):
    store = Store.open(tmp_path_factory.mktemp("store") / "store", create=True)
    first = {}
    for post in batch_posts:
        first.setdefault(post.dedupe_key(), post)
    unique = list(first.values())
    receipt = store.append_batch(CorpusBatch(posts=batch_posts * 2))
    assert receipt.written == receipt.record_count == len(unique)
    read = list(store.iter_posts())
    assert read == unique
    assert [post.dedupe_key() for post in read] == [post.dedupe_key() for post in unique]


@given(posts)
def test_log_line_is_the_sorted_json_record(post):
    assert post.to_line() == json.dumps(post.to_record(), sort_keys=True, ensure_ascii=False) + "\n"


# -- write_json ------------------------------------------------------------------

json_keys = st.text() | st.sampled_from(
    ["", '"', "\\", "\n", "\x00", "\x7f", "é", "\u2028", "😀"]
)
json_scalars = st.one_of(
    st.text(), st.sampled_from(["\u2028", "\u2029", "a\"b\\c", "é😀"]),
    st.integers(), st.floats(), st.booleans(),
)
# strings that hold a flat dict list's member and dict separators, as the C
# encoder writes them, but escaped
separator_strings = st.sampled_from(["},", "{", "}", "},\n  {", "\n", "}\u2028{", "\u2028"])
flat_dict_lists = st.lists(
    st.dictionaries(json_keys | separator_strings, json_scalars | separator_strings, min_size=1),
    min_size=1,
    max_size=6,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(json_keys, inner, max_size=6)
    | flat_dict_lists,
    max_leaves=40,
)


def written_json(value) -> str:
    handle = io.StringIO()
    write_json(handle, value)
    return handle.getvalue()


@given(json_values, st.integers(1, 4))
@example({}, 1)
@example([], 1)
@example({"": [], "\u2028": {}, "a": [{}, [], "\u2028"], "b": {"c": [1, 2.5, True]}}, 2)
@example([{"a": "},\n  {", "b": 1}, {"},": "}"}, {"c": float("inf")}], 2)
@example({"a": [{"b": [1]}, {"c": 2}], "d": [{"e": {}}, {"f": []}]}, 1)
def test_write_json_is_json_dumps_with_indent(value, chunk):
    want = json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    with mock.patch.object(store_module, "JSON_CHUNK_MEMBERS", chunk):
        assert written_json(value) == want
    assert written_json(value) == want


def test_write_json_never_writes_a_large_container_whole():
    value = {
        "features": {f"WORD:w{i}": i for i in range(3 * JSON_CHUNK_MEMBERS)},
        "flags": [{"bucket": i, "value": i / 7} for i in range(3 * JSON_CHUNK_MEMBERS)],
        "vocabulary": [f"WORD:w{i}" for i in range(3 * JSON_CHUNK_MEMBERS)],
    }
    pieces = []
    handle = mock.Mock(write=pieces.append)
    write_json(handle, value)
    assert "".join(pieces) == json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    # each piece holds at most JSON_CHUNK_MEMBERS members: scalars, one a
    # line, or flat dicts, one "bucket" key each
    members = [piece.count('"bucket"') or piece.count("\n") + 1 for piece in pieces]
    assert max(members) == JSON_CHUNK_MEMBERS
    # the flat dicts went to the encoder a piece at a time
    assert sum(piece.count('"bucket"') == JSON_CHUNK_MEMBERS for piece in pieces) == 3
