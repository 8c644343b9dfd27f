"""Corpus record parsing: JSONL and CSV wall-post files into validated,
UTC-normalized records with per-line rejection reasons.

Exact duplicates (same user, same instant, same text) are re-scrapes and
are dropped on first sight; the first occurrence wins.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, fields
from datetime import datetime
from json.encoder import encode_basestring as _json_string
from pathlib import Path
from typing import Iterator, Mapping

from .rfc3339 import canonical_text, format_rfc3339, parse_rfc3339

FORMATS = ("jsonl", "csv")

REQUIRED_FIELDS = ("user_id", "timestamp", "text")


class RecordRejected(ValueError):
    """Carries the rejection reason for one unparseable record; its message
    is the detail, if given, else the reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


@dataclass(frozen=True, slots=True, init=False)
class RawPost:
    """One validated post.

    `_stamp_text` is internal to the readers in this package: the
    timestamp's canonical text (what format_rfc3339 writes), passed by a
    reader that already holds it so that it is not formatted again. It is
    never checked against `timestamp`; other callers leave it out."""

    user_id: str
    timestamp: datetime
    text: str
    source: str | None = None
    # the timestamp's canonical text, and the dedupe key once built
    _stamp: str = field(default="", init=False, repr=False, compare=False)
    _key: tuple[str, str, str] | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(
        self,
        user_id: str,
        timestamp: datetime,
        text: str,
        source: str | None = None,
        _stamp_text: str | None = None,
    ) -> None:
        # Each slot is set through its descriptor, in about half the time
        # of the generated frozen __init__'s object.__setattr__ calls.
        _set_user_id(self, user_id)
        _set_timestamp(self, timestamp)
        _set_text(self, text)
        _set_source(self, source)
        _set_stamp(self, format_rfc3339(timestamp) if _stamp_text is None else _stamp_text)
        _set_key(self, None)

    def dedupe_key(self) -> tuple[str, str, str]:
        # Built once, when asked: ingest dedupes a post in the batch and
        # again against the store; analyze reads posts without a key.
        key = self._key
        if key is None:
            digest = hashlib.sha256(self.text.encode("utf-8")).hexdigest()
            key = (self.user_id, self._stamp, digest)
            _set_key(self, key)
        return key

    def to_record(self) -> dict:
        record = {"user_id": self.user_id, "timestamp": self._stamp, "text": self.text}
        if self.source is not None:
            record["source"] = self.source
        return record

    def to_line(self) -> str:
        """The record as one post-log line: the bytes of
        json.dumps(self.to_record(), sort_keys=True, ensure_ascii=False)
        plus a newline, built directly."""
        source = "" if self.source is None else f'"source": {_json_string(self.source)}, '
        return (
            "{" + source + '"text": ' + _json_string(self.text)
            + ', "timestamp": ' + _json_string(self._stamp)
            + ', "user_id": ' + _json_string(self.user_id) + "}\n"
        )


_set_user_id, _set_timestamp, _set_text, _set_source, _set_stamp, _set_key = (
    RawPost.__dict__[f.name].__set__ for f in fields(RawPost)
)


@dataclass
class CorpusBatch:
    posts: list[RawPost] = field(default_factory=list)
    rejected: list[tuple[int, str]] = field(default_factory=list)
    duplicates_dropped: int = 0


def check_post_fields(user_id: object, timestamp: object, text: object, source: object) -> None:
    """Raises RecordRejected("malformed") unless each field is a string
    that UTF-8 can encode; source may also be None."""
    if not (
        isinstance(user_id, str)
        and isinstance(timestamp, str)
        and isinstance(text, str)
        and (source is None or isinstance(source, str))
    ):
        raise RecordRejected("malformed", "a field that is not a string")
    try:
        # A JSON escape can carry a lone surrogate, which has no UTF-8 form.
        (user_id + timestamp + text + (source or "")).encode("utf-8")
    except UnicodeEncodeError:
        raise RecordRejected("malformed", "a field that UTF-8 cannot encode") from None


def _post_from_fields(obj: Mapping[str, object]) -> RawPost:
    user_id, timestamp, text = required = tuple(map(obj.get, REQUIRED_FIELDS))
    if None in required:
        raise RecordRejected("missing-field:" + REQUIRED_FIELDS[required.index(None)])
    source = obj.get("source")
    check_post_fields(user_id, timestamp, text, source)
    user_id = user_id.strip()
    if not user_id:
        raise RecordRejected("missing-field:user_id")
    try:
        stamp = parse_rfc3339(timestamp)
    except ValueError:
        raise RecordRejected("bad-timestamp") from None
    return RawPost(user_id, stamp, text, source, canonical_text(timestamp, stamp))


# The decoder's C scanner, without json.loads' per-call set-up.
_scan_once = json.JSONDecoder().scan_once


def parse_json(line: str) -> object:
    """json.loads(line). The scanner takes a line it consumes whole; any
    other line goes to json.loads, which accepts or raises as usual."""
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


def _post_from_line(line: str) -> RawPost:
    try:
        obj = parse_json(line)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        raise RecordRejected("malformed") from None
    if not isinstance(obj, dict):
        raise RecordRejected("malformed")
    return _post_from_fields(obj)


def parse_post_record(raw: str | Mapping[str, object], fmt: str) -> RawPost:
    """Parse one JSONL line or one CSV row mapping; raises RecordRejected
    with the failing field's reason."""
    if fmt == "jsonl":
        if not isinstance(raw, str):
            raise RecordRejected("malformed")
        return _post_from_line(raw)
    if fmt == "csv":
        if not isinstance(raw, Mapping):
            raise RecordRejected("malformed")
        return _post_from_fields(raw)
    raise ValueError(f"unsupported format: {fmt!r}")


def _iter_jsonl(handle) -> Iterator[tuple[int, str | Mapping[str, object]]]:
    for number, line in enumerate(handle, start=1):
        yield number, line.rstrip("\n")


def _iter_csv(handle) -> Iterator[tuple[int, Mapping[str, object]]]:
    # Header row required (line 1); extra columns are ignored, a row shorter
    # than the header yields None for the missing fields.
    reader = csv.DictReader(handle)
    for row in reader:
        row.pop(None, None)
        yield reader.line_num, row


def load_corpus(path: str | Path, fmt: str) -> CorpusBatch:
    """Read every record of the file in order, collecting rejections and
    dropping in-file duplicates (first occurrence kept).

    Unreadable files raise OSError, and files that are not UTF-8 raise
    UnicodeDecodeError; a file with zero parseable records is a valid, empty
    batch.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unsupported format: {fmt!r}")
    batch = CorpusBatch()
    seen: set[tuple[str, str, str]] = set()
    with open(path, "r", encoding="utf-8", newline="" if fmt == "csv" else None) as handle:
        if fmt == "jsonl":
            rows, parse = _iter_jsonl(handle), _post_from_line
        else:
            rows, parse = _iter_csv(handle), _post_from_fields
        for number, raw in rows:
            try:
                post = parse(raw)
            except RecordRejected as rejection:
                batch.rejected.append((number, rejection.reason))
                continue
            key = post.dedupe_key()
            if key in seen:
                batch.duplicates_dropped += 1
                continue
            seen.add(key)
            batch.posts.append(post)
    return batch
