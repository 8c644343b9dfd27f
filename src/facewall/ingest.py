"""Corpus record parsing: JSONL and CSV wall-post files into validated,
UTC-normalized records with per-line rejection reasons.

Exact duplicates (same user, same instant, same text) are re-scrapes and
are dropped on first sight; the first occurrence wins. Ingest tells them
apart by their key digests, 32 bytes a post.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from datetime import datetime
from json.encoder import encode_basestring as _json_string
from pathlib import Path
from urllib.parse import quote

from .rfc3339 import canonical_text, parse_rfc3339

FORMATS = ("jsonl", "csv")

REQUIRED_FIELDS = ("user_id", "timestamp", "text")

# The longest file name, in bytes, that common file systems take (NAME_MAX).
MAX_SCOPE_BYTES = 255

# sha256 from CPython's builtin module, which unlike hashlib loads no OpenSSL
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # built without it: hashlib
        from hashlib import sha256


class RecordRejected(ValueError):
    """Carries the rejection reason for one unparseable record; its message
    is the detail, if given, else the reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


def _log_line(user_id: str, stamp: str, text: str, source: str | None) -> str:
    """A record's post-log line: the bytes of json.dumps(record,
    sort_keys=True, ensure_ascii=False) plus a newline, built directly,
    where stamp is the canonical stamp text and a None source is left out."""
    head = "{" if source is None else f'{{"source": {_json_string(source)}, '
    return (
        f'{head}"text": {_json_string(text)}, "timestamp": {_json_string(stamp)}, '
        f'"user_id": {_json_string(user_id)}}}\n'
    )


def _key_digest(user_id: str, stamp: str, text: str) -> bytes:
    """The 32-byte sha256 of a dedupe key, in an encoding that tells any two
    (user id, canonical stamp, text) triples apart: the user id behind its
    length, the stamp (never a NUL) ended by a NUL, then the text. Among n
    distinct triples, P(any two digests equal) <= n**2 / 2**257."""
    return sha256(f"{len(user_id)}:{user_id}{stamp}\0{text}".encode("utf-8")).digest()


@dataclass(frozen=True, slots=True)
class RawPost:
    """One validated post."""

    user_id: str
    timestamp: datetime
    text: str
    source: str | None = None


@dataclass
class CorpusBatch:
    """The kept records of a corpus file, in file order, as the append
    writes them: each one's post-log line (_log_line) and key digest
    (_key_digest). Also the rejections, as (line number, reason), and the
    count of in-file duplicates dropped."""

    lines: list[str] = field(default_factory=list)
    digests: list[bytes] = field(default_factory=list)
    rejected: list[tuple[int, str]] = field(default_factory=list)
    duplicates_dropped: int = 0

    @property
    def posts(self) -> Sequence[RawPost]:
        """The lines read back as RawPosts, each decoded when it is read;
        len() decodes none."""
        return _LoggedPosts(self.lines)


class _LoggedPosts(Sequence):
    """A read-only sequence of the RawPosts that post-log lines record."""

    def __init__(self, lines: list[str]) -> None:
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index: int) -> RawPost:
        return RawPost(*decode_log_line(self._lines[index])[:4])


def decode_log_line(line: str) -> tuple[str, datetime, str, str | None, str]:
    """The checked fields of a post-log line, as _record_fields gives them:
    a hand-written stamp in another form is keyed by its canonical text, as
    ingest keys it. A line that is no JSON object, lacks a field or fails a
    check raises KeyError, TypeError, ValueError or RecursionError (nested
    too deep). The newline is cut first, so json's error names line 1."""
    obj = parse_json(line.rstrip("\n"))
    user_id, stamp, text = obj["user_id"], obj["timestamp"], obj["text"]
    source = obj.get("source")
    check_post_fields(user_id, stamp, text, source)
    timestamp = parse_rfc3339(stamp)
    return user_id, timestamp, text, source, canonical_text(stamp, timestamp)


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
    joined = user_id + timestamp + text + (source or "")
    # A JSON escape can carry a lone surrogate, which has no UTF-8 form; an
    # ASCII string holds none.
    if not joined.isascii():
        try:
            joined.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordRejected("malformed", "a field that UTF-8 cannot encode") from None


def user_scope(user_id: str) -> str:
    """Filesystem-safe directory name for a user id (reversible). A leading
    dot is escaped too, so "." and ".." never name a directory step."""
    scope = quote(user_id, safe="")
    return "%2E" + scope[1:] if scope.startswith(".") else scope


def lacks_scope(user_id: str) -> bool:
    """Whether user_id names no scope directory: it is empty, whose files
    would sit among the scopes, or its user_scope is too long for a name."""
    # quote writes at most 12 bytes for a character, so a short id fits
    return not user_id or (
        len(user_id) > MAX_SCOPE_BYTES // 12 and len(user_scope(user_id)) > MAX_SCOPE_BYTES
    )


def _record_fields(obj: object) -> tuple[str, datetime, str, str | None, str]:
    """The checked fields of a parsed JSONL object or CSV row: RawPost's
    arguments, then the canonical stamp text. Raises RecordRejected with
    the first failing check's reason."""
    # not a JSON object; a CSV row the csv module could not read (None)
    if not isinstance(obj, Mapping):
        raise RecordRejected("malformed")
    user_id, timestamp, text = required = tuple(map(obj.get, REQUIRED_FIELDS))
    if None in required:
        raise RecordRejected("missing-field:" + REQUIRED_FIELDS[required.index(None)])
    source = obj.get("source")
    check_post_fields(user_id, timestamp, text, source)
    user_id = user_id.strip()
    if not user_id:
        raise RecordRejected("missing-field:user_id")
    # The store names a directory user_scope(user_id), which is not empty.
    if lacks_scope(user_id):
        raise RecordRejected("malformed", "a user id too long for a directory name")
    try:
        stamp = parse_rfc3339(timestamp)
    except ValueError:
        raise RecordRejected("bad-timestamp") from None
    return user_id, stamp, text, source, canonical_text(timestamp, stamp)


# The decoder's C scanner, without json.loads' per-call set-up.
_scan_once = json.JSONDecoder().scan_once


def parse_json(line: str) -> object:
    """json.loads(line). The scanner takes a line it consumes whole but for
    a last newline; any other line goes to json.loads, which accepts or
    raises as usual."""
    try:
        obj, end = _scan_once(line, 0)
        if line[end:] in ("", "\n"):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


def _line_fields(line: str) -> tuple[str, datetime, str, str | None, str]:
    """_record_fields of a JSONL line."""
    try:
        obj = parse_json(line)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        raise RecordRejected("malformed") from None
    return _record_fields(obj)


def parse_post_record(raw: str | Mapping[str, object], fmt: str) -> RawPost:
    """Parse one JSONL line or one CSV row mapping; raises RecordRejected
    with the failing field's reason."""
    if fmt == "jsonl":
        if not isinstance(raw, str):
            raise RecordRejected("malformed")
        fields = _line_fields(raw)
    elif fmt == "csv":
        fields = _record_fields(raw)
    else:
        raise ValueError(f"unsupported format: {fmt!r}")
    return RawPost(*fields[:4])


def _iter_csv(handle) -> Iterator[tuple[int, Mapping[str, object] | None]]:
    """(number of the last line read, row) per CSV record. Header row
    required (line 1); extra columns are ignored, a row shorter than the
    header yields None for the missing fields. A row the csv module cannot
    read (a field over csv.field_size_limit(), NUL before 3.11) is None, and
    the reader goes on at the next line; reader.line_num can lag after such
    an error, so the lines are counted here."""
    read = [0]
    reader = csv.DictReader(line for read[0], line in enumerate(handle, 1))
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error:
            row = None
        else:
            row.pop(None, None)
        yield read[0], row


def load_corpus(path: str | Path, fmt: str) -> CorpusBatch:
    """Read every record of the file in order, collecting rejections and
    dropping in-file duplicates (first occurrence kept), as told apart by
    their key digests. Each kept record's log line and digest are rendered
    as it is read, from the stamp text in hand; no RawPost is built.

    Unreadable files raise OSError, and files that are not UTF-8 raise
    UnicodeDecodeError; a leading byte-order mark is dropped. A file with
    zero parseable records is a valid, empty batch.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unsupported format: {fmt!r}")
    batch = CorpusBatch()
    lines, digests = batch.lines, batch.digests
    seen: set[bytes] = set()
    with open(path, "r", encoding="utf-8-sig", newline="" if fmt == "csv" else None) as handle:
        if fmt == "jsonl":
            rows, fields_of = enumerate(handle, 1), _line_fields
        else:
            rows, fields_of = _iter_csv(handle), _record_fields
        for number, raw in rows:
            try:
                user_id, _, text, source, stamp = fields_of(raw)
            except RecordRejected as rejection:
                batch.rejected.append((number, rejection.reason))
                continue
            key = _key_digest(user_id, stamp, text)
            if key in seen:
                batch.duplicates_dropped += 1
                continue
            seen.add(key)
            digests.append(key)
            lines.append(_log_line(user_id, stamp, text, source))
    return batch
