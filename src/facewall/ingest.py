"""Corpus record parsing: JSONL and CSV wall-post files into validated,
UTC-normalized records with per-line rejection reasons.

Exact duplicates (same user, same instant, same text) are re-scrapes and
are dropped on first sight; the first occurrence wins.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping

from .rfc3339 import format_rfc3339, parse_rfc3339

FORMATS = ("jsonl", "csv")

REQUIRED_FIELDS = ("user_id", "timestamp", "text")


class RecordRejected(ValueError):
    """Carries the rejection reason for one unparseable record."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class RawPost:
    user_id: str
    timestamp: datetime
    text: str
    source: str | None = None

    def dedupe_key(self) -> tuple[str, str, str]:
        return self._dedupe_key

    # Computed once per post: ingest dedupes a post in the batch and again
    # against the store, then writes its record with the same timestamp text.
    @cached_property
    def _dedupe_key(self) -> tuple[str, str, str]:
        digest = hashlib.sha256(self.text.encode("utf-8")).hexdigest()
        return (self.user_id, self._stamp_text, digest)

    @cached_property
    def _stamp_text(self) -> str:
        return format_rfc3339(self.timestamp)

    def to_record(self) -> dict:
        record = {
            "user_id": self.user_id,
            "timestamp": self._stamp_text,
            "text": self.text,
        }
        if self.source is not None:
            record["source"] = self.source
        return record


@dataclass
class CorpusBatch:
    posts: list[RawPost] = field(default_factory=list)
    rejected: list[tuple[int, str]] = field(default_factory=list)
    duplicates_dropped: int = 0


def _post_from_fields(obj: Mapping[str, object]) -> RawPost:
    for name in REQUIRED_FIELDS:
        if obj.get(name) is None:
            raise RecordRejected(f"missing-field:{name}")
    user_id, timestamp, text = (obj[name] for name in REQUIRED_FIELDS)
    source = obj.get("source")
    if not all(isinstance(v, str) for v in (user_id, timestamp, text)):
        raise RecordRejected("malformed")
    if source is not None and not isinstance(source, str):
        raise RecordRejected("malformed")
    try:
        # A JSON escape can carry a lone surrogate, which has no UTF-8 form.
        "".join((user_id, timestamp, text, source or "")).encode("utf-8")
    except UnicodeEncodeError:
        raise RecordRejected("malformed") from None
    user_id = user_id.strip()
    if not user_id:
        raise RecordRejected("missing-field:user_id")
    try:
        stamp = parse_rfc3339(timestamp)
    except ValueError:
        raise RecordRejected("bad-timestamp") from None
    return RawPost(user_id=user_id, timestamp=stamp, text=text, source=source)


def parse_post_record(raw: str | Mapping[str, object], fmt: str) -> RawPost:
    """Parse one JSONL line or one CSV row mapping; raises RecordRejected
    with the failing field's reason."""
    if fmt == "jsonl":
        if not isinstance(raw, str):
            raise RecordRejected("malformed")
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            raise RecordRejected("malformed") from None
        if not isinstance(obj, dict):
            raise RecordRejected("malformed")
        return _post_from_fields(obj)
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
        rows = _iter_jsonl(handle) if fmt == "jsonl" else _iter_csv(handle)
        for number, raw in rows:
            try:
                post = parse_post_record(raw, fmt)
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
