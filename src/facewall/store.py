"""Append-only file-backed post store: normalized JSONL log, manifest, and
the derived-artifact cache keyed by (scope, analysis config hash).

Appends never rewrite existing log bytes, so re-ingesting the same corpus
leaves the store byte-identical; ingest only cuts a torn last line, the
remains of a write cut short, which was never a record. One writer at a time is enforced with an
advisory flock on <root>/.lock.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

from .ingest import CorpusBatch, RawPost, check_post_fields, parse_json
from .rfc3339 import canonical_text, parse_rfc3339

SCHEMA_VERSION = 1

POSTS_FILE = "posts.jsonl"
MANIFEST_FILE = "manifest.json"
LOCK_FILE = ".lock"
DERIVED_DIR = "derived"

# bytes read at a time when looking back for the log's last newline
_TAIL_CHUNK = 1 << 16

# Reserved derived scopes. quote() output never starts with "@", so these
# cannot collide with an encoded user id.
ALL_SCOPE = "@all"
MODEL_SCOPE = "@model"
META_SCOPE = "@meta"


class StoreError(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@contextmanager
def store_io():
    """Raises an OSError of the block as a store-io StoreError."""
    try:
        yield
    except OSError as exc:
        raise StoreError("store-io", str(exc)) from exc


def user_scope(user_id: str) -> str:
    """Filesystem-safe directory name for a user id (reversible). A leading
    dot is escaped too, so "." and ".." never name a directory step."""
    scope = quote(user_id, safe="")
    return "%2E" + scope[1:] if scope.startswith(".") else scope


@dataclass(frozen=True)
class AppendReceipt:
    written: int
    record_count: int


class Store:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._manifest: dict | None = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, root: str | Path, create: bool = False) -> "Store":
        store = cls(root)
        if not store.manifest_path.exists():
            if not create:
                raise StoreError("store-io", f"no store at {store.root}")
            with store_io():
                store.root.mkdir(parents=True, exist_ok=True)
                store.posts_path.touch(exist_ok=True)
            store._manifest = {
                "schema_version": SCHEMA_VERSION,
                "record_count": 0,
                "config_hash": None,
                "analyses": {},
            }
            store._save_manifest()
        store._load_manifest()
        return store

    @property
    def posts_path(self) -> Path:
        return self.root / POSTS_FILE

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_FILE

    @property
    def derived_root(self) -> Path:
        return self.root / DERIVED_DIR

    @contextmanager
    def lock(self):
        """Advisory exclusive lock; a held lock is a store error, not a wait."""
        lock_path = self.root / LOCK_FILE
        with store_io():
            handle = open(lock_path, "w")
        try:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                raise StoreError("locked", f"another command holds {lock_path}") from exc
            yield
        finally:
            handle.close()

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self) -> None:
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise StoreError("store-io", f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreError("store-io", "unreadable manifest: not a JSON object")
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise StoreError(
                "schema-mismatch",
                f"store schema {manifest.get('schema_version')!r}, expected {SCHEMA_VERSION}",
            )
        if not isinstance(manifest.get("record_count"), int) or not isinstance(
            manifest.get("analyses", {}), dict
        ):
            raise StoreError("store-io", "unreadable manifest: bad record_count or analyses")
        self._manifest = manifest

    def _save_manifest(self) -> None:
        text = json.dumps(self._manifest, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        _write_atomic(self.manifest_path, text)

    @property
    def manifest(self) -> dict:
        assert self._manifest is not None
        return self._manifest

    @property
    def record_count(self) -> int:
        return int(self.manifest["record_count"])

    # -- post log ----------------------------------------------------------

    def iter_posts(self):
        line, number = "", 0
        try:
            with open(self.posts_path, "r", encoding="utf-8") as handle:
                for number, line in enumerate(handle, 1):
                    obj = parse_json(line.rstrip("\n"))
                    user_id, stamp_text, text = obj["user_id"], obj["timestamp"], obj["text"]
                    source = obj.get("source")
                    check_post_fields(user_id, stamp_text, text, source)
                    stamp = parse_rfc3339(stamp_text)
                    # A hand-written stamp in another form is keyed by its
                    # canonical text, as ingest keys it.
                    yield RawPost(
                        user_id, stamp, text, source, canonical_text(stamp_text, stamp)
                    )
        except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
            # TypeError: not an object; ValueError: also a field check
            # (RecordRejected); RecursionError: nested too deep
            if line and not line.endswith("\n"):
                raise StoreError(
                    "store-io", f"corrupt post log: torn last line ({exc}); "
                    "`facewall ingest` cuts it"
                ) from exc
            where = f"line {number}: " if number else ""
            raise StoreError("store-io", f"corrupt post log: {where}{exc}") from exc

    def cut_torn_tail(self) -> int:
        """Cut the log back to its last newline and return the bytes cut.

        Every record ends in a newline, so bytes after the last one are a
        write cut short, never a record. Call under lock().
        """
        with store_io(), open(self.posts_path, "r+b") as handle:
            size = end = handle.seek(0, os.SEEK_END)
            keep = 0
            while end:
                start = max(0, end - _TAIL_CHUNK)
                handle.seek(start)
                newline = handle.read(end - start).rfind(b"\n")
                if newline >= 0:
                    keep = start + newline + 1
                    break
                end = start
            if keep < size:
                handle.truncate(keep)
        return size - keep

    def append_batch(self, batch: CorpusBatch) -> AppendReceipt:
        """Append new records in batch order; records already present (same
        dedupe key) are skipped. Idempotent across re-ingests.

        The manifest's record_count becomes the records read from the log
        plus those written, which also heals a count left short, e.g. by
        an ingest that died after writing some records."""
        # Local to the call, so it is dropped while the caller still holds
        # the batch: the batch's key tuples are then freed with their posts,
        # in allocation order, not in the set's hash order, which would
        # leave the freed memory in scattered pieces the next command
        # cannot return or fully reuse.
        keys = set()
        logged = 0
        for post in self.iter_posts():
            keys.add(post.dedupe_key())
            logged += 1
        written = 0
        with store_io(), open(self.posts_path, "a", encoding="utf-8") as handle:
            for post in batch.posts:
                key = post.dedupe_key()
                if key in keys:
                    continue
                handle.write(post.to_line())
                keys.add(key)
                written += 1
        if self.record_count != logged + written:
            self.manifest["record_count"] = logged + written
            self._save_manifest()
        return AppendReceipt(written=written, record_count=self.record_count)

    # -- derived artifacts ---------------------------------------------------

    def derived_dir(self, scope: str, config_hash: str) -> Path:
        return self.derived_root / scope / config_hash

    def register_analysis(self, config_hash: str, info: dict) -> None:
        self.manifest.setdefault("analyses", {})[config_hash] = info
        self.manifest["config_hash"] = config_hash
        self._save_manifest()


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with store_io():
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
