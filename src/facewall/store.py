"""Append-only file-backed post store: normalized JSONL log, manifest, and
the derived-artifact cache keyed by (scope, analysis config hash).

Appends never rewrite existing log bytes, so re-ingesting the same corpus
leaves the store byte-identical; ingest only cuts a torn last line, the
remains of a write cut short, which was never a record. Ingest is the one
command that writes the log and the manifest (schema version and record
count); analyze writes only under derived/. One writer at a time is
enforced with an advisory flock on <root>/.lock.

Every store file but the log and .lock is written by replacing(), to
<name>.tmp beside it and then renamed over the old one: a reader, which
takes no lock, never sees part of a file at its final name; a failed write
removes its temp file. No fsync. The JSON files (manifest.json, model.json,
analysis.json) are written by write_json, which also writes the bytes of
detect's report.json.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from itertools import chain
from pathlib import Path
from typing import TextIO

from .ingest import CorpusBatch, _key_digest, decode_log_line
# unused here, but the benchmark's tracer (perfbench/tracing.py) wraps it
from .rfc3339 import parse_rfc3339  # noqa: F401

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


@contextmanager
def replacing(path: str | Path):
    """A UTF-8 handle (newline="") on <name>.tmp beside path, renamed over
    path on a clean exit and removed on any other. Makes the parent; an
    OSError is a store-io error."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with store_io():
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as handle:
                yield handle
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                tmp.unlink()
            raise


# the most members of one container write_json encodes in one piece
JSON_CHUNK_MEMBERS = 4096


def write_json(handle: TextIO, value) -> None:
    """Write the bytes of json.dumps(value, sort_keys=True,
    ensure_ascii=False, indent=2) + "\n" for a value of dicts with str
    keys, lists and scalars.

    Only the frame of brackets and indents is built here, one rule per
    container shape: a list of non-empty flat dicts, and a container of
    scalars only, go to the C encoder in pieces of up to JSON_CHUNK_MEMBERS
    members, each with its member separator already indented; any other
    container is written member by member. The document is never whole,
    and the pure-Python encoder, which indent=2 selects and which leaves a
    reference cycle behind, never runs."""
    _write_value(handle.write, value, 0)
    handle.write("\n")


def _write_value(write, value, depth: int) -> None:
    if isinstance(value, dict) and value:
        keys = sorted(value)
        items = [value[key] for key in keys]
    elif isinstance(value, (list, tuple)) and value:
        keys, items = None, value
    else:
        write(_scalars(0).encode(value))
        return
    pad = "\n" + "  " * (depth + 1)
    write(("[" if keys is None else "{") + pad)
    if keys is None and _flat_dicts(items):
        _write_flat_dicts(write, items, depth + 1)
    elif _all_scalars(items):
        for start in range(0, len(items), JSON_CHUNK_MEMBERS):
            if start:
                write("," + pad)
            stop = start + JSON_CHUNK_MEMBERS
            piece = items[start:stop]
            piece = piece if keys is None else dict(zip(keys[start:stop], piece))
            write(_scalars(depth + 1).encode(piece)[1:-1])
    else:
        for index, item in enumerate(items):
            if index:
                write("," + pad)
            if keys is not None:
                write(_scalars(0).encode(keys[index]) + ": ")
            _write_value(write, item, depth + 1)
    write("\n" + "  " * depth + ("]" if keys is None else "}"))


def _all_scalars(values) -> bool:
    """Whether no value is a dict, list or tuple; tested in C but for one
    issubclass per distinct type."""
    return not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, values)))


def _flat_dicts(items) -> bool:
    """Whether items are all non-empty dicts of scalars; tested in C."""
    values = chain.from_iterable(map(dict.values, items))
    return set(map(type, items)) == {dict} and all(items) and _all_scalars(values)


def _write_flat_dicts(write, dicts, depth: int) -> None:
    """Write a list's flat dicts, `depth` levels in, JSON_CHUNK_MEMBERS at
    most to a piece that the C encoder writes with every separator starting
    a line depth + 1 levels in. A JSON string holds no raw newline, and in a
    dict a key follows a separator, so each "},\n<pad>{" ends a dict."""
    pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    boundary, between = "}," + inner + "{", pad + "}," + pad + "{" + inner
    for start in range(0, len(dicts), JSON_CHUNK_MEMBERS):
        piece = _scalars(depth + 1).encode(dicts[start : start + JSON_CHUNK_MEMBERS])
        write((between if start else "{" + inner) + piece[2:-2].replace(boundary, between))
    write(pad + "}")


@cache
def _scalars(depth: int) -> json.JSONEncoder:
    """The C encoder, keys sorted, whose member separator starts a line
    `depth` levels in."""
    return json.JSONEncoder(
        sort_keys=True, ensure_ascii=False, separators=(",\n" + "  " * depth, ": ")
    )


@dataclass(frozen=True)
class AppendReceipt:
    written: int


class Store:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._manifest: dict | None = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, root: str | Path, create: bool = False) -> "Store":
        store = cls(root)
        with store_io():
            if not store.manifest_path.exists():
                if not create:
                    raise StoreError("store-io", f"no store at {store.root}")
                store.root.mkdir(parents=True, exist_ok=True)
                store.posts_path.touch(exist_ok=True)
                store._manifest = {"schema_version": SCHEMA_VERSION, "record_count": 0}
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
        except (OSError, ValueError, RecursionError) as exc:  # not JSON or UTF-8; too deep
            raise StoreError("store-io", f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreError("store-io", "unreadable manifest: not a JSON object")
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise StoreError(
                "schema-mismatch",
                f"store schema {manifest.get('schema_version')!r}, expected {SCHEMA_VERSION}",
            )
        if not isinstance(manifest.get("record_count"), int):
            raise StoreError("store-io", "unreadable manifest: bad record_count")
        self._manifest = manifest

    def _save_manifest(self) -> None:
        with replacing(self.manifest_path) as handle:
            write_json(handle, self._manifest)

    @property
    def manifest(self) -> dict:
        assert self._manifest is not None
        return self._manifest

    @property
    def record_count(self) -> int:
        return int(self.manifest["record_count"])

    # -- post log ----------------------------------------------------------

    def iter_posts(self):
        """decode_log_line of each log line; any failure is a store-io error."""
        line, number = "", 0
        try:
            with open(self.posts_path, "r", encoding="utf-8") as handle:
                for number, line in enumerate(handle, 1):
                    yield decode_log_line(line)
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
        """Append the batch's new lines in batch order; records already
        present (same key digest as a logged line's) are skipped.
        Idempotent across re-ingests.

        The manifest's record_count becomes the records read from the log
        plus those written, which also heals a count left short, e.g. by
        an ingest that died after writing some records."""
        # The 32-byte digests of the log's keys and of those written so far.
        # Local to the call, so it is dropped while the caller still holds
        # the batch: the batch's digests are then freed with its lines, in
        # allocation order, not in the set's hash order, which would leave
        # the freed memory in scattered pieces the next command cannot
        # return or fully reuse.
        keys: set[bytes] = set()
        logged = 0
        for user_id, _, text, _, stamp in self.iter_posts():
            keys.add(_key_digest(user_id, stamp, text))
            logged += 1
        written = 0
        with store_io(), open(self.posts_path, "a", encoding="utf-8") as handle:
            for key, line in zip(batch.digests, batch.lines):
                if key in keys:
                    continue
                handle.write(line)
                keys.add(key)
                written += 1
        if self.record_count != logged + written:
            self.manifest["record_count"] = logged + written
            self._save_manifest()
        return AppendReceipt(written=written)

    # -- derived artifacts ---------------------------------------------------

    def derived_dir(self, scope: str, config_hash: str) -> Path:
        return self.derived_root / scope / config_hash
