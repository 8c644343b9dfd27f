"""Every command over a damaged store: each file of a small analyzed store,
damaged in each of several ways, must give a clean exit (0, 2 or 3) from
every command, and never an exception out of cli.main."""

from __future__ import annotations

import random
import shutil
from datetime import datetime, timedelta, timezone

import pytest

from facewall.cli import main
from helpers import post_record, write_jsonl

SEED = 27
USERS = ["u1", "u2"]
PIECES = [
    "happy", "sad", "love", "anger", "disappointed", "sun", "rain", "day", "coffee", "@sam",
    "http://a.b/c", ":-)", ":)", ":(", "=(", "<3", "☹", ":D", "3", "é",
]


def sweep_records(rng: random.Random, count: int) -> list[dict]:
    start = datetime(2014, 1, 1, tzinfo=timezone.utc)
    records = []
    for _ in range(count):
        stamp = start + timedelta(minutes=rng.randrange(2 * 365 * 24 * 60))
        text = " ".join(rng.choice(PIECES) for _ in range(rng.randint(1, 6)))
        records.append(post_record(rng.choice(USERS), stamp.strftime("%Y-%m-%dT%H:%M:%SZ"), text))
    return records


def damaged(data: bytes, kind: str, rng: random.Random) -> bytes | None:
    """data after the damage of the given kind; None for a directory."""
    middle = len(data) // 2
    if kind == "empty":
        return b""
    if kind == "cut-in-half":
        return data[:middle]
    if kind == "trailing-garbage":
        return data + b'}]garbage,"\x00\n'
    if kind == "invalid-utf8":
        return data[:middle] + b"\xff\xc3" + data[middle:]
    if kind == "flipped-byte":
        if not data:
            return b"\x80"
        at = rng.randrange(len(data))
        return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1 :]
    if kind == "duplicated-line":
        lines = data.splitlines(keepends=True) or [b"\n"]
        at = rng.randrange(len(lines))
        return b"".join(lines[: at + 1] + lines[at:])
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "nested":
        return b"[" * 100_000
    assert kind == "directory"
    return None


NGRAMS = ["export", "--what", "ngrams"]
DAMAGE = [
    "empty", "cut-in-half", "trailing-garbage", "invalid-utf8", "flipped-byte",
    "duplicated-line", "crlf", "nested", "directory",
]


def commands(scope: str, more, out) -> list[list[str]]:
    """Every command, reading the damaged file's scope where it names one:
    first the five that write nothing into the store, then the two that do."""
    who = ["--user", scope] if scope in USERS else []
    chart = ["chart", "--class", "happy", "--out", str(out / "c.svg")]
    chart += who or ["--all-users"]
    return [
        ["detect", "--out", str(out / "r.json"), "--window", "4"],
        chart,
        chart + ["--measure", "occurrences"],
        ["export", "--what", "series", "--out", str(out / "s.csv"), *who],
        [*NGRAMS, "--out", str(out / "n.csv"), *who],
        ["analyze"],
        ["ingest", "--input", str(more), "--format", "jsonl"],
    ]


def test_every_command_exits_cleanly_on_every_damaged_store_file(tmp_path, capsys):
    rng = random.Random(SEED)
    records = sweep_records(rng, 300)
    corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
    # new posts, and again some of the logged ones
    more = write_jsonl(tmp_path / "more.jsonl", sweep_records(rng, 20) + records[:10])
    pristine = tmp_path / "pristine"
    ingest = ["ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(pristine)]
    assert main(ingest) == 0
    assert main(["analyze", "--store", str(pristine)]) == 0
    files = sorted(path.relative_to(pristine) for path in pristine.rglob("*") if path.is_file())
    assert len(files) == 14
    out = tmp_path / "out"
    out.mkdir()
    store = tmp_path / "store"
    exits = []
    for name in files:
        data = (pristine / name).read_bytes()
        # derived/<scope>/<config hash>/<file>
        scope = name.parts[1] if name.parts[0] == "derived" else "@all"
        for kind in DAMAGE:
            bad = damaged(data, kind, rng)
            for argv in commands(scope, more, out):
                # the damaged store again once a command may have written to it
                if argv[0] in ("detect", "ingest"):
                    shutil.rmtree(store, ignore_errors=True)
                    shutil.copytree(pristine, store)
                    target = store / name
                    if bad is None:
                        target.unlink()
                        target.mkdir()
                    else:
                        target.write_bytes(bad)
                try:
                    code = main([*argv, "--store", str(store)])
                except BaseException as exc:  # any escape, SystemExit included
                    pytest.fail(f"{name} {kind} {argv[0]}: {type(exc).__name__}: {exc}")
                assert code in (0, 2, 3), (str(name), kind, argv, capsys.readouterr().err)
                # the writer writes each gram once, so a repeated row is caught
                if (name.name, kind, argv[:3]) == ("ngrams.csv", "duplicated-line", NGRAMS):
                    assert code == 3, (str(name), capsys.readouterr().err)
                exits.append(code)
                capsys.readouterr()
    assert len(exits) == len(files) * len(DAMAGE) * 7
    # the sweep reaches both the failure paths and the paths that still work
    assert exits.count(3) and exits.count(0)
