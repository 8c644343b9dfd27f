"""Seeded benchmark inputs, built from the generator in tests/synthcorpus.py.

The 1x corpus is exactly `synthcorpus.generate_corpus(path, seed)`, the
acceptance fixture. Larger and smaller corpora rerun the generator's
per-user routine for other user lists from the same seeded stream, so at
10 ramped and 10 control users they reproduce the 1x corpus record for
record. Every input is a function of the seed alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import synthcorpus as sc


@dataclass(frozen=True)
class Size:
    """Ramped and control users per workload, the first month kept, and
    whether set-up is repeated to take its median."""

    users_per_group: dict[str, int]
    first_month: int
    repeat_setup: bool


SIZES = {
    # weekly-triage runs on half the fixture's users: three week-bucket
    # analyses of the full fixture per run do not fit the run budget
    "full": Size(
        {"fixture-pipeline": 10, "append-growth": 20, "weekly-triage": 5},
        first_month=0,
        repeat_setup=True,
    ),
    # the last two years of one ramped and one control user
    "tiny": Size(
        {"fixture-pipeline": 1, "append-growth": 1, "weekly-triage": 1},
        first_month=sc.N_MONTHS - 24,
        repeat_setup=False,
    ),
}


def user_ids(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(1, count + 1)]


def generate_records(
    seed: int, ramped: list[str], control: list[str], first_month: int = 0
) -> list[dict]:
    """`synthcorpus.generate_corpus`'s loop over arbitrary user lists,
    keeping the posts from month index first_month on."""
    rng = random.Random(seed)
    ramped_set = set(ramped)
    records = []
    for user in ramped + control:
        phases = {key: rng.randrange(len(sc.ACTIVITY_PATTERN)) for key in sc.CLASS_BASES}
        is_ramped = user in ramped_set
        for month_index in range(sc.N_MONTHS):
            for class_key in sc.CLASS_BASES:
                count = sc.stationary_count(rng, class_key, month_index, phases[class_key])
                if class_key == "disappointment" and is_ramped:
                    count += sc.ramp_extra(rng, month_index)
                for _ in range(count):
                    post = sc._post(rng, user, month_index, class_key, allow_implicit=is_ramped)
                    if month_index >= first_month:
                        records.append(post)
    return records


def record_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_records(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(record_line(r) for r in records), encoding="utf-8")
    return path


def write_corpus(path: Path, seed: int, users_per_group: int, first_month: int) -> Path:
    """A workload corpus; with 10 + 10 users over every month it is the
    acceptance fixture itself."""
    if users_per_group == len(sc.RAMPED_USERS) == len(sc.CONTROL_USERS) and first_month == 0:
        return sc.generate_corpus(path, seed)
    n = users_per_group
    return write_records(path, generate_records(seed, user_ids("r", n), user_ids("c", n), first_month))


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


@dataclass(frozen=True)
class CorpusFacts:
    """What a correct ingest of the corpus must report."""

    lines: int
    unique_posts: int
    posts_by_user: dict[str, int]
    bytes: int

    @property
    def users(self) -> int:
        return len(self.posts_by_user)

    @property
    def duplicates(self) -> int:
        return self.lines - self.unique_posts


def corpus_facts(path: Path) -> CorpusFacts:
    """Counts with the store's dedupe rule. Generator timestamps are already
    canonical UTC text, so (user, timestamp, text) is the dedupe key."""
    records = read_records(path)
    keys = {(r["user_id"], r["timestamp"], r["text"]) for r in records}
    by_user: dict[str, int] = {}
    for user, _, _ in keys:
        by_user[user] = by_user.get(user, 0) + 1
    return CorpusFacts(
        lines=len(records),
        unique_posts=len(keys),
        posts_by_user=dict(sorted(by_user.items())),
        bytes=path.stat().st_size,
    )


def half_year(record: dict) -> str:
    year, month = record["timestamp"][:4], int(record["timestamp"][5:7])
    return f"{year}H{1 if month <= 6 else 2}"


def write_append_inputs(directory: Path, seed: int, users_per_group: int, first_month: int) -> dict:
    """The append-growth inputs: the whole corpus, its half-year batches in
    arrival order, and one batch of bad and duplicate lines."""
    n = users_per_group
    records = generate_records(seed, user_ids("r", n), user_ids("c", n), first_month)
    full = write_records(directory / "full.jsonl", records)
    by_period: dict[str, list[dict]] = {}
    for record in records:
        by_period.setdefault(half_year(record), []).append(record)
    batches = [
        str(write_records(directory / f"batch-{period}.jsonl", by_period[period]))
        for period in sorted(by_period)
    ]
    bad_path = directory / "bad.jsonl"
    expected = write_bad_batch(bad_path, records, random.Random(f"bad-batch-{seed}"))
    return {"full": str(full), "batches": batches, "bad": str(bad_path), **expected}


def write_bad_batch(path: Path, records: list[dict], rng: random.Random) -> dict:
    """Lines with a known rejection reason each, plus verbatim repeats of
    stored records; returns what ingest must report for them."""
    picks = rng.sample(records, 16)
    bad: list[tuple[str, str | None]] = []
    # malformed: not JSON, not an object, non-string field values
    bad.append((record_line(picks[0])[: len(record_line(picks[0])) // 2], "malformed"))
    bad.append(("[" + json.dumps(picks[1]["text"]) + "]", "malformed"))
    bad.append((json.dumps({**picks[2], "user_id": 7}), "malformed"))
    bad.append((json.dumps({**picks[3], "source": ["synthetic"]}), "malformed"))
    bad.append(("not a record " + picks[4]["text"], "malformed"))
    # bad-timestamp: no offset, impossible date, date only, offset without colon
    stamp = picks[5]["timestamp"]
    bad.append((json.dumps({**picks[5], "timestamp": stamp[:-1]}), "bad-timestamp"))
    bad.append((json.dumps({**picks[6], "timestamp": "2014-13-32T25:61:00Z"}), "bad-timestamp"))
    bad.append((json.dumps({**picks[7], "timestamp": stamp[:10]}), "bad-timestamp"))
    bad.append((json.dumps({**picks[8], "timestamp": stamp[:-1] + "+0100"}), "bad-timestamp"))
    # missing fields: absent, null, blank user id
    without_text = {k: v for k, v in picks[9].items() if k != "text"}
    bad.append((json.dumps(without_text), "missing-field:text"))
    bad.append((json.dumps({**picks[10], "timestamp": None}), "missing-field:timestamp"))
    bad.append((json.dumps({**picks[11], "user_id": "   "}), "missing-field:user_id"))
    # duplicates: records the store already holds, one of them twice
    for record in picks[12:16] + [picks[12]]:
        bad.append((json.dumps(record, ensure_ascii=False), None))
    rng.shuffle(bad)
    path.write_text("".join(line.rstrip("\n") + "\n" for line, _ in bad), encoding="utf-8")
    rejections = {str(number): reason for number, (_, reason) in enumerate(bad, 1) if reason}
    return {
        "bad_rejections": rejections,
        "bad_duplicates": sum(1 for _, reason in bad if reason is None),
    }
