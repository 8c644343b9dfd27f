import csv
import errno
import gc
import json
import os
from collections import Counter
from pathlib import Path

import pytest

from facewall import cli
from facewall.classifier import NBModel
from facewall.cli import build_parser, main
from facewall.ingest import decode_log_line, user_scope
from facewall.lexicon import default_lexicon
from facewall.lexer import TokenInterner
from facewall.ngrams import GramRanking
from facewall.pipeline import AnalysisConfig
from facewall.store import Store
from facewall.timeline import DetectorConfig
from helpers import post_record, write_jsonl


@pytest.fixture
def corpus(tmp_path):
    # two users, enough emoticon-labeled posts in two classes to train
    records = []
    for i in range(8):
        records.append(post_record("u1", f"2015-{i + 1:02d}-03T10:00:00Z", f"great day {i} :-)"))
        records.append(post_record("u2", f"2015-{i + 1:02d}-05T11:00:00Z", f"bad gloomy day {i} :("))
    records.append(post_record("u1", "2015-09-01T00:00:00Z", "the weather report"))
    return write_jsonl(tmp_path / "corpus.jsonl", records)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def store_files(root):
    """The bytes of each file under root, by its path relative to root."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["chart", "--class", "happy", "--out", "c.svg", "--all-users"],
        ["detect", "--out", "r.json"],
        ["export", "--what", "series", "--out", "s.csv"],
    ],
)
def test_parser_defaults_are_the_config_defaults(argv):
    args = build_parser().parse_args([*argv, "--store", "s"])
    assert AnalysisConfig(granularity=args.bucket, n_max=args.ngrams) == AnalysisConfig()
    if argv[0] == "detect":
        detector = DetectorConfig(
            window=args.window,
            z_thresh=args.z,
            jsd_thresh=args.jsd,
            min_hits=args.min_hits,
            min_total=args.min_total,
        )
        assert detector == DetectorConfig()


def test_missing_store_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", "--input", "x.jsonl", "--format", "jsonl")
    assert code == 1
    assert "usage" in err


def test_bad_format_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "ingest", "--input", "x", "--format", "xml", "--store", str(tmp_path / "s")
    )
    assert code == 1


def test_ingest_summary_and_idempotence(capsys, corpus, tmp_path):
    store = str(tmp_path / "store")
    code, out, _ = run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    assert code == 0
    assert out.strip() == "ingested=17 rejected=0 duplicates=0"

    code, out, _ = run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    assert code == 0
    assert out.strip() == "ingested=0 rejected=0 duplicates=17"


def test_ingest_unreadable_input(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "ingest", "--input", str(tmp_path / "absent.jsonl"), "--format", "jsonl",
        "--store", str(tmp_path / "store"),
    )
    assert code == 2
    assert "cannot read input" in err
    assert not (tmp_path / "store").exists()


def test_ingest_rejects_a_csv_row_the_csv_module_cannot_read(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    with open(corpus, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [
                ["user_id", "timestamp", "text"],
                ["u1", "2015-03-02T10:00:00Z", "fine :)"],
                ["u2", "2015-03-02T11:00:00Z", "x" * (csv.field_size_limit() + 1)],
                ["u3", "2015-03-02T12:00:00Z", "fine :("],
            ]
        )
    store = str(tmp_path / "store")
    code, out, err = run(capsys, "ingest", "--input", str(corpus), "--format", "csv", "--store", store)
    assert code == 0
    assert out.strip() == "ingested=2 rejected=1 duplicates=0"
    assert f"{corpus}:3: rejected (malformed)" in err


def test_a_user_id_too_long_for_a_directory_name_is_rejected_at_ingest(capsys, corpus, tmp_path):
    long_id = "\u5b57" * 30  # percent-encodes to a 270-byte directory name
    more = write_jsonl(
        tmp_path / "more.jsonl",
        [
            post_record("u3", "2015-03-02T10:00:00Z", "fine :)"),
            post_record(long_id, "2015-03-02T11:00:00Z", "hello :)"),
        ],
    )
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    code, out, err = run(capsys, "ingest", "--input", str(more), "--format", "jsonl", "--store", store)
    assert code == 0
    assert out.strip() == "ingested=1 rejected=1 duplicates=0"
    assert f"{more}:2: rejected (malformed)" in err
    code, out, _ = run(capsys, "analyze", "--store", store)
    assert code == 0 and out.startswith("users=3 posts=18 ")


def analyze_beside_a_plain_store(capsys, corpus, tmp_path, user_ids):
    """Ingest the corpus into a plain and a spoiled store, log two records
    of each given id in the spoiled one, as an older ingest or a hand edit
    could, and analyze both. The spoiled analyze must derive the plain
    store's files; returns the stores and the spoiled analyze's stderr."""
    stores = {name: str(tmp_path / name) for name in ("plain", "spoiled")}
    for store in stores.values():
        run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    with open(tmp_path / "spoiled" / "posts.jsonl", "a", encoding="utf-8") as log:
        for i, user_id in enumerate(user_ids):
            for stamp in ("2015-02-07T09:00:00Z", "2016-05-01T12:00:00Z"):
                record = post_record(user_id, stamp, f"zebra {i} sunny great :-) :( <3")
                log.write(json.dumps(record, ensure_ascii=False) + "\n")
    # a re-ingest counts the logged records into the manifest
    code, out, _ = run(
        capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", stores["spoiled"]
    )
    assert code == 0 and out.strip() == "ingested=0 rejected=0 duplicates=17"

    results = {name: run(capsys, "analyze", "--store", store) for name, store in stores.items()}
    assert results["spoiled"][0] == 0
    assert results["spoiled"][1] == results["plain"][1]
    assert "Traceback" not in results["spoiled"][2]

    def derived(name):
        files = store_files(tmp_path / name / "derived")
        meta = next(key for key in files if key.endswith("/analysis.json"))
        return files, meta, json.loads(files.pop(meta))

    plain_files, plain_meta_name, plain_meta = derived("plain")
    spoiled_files, spoiled_meta_name, spoiled_meta = derived("spoiled")
    assert spoiled_files == plain_files and spoiled_meta_name == plain_meta_name
    counts = (plain_meta.pop("record_count"), spoiled_meta.pop("record_count"))
    assert counts == (17, 17 + 2 * len(user_ids))
    assert spoiled_meta == plain_meta
    return stores, results["spoiled"][2]


def test_analyze_leaves_out_a_logged_user_id_too_long_for_a_directory_name(
    capsys, corpus, tmp_path
):
    # Records ingest now rejects, in a log an earlier ingest wrote: analyze
    # names their users and derives the files of the log without them.
    long_ids = ["\u5b57" * 30, "." + "a" * 255]
    stores, err = analyze_beside_a_plain_store(capsys, corpus, tmp_path, long_ids)
    for long_id in long_ids:
        assert f"left out user id too long for a directory name: {long_id!r}" in err

    reports = {
        name: run(capsys, "detect", "--store", store, "--out", str(tmp_path / f"{name}.json"))
        for name, store in stores.items()
    }
    assert reports["spoiled"][:2] == reports["plain"][:2] and reports["plain"][0] == 0


def test_analyze_leaves_out_a_logged_empty_user_id(capsys, corpus, tmp_path):
    # The empty id's scope is empty: its files would sit among the scopes
    # in derived/, at derived/<config hash>/.
    stores, err = analyze_beside_a_plain_store(capsys, corpus, tmp_path, [""])
    assert err.startswith("facewall: warning: left out empty user id: ''\n")
    out = tmp_path / "out"
    for argv in (["chart", "--class", "happy"], ["export", "--what", "series"]):
        argv += ["--store", stores["spoiled"], "--out", str(out), "--user", ""]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, "facewall: unknown user: ''\n")
    assert not out.exists()


def test_ingest_non_utf8_input(capsys, tmp_path):
    latin = tmp_path / "latin1.jsonl"
    latin.write_bytes(
        b'{"user_id":"u1","timestamp":"2015-01-01T00:00:00Z","text":"caf\xe9"}\n'
    )
    code, _, err = run(
        capsys,
        "ingest", "--input", str(latin), "--format", "jsonl", "--store", str(tmp_path / "store"),
    )
    assert code == 2
    assert "cannot read input" in err
    assert "Traceback" not in err
    assert not (tmp_path / "store").exists()


def test_an_ingest_that_cannot_read_its_last_line_writes_nothing(capsys, corpus, tmp_path):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    log, manifest = (store / "posts.jsonl").read_bytes(), (store / "manifest.json").read_bytes()
    # new records over many of the decoder's reads, then a line that is not UTF-8
    records = [post_record("u3", "2016-01-01T00:00:00Z", f"new post {i}") for i in range(2000)]
    bad = write_jsonl(tmp_path / "bad.jsonl", records)
    with open(bad, "ab") as handle:
        handle.write(b'{"user_id":"u3","timestamp":"2016-01-02T00:00:00Z","text":"caf\xe9"}\n')
    assert bad.stat().st_size > 100_000

    code, out, err = run(
        capsys, "ingest", "--input", str(bad), "--format", "jsonl", "--store", str(store)
    )
    assert code == 2 and out == ""
    assert "cannot read input" in err and "Traceback" not in err
    assert (store / "posts.jsonl").read_bytes() == log
    assert (store / "manifest.json").read_bytes() == manifest


def test_ingest_csv_corpus(capsys, tmp_path):
    csv_file = tmp_path / "wall.csv"
    csv_file.write_text(
        "user_id,timestamp,text\n"
        "u1,2015-01-02T10:00:00Z,feeling great :-)\n"
        'u1,2015-01-03T10:00:00+02:00,"sad, gloomy day :("\n'
        "u2,bad-stamp,oops\n",
        encoding="utf-8",
    )
    store = str(tmp_path / "store")
    code, out, err = run(
        capsys, "ingest", "--input", str(csv_file), "--format", "csv", "--store", store
    )
    assert code == 0
    assert out.strip() == "ingested=2 rejected=1 duplicates=0"
    assert "bad-timestamp" in err


def test_ingest_reports_rejections(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"user_id":"u1","timestamp":"2015-01-01T00:00:00Z","text":"ok"}\nnope\n')
    code, out, err = run(
        capsys, "ingest", "--input", str(bad), "--format", "jsonl", "--store", str(tmp_path / "s")
    )
    assert code == 0
    assert out.strip() == "ingested=1 rejected=1 duplicates=0"
    assert "malformed" in err


def test_ngram_orders_above_the_longest_post_add_no_rows(capsys, corpus, tmp_path):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    interner = TokenInterner(default_lexicon().emoticon_table())
    texts = [json.loads(line)["text"] for line in corpus.read_text().splitlines()]
    longest = max(len(interner.ids(text)) for text in texts)
    exported = {}
    for n in (longest - 1, longest, 1000):
        assert run(capsys, "analyze", "--store", store, "--ngrams", str(n))[0] == 0
        out = tmp_path / f"ngrams-{n}.csv"
        argv = ["export", "--store", store, "--what", "ngrams", "--out", str(out)]
        assert run(capsys, *argv, "--ngrams", str(n))[0] == 0
        exported[n] = out.read_bytes()
    assert exported[1000] == exported[longest] != exported[longest - 1]
    # the model still records the order asked for
    model_dirs = (tmp_path / "store" / "derived" / "@model").iterdir()
    orders = {json.loads((d / "model.json").read_text())["n_max"] for d in model_dirs}
    assert orders == {longest - 1, longest, 1000}


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def gc_state():
    """Puts the collector's state and debug flags back after the test."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    yield
    gc.set_debug(debug)
    _set_collector(enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["ingest", "--input", "{corpus}", "--format", "jsonl", "--store", "{store}"], 0),
        (["ingest", "--input", "{missing}", "--format", "jsonl", "--store", "{store}"], 2),
        (["detect", "--store", "{missing}", "--out", "{out}"], 3),
        (["analyze", "--store", "{store}", "--ngrams", "0"], 1),
        (["analyze"], 1),
    ],
    ids=["ok", "input-error", "store-error", "command-usage-error", "argparse-usage-error"],
)
def test_main_pauses_the_collector_for_a_command_and_restores_it(
    capsys, corpus, tmp_path, monkeypatch, gc_state, enabled, argv, code
):
    seen = []
    for name in ("cmd_ingest", "cmd_analyze", "cmd_detect"):
        command = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda args, command=command: seen.append(gc.isenabled()) or command(args)
        )
    paths = {
        "corpus": str(corpus),
        "store": str(tmp_path / "store"),
        "missing": str(tmp_path / "missing"),
        "out": str(tmp_path / "r.json"),
    }
    _set_collector(enabled)
    assert run(capsys, *[arg.format(**paths) for arg in argv])[0] == code
    assert gc.isenabled() is enabled
    # argparse's usage exit comes before any command body
    assert seen == ([] if argv == ["analyze"] else [False])


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_the_collector_when_a_command_raises(monkeypatch, gc_state, enabled):
    seen = []

    def broken(args):
        seen.append(gc.isenabled())
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    _set_collector(enabled)
    with pytest.raises(RuntimeError, match="broken command"):
        main(["analyze", "--store", "s"])
    assert gc.isenabled() is enabled
    assert seen == [False]


def test_commands_leave_the_collector_no_cycles_of_facewall_objects(
    capsys, corpus, tmp_path, monkeypatch, gc_state
):
    # The collector is paused for a command, so a cycle the command leaves
    # lives until the command ends: no facewall object may be in one, the
    # parser included.
    with open(corpus, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
        handle.write("[1, 2]\n")
        handle.write(json.dumps(post_record("u1", "2015-10-01T00:00:00Z", 3)) + "\n")
        handle.write(json.dumps(post_record("u1", "2015-10-02T00:00:00Z", "t\ud800")) + "\n")
        handle.write(json.dumps(post_record("u" * 300, "2015-10-03T00:00:00Z", "long id")) + "\n")
        handle.write(json.dumps(post_record(" ", "2015-10-04T00:00:00Z", "blank id")) + "\n")
        handle.write(json.dumps({"user_id": "u1", "text": "no time"}) + "\n")
        handle.write(json.dumps(post_record("u1", "yesterday", "bad time")) + "\n")
        # no emoticon and no lexicon word, but vocabulary grams: the model scores it
        handle.write(json.dumps(post_record("u2", "2015-10-05T00:00:00Z", "day 3 report")) + "\n")
    scored = []
    log_posteriors = NBModel.log_posteriors
    monkeypatch.setattr(
        NBModel, "log_posteriors", lambda *args: scored.append(1) or log_posteriors(*args)
    )
    store = str(tmp_path / "store")
    commands = [
        ["ingest", "--input", str(corpus), "--format", "jsonl", "--store", store],
        ["analyze", "--store", store],
        ["detect", "--store", store, "--out", str(tmp_path / "r.json")],
    ]
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    outs = []
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0
        outs.append((out, err))
    gc.collect()
    garbage = gc.garbage[before:]
    del gc.garbage[before:]
    leaked = Counter(
        type(obj).__qualname__
        for obj in garbage
        if type(obj).__module__.split(".")[0] == "facewall"
    )
    assert leaked == Counter()
    ingest_err = outs[0][1]
    for reason in ("malformed", "missing-field:user_id", "missing-field:timestamp", "bad-timestamp"):
        assert f"rejected ({reason})" in ingest_err
    assert "model=trained" in outs[1][0]
    assert scored


def test_commands_leave_the_collector_no_cycles_at_all(capsys, corpus, tmp_path, gc_state):
    # Not of any type: json.dumps(..., indent=2) would leave its encoder's
    # closures in a cycle for each JSON file written.
    build_parser()
    store = str(tmp_path / "store")
    commands = [
        ["ingest", "--input", str(corpus), "--format", "jsonl", "--store", store],
        ["analyze", "--store", store],
        ["detect", "--store", store, "--out", str(tmp_path / "r.json")],
    ]
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    codes = [run(capsys, *argv)[0] for argv in commands]
    gc.collect()
    garbage = gc.garbage[before:]
    del gc.garbage[before:]
    assert codes == [0, 0, 0]
    assert Counter(type(obj).__qualname__ for obj in garbage) == Counter()


def test_main_builds_the_parser_once_per_process(capsys, corpus, tmp_path):
    build_parser.cache_clear()
    store = str(tmp_path / "store")
    assert run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)[0] == 0
    assert run(capsys, "analyze", "--store", store, "--ngrams", "0")[0] == 1
    assert run(capsys, "detect", "--store", store)[0] == 1
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()


def analyzed_store(capsys, corpus, tmp_path):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    code, out, err = run(capsys, "analyze", "--store", store)
    assert code == 0
    return store, out, err


def test_a_reingest_and_an_analyze_read_the_log_through_iter_posts(
    capsys, corpus, tmp_path, monkeypatch
):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    log = (tmp_path / "store" / "posts.jsonl").read_text(encoding="utf-8")
    want = [decode_log_line(line) for line in log.splitlines(keepends=True)]
    items = []
    iter_posts = Store.iter_posts

    def counted(self):
        for item in iter_posts(self):
            items.append(item)
            yield item

    monkeypatch.setattr(Store, "iter_posts", counted)
    code, out, _ = run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    assert code == 0 and out.startswith("ingested=0 ")
    assert items == want
    items.clear()
    assert run(capsys, "analyze", "--store", store)[0] == 0
    assert items == want


def test_analyze_trains_and_writes_cache(capsys, corpus, tmp_path):
    store, out, _ = analyzed_store(capsys, corpus, tmp_path)
    assert "users=2" in out and "model=trained" in out
    derived = tmp_path / "store" / "derived"
    assert (derived / "u1").is_dir()
    assert (derived / "@all").is_dir()
    hash_dir = next((derived / "u1").iterdir())
    assert (hash_dir / "series.csv").is_file()
    assert (hash_dir / "ngrams.csv").is_file()
    assert (hash_dir / "occurrences.csv").is_file()
    model_dir = next((derived / "@model").iterdir())
    assert (model_dir / "model.json").is_file()


def test_a_reanalyze_cut_short_leaves_readers_at_not_analyzed(
    capsys, corpus, tmp_path, monkeypatch
):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    ngrams_csv = tmp_path / "u1.csv"
    export = ["export", "--what", "ngrams", "--user", "u1", "--store", store]
    assert run(capsys, *export, "--out", str(ngrams_csv))[0] == 0
    before = ngrams_csv.read_bytes()

    def full_disk(self, counts):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    # the disk fills once the first ngrams.csv is open
    monkeypatch.setattr(GramRanking, "csv_rows", full_disk)
    code, _, err = run(capsys, "analyze", "--store", store)
    assert code == 3 and "store-io: " in err
    monkeypatch.undo()
    # the old analysis.json no longer vouches for the derived files
    detect = ["detect", "--store", store, "--out", str(tmp_path / "report.json")]
    for argv in (export + ["--out", str(ngrams_csv)], detect):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "not-analyzed" in err
    assert ngrams_csv.read_bytes() == before

    assert run(capsys, "analyze", "--store", store)[0] == 0
    assert run(capsys, *export, "--out", str(ngrams_csv))[0] == 0
    assert ngrams_csv.read_bytes() == before


class FillingDisk:
    """A text file on a disk that fills once `room` characters are in it."""

    def __init__(self, handle, room):
        self._handle, self._room = handle, room

    def write(self, text):
        if len(text) > self._room:
            self._handle.write(text[: self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._room -= len(text)
        return self._handle.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


@pytest.mark.parametrize(
    "scope, name",
    [("u1", "ngrams.csv"), ("u1", "series.csv"), ("@all", "occurrences.csv"), ("@model", "model.json")],
)
def test_a_write_that_fails_partway_leaves_the_old_file_whole(
    capsys, corpus, tmp_path, monkeypatch, scope, name
):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    root = tmp_path / "store"
    before = store_files(root)
    (hash_dir,) = (root / "derived" / scope).iterdir()
    target = (hash_dir / name).relative_to(root).as_posix()
    room = 100
    assert len(before[target]) > room

    # the disk fills once `room` characters of the scope's file are written
    real_open = open

    def filling_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        path = Path(file)
        if "w" in mode and path.parent.parent.name == scope and path.name.startswith(name):
            return FillingDisk(handle, room)
        return handle

    monkeypatch.setattr("builtins.open", filling_open)
    code, out, err = run(capsys, "analyze", "--store", store)
    monkeypatch.undo()
    assert (code, out) == (3, "")
    assert err.startswith("facewall: store error: store-io: [Errno 28] ")
    assert (root / target).read_bytes() == before[target]
    # the failed write took its temp file with it
    assert list(root.rglob("*.tmp")) == []

    assert run(capsys, "analyze", "--store", store)[0] == 0
    assert store_files(root) == before


def test_every_store_file_but_the_log_and_the_lock_is_renamed_into_place(
    capsys, corpus, tmp_path, monkeypatch
):
    replaced = set()
    real_replace = os.replace

    def recording_replace(src, dst, *args, **kwargs):
        replaced.add(Path(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", recording_replace)
    analyzed_store(capsys, corpus, tmp_path)
    root = tmp_path / "store"
    written = {path for path in root.rglob("*") if path.is_file()}
    appended = {root / "posts.jsonl", root / ".lock"}
    assert appended <= written and replaced == written - appended


def test_analyze_untrainable_warns_and_succeeds(capsys, tmp_path):
    small = write_jsonl(
        tmp_path / "small.jsonl",
        [post_record("u1", "2015-01-01T00:00:00Z", "hello world :-)")],
    )
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(small), "--format", "jsonl", "--store", store)
    code, out, err = run(capsys, "analyze", "--store", store)
    assert code == 0
    assert "model=untrainable" in out
    assert "model=untrainable" in err


def test_analyze_empty_store_writes_nothing(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(empty), "--format", "jsonl", "--store", store)
    code, out, _ = run(capsys, "analyze", "--store", store)
    assert code == 0
    assert "posts=0" in out
    assert not (tmp_path / "store" / "derived").exists()


@pytest.mark.parametrize(
    "log",
    ["", json.dumps(post_record("", "2015-03-02T10:00:00Z", "no user"), sort_keys=True) + "\n"],
    ids=["emptied", "only-a-user-left-out"],
)
def test_analyze_of_a_log_with_no_user_to_analyze_retires_the_old_analysis(
    capsys, corpus, tmp_path, log
):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    (tmp_path / "store" / "posts.jsonl").write_text(log, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--store", store)
    assert code == 0 and "users=0 posts=0" in out
    code, _, err = run(capsys, "detect", "--store", store, "--out", str(tmp_path / "report.json"))
    assert code == 3 and "not-analyzed" in err
    assert not (tmp_path / "report.json").exists()


def test_analyze_missing_store_is_store_error(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--store", str(tmp_path / "no-store"))
    assert code == 3


def test_analyze_bad_lexicon(capsys, corpus, tmp_path):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    bad = tmp_path / "lex.json"
    bad.write_text('{"classes": {"happy": {"words": ["x"]}, "sad": {"words": ["x"]}}}')
    code, _, err = run(capsys, "analyze", "--store", store, "--lexicon", str(bad))
    assert code == 2
    assert "bad lexicon" in err


@pytest.mark.parametrize(
    "text", ["[" * 100_000, "[" + "9" * 5000 + "]"], ids=["nested-too-deep", "huge-integer"]
)
def test_analyze_unparsable_lexicon_is_a_bad_lexicon(capsys, corpus, tmp_path, text):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    bad = tmp_path / "lex.json"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--store", store, "--lexicon", str(bad))
    assert code == 2
    assert "bad lexicon" in err


@pytest.mark.parametrize("command", ["analyze", "detect"])
def test_a_keyword_no_post_can_hit_is_a_bad_lexicon(capsys, corpus, tmp_path, command):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    lexicon = tmp_path / "lex.json"
    lexicon.write_text('{"classes": {"happy": {"words": ["feel good"]}}}', encoding="utf-8")
    extra = ["--out", str(tmp_path / "report.json")] if command == "detect" else []
    code, _, err = run(capsys, command, "--store", store, "--lexicon", str(lexicon), *extra)
    assert code == 2
    assert "bad lexicon: class 'happy': word 'feel good'" in err


def test_analyze_non_utf8_lexicon_is_a_bad_lexicon(capsys, corpus, tmp_path):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    latin = tmp_path / "lex.json"
    latin.write_bytes(b'\xff{"classes": {"happy": {"words": ["caf\xe9"]}}}')
    code, _, err = run(capsys, "analyze", "--store", store, "--lexicon", str(latin))
    assert code == 2
    assert "bad lexicon" in err


def test_non_object_post_log_line_is_a_store_error(capsys, corpus, tmp_path):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    with open(store / "posts.jsonl", "a", encoding="utf-8") as handle:
        handle.write("[1]\n")
    manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
    manifest["record_count"] += 1
    (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--store", str(store))
    assert code == 3
    assert "store-io: corrupt post log" in err


@pytest.mark.parametrize(
    "record",
    [
        {"user_id": "u1", "timestamp": "2010-01-16T12:00:00Z", "text": None},
        {"user_id": "u1", "timestamp": "2010-01-16T12:00:00Z", "text": ["a"]},
        {"user_id": 5, "timestamp": "2010-01-16T12:00:00Z", "text": "hi"},
        {"user_id": "u1", "timestamp": "2010-01-16T12:00:00Z", "text": "hi", "source": 1},
        # json.dumps writes a lone surrogate as a \ud800 escape: it parses
        # to a str that has no UTF-8 form
        {"user_id": "u\ud800", "timestamp": "2010-01-16T12:00:00Z", "text": "hi"},
        {"user_id": "u1", "timestamp": "2010-01-16T12:00:00Z", "text": "h\ud800i"},
        {"user_id": "u1", "timestamp": "2010-01-16T12:00:00Z", "text": "hi", "source": "\udfff"},
    ],
    ids=[
        "text-null", "text-list", "user-number", "source-number",
        "user-surrogate", "text-surrogate", "source-surrogate",
    ],
)
@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_non_string_post_log_field_is_a_store_error(capsys, corpus, tmp_path, record, command):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    with open(store / "posts.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    line = len((store / "posts.jsonl").read_text(encoding="utf-8").splitlines())
    args = ["--store", str(store)]
    if command == "ingest":
        args += ["--input", str(corpus), "--format", "jsonl"]
    code, _, err = run(capsys, command, *args)
    assert code == 3
    strings = "".join(v for v in record.values() if isinstance(v, str))
    surrogate = any("\ud800" <= c <= "\udfff" for c in strings)
    fault = "a field that UTF-8 cannot encode" if surrogate else "a field that is not a string"
    assert f"store-io: corrupt post log: line {line}: {fault}" in err


@pytest.mark.parametrize(
    "text", ['{"user_id": "u1"', "not json", '{"user_id": "u1",}', '"x" "y"', "[1]", "{}"],
    ids=["cut-object", "not-json", "trailing-comma", "extra-data", "not-an-object", "no-fields"],
)
@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_a_post_log_line_that_does_not_decode_names_the_decoder_error(
    capsys, corpus, tmp_path, text, command
):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    with open(store / "posts.jsonl", "a", encoding="utf-8") as handle:
        handle.write(text + "\n")
    line = len((store / "posts.jsonl").read_text(encoding="utf-8").splitlines())
    args = ["--store", str(store)]
    if command == "ingest":
        args += ["--input", str(corpus), "--format", "jsonl"]
    code, _, err = run(capsys, command, *args)
    # the error of the line without its newline, as json gives it
    try:
        json.loads(text)["user_id"]
    except (KeyError, TypeError, ValueError) as exc:
        fault = exc
    assert code == 3
    assert f"store-io: corrupt post log: line {line}: {fault}\n" in err


def test_unwritable_derived_dir_is_a_store_error(capsys, corpus, tmp_path):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    (store / "derived").write_text("not a directory", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--store", str(store))
    assert code == 3
    assert "store-io: " in err


# ingest is the one command that writes the manifest
@pytest.mark.parametrize("command", ["ingest"])
def test_unwritable_manifest_is_a_store_error(capsys, corpus, tmp_path, command):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    # the manifest is written through its .tmp name, here a directory
    (store / "manifest.json.tmp").mkdir()
    more = write_jsonl(
        tmp_path / "more.jsonl", [post_record("u3", "2016-01-01T00:00:00Z", "new :)")]
    )
    code, _, err = run(
        capsys, command, "--store", str(store), "--input", str(more), "--format", "jsonl"
    )
    assert code == 3
    assert "store-io: " in err


def test_analyze_leaves_the_manifest_and_the_post_log_byte_identical(capsys, corpus, tmp_path):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    before = {path.name: path.read_bytes() for path in store.iterdir() if path.is_file()}
    for bucket in ("month", "week"):
        code, _, _ = run(capsys, "analyze", "--store", str(store), "--bucket", bucket)
        assert code == 0
    after = {path.name: path.read_bytes() for path in store.iterdir() if path.is_file()}
    assert after == before
    assert json.loads(after["manifest.json"]) == {"record_count": 17, "schema_version": 1}


def test_a_manifest_with_the_retired_analysis_registry_still_loads(capsys, corpus, tmp_path):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    manifest = store / "manifest.json"
    old = {
        "analyses": {"0123456789ab": {"record_count": 17, "users": 2}},
        "config_hash": "0123456789ab",
        "record_count": 17,
        "schema_version": 1,
    }
    manifest.write_text(json.dumps(old), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--store", str(store))
    assert code == 0 and out.startswith("users=2 posts=17 ")
    more = write_jsonl(tmp_path / "more.jsonl", [post_record("u3", "2016-01-01T00:00:00Z", "hi")])
    code, _, _ = run(capsys, "ingest", "--input", str(more), "--format", "jsonl", "--store", str(store))
    assert code == 0
    assert json.loads(manifest.read_text(encoding="utf-8")) == {**old, "record_count": 18}


def test_ingest_cuts_a_torn_post_log_tail(capsys, corpus, tmp_path):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    log = store / "posts.jsonl"
    whole = log.read_bytes()
    # a write cut short: part of one more record, no newline
    log.write_bytes(whole + b'{"source": null, "text": "half a po')

    code, _, err = run(capsys, "analyze", "--store", str(store))
    assert code == 3
    assert "store-io: corrupt post log: torn last line" in err
    assert "`facewall ingest`" in err

    code, out, err = run(
        capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store)
    )
    assert code == 0
    assert out.strip() == "ingested=0 rejected=0 duplicates=17"
    assert "cut a torn last line (35 bytes)" in err
    assert log.read_bytes() == whole

    code, out, _ = run(capsys, "analyze", "--store", str(store))
    assert code == 0 and out.startswith("users=2 posts=17 ")


def test_ingest_counts_records_a_dying_ingest_left_in_the_log(capsys, tmp_path):
    records = [
        post_record(f"u{i}", f"2015-03-0{i + 1}T10:00:00Z", f"post {i} :-)") for i in range(6)
    ]
    first = write_jsonl(tmp_path / "first.jsonl", records[:3])
    second = write_jsonl(tmp_path / "second.jsonl", records[3:])
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(first), "--format", "jsonl", "--store", str(store))
    # an ingest of `second` that died mid-write: two whole records, part of a third
    lines = second.read_bytes().splitlines(keepends=True)
    log = store / "posts.jsonl"
    log.write_bytes(log.read_bytes() + lines[0] + lines[1] + lines[2][:20])

    code, out, _ = run(
        capsys, "ingest", "--input", str(second), "--format", "jsonl", "--store", str(store)
    )
    assert code == 0 and out.strip() == "ingested=1 rejected=0 duplicates=2"
    manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["record_count"] == len(log.read_bytes().splitlines()) == 6

    code, out, _ = run(capsys, "analyze", "--store", str(store))
    assert code == 0 and " posts=6 " in out
    [meta] = (store / "derived" / "@meta").glob("*/analysis.json")
    assert json.loads(meta.read_text(encoding="utf-8"))["record_count"] == 6


def test_ingest_keeps_a_whole_post_log(capsys, corpus, tmp_path):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    whole = (store / "posts.jsonl").read_bytes()
    code, _, err = run(
        capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store)
    )
    assert code == 0 and "torn" not in err
    assert (store / "posts.jsonl").read_bytes() == whole


@pytest.mark.parametrize(
    "damage",
    [
        b"[]\n",
        b'\xff{"schema_version": 1}\n',
        b'{"schema_version": 1, "analyses": {}}\n',
        b"[" * 100_000,
    ],
    ids=["array", "non-utf8", "no-record-count", "nested-too-deep"],
)
def test_damaged_manifest_is_a_store_error(capsys, corpus, tmp_path, damage):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    (store / "manifest.json").write_bytes(damage)
    code, _, err = run(capsys, "analyze", "--store", str(store))
    assert code == 3
    assert "store-io: unreadable manifest" in err


def test_detect_flow_and_errors(capsys, corpus, tmp_path):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)

    out_file = tmp_path / "report.json"
    code, _, err = run(capsys, "detect", "--store", store, "--out", str(out_file))
    assert code == 3  # not analyzed yet

    code, _, err = run(
        capsys, "detect", "--store", store, "--out", str(out_file), "--window", "1"
    )
    assert code == 1  # window too small never touches the store

    # a September burst of happy posts for u1 over a flat one-a-month history
    burst = write_jsonl(
        tmp_path / "burst.jsonl",
        [
            post_record("u1", f"2015-09-{day}T12:00:00Z", f"sunny walk {day} :-)")
            for day in range(10, 14)
        ],
    )
    run(capsys, "ingest", "--input", str(burst), "--format", "jsonl", "--store", store)
    run(capsys, "analyze", "--store", store)
    code, out, _ = run(capsys, "detect", "--store", store, "--out", str(out_file))
    assert code == 0
    assert out.startswith("users=2 ")
    reports = json.loads(out_file.read_text())
    assert [r["user_id"] for r in reports] == ["u1", "u2"]
    assert all(r["config"]["window"] == 6 for r in reports)

    for argv, signals in (([], ("zscore",)), (["--jsd", "0.01"], ("zscore", "jsd"))):
        code, out, _ = run(capsys, "detect", "--store", store, "--out", str(out_file), *argv)
        assert code == 0
        summary = {key: int(value) for key, value in (f.split("=") for f in out.split())}
        flags = [f for r in json.loads(out_file.read_text()) for f in r["flags"]]
        assert summary["zscore"] + summary["jsd"] == summary["flags"] == len(flags)
        for signal in ("zscore", "jsd"):
            assert summary[signal] == sum(f["signal"] == signal for f in flags)
            assert (summary[signal] > 0) == (signal in signals)
        classes = ("happy", "sad", "love", "disappointment")
        assert list(summary)[-4:] == list(classes)
        assert sum(summary[cls] for cls in classes) == summary["zscore"]
        for cls in classes:
            assert summary[cls] == sum(
                f["signal"] == "zscore" and f["class"] == cls for f in flags
            )
        assert summary["happy"] > 0


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", ["--z", "--jsd"])
def test_detect_rejects_non_finite_thresholds(capsys, corpus, tmp_path, option, value):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    out = tmp_path / "report.json"
    code, _, err = run(capsys, "detect", "--store", store, "--out", str(out), option, value)
    assert code == 1
    assert "bad detector parameters" in err
    assert not out.exists()


def test_detect_stale_after_new_ingest(capsys, corpus, tmp_path):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    extra = write_jsonl(
        tmp_path / "extra.jsonl", [post_record("u3", "2016-01-01T00:00:00Z", "new :-)")]
    )
    run(capsys, "ingest", "--input", str(extra), "--format", "jsonl", "--store", store)
    code, _, err = run(capsys, "detect", "--store", store, "--out", str(tmp_path / "r.json"))
    assert code == 3
    assert "re-run" in err


def test_chart_flow_and_errors(capsys, corpus, tmp_path):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    out_svg = tmp_path / "chart.svg"

    code, _, err = run(
        capsys, "chart", "--store", store, "--class", "bogus", "--out", str(out_svg), "--all-users"
    )
    assert code == 2

    code, _, err = run(
        capsys, "chart", "--store", store, "--class", "happy", "--out", str(out_svg), "--user", "zz"
    )
    assert code == 2

    code, _, err = run(
        capsys, "chart", "--store", store, "--class", "happy", "--out", str(out_svg)
    )
    assert code == 1  # scope required

    code, _, _ = run(
        capsys, "chart", "--store", store, "--class", "volume", "--out", str(out_svg), "--all-users"
    )
    assert code == 0
    svg = out_svg.read_text()
    assert '<polyline id="counts"' in svg

    code, _, _ = run(
        capsys,
        "chart", "--store", store, "--class", "happy", "--out", str(out_svg),
        "--user", "u1", "--measure", "occurrences",
    )
    assert code == 0


def test_chart_requires_analyze(capsys, corpus, tmp_path):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    code, _, _ = run(
        capsys, "chart", "--store", store, "--class", "happy", "--out", str(tmp_path / "c.svg"),
        "--all-users",
    )
    assert code == 3


def test_export_flow_and_errors(capsys, corpus, tmp_path):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)

    code, _, _ = run(
        capsys, "export", "--store", store, "--what", "bogus", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2

    series_csv = tmp_path / "series.csv"
    code, _, _ = run(capsys, "export", "--store", store, "--what", "series", "--out", str(series_csv))
    assert code == 0
    assert series_csv.read_text().splitlines()[0] == "bucket_start,class,count,total,proportion"

    ngram_csv = tmp_path / "ngrams.csv"
    code, _, _ = run(
        capsys,
        "export", "--store", store, "--what", "ngrams", "--out", str(ngram_csv), "--user", "u1",
    )
    assert code == 0
    assert ngram_csv.read_text().splitlines()[0] == "n,gram,count"

    # a good export is the cached file, byte for byte
    derived = tmp_path / "store" / "derived"
    (all_dir,) = (derived / "@all").iterdir()
    (u1_dir,) = (derived / "u1").iterdir()
    assert series_csv.read_bytes() == (all_dir / "series.csv").read_bytes()
    assert ngram_csv.read_bytes() == (u1_dir / "ngrams.csv").read_bytes()


def with_last_count(data: bytes, count: bytes) -> bytes:
    """The ngrams.csv bytes with the last row's count replaced."""
    head, _, _ = data[: -len(b"\r\n")].rpartition(b",")
    return head + b"," + count + b"\r\n"


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: with_last_count(data, b"+7"),
        lambda data: with_last_count(data, b"07"),
        lambda data: data.replace(b"\r\n1,", b"\r\n+1,", 1),
        lambda data: data[: -len(b"\r\n")],
        lambda data: data[: -len(b"\n")],
        lambda data: with_last_count(data, b"10")[: -len(b"0\r\n")],
    ],
    ids=[
        "plus-signed-count",
        "count-with-a-leading-zero",
        "plus-signed-order",
        "no-line-end-after-the-last-row",
        "last-line-end-cut-in-two",
        "last-count-cut-short",
    ],
)
def test_export_rejects_an_ngrams_csv_its_writer_never_writes(capsys, corpus, tmp_path, edit):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    (u1_dir,) = (tmp_path / "store" / "derived" / "u1").iterdir()
    path = u1_dir / "ngrams.csv"
    path.write_bytes(edit(path.read_bytes()))
    out = tmp_path / "ngrams.csv"
    code, _, err = run(
        capsys, "export", "--store", store, "--what", "ngrams", "--user", "u1", "--out", str(out)
    )
    assert code == 3
    assert "store error: corrupt-artifact: u1/ngrams.csv; re-run `facewall analyze`" in err
    assert not out.exists()


def test_export_requires_analyze(capsys, tmp_path):
    corpus = write_jsonl(
        tmp_path / "c.jsonl", [post_record("u1", "2015-01-01T00:00:00Z", "x")]
    )
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    code, _, _ = run(
        capsys, "export", "--store", store, "--what", "series", "--out", str(tmp_path / "s.csv")
    )
    assert code == 3


def test_dot_user_ids_stay_inside_derived(capsys, tmp_path):
    records = [post_record(".", "2015-01-02T10:00:00Z", "great day :-)")]
    records += [post_record("..", f"2015-0{m}-03T10:00:00Z", "sad day :(") for m in (1, 2, 3)]
    corpus = write_jsonl(tmp_path / "dots.jsonl", records)
    root = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(root))
    code, _, _ = run(capsys, "analyze", "--store", str(root))
    assert code == 0

    derived = root / "derived"
    written = [p for p in root.rglob("*") if p.is_file()]
    outside = [p for p in written if p.parent != root and derived not in p.parents]
    assert outside == []
    scopes = {p.relative_to(derived).parts[0] for p in written if derived in p.parents}
    assert {user_scope("."), user_scope("..")} <= scopes
    assert all(len(p.relative_to(derived).parts) == 3 for p in written if derived in p.parents)

    out = tmp_path / "dotdot.csv"
    code, _, _ = run(
        capsys, "export", "--store", str(root), "--what", "series", "--out", str(out), "--user", ".."
    )
    assert code == 0
    volume = [line.split(",") for line in out.read_text().splitlines() if ",volume," in line]
    assert sum(int(row[2]) for row in volume) == 3


@pytest.mark.parametrize(
    "missing, argv",
    [
        ("@all/series.csv", ["chart", "--class", "volume", "--all-users"]),
        (
            "u1/occurrences.csv",
            ["chart", "--class", "happy", "--user", "u1", "--measure", "occurrences"],
        ),
        ("u2/series.csv", ["detect"]),
        ("@all/series.csv", ["export", "--what", "series"]),
        ("u1/ngrams.csv", ["export", "--what", "ngrams", "--user", "u1"]),
    ],
    ids=["chart-series", "chart-occurrences", "detect", "export-series", "export-ngrams"],
)
def test_missing_derived_file_is_a_store_error(capsys, corpus, tmp_path, missing, argv):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    scope, name = missing.split("/")
    (hash_dir,) = (tmp_path / "store" / "derived" / scope).iterdir()
    (hash_dir / name).unlink()
    out = tmp_path / "out"
    code, _, err = run(capsys, argv[0], "--store", store, "--out", str(out), *argv[1:])
    assert code == 3
    assert "store error: missing-artifact" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["chart", "--class", "volume", "--all-users"], ["detect"], ["export", "--what", "series"]],
    ids=["chart", "detect", "export"],
)
def test_unwritable_out_is_an_input_error(capsys, corpus, tmp_path, argv):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    for out in (tmp_path / "no-such-dir" / "out", tmp_path):
        code, _, err = run(capsys, argv[0], "--store", store, "--out", str(out), *argv[1:])
        assert code == 2
        assert "cannot write output" in err


COMMAND_FAILURES = {
    "cannot-read-input": (
        ["ingest", "--input", "{tmp}/absent.jsonl", "--format", "jsonl", "--store", "{tmp}/new"],
        2,
        "cannot read input: [Errno 2] No such file or directory: '{tmp}/absent.jsonl'",
    ),
    "ngrams-below-1": (["analyze", "--store", "{store}", "--ngrams", "0"], 1,
                       "--ngrams must be at least 1"),
    "unknown-class": (
        ["chart", "--store", "{store}", "--class", "bogus", "--out", "{out}", "--all-users"],
        2,
        "unknown class: 'bogus'",
    ),
    "unknown-measure": (
        ["chart", "--store", "{store}", "--class", "happy", "--out", "{out}", "--all-users",
         "--measure", "bogus"],
        2,
        "unknown measure: 'bogus'",
    ),
    "volume-occurrences": (
        ["chart", "--store", "{store}", "--class", "volume", "--out", "{out}", "--all-users",
         "--measure", "occurrences"],
        2,
        "volume has no occurrence series",
    ),
    "bad-detector": (
        ["detect", "--store", "{store}", "--out", "{out}", "--window", "1"],
        1,
        "bad detector parameters: bad-window",
    ),
    "unknown-export-kind": (
        ["export", "--store", "{store}", "--what", "bogus", "--out", "{out}"],
        2,
        "unknown export kind: 'bogus'",
    ),
    "unknown-user-chart": (
        ["chart", "--store", "{store}", "--class", "happy", "--out", "{out}", "--user", "zz"],
        2,
        "unknown user: 'zz'",
    ),
    "unknown-user-export": (
        ["export", "--store", "{store}", "--what", "series", "--out", "{out}", "--user", "zz"],
        2,
        "unknown user: 'zz'",
    ),
    "cannot-write-output": (
        ["detect", "--store", "{store}", "--out", "{tmp}"],
        2,
        "cannot write output: [Errno 21] Is a directory: '{tmp}'",
    ),
}


@pytest.mark.parametrize(
    "argv, code, message", COMMAND_FAILURES.values(), ids=list(COMMAND_FAILURES)
)
def test_a_command_failure_is_one_stderr_line_and_its_exit_code(
    capsys, corpus, tmp_path, argv, code, message
):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    paths = {"tmp": str(tmp_path), "store": store, "out": str(tmp_path / "out")}
    got = run(capsys, *[arg.format(**paths) for arg in argv])
    assert got == (code, "", f"facewall: {message.format(**paths)}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_two_commands_in_one_process_share_no_flags(capsys, corpus, tmp_path):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    report = tmp_path / "report.json"
    for argv, window in ((["--window", "3"], 3), ([], 6)):
        code, out, err = run(capsys, "detect", "--store", store, "--out", str(report), *argv)
        assert (code, err) == (0, "")
        assert out.startswith("users=2 ")
        assert {r["config"]["window"] for r in json.loads(report.read_text())} == {window}


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--input", "{corpus}", "--format", "jsonl"],
        ["analyze"],
        ["detect", "--out", "{out}"],
    ],
    ids=["ingest", "analyze", "detect"],
)
def test_a_store_path_too_long_for_the_file_system_is_a_store_error(
    capsys, corpus, tmp_path, argv
):
    store = tmp_path / ("s" * 300)
    paths = {"corpus": str(corpus), "out": str(tmp_path / "out")}
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv], "--store", str(store))
    assert (code, out) == (3, "")
    assert err.startswith("facewall: store error: store-io: ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [corpus]


def assert_an_analysis_listing_is_corrupt(capsys, corpus, tmp_path, user_id, argv):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    (hash_dir,) = (tmp_path / "store" / "derived" / "@meta").iterdir()
    meta_path = hash_dir / "analysis.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["users"].append(user_id)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, argv[0], "--store", store, "--out", str(out), *argv[1:])
    assert (code, stdout) == (3, "")
    assert err == (
        "facewall: store error: corrupt-artifact: @meta/analysis.json; "
        "re-run `facewall analyze`\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["detect"],
        ["chart", "--class", "happy", "--user", "u" * 300],
        ["export", "--what", "series", "--user", "u" * 300],
    ],
    ids=["detect", "chart", "export"],
)
def test_an_analysis_listing_a_user_id_too_long_for_a_directory_name_is_corrupt(
    capsys, corpus, tmp_path, argv
):
    assert_an_analysis_listing_is_corrupt(capsys, corpus, tmp_path, "u" * 300, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["detect"],
        ["chart", "--class", "happy", "--user", ""],
        ["export", "--what", "series", "--user", ""],
    ],
    ids=["detect", "chart", "export"],
)
def test_an_analysis_listing_an_empty_user_id_is_corrupt(capsys, corpus, tmp_path, argv):
    assert_an_analysis_listing_is_corrupt(capsys, corpus, tmp_path, "", argv)


@pytest.mark.parametrize("command", ["detect", "chart", "export"])
def test_an_analysis_json_that_cannot_be_read_is_a_store_error(
    capsys, corpus, tmp_path, command
):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    (hash_dir,) = (tmp_path / "store" / "derived" / "@meta").iterdir()
    (hash_dir / "analysis.json").unlink()
    (hash_dir / "analysis.json").mkdir()
    argv = {
        "detect": [],
        "chart": ["--class", "volume", "--all-users"],
        "export": ["--what", "series"],
    }[command]
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, "--store", store, "--out", str(out), *argv)
    assert (code, stdout) == (3, "")
    assert err.startswith("facewall: store error: store-io: ")
    assert not out.exists()


def rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8", newline="")


def with_count(line, count):
    day, cls, _, *rest = line.split(",")
    return ",".join([day, cls, count, *rest])


def with_day(line, day):
    return ",".join([day, *line.split(",")[1:]])


def with_first_count(lines, count):
    """The first row's count replaced, the row's line end kept."""
    day, cls, old, *rest = lines[1].split(",")
    end = old[len(old.rstrip("\r\n")) :]
    return [lines[0], ",".join([day, cls, count + end, *rest])] + lines[2:]


def with_second_total(lines, total):
    day, cls, count, _, share = lines[2].split(",")
    return lines[:2] + [",".join([day, cls, count, total, share])] + lines[3:]


CHART_U1 = ["chart", "--class", "happy", "--user", "u1"]
CHART_OCCURRENCES = CHART_U1 + ["--measure", "occurrences"]
EXPORT_U1 = ["export", "--user", "u1", "--what"]


@pytest.mark.parametrize(
    "damaged, edit, argv",
    [
        ("u2/series.csv", lambda lines: lines[:-3] + [lines[-3][:9]], ["detect"]),
        ("u2/series.csv", lambda lines: lines[:-2], ["detect"]),
        (
            "u2/series.csv",
            lambda lines: lines[:2] + [with_count(lines[2], "two")] + lines[3:],
            ["detect"],
        ),
        (
            "@all/series.csv",
            lambda lines: lines[:-1],
            ["chart", "--class", "volume", "--all-users"],
        ),
        ("u1/occurrences.csv", lambda lines: lines[:-2] + [lines[-2][:14]], CHART_OCCURRENCES),
        (
            "u1/occurrences.csv",
            lambda lines: [lines[0]] + [with_day(line, "2014-12-01") for line in lines[1:6]]
            + lines[6:],
            CHART_OCCURRENCES,
        ),
        ("@meta/analysis.json", lambda lines: lines[: len(lines) // 2], ["detect"]),
        (
            "@meta/analysis.json",
            lambda lines: lines[: len(lines) // 2],
            ["chart", "--class", "volume", "--all-users"],
        ),
        (
            "@meta/analysis.json",
            lambda lines: lines[: len(lines) // 2],
            ["export", "--what", "series"],
        ),
        ("@meta/analysis.json", lambda lines: ["[]\n"], ["detect"]),
        ("@meta/analysis.json", lambda lines: ["[" * 100_000], ["detect"]),
        (
            "@all/series.csv",
            lambda lines: lines[:-3] + [lines[-3][:9]],
            ["export", "--what", "series"],
        ),
        ("u1/series.csv", lambda lines: lines[:-1], EXPORT_U1 + ["series"]),
        ("u1/ngrams.csv", lambda lines: lines[:-2] + [lines[-2][:3]], EXPORT_U1 + ["ngrams"]),
        (
            "u1/ngrams.csv",
            lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",one\n"] + lines[3:],
            EXPORT_U1 + ["ngrams"],
        ),
        (
            "u1/ngrams.csv",
            lambda lines: lines[:2] + ['1,"' + "x" * 200_000 + '",1\n'] + lines[2:],
            EXPORT_U1 + ["ngrams"],
        ),
        # counts that int() reads but the writer never writes
        ("u2/series.csv", lambda lines: with_first_count(lines, "\u0661"), ["detect"]),
        ("u1/series.csv", lambda lines: with_first_count(lines, "+1"), CHART_U1),
        ("u1/occurrences.csv", lambda lines: with_first_count(lines, "1_0"), CHART_OCCURRENCES),
        ("u1/series.csv", lambda lines: with_first_count(lines, " 1"), EXPORT_U1 + ["series"]),
        # series.csv's own redundancy
        ("u2/series.csv", lambda lines: with_first_count(lines, "906"), ["detect"]),
        ("u2/series.csv", lambda lines: with_second_total(lines, "2"), ["detect"]),
    ],
    ids=[
        "series-cut-mid-row",
        "series-cut-at-a-row-boundary",
        "series-non-integer-count",
        "chart-series-cut",
        "occurrences-cut-mid-row",
        "occurrences-bucket-starts-differ",
        "meta-cut-detect",
        "meta-cut-chart",
        "meta-cut-export",
        "meta-not-an-object",
        "meta-nested-too-deep",
        "export-series-cut-mid-row",
        "export-series-cut-at-a-row-boundary",
        "export-ngrams-cut-mid-row",
        "export-ngrams-non-integer-count",
        "export-ngrams-oversized-field",
        "series-arabic-indic-digit-count",
        "chart-series-plus-signed-count",
        "occurrences-underscored-count",
        "export-series-space-before-a-count",
        "series-class-count-above-the-total",
        "series-total-differs-in-a-bucket",
    ],
)
def test_corrupt_derived_file_is_a_store_error(capsys, corpus, tmp_path, damaged, edit, argv):
    store, _, _ = analyzed_store(capsys, corpus, tmp_path)
    scope, name = damaged.split("/")
    (hash_dir,) = (tmp_path / "store" / "derived" / scope).iterdir()
    rewrite(hash_dir / name, edit)
    out = tmp_path / "out"
    code, _, err = run(capsys, argv[0], "--store", store, "--out", str(out), *argv[1:])
    assert code == 3
    assert f"store error: corrupt-artifact: {damaged}; re-run `facewall analyze`" in err
    assert not out.exists()
