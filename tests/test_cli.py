import json

import pytest

from facewall.cli import build_parser, main
from facewall.pipeline import AnalysisConfig
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


def analyzed_store(capsys, corpus, tmp_path):
    store = str(tmp_path / "store")
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", store)
    code, out, err = run(capsys, "analyze", "--store", store)
    assert code == 0
    return store, out, err


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


def test_unwritable_derived_dir_is_a_store_error(capsys, corpus, tmp_path):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    (store / "derived").write_text("not a directory", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--store", str(store))
    assert code == 3
    assert "store-io: " in err


@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_unwritable_manifest_is_a_store_error(capsys, corpus, tmp_path, command):
    store = tmp_path / "store"
    run(capsys, "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store))
    # the manifest is written through its .tmp name, here a directory
    (store / "manifest.json.tmp").mkdir()
    if command == "ingest":
        more = write_jsonl(
            tmp_path / "more.jsonl", [post_record("u3", "2016-01-01T00:00:00Z", "new :)")]
        )
        args = ["--input", str(more), "--format", "jsonl"]
    else:
        args = []
    code, _, err = run(capsys, command, "--store", str(store), *args)
    assert code == 3
    assert "store-io: " in err


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
        b'{"schema_version": 1, "record_count": 17, "analyses": []}\n',
    ],
    ids=["array", "non-utf8", "no-record-count", "analyses-array"],
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
    from facewall.store import user_scope

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


def rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8", newline="")


def with_count(line, count):
    day, cls, _, *rest = line.split(",")
    return ",".join([day, cls, count, *rest])


def with_day(line, day):
    return ",".join([day, *line.split(",")[1:]])


CHART_OCCURRENCES = ["chart", "--class", "happy", "--user", "u1", "--measure", "occurrences"]
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
        "export-series-cut-mid-row",
        "export-series-cut-at-a-row-boundary",
        "export-ngrams-cut-mid-row",
        "export-ngrams-non-integer-count",
        "export-ngrams-oversized-field",
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
