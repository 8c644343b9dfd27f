"""Acceptance suite: every release criterion at its stated tolerance, one
pass/fail line per criterion on the terminal.

The pipeline criteria run the installed CLI in subprocesses (twice, into two
stores) so determinism is checked across process boundaries, where hash
randomization would expose any set-ordered output.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
import unicodedata
from contextlib import contextmanager
from fractions import Fraction

import pytest

from facewall.classifier import classify_post, nb_predict, train_nb
from facewall.lexer import TokenKind, prune, tokenize
from facewall.lexicon import EmotionClass, default_lexicon, lexicon_from_dict
from facewall.ngrams import NGramProfile, accumulate, extract_ngrams, merge_profiles
from facewall.timeline import jsd
from helpers import oracle_posteriors, words
from synthcorpus import CONTROL_USERS, RAMPED_USERS, generate_corpus

LEX = default_lexicon()
TABLE = LEX.emoticon_table()


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def announce(name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {name}: FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"criterion {name}: PASS", flush=True)

    return announce


# -- pipeline fixture ---------------------------------------------------------


def _facewall(*argv, tz=None, hashseed=None):
    env = dict(os.environ)
    if tz is not None:
        env["TZ"] = tz
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-m", "facewall", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, f"facewall {argv[0]} failed: {proc.stderr}"
    return proc.stdout


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    corpus = generate_corpus(root / "corpus.jsonl")

    runs = {}
    # the second run happens under a different host timezone: outputs must
    # be byte-identical anyway (all bucketing is UTC-only); the two runs'
    # distinct string hash seeds expose any output that follows set order
    for name, tz, hashseed in (("one", None, "1"), ("two", "Pacific/Kiritimati", "2")):
        store = root / f"store_{name}"
        timings = {}

        def timed(key, *argv):
            start = time.perf_counter()
            out = _facewall(*argv, tz=tz, hashseed=hashseed)
            timings[key] = time.perf_counter() - start
            return out

        ingest_out = timed(
            "ingest", "ingest", "--input", str(corpus), "--format", "jsonl", "--store", str(store)
        )
        timed("analyze", "analyze", "--store", str(store))
        report = store / "report.json"
        timed("detect", "detect", "--store", str(store), "--out", str(report))
        chart = store / "volume.svg"
        _facewall(
            "chart", "--store", str(store), "--class", "volume", "--all-users",
            "--out", str(chart), tz=tz, hashseed=hashseed,
        )
        series = store / "series.csv"
        _facewall(
            "export", "--store", str(store), "--what", "series", "--out", str(series),
            tz=tz, hashseed=hashseed,
        )
        runs[name] = {
            "store": store,
            "ingest_out": ingest_out,
            "report": report,
            "chart": chart,
            "series": series,
            "timings": timings,
        }

    z4_report = root / "report_z4.json"
    _facewall(
        "detect", "--store", str(runs["one"]["store"]), "--out", str(z4_report), "--z", "4"
    )
    runs["corpus"] = corpus
    runs["z4_report"] = z4_report
    return runs


def _reports_by_user(path):
    return {r["user_id"]: r for r in json.loads(path.read_text(encoding="utf-8"))}


# -- criterion 1: lexer suite ---------------------------------------------------


def random_unicode_string(rng, max_len=60):
    chars = []
    for _ in range(rng.randrange(0, max_len)):
        roll = rng.random()
        if roll < 0.45:
            chars.append(chr(rng.randrange(0x20, 0x7F)))
        elif roll < 0.65:
            chars.append(rng.choice(" \t\n :-()=<3@#.www"))
        else:
            code = rng.randrange(0xA0, 0x2FFFF)
            if 0xD800 <= code <= 0xDFFF:
                code = 0x263A
            chars.append(chr(code))
    return "".join(chars)


def test_lexer_suite(criterion):
    with criterion("lexer-suite"):
        start = time.perf_counter()
        rng = random.Random(20151103)

        for _ in range(1000):
            text = random_unicode_string(rng)
            norm = unicodedata.normalize("NFC", text)
            tokens = tokenize(text, TABLE)
            cursor = 0
            rebuilt = []
            for token in tokens:
                gap = norm[cursor : token.start]
                assert gap.strip() == ""
                rebuilt += [gap, norm[token.start : token.end]]
                cursor = token.end
            tail = norm[cursor:]
            assert tail.strip() == ""
            rebuilt.append(tail)
            assert "".join(rebuilt) == norm

            pruned = prune(tokens)
            assert prune(pruned) == pruned

        letters = "abcdefghijklmnopqrstuvwxyzäöüßλнжではい"
        emoticons = sorted(LEX.all_emoticons())
        assert len(emoticons) == 9
        for emo in emoticons:
            for _ in range(100):
                parts = [
                    "".join(rng.choice(letters) for _ in range(rng.randrange(1, 6)))
                    for _ in range(rng.randrange(0, 3))
                ]
                position = rng.randrange(len(parts) + 1)
                parts.insert(position, emo)
                text = "".join(p + rng.choice(["", " "]) for p in parts)
                found = [t.surface for t in tokenize(text, TABLE) if t.kind is TokenKind.EMOTICON]
                assert found == [emo], (text, found)

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"lexer suite took {elapsed:.2f}s"


# -- criterion 2: n-gram conservation ------------------------------------------


def test_ngram_conservation_and_merge_laws(criterion):
    with criterion("ngram-conservation"):
        rng = random.Random(8128)
        for _ in range(1000):
            length = rng.randrange(0, 30)
            token_list = words(*[rng.choice("abcdefg") for _ in range(length)])
            for n in (1, 2, 3):
                assert sum(extract_ngrams(token_list, n).values()) == max(0, length - n + 1)

        def random_profile():
            profile = NGramProfile("owner")
            for _ in range(rng.randrange(0, 5)):
                accumulate(
                    profile,
                    words(*[rng.choice("abcd") for _ in range(rng.randrange(0, 6))]),
                    n_max=3,
                )
            return profile

        for _ in range(200):
            a, b, c = random_profile(), random_profile(), random_profile()
            ab, ba = merge_profiles(a, b), merge_profiles(b, a)
            assert ab.counts == ba.counts and ab.post_count == ba.post_count
            left = merge_profiles(merge_profiles(a, b), c)
            right = merge_profiles(a, merge_profiles(b, c))
            assert left.counts == right.counts and left.post_count == right.post_count


# -- criterion 3: classifier oracle ---------------------------------------------


def test_classifier_matches_enumeration_oracle(criterion):
    with criterion("classifier-oracle"):
        rng = random.Random(60601)
        cases = 0
        while cases < 550:
            vocab = ["a", "b", "c", "d"][: rng.randrange(1, 5)]
            n_docs = rng.randrange(2, 5)
            labels = ["happy", "sad"]
            doc_labels = [labels[0], labels[1]] + [
                rng.choice(labels) for _ in range(n_docs - 2)
            ]
            docs = [
                ([rng.choice(vocab) for _ in range(rng.randrange(0, 4))], label)
                for label in doc_labels
            ]
            n_max = rng.choice([1, 2, 3])
            alpha = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)])
            query = [rng.choice(vocab) for _ in range(rng.randrange(0, 4))]

            expected = oracle_posteriors(docs, query, n_max, alpha)
            model = train_nb(
                [(words(*surfaces), EmotionClass(label)) for surfaces, label in docs],
                n_max=n_max,
                alpha=float(alpha),
                min_train_docs=1,
            )
            got = nb_predict(model, words(*query))
            for cls, value in got.items():
                assert abs(value - expected[cls.value]) < 1e-12
            cases += 1

        toy = train_nb(
            [
                (words("great", "day"), EmotionClass.HAPPY),
                (words("bad", "day"), EmotionClass.SAD),
            ],
            n_max=1,
            min_train_docs=1,
        )
        posterior = nb_predict(toy, words("great"))
        assert abs(posterior[EmotionClass.HAPPY] - 2 / 3) < 1e-12


# -- criterion 4: emoticon precedence --------------------------------------------


def test_emoticon_precedence(criterion):
    with criterion("emoticon-precedence"):
        rng = random.Random(41)
        letters = "abcdefghijklmnopqrstuvwxyz"

        def random_prefix():
            return " ".join(
                "".join(rng.choice(letters) for _ in range(rng.randrange(1, 8)))
                for _ in range(rng.randrange(1, 5))
            )

        # every default emoticon forces its class on any word content
        for emo in sorted(LEX.all_emoticons()):
            cls = LEX.emoticon_to_class[emo]
            for _ in range(50):
                text = random_prefix() + rng.choice([" ", ""]) + emo
                label = classify_post(prune(tokenize(text, TABLE)), LEX)
                assert cls in label.labels, (text, label)
                assert label.method == "emoticon"

        # all four classes: the default lexicon gives Disappointment no
        # emoticon, so the 4-class sweep runs on an augmented lexicon
        augmented_dict = LEX.canonical_dict()
        augmented_dict["classes"]["disappointment"]["emoticons"] = [">:("]
        augmented = lexicon_from_dict(augmented_dict)
        augmented_table = augmented.emoticon_table()
        picks = {
            EmotionClass.HAPPY: ":-)",
            EmotionClass.SAD: ":(",
            EmotionClass.LOVE: "<3",
            EmotionClass.DISAPPOINTMENT: ">:(",
        }
        for cls, emo in picks.items():
            for _ in range(50):
                text = random_prefix() + rng.choice([" ", ""]) + emo
                label = classify_post(prune(tokenize(text, augmented_table)), augmented)
                assert cls in label.labels, (text, cls)


# -- criterion 5: Jensen-Shannon divergence ----------------------------------------


def test_jsd_properties_and_derived_value(criterion):
    with criterion("jsd"):
        rng = random.Random(31128)
        for _ in range(1000):
            p = [rng.random() for _ in range(5)]
            q = [rng.random() for _ in range(5)]
            if rng.random() < 0.25:
                p[rng.randrange(5)] = 0.0
            if rng.random() < 0.25:
                q[rng.randrange(5)] = 0.0
            value = jsd(p, q)
            assert abs(value - jsd(q, p)) <= 1e-12
            assert -1e-12 <= value <= 1 + 1e-12
            assert jsd(p, p) <= 1e-12
        assert abs(jsd([0.5, 0.5], [1.0, 0.0]) - 0.31128) < 1e-4


# -- criterion 6: qualitative ramp reconstruction ------------------------------------


def _qualifying(flag):
    if int(flag["bucket_start"][:4]) not in (2014, 2015, 2016):
        return False
    if flag["signal"] == "jsd":
        return True
    return flag["signal"] == "zscore" and flag["class"] == "disappointment"


def test_disappointment_ramp_reconstruction(criterion, pipeline, capsys):
    with criterion("ramp-reconstruction"):
        reports = _reports_by_user(pipeline["one"]["report"])
        flagged = [
            user for user in RAMPED_USERS if any(map(_qualifying, reports[user]["flags"]))
        ]
        assert len(flagged) >= 0.9 * len(RAMPED_USERS), flagged

        z4 = _reports_by_user(pipeline["z4_report"])
        early_control_flags = [
            (user, flag)
            for user in CONTROL_USERS
            for flag in z4[user]["flags"]
            if int(flag["bucket_start"][:4]) <= 2013
        ]
        assert early_control_flags == []

        timings = pipeline["one"]["timings"]
        total = timings["ingest"] + timings["analyze"] + timings["detect"]
        assert total < 60.0, f"pipeline took {total:.1f}s"

        # false-flag behaviour at default thresholds is measured, not asserted
        control_default_flags = sum(len(reports[user]["flags"]) for user in CONTROL_USERS)
        with capsys.disabled():
            print(
                f"[measured] control users at default thresholds: "
                f"{control_default_flags} flags across "
                f"{len(CONTROL_USERS)} users x 84 months "
                f"(pipeline ingest+analyze+detect {total:.1f}s)",
                flush=True,
            )


# -- criterion 7: determinism ---------------------------------------------------------


def _derived_files(store):
    derived = store / "derived"
    return {
        path.relative_to(derived).as_posix(): path.read_bytes()
        for path in sorted(derived.rglob("*"))
        if path.is_file()
    }


def test_pipeline_determinism(criterion, pipeline):
    with criterion("determinism"):
        one, two = pipeline["one"], pipeline["two"]
        # every scope's series, occurrences and ngrams, model.json, analysis.json
        derived_one, derived_two = _derived_files(one["store"]), _derived_files(two["store"])
        assert sorted(derived_one) == sorted(derived_two)
        names = {path.rsplit("/", 1)[1] for path in derived_one}
        assert names == {
            "series.csv", "occurrences.csv", "ngrams.csv", "model.json", "analysis.json"
        }
        assert len(derived_one) == 3 * (len(RAMPED_USERS) + len(CONTROL_USERS) + 1) + 2
        for path, data in derived_one.items():
            assert data == derived_two[path], path
        assert one["series"].read_bytes() == two["series"].read_bytes()
        assert one["report"].read_bytes() == two["report"].read_bytes()
        assert one["chart"].read_bytes() == two["chart"].read_bytes()
        # 2010..2016 monthly: the volume polyline carries one vertex per bucket
        svg = one["chart"].read_text(encoding="utf-8")
        import re

        points = re.search(r'<polyline id="counts"[^>]*points="([^"]*)"', svg).group(1)
        assert len(points.split()) == 84


# -- criterion 8: ingest idempotence -----------------------------------------------


def test_reingest_is_idempotent(criterion, pipeline):
    with criterion("ingest-idempotence"):
        store = pipeline["two"]["store"]
        manifest_before = (store / "manifest.json").read_bytes()
        log_before = (store / "posts.jsonl").read_bytes()
        out = _facewall(
            "ingest", "--input", str(pipeline["corpus"]), "--format", "jsonl",
            "--store", str(store),
        )
        assert out.startswith("ingested=0 ")
        assert (store / "manifest.json").read_bytes() == manifest_before
        assert (store / "posts.jsonl").read_bytes() == log_before

        count = json.loads((store / "manifest.json").read_text())["record_count"]
        first_line = pipeline["one"]["ingest_out"].strip()
        assert first_line == f"ingested={count} rejected=0 duplicates=0"


# -- damage that keeps the files well formed ----------------------------------------


def test_a_class_count_above_its_bucket_total_is_a_store_error(pipeline, tmp_path):
    # c01's first happy count, 6 of its bucket's 32 posts, made 906: the
    # file keeps its layout, and only its own redundancy tells
    store = tmp_path / "store"
    shutil.copytree(pipeline["one"]["store"], store)
    (series,) = (store / "derived" / "c01").glob("*/series.csv")
    lines = series.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].startswith("2010-01-01,happy,6,32,")
    lines[1] = lines[1].replace(",happy,6,", ",happy,906,")
    series.write_text("".join(lines), encoding="utf-8", newline="")
    proc = subprocess.run(
        [sys.executable, "-m", "facewall", "detect", "--store", str(store),
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert "store error: corrupt-artifact: c01/series.csv; re-run `facewall analyze`" in proc.stderr
    assert not (tmp_path / "report.json").exists()
