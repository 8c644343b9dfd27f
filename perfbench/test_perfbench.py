"""Smoke tests for the benchmark harness: every workload at the tiny size,
traced and untraced, with the same output checks as a full run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.add_checkout_paths()

import corpora  # noqa: E402
import synthcorpus  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(capsys, *argv: str) -> tuple[dict, dict]:
    assert run.main(["--size", "tiny", "--seed", "5", "--seconds", "1", *argv]) == 0
    *_, record, result = capsys.readouterr().out.splitlines()
    return json.loads(record)["record"], json.loads(result)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    record, result = bench(capsys, "--workload", workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0, record["failures"]
    names = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert record["error_rate"] == 0
    assert record["corpus"]["users"] == 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    record, result = bench(capsys, "--workload", workload, "--trace", "1")
    assert result["correct"], record["failures"]
    names = [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    if workload == "fixture-pipeline":
        methods = sum(metrics[f"classifier.method.{m}"]
                      for m in ("emoticon", "lexicon", "model", "neutral"))
        assert methods == metrics["ingest.records"] == record["corpus"]["posts"]
    else:
        assert metrics["lexer.tokens_in"] == metrics["ngrams.extract_calls"] == 0
    if workload == "append-growth":
        assert metrics["ingest.rejected.malformed"] == 5
        assert metrics["ingest.rejected.bad-timestamp"] == 4
        assert metrics["ingest.rejected.missing-field"] == 3
        assert metrics["store.records_written"] == record["corpus"]["posts"]


def test_tracing_restores_the_program():
    from facewall import default_lexicon, pipeline
    from facewall.store import Store

    table = default_lexicon().emoticon_table()
    originals = (pipeline.tokenize, Store.iter_posts)
    with tracing.installed(tracing.Tracer()) as tracer:
        assert pipeline.tokenize is not originals[0]
        pipeline.tokenize("so happy :)", table)
    assert (pipeline.tokenize, Store.iter_posts) == originals
    assert tracer.counts["lexer.tokens_in"] == 3


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    outer = tracer.begin("a.outer")
    inner = tracer.begin("b.inner")
    tracer.finish(inner)
    tracer.finish(outer)
    total, self_time, spans = tracer.span_times()
    assert self_time["a.outer"] == pytest.approx(total["a.outer"] - total["b.inner"])
    assert spans == {"a.outer": 1, "b.inner": 1}


def test_each_command_takes_its_median_time_over_rounds():
    rounds = [
        {"op_commands": ["ingest", "analyze"], "op_seconds": [1.0, 5.0], "op_wall": [2.0, 9.0]},
        {"op_commands": ["ingest", "analyze"], "op_seconds": [3.0, 4.0], "op_wall": [1.0, 7.0]},
        {"op_commands": ["ingest", "analyze"], "op_seconds": [2.0, 6.0], "op_wall": [3.0, 8.0]},
    ]
    assert run.command_times(rounds) == (["ingest", "analyze"], [2.0, 5.0])
    assert run.command_times(rounds, "op_wall") == (["ingest", "analyze"], [2.0, 8.0])
    with pytest.raises(run.BenchError):
        run.command_times(rounds + [{"op_commands": ["ingest"], "op_seconds": [1.0]}])


def test_scaled_time_follows_the_host_speed():
    assert speed.speed_factor([speed.NOMINAL_S] * 3) == pytest.approx(1.0)
    # a host at half speed for half the command: 3/4 of the work got done
    assert speed.speed_factor([speed.NOMINAL_S, 2 * speed.NOMINAL_S]) == pytest.approx(0.75)
    result, wall, scaled = speed.Probe().time(lambda: sum(range(10**6)))
    assert result == sum(range(10**6)) and wall > 0 and scaled > 0


def test_weekly_set_up_times_the_program_and_repeats_exactly(tmp_path):
    size = corpora.SIZES["tiny"]
    inputs, seconds = run.set_up("weekly-triage", tmp_path, 5, size)
    assert seconds > 0 and (Path(inputs["store"]) / "derived").is_dir()
    assert run.repeat_set_up("weekly-triage", tmp_path, 1, 5, size, inputs) > 0
    assert not (tmp_path / "setup-1").exists()


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_generator_loop_reproduces_the_fixture(tmp_path):
    fixture = synthcorpus.generate_corpus(tmp_path / "fixture.jsonl")
    looped = corpora.generate_records(
        synthcorpus.SEED, synthcorpus.RAMPED_USERS, synthcorpus.CONTROL_USERS
    )
    assert corpora.read_records(fixture) == looped


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert not (Path(tmp_path) / ".perfbench-work").exists()
