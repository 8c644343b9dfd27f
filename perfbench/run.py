"""facewall benchmark: one workload per run, or all of them with --all.

    python3 perfbench/run.py --workload fixture-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

Set-up runs here three times, and the median of the three is `setup_s`.
On weekly-triage set-up is the program's ingest and `analyze --bucket week`
(the corpus is generated once, off the clock); on the other workloads,
which give the program no set-up work, it is input generation alone. The
timed phase runs in rounds, each in a process of its own (workloads.py), so
`peak_rss_mb` leaves set-up out. Every end-to-end time is scaled to a fixed
host speed by speed.py, and each command's time is its median over the
rounds (command_times); wall times go to the run record. With --trace 1
set-up runs once, the timed phase runs untraced and traced rounds in turn,
TRACE_PAIRS of each, and the per-layer metrics (wall time) come from the
faster traced round.

The last line of stdout is the result object; the line before it is the run
record (commit, interpreter, inputs, per-command times, error rate and the
detector sweep). Exit status 2 means the program or the input generator is
missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench-work"
PINS = HERE / "pinned.json"

WORKLOADS = ("fixture-pipeline", "append-growth", "weekly-triage")
# The workloads BENCHMARK.json lists. append-growth runs and checks like the
# others but is not gated: the gate's run count grows with each workload,
# and three workloads leave too few rounds per run for steady medians.
GATED_WORKLOADS = ("fixture-pipeline", "weekly-triage")
END_TO_END = {
    "setup_s": "s",
    "posts_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# the operation whose latency op_ms_p50 and op_ms_tail describe: a whole
# round on fixture-pipeline, one command of this kind on the others
LATENCY_OPS = {"fixture-pipeline": None, "append-growth": "ingest", "weekly-triage": "detect"}
SETUPS = 3
MIN_ROUNDS = 3
TRACE_PAIRS = 2


class BenchError(Exception):
    pass


# -- set-up ------------------------------------------------------------------------


def generate(workload: str, directory: Path, seed: int, size) -> tuple[dict, float]:
    """The workload's input files from the seed; returns them and the
    scaled time generation took."""
    import corpora
    import speed

    directory.mkdir(parents=True)
    users = size.users_per_group[workload]

    def write() -> dict:
        if workload == "append-growth":
            return corpora.write_append_inputs(directory, seed, users, size.first_month)
        corpus = corpora.write_corpus(directory / "corpus.jsonl", seed, users, size.first_month)
        return {"corpus": str(corpus)}

    inputs, _, scaled = speed.Probe().time(write)
    return inputs, scaled


def analyze_weeks(corpus: str, store: Path) -> tuple[dict, float]:
    """weekly-triage's set-up: ingest + analyze --bucket week, in-process
    like the timed phase; returns the store and the two commands' scaled
    time."""
    import speed
    from facewall import cli
    from workloads import Session

    session = Session(cli, speed.Probe())
    session.run(["ingest", "--input", corpus, "--format", "jsonl", "--store", str(store)])
    analyze = session.run(["analyze", "--store", str(store), "--bucket", "week"])
    if session.failed:
        raise BenchError("weekly set-up failed: " + "; ".join(session.failures()))
    week = {"store": str(store), "week_hash": analyze.stdout.split("config=")[1].strip()}
    return week, sum(op.seconds for op in session.ops)


def set_up(workload: str, work: Path, seed: int, size) -> tuple[dict, float]:
    """The kept set-up; returns the inputs and the set-up time."""
    inputs, seconds = generate(workload, work / "setup-0", seed, size)
    if workload == "weekly-triage":
        week, seconds = analyze_weeks(inputs["corpus"], work / "setup-0" / "store")
        inputs.update(week)
    return inputs, seconds


def repeat_set_up(workload: str, work: Path, k: int, seed: int, size, kept: dict) -> float:
    """Set-up number k, only to time it. It must give the kept set-up's
    corpus bytes (or, on weekly-triage, its derived files), and is then
    deleted."""
    from workloads import sha256_file, tree_digests

    directory = work / f"setup-{k}"
    if workload == "weekly-triage":
        directory.mkdir()
        week, seconds = analyze_weeks(kept["corpus"], directory / "store")
        same = tree_digests(Path(week["store"]) / "derived") == tree_digests(
            Path(kept["store"]) / "derived")
    else:
        inputs, seconds = generate(workload, directory, seed, size)
        same = sha256_file(corpus_of(inputs)) == sha256_file(corpus_of(kept))
    if not same:
        raise BenchError(f"set-up {k} differs from set-up 0 for seed {seed}")
    shutil.rmtree(directory)
    return seconds


def facts_dict(path: Path) -> dict:
    import corpora

    facts = corpora.corpus_facts(path)
    return {
        "lines": facts.lines,
        "unique_posts": facts.unique_posts,
        "duplicates": facts.duplicates,
        "users": facts.users,
        "posts_by_user": facts.posts_by_user,
        "bytes": facts.bytes,
    }


def corpus_of(inputs: dict) -> Path:
    return Path(inputs.get("corpus") or inputs["full"])


def add_facts(workload: str, inputs: dict) -> None:
    inputs["facts"] = facts_dict(corpus_of(inputs))
    if workload == "append-growth":
        inputs["batch_facts"] = [facts_dict(Path(batch)) for batch in inputs["batches"]]


# -- the timed phase -------------------------------------------------------------------


def timed_phase(spec: dict, work: Path, name: str, timeout: float) -> dict:
    """One round in a fresh process. The timeout only guards against a hung
    command; the run's length is kept by not starting rounds."""
    spec_path, result_path = work / f"{name}-spec.json", work / f"{name}-result.json"
    spec = {**spec, "work": str(work / name), "src": str(SRC)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(spec_path), str(result_path)],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round {name} took over {timeout:g} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"timed phase exited {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, when that lies above the median; otherwise the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11
    if index + 1 <= n / 2:
        index = n - 1
    return 100.0 * (index + 1) / n, ordered[index]


def command_times(rounds: list[dict], key: str = "op_seconds") -> tuple[list[str], list[float]]:
    """Every round runs the same commands in the same order; each command's
    time is its median over the rounds. key picks scaled ("op_seconds") or
    wall ("op_wall") times."""
    commands = rounds[0]["op_commands"]
    if any(r["op_commands"] != commands for r in rounds):
        raise BenchError("rounds ran different commands")
    return commands, [
        statistics.median(r[key][i] for r in rounds) for i in range(len(commands))
    ]


def end_to_end(
    workload: str, rounds: list[dict], setup_times: list[float], posts: int
) -> tuple[dict, dict]:
    """The timed figures are over command_times; p50 and tail run over the
    times of the workload's latency operation."""
    commands, seconds = command_times(rounds)
    round_s = sum(seconds)
    kind = LATENCY_OPS[workload]
    latencies = [round_s] if kind is None else [
        t for c, t in zip(commands, seconds) if c == kind
    ]
    percentile, tail_s = tail(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "posts_per_s": posts / round_s,
        "ops_per_s": len(commands) / round_s,
        "op_ms_p50": 1000 * statistics.median(latencies),
        "op_ms_tail": 1000 * tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    detail = {
        "round_s": [r["seconds"] for r in rounds],
        "round_wall_s": [sum(r["op_wall"]) for r in rounds],
        "latency_samples": len(latencies),
        "tail_percentile": percentile,
        "setup_runs_s": setup_times,
        "command_s": per_command(commands, seconds),
        "command_wall_s": per_command(*command_times(rounds, "op_wall")),
    }
    return values, detail


def per_command(commands: list[str], seconds: list[float]) -> dict[str, float]:
    """Summed time per command name, as {"ingest_s": ..., ...}."""
    by_command: dict[str, float] = {}
    for command, t in zip(commands, seconds):
        by_command[f"{command}_s"] = by_command.get(f"{command}_s", 0.0) + t
    return by_command


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_appended"):
        return "bytes"
    if name.endswith("_per_post"):
        return "1/post"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# -- the run record ----------------------------------------------------------------------


def commit() -> str:
    """HEAD from the .git directory, when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "facewall").rglob("*.py"))
    )


def run_record(args, workload: str, inputs: dict, result: dict, detail: dict) -> dict:
    facts = inputs["facts"]
    return {
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": {"posts": facts["unique_posts"], "users": facts["users"],
                   "lines": facts["lines"], "bytes": facts["bytes"]},
        "src_facewall_lines": source_lines(),
        "error_rate": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "detector_sweep": result["outputs"].get("sweep"),
        **detail,
    }


# -- one workload ---------------------------------------------------------------------------


def measure(args, workload: str) -> tuple[dict, dict]:
    """Returns (result object, run record) for one workload."""
    import corpora

    size = corpora.SIZES[args.size]
    work = WORK / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    timeout = round_timeout(args.seconds)
    try:
        inputs, first_setup = set_up(workload, work, args.seed, size)
        add_facts(workload, inputs)
        pinned = None
        if args.seed == corpora.sc.SEED and args.size == "full":
            pinned = json.loads(PINS.read_text(encoding="utf-8"))[workload]
        spec = {"workload": workload, "inputs": inputs, "pinned": pinned, "trace": False}
        posts = inputs["facts"]["unique_posts"]
        if not args.trace:
            rounds, setup_times = timed_rounds(args, workload, spec, work, size)
            setup_times.insert(0, first_setup)
            metrics, detail = end_to_end(workload, rounds, setup_times, posts)
            units = END_TO_END
        else:
            untraced, traced = [], []
            for k in range(TRACE_PAIRS):
                untraced.append(timed_phase(spec, work, f"untraced-{k}", timeout))
                traced.append(timed_phase({**spec, "trace": True}, work, f"traced-{k}", timeout))
            rounds = untraced + traced
            metrics = dict(min(traced, key=lambda r: r["seconds"])["layers"])
            metrics["trace.overhead_ratio"] = (
                sum(command_times(traced, "op_wall")[1])
                / sum(command_times(untraced, "op_wall")[1]))
            _, detail = end_to_end(workload, traced, [first_setup], posts)
            units = {name: per_layer_unit(name) for name in metrics}
        result = combine(rounds)
        outcome = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        return outcome, run_record(args, workload, inputs, result, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def round_timeout(seconds: float) -> float:
    return 60 + 4 * seconds


def timed_rounds(args, workload, spec, work, size) -> tuple[list[dict], list[float]]:
    """Rounds, each in a fresh process: MIN_ROUNDS, then more while another
    as long as the last still fits in args.seconds of round wall time. The
    remaining set-ups run between rounds, so rounds and set-ups sample the
    machine at different moments; any still missing run after the last
    round."""
    rounds, setup_times, timed = [], [], 0.0
    wanted_setups = SETUPS - 1 if size.repeat_setup else 0
    while True:
        start = monotonic()
        rounds.append(timed_phase(spec, work, f"round-{len(rounds)}", round_timeout(args.seconds)))
        last = monotonic() - start
        timed += last
        if len(setup_times) < wanted_setups:
            k = len(setup_times) + 1
            setup_times.append(repeat_set_up(workload, work, k, args.seed, size, spec["inputs"]))
        if len(rounds) >= MIN_ROUNDS and timed + last > args.seconds:
            break
    while len(setup_times) < wanted_setups:
        k = len(setup_times) + 1
        setup_times.append(repeat_set_up(workload, work, k, args.seed, size, spec["inputs"]))
    return rounds, setup_times


def combine(rounds: list[dict]) -> dict:
    """Counts over all rounds; every round must produce the same outputs."""
    failures = [f for r in rounds for f in r["failures"]]
    failed = sum(r["failed"] for r in rounds)
    for k, r in enumerate(rounds[1:], 1):
        differing = sorted(key for key in r["outputs"] if r["outputs"][key] != rounds[0]["outputs"][key])
        if differing:
            failures.append(f"round {k} outputs differ from round 0: {differing}")
            failed += 1
    return {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "failures": failures[:50],
        "outputs": rounds[0]["outputs"],
    }


def add_checkout_paths() -> None:
    """The program under test and the input generator, from this checkout."""
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    choice = parser.add_mutually_exclusive_group(required=True)
    choice.add_argument("--workload", choices=WORKLOADS)
    choice.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help=f"round wall time per run; whole rounds, at least {MIN_ROUNDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a two-user corpus for the harness's own tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "facewall" / "cli.py", TESTS / "synthcorpus.py") if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    add_checkout_paths()
    workloads = WORKLOADS if args.all else (args.workload,)
    try:
        for workload in workloads:
            outcome, record = measure(args, workload)
            if args.all:
                print_table(workload, outcome, record)
            else:
                print(json.dumps({"record": record}))
                print(json.dumps(outcome))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


def print_table(workload: str, outcome: dict, record: dict) -> None:
    gate = "gated" if workload in GATED_WORKLOADS else "not gated"
    print(f"{workload} ({gate}): correct={outcome['correct']} attempted={outcome['attempted']} "
          f"failed={outcome['failed']} error_rate={record['error_rate']:g}")
    for name, metric in outcome["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in record["command_s"].items():
        wall = record["command_wall_s"][name]
        print(f"  {name:34s} {value:14.6g} s   (scaled; wall {wall:.6g} s; not gated)")
    for failure in record["failures"]:
        print(f"  FAIL {failure}")


if __name__ == "__main__":
    sys.exit(main())
