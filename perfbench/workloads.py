"""The timed phase of each workload, run in a process of its own.

A closed loop: one client calls `facewall.cli.main` in-process, one command
at a time, on one thread. Each command is timed on its own, in wall time
and, when a speed probe is given, in scaled time (speed.py); its output
checks run after its clock has stopped. A process runs one round of the
workload; run.py starts as many as fit in the run's seconds.

Usage: python3 workloads.py SPEC.json RESULT.json
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import shutil
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# window x z x jsd for weekly-triage: 40 detect calls per round
WEEKLY_GRID = [
    (window, z, jsd)
    for window in (4, 8, 13, 26)
    for z in (2.0, 3.0, 4.0, 6.0, 8.0)
    for jsd in (0.5, 0.7)
]

_REJECTION = re.compile(r":(\d+): rejected \((.+)\)$")


@dataclass
class Op:
    command: str
    seconds: float  # scaled when the session has a probe, else wall
    wall: float
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)


class Session:
    """Runs CLI commands in-process, timing each and keeping its checks."""

    def __init__(self, cli, probe=None) -> None:
        self.cli = cli
        self.probe = probe
        self.ops: list[Op] = []

    def run(self, argv: list[str], check=None) -> Op:
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    return self.cli.main(argv)
            except Exception:  # a crashing command is a failed op; the run goes on
                err.write(traceback.format_exc())
                return None

        if self.probe is None:
            start = perf_counter()
            code = call()
            wall = scaled = perf_counter() - start
        else:
            code, wall, scaled = self.probe.time(call)
        op = Op(argv[0], scaled, wall, out.getvalue(), err.getvalue())
        self.ops.append(op)
        if code != 0:
            op.problems.append(f"{argv[0]} exited {code}: {op.stderr[-400:]}")
        elif check is not None:
            op.problems.extend(check(op))
        return op

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)

    def failures(self) -> list[str]:
        return [problem for op in self.ops for problem in op.problems]


def expect_stdout(line: str):
    def check(op: Op) -> list[str]:
        got = op.stdout.strip()
        return [] if got == line else [f"{op.command}: expected {line!r}, got {got!r}"]

    return check


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): sha256_file(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def combined_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(sha256_file(path).encode("ascii"))
    return digest.hexdigest()


def series_volume(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        next(handle)
        return sum(int(row.split(",")[2]) for row in handle if row.split(",")[1] == "volume")


def compare(problems: list[str], what: str, got, want) -> None:
    if want is not None and got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_output(op: Op, spec: dict, outputs: dict, key: str, got) -> None:
    """Keep an output (digest or detector sweep) for the cross-round check;
    at the default seed it must match pinned.json. Failures count against op."""
    outputs[key] = got
    compare(op.problems, f"pinned {key}", got, (spec.get("pinned") or {}).get(key))


# -- rounds ----------------------------------------------------------------------


def fixture_round(session: Session, spec: dict, out: Path, outputs: dict) -> None:
    """ingest -> analyze (month, n=3) -> detect into a fresh store."""
    facts = spec["inputs"]["facts"]
    store = out / "store"

    ingest = session.run(
        ["ingest", "--input", spec["inputs"]["corpus"], "--format", "jsonl", "--store", str(store)],
        expect_stdout(
            f"ingested={facts['unique_posts']} rejected=0 duplicates={facts['duplicates']}"
        ),
    )

    def check_analyze(op: Op) -> list[str]:
        match = re.fullmatch(
            rf"users={facts['users']} posts={facts['unique_posts']} model=trained config=(\w+)",
            op.stdout.strip(),
        )
        if not match:
            return [f"analyze: unexpected summary {op.stdout.strip()!r}"]
        problems: list[str] = []
        derived = store / "derived"
        compare(problems, "@all volume", series_volume(derived / "@all" / match.group(1) / "series.csv"),
                facts["unique_posts"])
        for user, posts in facts["posts_by_user"].items():
            compare(problems, f"{user} volume",
                    series_volume(derived / user / match.group(1) / "series.csv"), posts)
        return problems

    analyze = session.run(["analyze", "--store", str(store)], check_analyze)
    report = out / "report.json"

    def check_detect(op: Op) -> list[str]:
        users = [entry["user_id"] for entry in json.loads(report.read_text(encoding="utf-8"))]
        if users != sorted(facts["posts_by_user"]):
            return [f"detect: report users {users!r}"]
        return []

    detect = session.run(["detect", "--store", str(store), "--out", str(report)], check_detect)

    check_output(ingest, spec, outputs, "posts.jsonl", sha256_file(store / "posts.jsonl"))
    check_output(analyze, spec, outputs, "derived", tree_digests(store / "derived"))
    check_output(detect, spec, outputs, "report.json", sha256_file(report))
    shutil.rmtree(store)


def append_round(session: Session, spec: dict, out: Path, outputs: dict) -> None:
    """Half-year batches into one growing store, the whole corpus again,
    then a batch of bad and duplicate lines."""
    inputs = spec["inputs"]
    store = str(out / "store")
    for batch, facts in zip(inputs["batches"], inputs["batch_facts"]):
        session.run(
            ["ingest", "--input", batch, "--format", "jsonl", "--store", store],
            expect_stdout(
                f"ingested={facts['unique_posts']} rejected=0 duplicates={facts['duplicates']}"
            ),
        )
    facts = inputs["facts"]
    session.run(
        ["ingest", "--input", inputs["full"], "--format", "jsonl", "--store", store],
        expect_stdout(f"ingested=0 rejected=0 duplicates={facts['lines']}"),
    )
    expected = inputs["bad_rejections"]

    def check_bad(op: Op) -> list[str]:
        problems = expect_stdout(
            f"ingested=0 rejected={len(expected)} duplicates={inputs['bad_duplicates']}"
        )(op)
        got = {}
        for line in op.stderr.splitlines():
            match = _REJECTION.search(line)
            if match:
                got[match.group(1)] = match.group(2)
        compare(problems, "rejections by line", got, expected)
        return problems

    last = session.run(
        ["ingest", "--input", inputs["bad"], "--format", "jsonl", "--store", store], check_bad
    )
    manifest = json.loads((out / "store" / "manifest.json").read_text(encoding="utf-8"))
    compare(last.problems, "record_count", manifest["record_count"], facts["unique_posts"])
    check_output(last, spec, outputs, "posts.jsonl", sha256_file(out / "store" / "posts.jsonl"))
    shutil.rmtree(out / "store")


def weekly_round(session: Session, spec: dict, out: Path, outputs: dict) -> None:
    """A detect grid over a week-bucket analysis, then one chart and one
    export per user. Reads only: the store is the one set-up analyzed."""
    inputs = spec["inputs"]
    store = inputs["store"]
    users = sorted(inputs["facts"]["posts_by_user"])
    week = ["--store", store, "--bucket", "week"]
    reports, sweep = [], []
    for window, z, jsd in WEEKLY_GRID:
        report = out / f"report-w{window}-z{z:g}-j{jsd:g}.json"
        reports.append(report)

        def check_report(op: Op, report=report, point=(window, z, jsd)) -> list[str]:
            entries = json.loads(report.read_text(encoding="utf-8"))
            if [entry["user_id"] for entry in entries] != users:
                return [f"detect {point}: report users differ"]
            flagged = [entry["user_id"] for entry in entries if entry["flags"]]
            sweep.append({
                "window": window, "z": z, "jsd": jsd,
                "ramped_flagged": sum(1 for u in flagged if u.startswith("r")),
                "control_flagged": sum(1 for u in flagged if u.startswith("c")),
                "flags": sum(len(entry["flags"]) for entry in entries),
            })
            return []

        session.run(
            ["detect", *week, "--window", str(window), "--z", str(z), "--jsd", str(jsd),
             "--out", str(report)],
            check_report,
        )
    charts, exports = [], []
    derived = Path(store) / "derived"
    for user in users:
        chart = out / f"{user}.svg"
        charts.append(chart)
        session.run(
            ["chart", *week, "--class", "disappointment", "--user", user, "--out", str(chart)],
            lambda op, chart=chart: [] if chart.read_text(encoding="utf-8").startswith("<svg")
            else [f"chart {chart.name}: not an SVG"],
        )
        export = out / f"{user}.csv"
        exports.append(export)
        session.run(
            ["export", *week, "--what", "series", "--user", user, "--out", str(export)],
            lambda op, export=export, cached=derived / user / inputs["week_hash"] / "series.csv":
            [] if export.read_bytes() == cached.read_bytes()
            else [f"export {export.name}: differs from the cached series"],
        )
    first = session.ops[0]
    check_output(first, spec, outputs, "reports", combined_digest(reports))
    check_output(first, spec, outputs, "sweep", sweep)
    check_output(first, spec, outputs, "charts", combined_digest(charts))
    check_output(first, spec, outputs, "exports", combined_digest(exports))
    check_output(first, spec, outputs, "derived", tree_digests(derived))


ROUNDS = {
    "fixture-pipeline": fixture_round,
    "append-growth": append_round,
    "weekly-triage": weekly_round,
}


def run_round(spec: dict, cli, probe=None) -> tuple[Session, dict]:
    session = Session(cli, probe)
    outputs: dict = {}
    out = Path(spec["work"])
    out.mkdir(parents=True)
    ROUNDS[spec["workload"]](session, spec, out, outputs)
    shutil.rmtree(out)
    return session, outputs


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from facewall import cli

    layers = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            session, outputs = run_round(spec, cli)
        layers = tracing.per_layer_metrics(tracer)
        if spec["workload"] != "fixture-pipeline":
            for layer in tracing.ANALYZE_ONLY_LAYERS:
                calls = tracing.layer_calls(tracer, layer)
                if calls:
                    session.ops[0].problems.append(f"{layer} made {calls} calls")
    else:
        import speed

        session, outputs = run_round(spec, cli, speed.Probe())
    result = {
        "seconds": sum(op.seconds for op in session.ops),
        "op_commands": [op.command for op in session.ops],
        "op_seconds": [op.seconds for op in session.ops],
        "op_wall": [op.wall for op in session.ops],
        "attempted": len(session.ops),
        "failed": session.failed,
        "failures": session.failures()[:50],
        "peak_rss_mb": peak_rss_kib() / 1024,
        "outputs": outputs,
        "layers": layers,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def peak_rss_kib() -> int:
    """This process's own high-water RSS. ru_maxrss is not used: exec keeps
    the parent's high-water mark from before the fork."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
