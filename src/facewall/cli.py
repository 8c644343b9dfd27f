"""facewall command line: ingest -> analyze -> chart / detect / export.

Exit codes: 0 success, 1 usage, 2 input error, 3 store error. Flags are
validated before the store is touched; diagnostics go to stderr, the
machine-readable summary lines to stdout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from collections import Counter
from dataclasses import fields

from .charts import DEFAULT_HEIGHT, DEFAULT_WIDTH, render_series_chart
from .ingest import FORMATS, load_corpus, user_scope
from .lexicon import LEXICON_CLASSES, EmotionLexicon, LexiconError, default_lexicon, load_lexicon
from .pipeline import (
    AnalysisConfig,
    analyze_store,
    detect_store,
    load_export,
    load_occurrence_counts,
    load_series,
    resolve_analysis,
)
from .store import ALL_SCOPE, Store, StoreError, write_json
from .timeline import GRANULARITIES, VOLUME, BucketSeries, DetectorConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_STORE = 3

CHART_CLASSES = tuple(cls.value for cls in LEXICON_CLASSES) + (VOLUME,)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # input errors and uses 1 for usage.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        width, height = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size must look like 960x320, got {text!r}")
    if width < 100 or height < 100:
        raise argparse.ArgumentTypeError("chart size must be at least 100x100")
    return width, height


def _add_analysis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bucket", choices=GRANULARITIES, default=AnalysisConfig.granularity,
                     help="calendar bucket granularity (default %(default)s)")
    sub.add_argument("--ngrams", type=int, default=AnalysisConfig.n_max, metavar="N",
                     help="highest n-gram order (default %(default)s)")
    sub.add_argument("--lexicon", metavar="FILE", default=None,
                     help="emotion lexicon JSON (default: built-in)")


@functools.cache
def build_parser() -> _Parser:
    """The facewall parser, built once per process: each main() call parses
    with it, and a parse leaves the parser as it found it."""
    parser = _Parser(prog="facewall", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ingest = commands.add_parser("ingest", help="load a corpus file into the store")
    ingest.add_argument("--input", required=True, metavar="PATH")
    ingest.add_argument("--format", required=True, choices=FORMATS)
    ingest.add_argument("--store", required=True, metavar="DIR")

    analyze = commands.add_parser("analyze", help="label posts and build derived series")
    analyze.add_argument("--store", required=True, metavar="DIR")
    _add_analysis_flags(analyze)

    chart = commands.add_parser("chart", help="render a series as an SVG line chart")
    chart.add_argument("--store", required=True, metavar="DIR")
    chart.add_argument("--class", dest="cls", required=True, metavar="CLASS",
                       help="|".join(CHART_CLASSES))
    chart.add_argument("--out", required=True, metavar="FILE.svg")
    scope = chart.add_mutually_exclusive_group(required=True)
    scope.add_argument("--user", metavar="ID")
    scope.add_argument("--all-users", action="store_true")
    chart.add_argument("--measure", default="posts", metavar="MEASURE",
                       help="posts (default) or occurrences")
    chart.add_argument("--size", type=_size, default=(DEFAULT_WIDTH, DEFAULT_HEIGHT), metavar="WxH")
    _add_analysis_flags(chart)

    detect = commands.add_parser("detect", help="flag anomalous emotion-profile shifts")
    detect.add_argument("--store", required=True, metavar="DIR")
    detect.add_argument("--out", required=True, metavar="FILE.json")
    detect.add_argument("--window", type=int, default=DetectorConfig.window)
    detect.add_argument("--z", dest="z_thresh", metavar="Z", type=float,
                        default=DetectorConfig.z_thresh)
    detect.add_argument("--jsd", dest="jsd_thresh", metavar="JSD", type=float,
                        default=DetectorConfig.jsd_thresh)
    detect.add_argument("--min-hits", type=int, default=DetectorConfig.min_hits)
    detect.add_argument("--min-total", type=int, default=DetectorConfig.min_total)
    _add_analysis_flags(detect)

    export = commands.add_parser("export", help="write cached series/ngram CSVs")
    export.add_argument("--store", required=True, metavar="DIR")
    export.add_argument("--what", required=True, metavar="WHAT", help="series or ngrams")
    export.add_argument("--out", required=True, metavar="FILE.csv")
    export.add_argument("--user", metavar="ID", default=None)
    _add_analysis_flags(export)

    return parser


class _Failure(Exception):
    """A command's failure: main prints the message and exits with the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A command leaves no reference cycles (a test checks this), so
    # reference counting frees what it allocates and the cyclic collector's
    # passes would find next to nothing: the collector is paused for the
    # command and left as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        # looked up now, so a replaced cmd_* function takes effect
        return globals()["cmd_" + args.command](args)
    except _Failure as exc:
        print(f"facewall: {exc}", file=sys.stderr)
        return exc.code
    except LexiconError as exc:
        print(f"facewall: bad lexicon: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StoreError as exc:
        print(f"facewall: store error: {exc}", file=sys.stderr)
        return EXIT_STORE
    finally:
        if enabled:
            gc.enable()


def _open(args: argparse.Namespace) -> tuple[EmotionLexicon, Store, AnalysisConfig]:
    """The lexicon, the store and the analysis config that the flags name."""
    lexicon = default_lexicon() if args.lexicon is None else load_lexicon(args.lexicon)
    store = Store.open(args.store)
    config = AnalysisConfig(
        granularity=args.bucket, n_max=args.ngrams, lexicon_digest=lexicon.digest()
    )
    return lexicon, store, config


def _open_analysis(args: argparse.Namespace) -> tuple[Store, AnalysisConfig, str]:
    """The store, config and derived scope that chart and export read; no
    --user means the all-users aggregate, and a user must be analyzed."""
    _, store, config = _open(args)
    users = resolve_analysis(store, config)
    if args.user is None:
        return store, config, ALL_SCOPE
    if args.user not in users:
        raise _Failure(EXIT_INPUT, f"unknown user: {args.user!r}")
    return store, config, user_scope(args.user)


def _write_output(path: str, write) -> None:
    """write(handle) on a UTF-8 handle on the --out file; OSError is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write(handle)
    except OSError as exc:
        raise _Failure(EXIT_INPUT, f"cannot write output: {exc}") from None


def cmd_ingest(args: argparse.Namespace) -> int:
    try:
        batch = load_corpus(args.input, args.format)
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(EXIT_INPUT, f"cannot read input: {exc}") from None
    store = Store.open(args.store, create=True)
    with store.lock():
        torn = store.cut_torn_tail()
        if torn:
            print(
                f"facewall: cut a torn last line ({torn} bytes) from {store.posts_path}",
                file=sys.stderr,
            )
        receipt = store.append_batch(batch)
    for line, reason in batch.rejected[:20]:
        print(f"facewall: {args.input}:{line}: rejected ({reason})", file=sys.stderr)
    if len(batch.rejected) > 20:
        print(f"facewall: ... {len(batch.rejected) - 20} more rejections", file=sys.stderr)
    duplicates = batch.duplicates_dropped + (len(batch.lines) - receipt.written)
    print(f"ingested={receipt.written} rejected={len(batch.rejected)} duplicates={duplicates}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.ngrams < 1:
        raise _Failure(EXIT_USAGE, "--ngrams must be at least 1")
    lexicon, store, config = _open(args)
    with store.lock():
        summary = analyze_store(store, lexicon, config)
    for user_id in summary.left_out:
        what = "user id too long for a directory name" if user_id else "empty user id"
        print(f"facewall: warning: left out {what}: {user_id!r}", file=sys.stderr)
    model_state = "trained" if summary.model_trained else "untrainable"
    if summary.posts and not summary.model_trained:
        print(
            "facewall: warning: model=untrainable "
            "(fewer than two classes have enough emoticon-labeled posts)",
            file=sys.stderr,
        )
    print(
        f"users={summary.users} posts={summary.posts} "
        f"model={model_state} config={summary.config_hash}"
    )
    return EXIT_OK


def cmd_chart(args: argparse.Namespace) -> int:
    if args.cls not in CHART_CLASSES:
        raise _Failure(EXIT_INPUT, f"unknown class: {args.cls!r}")
    if args.measure not in ("posts", "occurrences"):
        raise _Failure(EXIT_INPUT, f"unknown measure: {args.measure!r}")
    if args.measure == "occurrences" and args.cls == VOLUME:
        raise _Failure(EXIT_INPUT, "volume has no occurrence series")
    store, config, scope = _open_analysis(args)
    scope_label = args.user if args.user is not None else "all users"
    buckets, counts = load_series(store, config, scope)
    totals = counts[VOLUME]
    if args.measure == "occurrences":
        counts = load_occurrence_counts(store, config, scope, buckets)
    series = BucketSeries(args.cls, buckets, counts[args.cls], totals)
    title = f"{args.cls}: {scope_label}"
    svg = render_series_chart(series, title, config.granularity, *args.size, measure=args.measure)
    _write_output(args.out, lambda out: out.write(svg))
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    detector = DetectorConfig(**{f.name: getattr(args, f.name) for f in fields(DetectorConfig)})
    try:
        detector.validate()
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, f"bad detector parameters: {exc}") from None
    _, store, config = _open(args)
    entries = detect_store(store, config, detector)
    _write_output(args.out, lambda out: write_json(out, entries))
    flags = [flag for entry in entries for flag in entry["flags"]]
    signals = Counter(flag["signal"] for flag in flags)
    # only z-score flags name a class
    classes = Counter(flag["class"] for flag in flags)
    print(
        f"users={len(entries)} flagged_users={sum(bool(entry['flags']) for entry in entries)}"
        f" flags={len(flags)} zscore={signals['zscore']} jsd={signals['jsd']}"
        + "".join(f" {cls.value}={classes[cls.value]}" for cls in LEXICON_CLASSES)
    )
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    if args.what not in ("series", "ngrams"):
        raise _Failure(EXIT_INPUT, f"unknown export kind: {args.what!r}")
    store, config, scope = _open_analysis(args)
    # A damaged file is a store error, as in chart and detect; the export
    # itself is the cached bytes that were checked.
    data = load_export(store, config, scope, args.what)
    _write_output(args.out, lambda out: out.buffer.write(data))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
