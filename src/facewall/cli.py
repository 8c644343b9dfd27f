"""facewall command line: ingest -> analyze -> chart / detect / export.

Exit codes: 0 success, 1 usage, 2 input error, 3 store error. Flags are
validated before the store is touched; diagnostics go to stderr, the
machine-readable summary lines to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .charts import DEFAULT_HEIGHT, DEFAULT_WIDTH, render_series_chart
from .ingest import FORMATS, load_corpus
from .lexicon import LEXICON_CLASSES, EmotionLexicon, LexiconError, default_lexicon, load_lexicon
from .pipeline import (
    AnalysisConfig,
    NGRAMS_CSV,
    OCCURRENCES_CSV,
    SERIES_CSV,
    analyze_store,
    artifact_error,
    derived_file,
    detect_store,
    load_ngram_profile,
    load_occurrence_counts,
    load_series_table,
    resolve_analysis,
    scope_for,
)
from .store import Store, StoreError
from .timeline import GRANULARITIES, VOLUME, DetectorConfig, report_to_dict

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


def build_parser() -> _Parser:
    parser = _Parser(prog="facewall", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ingest = commands.add_parser("ingest", help="load a corpus file into the store")
    ingest.add_argument("--input", required=True, metavar="PATH")
    ingest.add_argument("--format", required=True, choices=FORMATS)
    ingest.add_argument("--store", required=True, metavar="DIR")
    ingest.set_defaults(func=cmd_ingest)

    analyze = commands.add_parser("analyze", help="label posts and build derived series")
    analyze.add_argument("--store", required=True, metavar="DIR")
    _add_analysis_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

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
    chart.set_defaults(func=cmd_chart)

    detect = commands.add_parser("detect", help="flag anomalous emotion-profile shifts")
    detect.add_argument("--store", required=True, metavar="DIR")
    detect.add_argument("--out", required=True, metavar="FILE.json")
    detect.add_argument("--window", type=int, default=DetectorConfig.window)
    detect.add_argument("--z", type=float, default=DetectorConfig.z_thresh)
    detect.add_argument("--jsd", type=float, default=DetectorConfig.jsd_thresh)
    detect.add_argument("--min-hits", type=int, default=DetectorConfig.min_hits)
    detect.add_argument("--min-total", type=int, default=DetectorConfig.min_total)
    _add_analysis_flags(detect)
    detect.set_defaults(func=cmd_detect)

    export = commands.add_parser("export", help="write cached series/ngram CSVs")
    export.add_argument("--store", required=True, metavar="DIR")
    export.add_argument("--what", required=True, metavar="WHAT", help="series or ngrams")
    export.add_argument("--out", required=True, metavar="FILE.csv")
    export.add_argument("--user", metavar="ID", default=None)
    _add_analysis_flags(export)
    export.set_defaults(func=cmd_export)

    return parser


class _UnknownUser(Exception):
    """A --user that the analysis does not list."""


class _CannotWrite(Exception):
    """An --out path that cannot be written."""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except LexiconError as exc:
        print(f"facewall: bad lexicon: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _UnknownUser as exc:
        print(f"facewall: unknown user: {exc.args[0]!r}", file=sys.stderr)
        return EXIT_INPUT
    except _CannotWrite as exc:
        print(f"facewall: cannot write output: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except StoreError as exc:
        print(f"facewall: store error: {exc}", file=sys.stderr)
        return EXIT_STORE


def _open(args: argparse.Namespace) -> tuple[EmotionLexicon, Store, AnalysisConfig]:
    """The lexicon, the store and the analysis config that the flags name."""
    lexicon = default_lexicon() if args.lexicon is None else load_lexicon(args.lexicon)
    store = Store.open(args.store)
    config = AnalysisConfig(
        granularity=args.bucket, n_max=args.ngrams, lexicon_digest=lexicon.digest()
    )
    return lexicon, store, config


def _open_analysis(args: argparse.Namespace) -> tuple[Store, AnalysisConfig, dict, str]:
    """The store, config, analysis meta and derived scope that chart and
    export read; no --user means the all-users aggregate."""
    _, store, config = _open(args)
    meta = resolve_analysis(store, config)
    try:
        scope = scope_for(meta, args.user)
    except KeyError:
        raise _UnknownUser(args.user) from None
    return store, config, meta, scope


def _write_output(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise _CannotWrite(exc) from None


def cmd_ingest(args: argparse.Namespace) -> int:
    try:
        batch = load_corpus(args.input, args.format)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"facewall: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
    duplicates = batch.duplicates_dropped + (len(batch.posts) - receipt.written)
    print(f"ingested={receipt.written} rejected={len(batch.rejected)} duplicates={duplicates}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.ngrams < 1:
        print("facewall: --ngrams must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    lexicon, store, config = _open(args)
    with store.lock():
        summary = analyze_store(store, lexicon, config)
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
        print(f"facewall: unknown class: {args.cls!r}", file=sys.stderr)
        return EXIT_INPUT
    if args.measure not in ("posts", "occurrences"):
        print(f"facewall: unknown measure: {args.measure!r}", file=sys.stderr)
        return EXIT_INPUT
    if args.measure == "occurrences" and args.cls == VOLUME:
        print("facewall: volume has no occurrence series", file=sys.stderr)
        return EXIT_INPUT
    store, config, meta, scope = _open_analysis(args)
    scope_label = args.user if args.user is not None else "all users"
    granularity = meta["config"]["granularity"]
    table = load_series_table(store, config, scope)
    series = table.to_series(args.cls, scope_label, granularity)
    if args.measure == "occurrences":
        starts, occ_counts = load_occurrence_counts(store, config, scope)
        if starts != table.bucket_starts:
            raise artifact_error("corrupt-artifact", scope, OCCURRENCES_CSV)
        series.counts = occ_counts[args.cls]
    width, height = args.size
    title = f"{args.cls}: {scope_label}"
    svg = render_series_chart(series, title, width=width, height=height, measure=args.measure)
    _write_output(args.out, svg.encode("utf-8"))
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    detector = DetectorConfig(
        window=args.window,
        z_thresh=args.z,
        jsd_thresh=args.jsd,
        min_hits=args.min_hits,
        min_total=args.min_total,
    )
    try:
        detector.validate()
    except ValueError as exc:
        print(f"facewall: bad detector parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _, store, config = _open(args)
    reports, summary = detect_store(store, config, detector)
    payload = [report_to_dict(report, summary.granularity) for report in reports]
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    _write_output(args.out, text.encode("utf-8"))
    print(
        f"users={summary.users} flagged_users={summary.flagged_users} flags={summary.flags}"
        f" zscore={summary.zscore_flags} jsd={summary.jsd_flags}"
        + "".join(f" {cls}={n}" for cls, n in summary.zscore_by_class.items())
    )
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    if args.what not in ("series", "ngrams"):
        print(f"facewall: unknown export kind: {args.what!r}", file=sys.stderr)
        return EXIT_INPUT
    store, config, _, scope = _open_analysis(args)
    # A damaged file is a store error, as in chart and detect; the export
    # itself is the cached bytes.
    if args.what == "series":
        load_series_table(store, config, scope)
        name = SERIES_CSV
    else:
        load_ngram_profile(store, config, scope)
        name = NGRAMS_CSV
    _write_output(args.out, derived_file(store, config, scope, name).read_bytes())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
