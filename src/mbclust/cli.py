"""Command line front end.

One executable, five subcommands: ``cluster`` runs the full loop and
emits assignments plus optional dendrogram, Newick, and trace files;
``dendrogram`` runs with the containment rule off and prints the merge
structure; ``importance`` ranks features; ``similarity`` prints a full
pairwise matrix; ``eval`` cross-tabulates a clustering against a label
column. Primary output goes to stdout (or ``--out``); a one-line JSON
run manifest goes to stderr. Exit codes: 0 success, 1 data error,
2 usage error. The texts of ``cluster``, ``dendrogram`` and
``similarity`` come from :mod:`mbclust.writers`, and one sink writes
every output, piece by piece.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as csvmod
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Iterable

from . import similarity, writers
from .core import IMPORTANCE_PGP, IMPORTANCE_PPP, TIES_DROP_ALL, MbcConfig, run
from .dataset import MISSING_CATEGORY, MISSING_REJECT, _csv_records, load_csv
from .errors import MbcError
from .evaluation import contingency, misclassified, purity
from .importance import finite_alpha, importance_report, pgp2_kept_counts


def _add_dataset_args(parser: argparse.ArgumentParser, with_label: bool = True) -> None:
    parser.add_argument("csv", metavar="CSV", help="input dataset, header row mandatory")
    if with_label:
        parser.add_argument("--label-column", metavar="NAME", default=None,
                            help="column held out of the features")
    parser.add_argument("--missing", choices=[MISSING_REJECT, MISSING_CATEGORY],
                        default=MISSING_REJECT,
                        help="reject missing cells or keep them as one extra category")


def _add_config_args(parser: argparse.ArgumentParser, with_k: bool = True) -> None:
    parser.add_argument("--importance", choices=[IMPORTANCE_PGP, IMPORTANCE_PPP],
                        default=IMPORTANCE_PGP, help="feature ranking used for drops")
    parser.add_argument("--ties", choices=[TIES_DROP_ALL, "pgp2"], default=TIES_DROP_ALL,
                        help="drop all tied features, or a single one picked by pgp2")
    parser.add_argument("--alpha", type=float, default=0.0,
                        help="match-count threshold of the pgp2 tie-break")
    if with_k:
        parser.add_argument("--no-anti-merge", action="store_true",
                            help="disable the cluster containment rule")
        parser.add_argument("--k", type=int, default=None,
                            help="cut the dendrogram near k clusters (implies --no-anti-merge)")


def _load_dataset(args):
    return load_csv(args.csv, label_column=args.label_column, missing_policy=args.missing)


def _config(args) -> MbcConfig:
    return MbcConfig(
        importance_measure=args.importance,
        tie_policy=args.ties,
        anti_merge=not args.no_anti_merge,
        alpha=args.alpha,
        k=args.k,
    )


def _file_key(path: str | None):
    """Device and inode of an output's file (stdout's for None) where it
    exists, else its real path; None for a stdout without a descriptor."""
    try:
        info = os.fstat(sys.stdout.fileno()) if path is None else os.stat(path)
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return None if path is None else os.path.realpath(path)
    return info.st_dev, info.st_ino


def _write(*outputs: tuple[str | None, Iterable[str]]) -> None:
    """Write each ``(path, pieces)`` output to the file at ``path``, or to stdout when it is None.

    Each string of ``pieces`` is written as it is consumed, then the
    newline that ends the output. Every path is opened before the first
    byte is written, and two outputs may not be one file (by path, by
    link, or as stdout), so an output that cannot be opened fails the
    command before it writes anything. Callers raise whatever else can
    fail before their pieces are consumed.
    """
    seen = set()
    for path, _ in outputs:
        key = _file_key(path)
        if key in seen:
            raise MbcError(f"two outputs name the same file: {path or 'stdout'}")
        seen.add(key)
    with contextlib.ExitStack() as stack:
        sinks = [sys.stdout if path is None else stack.enter_context(open(path, "w", encoding="utf-8"))
                 for path, _ in outputs]
        for sink, (_, pieces) in zip(sinks, outputs):
            sink.writelines(pieces)
            sink.write("\n")


def _table(rows: list[list[str]], right: bool) -> str:
    """Aligned text table, one line per row, without a final newline; columns
    after the first are right-justified when ``right`` is set."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.rjust(w) if right and c else cell.ljust(w) for c, (cell, w) in enumerate(zip(row, widths)))
        .rstrip() for row in rows
    )


def _cmd_cluster(args) -> int:
    started = time.perf_counter()
    data = _load_dataset(args)
    config = _config(args)
    result = run(data, config)
    seconds = time.perf_counter() - started

    manifest = {
        "input": args.csv,
        "config": {"importance": config.importance_measure, "ties": config.tie_policy,
                   "anti_merge": config.anti_merge, "alpha": config.alpha, "k": config.k},
        "iterations": len(result.trace),
        "per_iteration": [
            {"iteration": rec.iteration, "theta": rec.theta, "dropped": list(rec.dropped)}
            for rec in result.trace
        ],
        "final_clusters": result.dendrogram.level_sizes[result.level],
        "seconds": round(seconds, 6),
    }
    if args.format == "json":
        primary = writers.cluster_json(result.labels, result.stop_reason, len(result.trace))
    else:
        primary = writers.assignments_csv(result.assignments)
    side = [(args.dendrogram_out, writers.dendrogram_json(result.dendrogram)),
            (args.newick_out, writers.newick(result.dendrogram)),
            (args.trace_out, writers.trace_json(result.trace)),
            (args.manifest_out, [json.dumps(manifest, indent=2)])]
    _write((args.out, primary), *[(path, pieces) for path, pieces in side if path])
    print(json.dumps(manifest, separators=(",", ":")), file=sys.stderr)
    return 0


def _cmd_dendrogram(args) -> int:
    data = _load_dataset(args)
    dendrogram = run(data, _config(args)).dendrogram
    writer = writers.newick if args.format == "newick" else writers.dendrogram_json
    _write((args.out, writer(dendrogram)))
    return 0


_UNDEFINED = {
    IMPORTANCE_PGP: "no feature has a repeated category; pgp is undefined",
    IMPORTANCE_PPP: "every feature is constant; ppp is undefined",
    "pgp2": "no pair exceeds the influence threshold; pgp2 is undefined",
}


def _rank_rows(names, numerators, denominator):
    """One row per feature, largest share ``numerator / denominator`` first."""
    values = [Fraction(v, denominator) for v in numerators]
    return [{"feature": names[i], "numerator": numerators[i], "denominator": denominator,
             "value": float(values[i]), "exact": str(values[i])}
            for i in sorted(range(len(names)), key=values.__getitem__, reverse=True)]


def _cmd_importance(args) -> int:
    alpha = finite_alpha(args.alpha)
    data = _load_dataset(args)
    if args.measure == "pgp2":
        numerators, denominator = pgp2_kept_counts(data, range(data.m), alpha)
    else:
        report = importance_report(data)
        numerators = report.match_pairs if args.measure == IMPORTANCE_PGP else report.mismatch_pairs
        denominator = sum(numerators)
    if not denominator:
        raise MbcError(_UNDEFINED[args.measure])
    rows = _rank_rows(data.feature_names, numerators, denominator)

    if args.format == "json":
        _write((args.out, [json.dumps(rows, indent=2)]))
        return 0
    cells = [["feature", "numerator", "denominator", "value"]] + [
        [r["feature"], str(r["numerator"]), str(r["denominator"]), f"{r['value']:.6f}"] for r in rows
    ]
    _write((args.out, [_table(cells, right=False)]))
    return 0


def _cmd_similarity(args) -> int:
    data = _load_dataset(args)
    # pairwise_blocks raises every error of the measure here, before --out is opened.
    blocks = similarity.pairwise_blocks(data, args.measure)
    _write((args.out, writers.similarity_matrix(blocks, data.n, args.measure, args.format)))
    return 0


def _read_assignments(path: str) -> dict[int, tuple[int, ...]]:
    """The ascending members of each cluster id of an assignments file, ids ascending."""
    clusters: dict[int, list[int]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_records(fh, path)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["object", "cluster"]:
            raise MbcError(f"{path}: expected an assignments file with header object,cluster")
        for rownum, record in enumerate(reader, start=2):
            try:
                obj, cid = int(record[0]), int(record[1])
            except (ValueError, IndexError):
                raise MbcError(f"{path}: row {rownum}: expected two integers") from None
            clusters.setdefault(cid, []).append(obj)
    return {cid: tuple(sorted(m)) for cid, m in sorted(clusters.items())}


def _cmd_eval(args) -> int:
    data = load_csv(args.csv, label_column=args.labels, missing_policy=args.missing)
    if args.assignments:
        clusters = _read_assignments(args.assignments)
    else:
        clusters = dict(enumerate(run(data, _config(args)).partition, start=1))
    try:
        table = contingency(tuple(clusters.values()), data.labels)
    except ValueError as exc:  # a run's partition covers the dataset; only an assignments file can fail here
        raise MbcError(f"{args.assignments}: {exc}") from None

    cells = [["label"] + [str(c) for c in clusters]] + [
        [name] + [str(int(v)) for v in counts] for name, counts in zip(table.label_names, table.counts)
    ]
    if args.format == "csv":
        buf = io.StringIO()
        csvmod.writer(buf, lineterminator="\n").writerows(cells)
        table_text = buf.getvalue()
    else:
        table_text = _table(cells, right=True) + "\n"
    summary = {
        "purity": purity(table),
        "misclassified": misclassified(table),
        "n": table.n,
        "clusters": len(clusters),
        "labels": len(table.label_names),
    }
    _write((args.out, [table_text, json.dumps(summary)]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mbclust",
                                     description="Matching-based clustering of categorical data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a dataset and print assignments")
    _add_dataset_args(p)
    _add_config_args(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--dendrogram-out", metavar="PATH", default=None)
    p.add_argument("--newick-out", metavar="PATH", default=None)
    p.add_argument("--trace-out", metavar="PATH", default=None)
    p.add_argument("--manifest-out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("dendrogram", help="print the merge structure (containment rule off)")
    _add_dataset_args(p)
    _add_config_args(p, with_k=False)
    p.add_argument("--format", choices=["json", "newick"], default="json")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_dendrogram, no_anti_merge=True, k=None)

    p = sub.add_parser("importance", help="rank features by importance")
    _add_dataset_args(p)
    p.add_argument("--measure", choices=["pgp", "ppp", "pgp2"], default="pgp")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("similarity", help="print the full pairwise similarity matrix")
    _add_dataset_args(p)
    p.add_argument("--measure", choices=similarity.MEASURES, default="cm")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_similarity)

    p = sub.add_parser("eval", help="cross-tabulate a clustering against a label column")
    _add_dataset_args(p, with_label=False)
    _add_config_args(p)
    p.add_argument("--labels", metavar="NAME", required=True,
                   help="label column to evaluate against")
    p.add_argument("--assignments", metavar="PATH", default=None,
                   help="assignments CSV from the cluster subcommand; omitted: cluster first")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MbcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
