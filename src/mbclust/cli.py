"""Command line front end.

One executable, five subcommands: ``cluster`` runs the full loop and
emits assignments plus optional dendrogram, Newick, and trace files;
``dendrogram`` runs with the containment rule off and prints the merge
structure; ``importance`` ranks features; ``similarity`` prints a full
pairwise matrix; ``eval`` cross-tabulates a clustering against a label
column. Primary output goes to stdout (or ``--out``); a one-line JSON
run manifest goes to stderr. Exit codes: 0 success, 1 data error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv as csvmod
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .core import (
    IMPORTANCE_PGP,
    IMPORTANCE_PPP,
    TIES_DROP_ALL,
    MbcConfig,
    run,
)
from .dataset import MISSING_CATEGORY, MISSING_REJECT, load_csv
from .errors import MbcError
from .evaluation import contingency, misclassified, purity
from .importance import importance_report, pgp2_counts
from .similarity import build_sm, pairwise_matrix


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


def _config(args, anti_merge: bool | None = None, k: int | None = None) -> MbcConfig:
    if anti_merge is None:
        anti_merge = not getattr(args, "no_anti_merge", False)
    if k is None:
        k = getattr(args, "k", None)
    return MbcConfig(
        importance_measure=args.importance,
        tie_policy=args.ties,
        anti_merge=anti_merge,
        alpha=args.alpha,
        k=k,
    ).validated()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _config_echo(config: MbcConfig) -> dict:
    return {
        "importance": config.importance_measure,
        "ties": config.tie_policy,
        "anti_merge": config.anti_merge,
        "alpha": config.alpha,
        "k": config.k,
    }


def _cmd_cluster(args) -> int:
    started = time.perf_counter()
    data = _load_dataset(args)
    config = _config(args)
    result = run(data, config)
    seconds = time.perf_counter() - started

    if args.format == "json":
        payload = {
            "assignments": [int(c) for c in result.assignments],
            "clusters": [list(members) for members in result.partition],
            "stop_reason": result.stop_reason,
            "iterations": len(result.trace),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        buf = io.StringIO()
        writer = csvmod.writer(buf, lineterminator="\n")
        writer.writerow(["object", "cluster"])
        for obj, cid in enumerate(result.assignments):
            writer.writerow([obj, int(cid)])
        _emit(buf.getvalue(), args.out)

    if args.dendrogram_out:
        Path(args.dendrogram_out).write_text(
            json.dumps(result.dendrogram.to_dict(), indent=2) + "\n", encoding="utf-8")
    if args.newick_out:
        Path(args.newick_out).write_text(result.dendrogram.to_newick() + "\n", encoding="utf-8")
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps([rec.to_dict() for rec in result.trace], indent=2) + "\n", encoding="utf-8")

    manifest = {
        "input": args.csv,
        "config": _config_echo(config),
        "iterations": len(result.trace),
        "per_iteration": [
            {"iteration": rec.iteration, "theta": rec.theta, "dropped": list(rec.dropped)}
            for rec in result.trace
        ],
        "final_clusters": len(result.partition),
        "seconds": round(seconds, 6),
    }
    print(json.dumps(manifest, separators=(",", ":")), file=sys.stderr)
    if args.manifest_out:
        Path(args.manifest_out).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_dendrogram(args) -> int:
    data = _load_dataset(args)
    config = _config(args, anti_merge=False, k=None)
    result = run(data, config)
    if args.format == "newick":
        _emit(result.dendrogram.to_newick(), args.out)
    else:
        _emit(json.dumps(result.dendrogram.to_dict(), indent=2), args.out)
    return 0


def _rank_rows(names, numerators, denominators, values):
    order = sorted(range(len(names)), key=lambda i: values[i], reverse=True)
    return [
        {
            "feature": names[i],
            "numerator": int(numerators[i]),
            "denominator": int(denominators[i]),
            "value": float(values[i]),
            "exact": str(values[i]),
        }
        for i in order
    ]


def _cmd_importance(args) -> int:
    alpha = MbcConfig(alpha=args.alpha).validated().alpha
    data = _load_dataset(args)
    report = importance_report(data)
    names = report.feature_names
    if args.measure == "pgp2":
        sm = build_sm(data.codes_matrix)
        pims = []
        gim = None
        for f in range(data.m):
            pim, gim = pgp2_counts(data, sm, (f,), alpha=alpha)
            pims.append(pim)
        if not gim:
            raise MbcError("no pair exceeds the influence threshold; pgp2 is undefined")
        rows = _rank_rows(names, pims, [gim] * data.m, [Fraction(p, gim) for p in pims])
    elif args.measure == IMPORTANCE_PPP:
        if report.ppp is None:
            raise MbcError("every feature is constant; ppp is undefined")
        total = sum(report.mismatch_pairs)
        rows = _rank_rows(names, report.mismatch_pairs, [total] * data.m, report.ppp)
    else:
        if report.pgp is None:
            raise MbcError("no feature has a repeated category; pgp is undefined")
        total = sum(report.match_pairs)
        rows = _rank_rows(names, report.match_pairs, [total] * data.m, report.pgp)

    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.out)
        return 0
    header = ["feature", "numerator", "denominator", "value"]
    cells = [header] + [
        [r["feature"], str(r["numerator"]), str(r["denominator"]), f"{r['value']:.6f}"] for r in rows
    ]
    widths = [max(len(row[c]) for row in cells) for c in range(4)]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in cells]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_similarity(args) -> int:
    data = _load_dataset(args)
    matrix = pairwise_matrix(data, args.measure)
    integral = args.measure == "cm"
    if args.format == "json":
        rows = [[int(v) for v in row] if integral else [float(v) for v in row] for row in matrix]
        _emit(json.dumps({"measure": args.measure, "n": data.n, "matrix": rows}), args.out)
        return 0
    buf = io.StringIO()
    writer = csvmod.writer(buf, lineterminator="\n")
    writer.writerow([""] + [str(j) for j in range(data.n)])
    for i, row in enumerate(matrix):
        writer.writerow([str(i)] + [str(int(v)) if integral else f"{v:.6f}" for v in row])
    _emit(buf.getvalue(), args.out)
    return 0


def _read_assignments(path: str) -> tuple[tuple[int, ...], ...]:
    clusters: dict[int, list[int]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csvmod.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["object", "cluster"]:
            raise MbcError(f"{path}: expected an assignments file with header object,cluster")
        for rownum, record in enumerate(reader, start=2):
            try:
                obj, cid = int(record[0]), int(record[1])
            except (ValueError, IndexError):
                raise MbcError(f"{path}: row {rownum}: expected two integers") from None
            clusters.setdefault(cid, []).append(obj)
    return tuple(tuple(sorted(m)) for _, m in sorted(clusters.items()))


def _cmd_eval(args) -> int:
    data = load_csv(args.csv, label_column=args.labels, missing_policy=args.missing)
    if args.assignments:
        partition = _read_assignments(args.assignments)
    else:
        partition = run(data, _config(args)).partition
    table = contingency(partition, data.labels)

    header = ["label"] + [str(c) for c in table.cluster_ids]
    body = [
        [table.label_names[r]] + [str(int(v)) for v in table.counts[r]]
        for r in range(len(table.label_names))
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csvmod.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
        table_text = buf.getvalue()
    else:
        cells = [header] + body
        widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
        table_text = "\n".join(
            "  ".join(cell.rjust(widths[c]) if c else cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in cells
        ) + "\n"
    summary = {
        "purity": purity(table),
        "misclassified": misclassified(table),
        "n": table.n,
        "clusters": len(table.cluster_ids),
        "labels": len(table.label_names),
    }
    _emit(table_text + json.dumps(summary), args.out)
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
    p.set_defaults(func=_cmd_dendrogram)

    p = sub.add_parser("importance", help="rank features by importance")
    _add_dataset_args(p)
    p.add_argument("--measure", choices=["pgp", "ppp", "pgp2"], default="pgp")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_importance)

    p = sub.add_parser("similarity", help="print the full pairwise similarity matrix")
    _add_dataset_args(p)
    p.add_argument("--measure", choices=["cm", "overlap", "goodall", "lin"], default="cm")
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
