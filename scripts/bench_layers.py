#!/usr/bin/env python3
"""Time each layer of mbclust on seeded planted data and record peak memory.

First it times ``import``: ``import mbclust.cli`` in a fresh interpreter,
``REPEATS`` times, keeping the minimum and median seconds. That import,
numpy's included, is the part of every command's start-up that the
package controls.

For every size ``n`` the script writes one planted CSV (20 features, 3
categories, objects drawn from 20 prototypes, 15 % of the cells of every
column replaced by another category, plus a ``label`` column), then times
in this process, with ``time.perf_counter``:

- ``load_csv``: reading the CSV into a ``Dataset``;
- ``importance``: ``importance_report`` over the all-singleton profiles
  (one entity per object), as the loop's first round computes it;
- ``run``: the clustering loop under the default configuration;
- ``to_json`` and ``to_newick``: the dendrogram writers, on that result;
  ``to_json`` joins the pieces of ``writers.dendrogram_json``, the text
  that ``cluster --dendrogram-out`` writes;
- ``to_dict``: ``Dendrogram.to_dict`` of that result, the call that
  perfbench's ``redundant-ids`` workload times;
- ``contingency``: the cross-table of that result's partition against the
  ``label`` column, kept with the SHA-256 of its label names and counts.

Each layer runs ``REPEATS`` (3) times; the minimum and the median are kept.
After each size the script reads ``VmHWM`` (the peak resident set size of
this process) from ``/proc/self/status``; sizes run in ascending order, so
each reading is the peak up to and including that size.

Then, at each size, it runs the commands themselves, each run in a fresh
child process that reports the seconds of the command and its own
``VmHWM``, so that the reading is the command's peak alone (``ru_maxrss``
would not do, as Linux carries a forked parent's peak across ``exec``):

- ``cli_cluster``: ``mbclust cluster --format json`` with all five
  outputs (``--out`` and the dendrogram, Newick, trace and manifest
  files); its run manifest, which it also writes to stderr, is dropped;
- ``cli_dendrogram``: ``mbclust dendrogram`` with its JSON in ``--out``.

Each command runs ``REPEATS`` times; the minimum and median seconds, the
largest peak and the SHA-256 of each output file are kept (the manifest
holds the command's seconds, so its digest differs from run to run).

After the sizes, the script times the quadratic ``mbclust similarity``
command on planted CSVs of n = 300 (the size of perfbench's
``pairwise-measures`` workload) and n = 2500 (``SIMILARITY_SIZES``):
with ``lin`` and with ``goodall``, writing CSV output
(``cli_similarity_<measure>``) and JSON output
(``cli_similarity_<measure>_json``), and goodall then lin in JSON in one
process (``cli_similarity_goodall_lin_json``), as that workload's
operation runs them. Each run is a fresh child process that reports the
seconds of its commands, its own ``VmHWM`` and the SHA-256 of each
output; the runs of a layer must agree on the digests.

Last, ``run_wide`` times ``run()`` with ``MbcConfig(anti_merge=False)``
on planted codes of 20 000 objects and 200 features (``WIDE``; same
categories, prototypes and noise), where the loop keeps many columns for
many rounds. Each run is a fresh child process that builds the codes,
then reports the seconds of ``run()``, its own ``VmHWM`` and the SHA-256
of the labels of every dendrogram level.

Then ``run_pgp2`` times ``run()`` with ``MbcConfig(tie_policy="pgp2",
anti_merge=False)`` on ``PGP2_N`` (5000) objects whose 20 features tie
for least important in many rounds, so the pgp2 tie-break sweeps
(``importance.pgp2_kept_counts``) dominate: 10 independent permutations
of a balanced 3-category column beside 10 of a balanced 2-category
column. Each run is a fresh child process, as for ``run_wide``, that
also reports the number of sweeps and the candidates of each; it counts
them by wrapping ``pgp2_kept_counts`` in the child. The results,
with the machine they were taken on and the line count of the package
(``source_lines``: the ``wc -l`` of each ``src/mbclust/*.py`` file and
their total), go to the JSON file named on the command line.

Usage::

    python scripts/bench_layers.py BENCH.json

Stdlib plus numpy; ``src/`` is put on the import path, so no install is
needed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import mbclust  # noqa: E402
from mbclust import MbcConfig, cli, contingency, importance_report, load_csv, run, writers  # noqa: E402

FEATURES = 20
CATEGORIES = 3
PROTOTYPES = 20
NOISE = 0.15
SIZES = (2500, 20000, 100000)
WIDE = (20000, 200)
PGP2_N = 5000
SIMILARITY_SIZES = (300, 2500)
SIMILARITY_MEASURES = ("lin", "goodall")
REPEATS = 3
SEED = 0


def planted_codes(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes of ``n`` planted objects over ``m`` features, and each object's prototype."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, CATEGORIES, size=(PROTOTYPES, m))
    labels = rng.permutation(np.arange(n) % PROTOTYPES)
    codes = protos[labels]
    flips = round(NOISE * n)
    for j in range(m):
        rows = rng.choice(n, size=flips, replace=False)
        codes[rows, j] = (codes[rows, j] + rng.integers(1, CATEGORIES, size=flips)) % CATEGORIES
    return codes, labels


def pgp2_codes(n: int, seed: int) -> np.ndarray:
    """Codes of ``n`` objects over 20 features: 10 independent permutations of
    a balanced 3-category column, then 10 of a balanced 2-category column."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(np.arange(n) % k) for k in (3,) * 10 + (2,) * 10], axis=1)


def planted_csv(path: Path, n: int, seed: int) -> None:
    """Write ``n`` planted objects as a CSV with string categories."""
    codes, labels = planted_codes(n, FEATURES, seed)
    header = ",".join([f"f{j:02d}" for j in range(FEATURES)] + ["label"])
    lines = [",".join(f"v{c}" for c in row) + f",p{lab:02d}" for row, lab in zip(codes.tolist(), labels.tolist())]
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def peak_rss_mb() -> float | None:
    """``VmHWM`` of this process in MB, or None where /proc is unavailable."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


# Run in a fresh interpreter by bench_command, with this script's folder and the
# command's arguments as its arguments: one mbclust command, then its
# seconds and the child's own peak RSS as JSON.
_CLI_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import bench_layers
started = time.perf_counter()
status = bench_layers.cli.main(sys.argv[2:])
seconds = time.perf_counter() - started
print(json.dumps({"status": status, "seconds": seconds, "peak_rss_mb": bench_layers.peak_rss_mb()}))
"""


# Run in a fresh interpreter by bench_similarity, with this script's folder, a
# CSV, a format, an output folder and measures as its arguments: mbclust
# similarity of each measure in turn, then their seconds, the child's own
# peak RSS and the SHA-256 of each output as JSON.
_SIMILARITY_CHILD = """
import hashlib, json, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench_layers
csv_path, fmt, out, measures = sys.argv[2], sys.argv[3], Path(sys.argv[4]), sys.argv[5:]
outputs = [out / f"similarity_{measure}.{fmt}" for measure in measures]
started = time.perf_counter()
statuses = [bench_layers.cli.main(["similarity", csv_path, "--label-column", "label", "--measure", measure,
                                   "--format", fmt, "--out", str(path)]) for measure, path in zip(measures, outputs)]
seconds = time.perf_counter() - started
print(json.dumps({"status": max(statuses), "seconds": seconds, "peak_rss_mb": bench_layers.peak_rss_mb(),
                  "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs if p.exists()}}))
"""


# Run in a fresh interpreter by bench_wide_run, with this script's folder,
# n and m as its arguments: run() without the containment rule on planted
# codes, then its seconds, the child's own peak RSS and the SHA-256 of the
# labels of every dendrogram level as JSON.
_RUN_CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import bench_layers
codes, _ = bench_layers.planted_codes(int(sys.argv[2]), int(sys.argv[3]), bench_layers.SEED)
started = time.perf_counter()
result = bench_layers.run(codes, bench_layers.MbcConfig(anti_merge=False))
seconds = time.perf_counter() - started
labels = hashlib.sha256(result.dendrogram.labels.tobytes()).hexdigest()
print(json.dumps({"seconds": seconds, "peak_rss_mb": bench_layers.peak_rss_mb(), "labels_sha256": labels}))
"""


# Run in a fresh interpreter by bench_pgp2_run, with this script's folder and
# n as its arguments: run() under the pgp2 tie-break on pgp2_codes, then its
# seconds, the child's own peak RSS, the SHA-256 of the level labels and the
# number of candidates of each pgp2_kept_counts sweep as JSON.
_PGP2_CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
import bench_layers
import mbclust.core
sweeps, kept_counts = [], mbclust.core.pgp2_kept_counts
def counted(data, candidates, alpha=0.0):
    sweeps.append(len(candidates))
    return kept_counts(data, candidates, alpha)
mbclust.core.pgp2_kept_counts = counted
codes = bench_layers.pgp2_codes(int(sys.argv[2]), bench_layers.SEED)
started = time.perf_counter()
result = bench_layers.run(codes, bench_layers.MbcConfig(tie_policy="pgp2", anti_merge=False))
seconds = time.perf_counter() - started
labels = hashlib.sha256(result.dendrogram.labels.tobytes()).hexdigest()
print(json.dumps({"seconds": seconds, "peak_rss_mb": bench_layers.peak_rss_mb(), "labels_sha256": labels,
                  "sweeps": len(sweeps), "sweep_candidates": sweeps}))
"""


# Run in a fresh interpreter with the package's source folder as its argument:
# the seconds of importing the CLI module, which imports the whole package.
_IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import mbclust.cli
print(time.perf_counter() - started)
"""


def bench_import() -> dict:
    """Minimum and median seconds of ``import mbclust.cli`` over ``REPEATS`` fresh processes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    seconds = [float(subprocess.run([sys.executable, "-c", _IMPORT_CHILD, src], capture_output=True, text=True,
                                    check=True).stdout) for _ in range(REPEATS)]
    return {"min_s": min(seconds), "median_s": statistics.median(seconds)}


def child(script: str, *args: str) -> dict:
    """The JSON that ``script`` prints last, run in a fresh interpreter with
    this script's folder and ``args`` as its arguments."""
    proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).resolve().parent), *args],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if result.pop("status", 0) != 0:
        raise RuntimeError(f"mbclust {' '.join(args)} failed: {proc.stderr.strip()}")
    return result


def summary(runs: list[dict]) -> dict:
    """Minimum and median seconds and largest peak of child runs."""
    seconds = [r["seconds"] for r in runs]
    peaks = [r["peak_rss_mb"] for r in runs if r["peak_rss_mb"] is not None]
    return {"min_s": min(seconds), "median_s": statistics.median(seconds), "peak_rss_mb": max(peaks) if peaks else None}


def bench_command(argv: list[str], outputs: list[Path]) -> dict:
    """``REPEATS`` child runs of one command: minimum and median seconds,
    largest peak, and the SHA-256 of each output file of the last run."""
    return {**summary([child(_CLI_CHILD, *argv) for _ in range(REPEATS)]),
            "sha256": {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs}}


def bench_runs(script: str, *args: str) -> dict:
    """``REPEATS`` child runs of ``script``: minimum and median seconds, largest
    peak, and the other fields of a run, which every run must agree on."""
    runs = [child(script, *args) for _ in range(REPEATS)]
    facts = {json.dumps({k: v for k, v in r.items() if k not in ("seconds", "peak_rss_mb")}) for r in runs}
    if len(facts) != 1:
        raise RuntimeError(f"runs with arguments {args} disagree: {sorted(facts)}")
    return {**summary(runs), **json.loads(facts.pop())}


def bench_wide_run() -> dict:
    """Child runs of ``run()`` without the containment rule on ``WIDE`` planted codes."""
    n, m = WIDE
    return {"n": n, "m": m, **bench_runs(_RUN_CHILD, str(n), str(m))}


def bench_pgp2_run() -> dict:
    """Child runs of ``run()`` under the pgp2 tie-break on ``PGP2_N`` objects of ``pgp2_codes``."""
    return {"n": PGP2_N, **bench_runs(_PGP2_CHILD, str(PGP2_N))}


def bench_similarity(n: int, work: Path) -> dict:
    """``REPEATS`` child runs per measure and format, and of goodall then lin in JSON, on planted data of ``n``
    objects."""
    csv_path = work / f"similarity_{n}.csv"
    planted_csv(csv_path, n, SEED)
    runs = {f"{measure}{suffix}": (fmt, measure) for measure in SIMILARITY_MEASURES
            for fmt, suffix in (("csv", ""), ("json", "_json"))}
    runs["goodall_lin_json"] = ("json", "goodall", "lin")
    layers = {}
    for name, (fmt, *measures) in runs.items():
        out = work / f"similarity_{n}_{name}"
        out.mkdir()
        layers[f"cli_similarity_{name}"] = bench_runs(_SIMILARITY_CHILD, str(csv_path), fmt, str(out), *measures)
    return {"n": n, "layers": layers}


def timed(operation) -> tuple[dict, object]:
    """Minimum and median seconds of ``REPEATS`` calls, and the last result."""
    seconds = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = operation()
        seconds.append(time.perf_counter() - started)
    return {"min_s": min(seconds), "median_s": statistics.median(seconds)}, result


def bench_size(n: int, work: Path) -> dict:
    csv_path = work / f"planted_{n}.csv"
    planted_csv(csv_path, n, SEED)
    out = work / f"out_{n}"
    out.mkdir()
    layers = {}
    layers["load_csv"], data = timed(lambda: load_csv(csv_path, label_column="label"))
    layers["importance"], _ = timed(lambda: importance_report(data))
    layers["run"], result = timed(lambda: run(data))
    layers["to_json"], _ = timed(lambda: "".join(writers.dendrogram_json(result.dendrogram)))
    layers["to_newick"], _ = timed(result.dendrogram.to_newick)
    layers["to_dict"], _ = timed(result.dendrogram.to_dict)
    layers["contingency"], table = timed(lambda: contingency(result.partition, data.labels))
    table_text = json.dumps([table.label_names, table.counts.tolist()])
    layers["contingency"]["sha256"] = hashlib.sha256(table_text.encode()).hexdigest()
    iterations, clusters = len(result.trace), len(result.partition)
    peak = peak_rss_mb()
    del data, result  # the commands run in children; free this process's copies first
    outputs = {"--out": out / "clusters.json", "--dendrogram-out": out / "dendrogram.json",
               "--newick-out": out / "tree.nwk", "--trace-out": out / "trace.json",
               "--manifest-out": out / "manifest.json"}
    argv = ["cluster", str(csv_path), "--label-column", "label", "--format", "json"]
    for option, path in outputs.items():
        argv += [option, str(path)]
    layers["cli_cluster"] = bench_command(argv, list(outputs.values()))
    argv = ["dendrogram", str(csv_path), "--label-column", "label", "--out", str(out / "dendrogram_cmd.json")]
    layers["cli_dendrogram"] = bench_command(argv, [out / "dendrogram_cmd.json"])
    return {"n": n, "iterations": iterations, "clusters": clusters, "layers": layers, "peak_rss_mb_so_far": peak}


def source_lines() -> dict:
    """The ``wc -l`` (newline count) of each ``src/mbclust/*.py`` file, and their total."""
    files = {path.name: path.read_bytes().count(b"\n") for path in sorted((SRC / "mbclust").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    import_layer = bench_import()
    print(f"import mbclust.cli {import_layer['median_s']:.4f} s", file=sys.stderr)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            results.append(bench_size(n, Path(tmp)))
            layers = results[-1]["layers"]
            print(f"n={n}: " + ", ".join(f"{name} {v['median_s']:.4f} s" for name, v in layers.items())
                  + f", peak RSS {results[-1]['peak_rss_mb_so_far']} MB in process, "
                  + ", ".join(f"{name} {v['peak_rss_mb']} MB" for name, v in layers.items() if "peak_rss_mb" in v),
                  file=sys.stderr)
        similarity = [bench_similarity(n, Path(tmp)) for n in SIMILARITY_SIZES]
        for size in similarity:
            for name, v in size["layers"].items():
                print(f"n={size['n']}: {name} {v['median_s']:.4f} s, peak RSS {v['peak_rss_mb']} MB", file=sys.stderr)
    wide = bench_wide_run()
    print(f"{WIDE[0]} x {WIDE[1]}: run_wide {wide['median_s']:.4f} s, peak RSS {wide['peak_rss_mb']} MB",
          file=sys.stderr)
    pgp2 = bench_pgp2_run()
    print(f"n={PGP2_N}: run_pgp2 {pgp2['median_s']:.4f} s, peak RSS {pgp2['peak_rss_mb']} MB, "
          f"{pgp2['sweeps']} sweeps of {pgp2['sweep_candidates']} candidates", file=sys.stderr)
    report = {
        "data": {"features": FEATURES, "categories": CATEGORIES, "prototypes": PROTOTYPES, "noise": NOISE,
                 "seed": SEED},
        "repeats": REPEATS,
        "machine": {"platform": platform.platform(), "processor": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__, "mbclust": mbclust.__version__},
        "import": import_layer,
        "sizes": results,
        "similarity": similarity,
        "run_wide": wide,
        "run_pgp2": pgp2,
        "source_lines": source_lines(),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
