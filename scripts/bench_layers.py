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

Every other layer runs ``REPEATS`` times, each run in a fresh child
process. A child is a function of this script that ``child_main`` runs:
it sets up untimed, times one operation, and reports the seconds, its own
``VmHWM``, read before anything else is computed, so that the reading is
the operation's peak alone (``ru_maxrss`` would not do, as Linux carries a
forked parent's peak across ``exec``), and the facts of its outputs. All
runs of a layer must agree on the facts; the minimum and median seconds
and the largest peak are kept with them.

``commands_child`` runs mbclust commands in turn, and its facts are the
SHA-256 of each output file. At each size it runs:

- ``cli_cluster``: ``mbclust cluster --format json`` with all five
  outputs (``--out`` and the dendrogram, Newick, trace and manifest
  files); the manifest holds the command's seconds, so it is written but
  not digested, and its copy on stderr is dropped;
- ``cli_dendrogram``: ``mbclust dendrogram`` with its JSON in ``--out``.

After the sizes, it runs the quadratic ``mbclust similarity`` command on
planted CSVs of n = 300 (the size of perfbench's ``pairwise-measures``
workload) and n = 2500 (``SIMILARITY_SIZES``): with ``lin`` and with
``goodall``, writing CSV output (``cli_similarity_<measure>``) and JSON
output (``cli_similarity_<measure>_json``), and goodall then lin in JSON
in one process (``cli_similarity_goodall_lin_json``), as that workload's
operation runs them.

``run_child`` times ``run()`` without the containment rule
(``anti_merge=False``), and its facts are the SHA-256 of the labels of
every dendrogram level:

- ``run_wide``: on planted codes of 20 000 objects and 200 features
  (``WIDE``; same categories, prototypes and noise), where the loop keeps
  many columns for many rounds;
- ``run_wide_large``: the same at the largest of ``SIZES``, 100 000 x 200;
- ``run_pgp2``: with ``tie_policy="pgp2"`` on ``PGP2_N`` (5000) objects
  whose 20 features tie for least important in many rounds, so the pgp2
  tie-break sweeps (``importance.pgp2_kept_counts``) dominate: 10
  independent permutations of a balanced 3-category column beside 10 of
  a balanced 2-category column. Its facts also hold the number of sweeps
  and the candidates of each, counted by wrapping ``pgp2_kept_counts`` in
  the child.

The results, with the machine they were taken on and the line count of
the package (``source_lines``: the ``wc -l`` of each ``src/mbclust/*.py``
file and their total), go to the JSON file named on the command line.

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
from mbclust import MbcConfig, cli, contingency, core, importance_report, load_csv, run, writers  # noqa: E402

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


def pgp2_codes(n: int, m: int, seed: int) -> np.ndarray:
    """Codes of ``n`` objects over ``m`` features: ``m // 2`` independent
    permutations of a balanced 3-category column, then the others of a
    balanced 2-category column."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(np.arange(n) % k) for k in (3,) * (m // 2) + (2,) * (m - m // 2)], axis=1)


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


# Run in a fresh interpreter with the package's source folder as its argument:
# the seconds of importing the CLI module, which imports the whole package.
# It imports nothing else before its clock starts, numpy included.
_IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import mbclust.cli
print(time.perf_counter() - started)
"""


def bench_import() -> dict:
    """Minimum and median seconds of ``import mbclust.cli`` over ``REPEATS`` fresh processes."""
    seconds = [float(subprocess.run([sys.executable, "-c", _IMPORT_CHILD, str(SRC)], capture_output=True, text=True,
                                    check=True).stdout) for _ in range(REPEATS)]
    return {"min_s": min(seconds), "median_s": statistics.median(seconds)}


def commands_child(commands: list[list[str]], outputs: list[str]):
    """Set-up of a child that runs the mbclust ``commands`` in turn; its facts
    are the SHA-256 of each of ``outputs``, by file name."""
    def facts(statuses: list[int]) -> dict:
        if any(statuses):
            raise RuntimeError(f"mbclust commands {commands} exited with {statuses}")
        return {"sha256": {Path(path).name: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in outputs}}

    return lambda: [cli.main(argv) for argv in commands], facts


def run_child(codes: str, n: int, m: int, tie_policy: str):
    """Set-up of a child that times ``run()`` without the containment rule
    under ``tie_policy``, on ``n`` x ``m`` ``planted_codes`` or, with
    ``codes`` "pgp2", ``pgp2_codes``. Its facts are the SHA-256 of every
    level's labels and, under the pgp2 tie-break, the candidates of each
    ``pgp2_kept_counts`` sweep."""
    data = pgp2_codes(n, m, SEED) if codes == "pgp2" else planted_codes(n, m, SEED)[0]
    config = MbcConfig(tie_policy=tie_policy, anti_merge=False)
    sweeps, kept_counts = [], core.pgp2_kept_counts

    def counted(matrix, candidates, alpha=0.0):
        sweeps.append(len(candidates))
        return kept_counts(matrix, candidates, alpha)

    core.pgp2_kept_counts = counted

    def facts(result) -> dict:
        labels = {"labels_sha256": hashlib.sha256(result.dendrogram.labels.tobytes()).hexdigest()}
        if config.tie_policy != core.TIES_PGP2:
            return labels
        return {**labels, "sweeps": len(sweeps), "sweep_candidates": sweeps}

    return lambda: run(data, config), facts


# The program of every child but the import layer's: this script's folder, a
# child function's name and its arguments as JSON are its arguments.
_TRAMPOLINE = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench_layers; "
               "bench_layers.child_main(sys.argv[2], *json.loads(sys.argv[3]))")


def child_main(name: str, *args) -> None:
    """The body of a child process: the set-up of the child function ``name``
    on ``args``, untimed; its operation, timed; then one JSON line with the
    seconds, this process's ``VmHWM`` and the facts of the operation's result."""
    operation, facts = globals()[name](*args)
    started = time.perf_counter()
    result = operation()
    seconds = time.perf_counter() - started
    peak = peak_rss_mb()  # before the facts, whose digests may copy the result
    print(json.dumps({"seconds": seconds, "peak_rss_mb": peak, **facts(result)}))


def child(function, *args) -> dict:
    """What ``child_main`` prints for ``function`` and ``args``, run in a fresh
    interpreter. The arguments travel as one JSON text, so lists and paths
    arrive whole."""
    proc = subprocess.run([sys.executable, "-c", _TRAMPOLINE, str(Path(__file__).resolve().parent), function.__name__,
                           json.dumps(args)], capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"child {function.__name__}{args} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def bench_runs(function, *args) -> dict:
    """``REPEATS`` child runs of ``function`` on ``args``: minimum and median
    seconds, largest peak, and the facts, which every run must agree on."""
    runs = [child(function, *args) for _ in range(REPEATS)]
    seconds = [r.pop("seconds") for r in runs]
    peaks = [peak for peak in (r.pop("peak_rss_mb") for r in runs) if peak is not None]
    if any(r != runs[0] for r in runs):
        raise RuntimeError(f"runs of {function.__name__}{args} disagree: {runs}")
    return {"min_s": min(seconds), "median_s": statistics.median(seconds),
            "peak_rss_mb": max(peaks) if peaks else None, **runs[0]}


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
        outputs = [str(out / f"similarity_{measure}.{fmt}") for measure in measures]
        commands = [["similarity", str(csv_path), "--label-column", "label", "--measure", measure, "--format", fmt,
                     "--out", path] for measure, path in zip(measures, outputs)]
        layers[f"cli_similarity_{name}"] = bench_runs(commands_child, commands, outputs)
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
    outputs = {"--out": str(out / "clusters.json"), "--dendrogram-out": str(out / "dendrogram.json"),
               "--newick-out": str(out / "tree.nwk"), "--trace-out": str(out / "trace.json")}
    argv = ["cluster", str(csv_path), "--label-column", "label", "--format", "json"]
    for option, path in outputs.items():
        argv += [option, path]
    argv += ["--manifest-out", str(out / "manifest.json")]
    layers["cli_cluster"] = bench_runs(commands_child, [argv], list(outputs.values()))
    argv = ["dendrogram", str(csv_path), "--label-column", "label", "--out", str(out / "dendrogram_cmd.json")]
    layers["cli_dendrogram"] = bench_runs(commands_child, [argv], [argv[-1]])
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
    runs = {"run_wide": ("planted", *WIDE, core.TIES_DROP_ALL),  # the arguments of each run_child layer
            "run_wide_large": ("planted", SIZES[-1], WIDE[1], core.TIES_DROP_ALL),
            "run_pgp2": ("pgp2", PGP2_N, 20, core.TIES_PGP2)}
    for name, (codes, n, m, tie_policy) in runs.items():
        runs[name] = {"n": n, "m": m, **bench_runs(run_child, codes, n, m, tie_policy)}
        print(f"{n} x {m}: {name} {runs[name]['median_s']:.4f} s, peak RSS {runs[name]['peak_rss_mb']} MB",
              file=sys.stderr)
    report = {
        "data": {"features": FEATURES, "categories": CATEGORIES, "prototypes": PROTOTYPES, "noise": NOISE,
                 "seed": SEED},
        "repeats": REPEATS,
        "machine": {"platform": platform.platform(), "processor": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__, "mbclust": mbclust.__version__},
        "import": import_layer,
        "sizes": results,
        "similarity": similarity,
        **runs,
        "source_lines": source_lines(),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
