#!/usr/bin/env python3
"""Time each layer of mbclust on seeded planted data, each run in a fresh process.

Every layer runs ``REPEATS`` (3) times, each run in a fresh child process
that reports its seconds, its own peak resident set size (``VmHWM`` from
``/proc/self/status``; ``ru_maxrss`` would not do, as Linux carries a
forked parent's peak across ``exec``) and the facts of its output. All
runs of a layer must agree on the facts; the minimum and median seconds
and the largest peak are kept with them.

The ``import`` layer's program imports nothing before its clock: it times
``import mbclust.cli`` (numpy's import included), the start-up that every
command pays, then imports this script and reads its ``VmHWM``, the floor
under every other child's peak. Every other child is a function of this
script that ``child_main`` runs: it sets up untimed, times one operation,
and reads its ``VmHWM`` before it computes the facts.

For every size ``n`` the script writes one planted CSV (20 features, 3
categories, objects drawn from 20 prototypes, 15 % of the cells of every
column replaced by another category, plus a ``label`` column).
``library_child`` loads it untimed (but for ``load_csv``) and, for the
last four layers, runs ``run()`` untimed on it, then times one call of:

- ``load_csv``: reading the CSV into a ``Dataset``;
- ``importance``: ``importance_report`` over the all-singleton profiles,
  as the loop's first round computes it;
- ``run``: the clustering loop under the default configuration; the
  numbers of ``iterations`` and ``clusters`` it reports head the size's
  entry;
- ``to_json`` (the joined ``writers.dendrogram_json``) and ``to_newick``:
  the dendrogram writers, each the first call on its result, so each pays
  the merge walk (``Dendrogram._merges``) that later calls would reuse;
- ``to_dict``: ``Dendrogram.to_dict``, which perfbench's ``redundant-ids``
  workload times;
- ``contingency``: the result's partition against the ``label`` column.

Its facts are the SHA-256 of the output: of the text a writer returns (so
``to_json`` and ``to_newick`` equal ``cli_cluster``'s ``dendrogram.json``
and ``tree.nwk`` without their final newline), of a result's level labels,
and of JSON otherwise. ``commands_child`` runs mbclust commands in turn,
and its facts are the SHA-256 of each output file:

- ``cli_cluster``: ``mbclust cluster --format json`` with all five
  outputs; the manifest holds the command's seconds, so it is written but
  not digested;
- ``cli_dendrogram``: ``mbclust dendrogram`` with its JSON in ``--out``;
- ``cli_similarity_*`` at ``SIMILARITY_SIZES`` (n = 300, the size of
  perfbench's ``pairwise-measures``, and n = 2500): ``lin`` and
  ``goodall``, in CSV and in JSON (``_json``), and goodall then lin in
  JSON in one process (``goodall_lin_json``), as that workload runs them.

``run_child`` times ``run()`` with ``anti_merge=False``, and its facts
are the SHA-256 of the labels of every dendrogram level:

- ``run_wide``: on planted codes of ``WIDE`` (20 000 objects, 200
  features), where the loop keeps many columns for many rounds;
- ``run_wide_large``: the same at the largest of ``SIZES``, 100 000 x 200;
- ``run_pgp2``: with ``tie_policy="pgp2"`` on ``PGP2_N`` (5000) objects
  whose 20 features tie for least important in many rounds (10
  independent permutations of a balanced 3-category column beside 10 of
  a balanced 2-category column), so the pgp2 sweeps dominate. It also
  reports the number of ``pgp2_kept_counts`` sweeps and the candidates
  of each.

The results, with the machine they were taken on and the package's line
count (``source_lines``: the ``wc -l`` of each ``src/mbclust/*.py`` file
and their total), go to the JSON file named on the command line::

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
LIBRARY_LAYERS = ("load_csv", "importance", "run", "to_json", "to_newick", "to_dict", "contingency")
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
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    return next((int(line.split()[1]) / 1024 for line in status.splitlines() if line.startswith("VmHWM:")), None)


# Run in a fresh interpreter with the package's source folder and this
# script's folder as its arguments: the seconds of importing the CLI module,
# which imports the whole package, and the peak after this script's imports,
# which every other child makes. It imports nothing before its clock starts,
# numpy included.
_IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); started = time.perf_counter(); "
                 "import mbclust.cli; seconds = time.perf_counter() - started; sys.path.insert(0, sys.argv[2]); "
                 "import bench_layers; "
                 "print(bench_layers.json.dumps({'seconds': seconds, 'peak_rss_mb': bench_layers.peak_rss_mb()}))")


def sha256(content: str | bytes) -> str:
    """The SHA-256 of ``content``, text as UTF-8."""
    return hashlib.sha256(content.encode() if isinstance(content, str) else content).hexdigest()


def library_child(csv_path: str, layer: str):
    """Set-up of a child that times the library layer ``layer`` (one of
    ``LIBRARY_LAYERS``) on the planted CSV at ``csv_path``. Its facts are the
    SHA-256 of the layer's output and, for ``run``, the number of iterations
    and clusters."""
    data = None if layer == "load_csv" else load_csv(csv_path, label_column="label")
    result = run(data) if layer in LIBRARY_LAYERS[3:] else None  # the layers that read a result
    return {
        "load_csv": (lambda: load_csv(csv_path, label_column="label"), lambda dataset: {"sha256": sha256(json.dumps(
            [dataset.feature_names, dataset.category_labels, dataset.labels, dataset.codes_matrix.tolist()]))}),
        "importance": (lambda: importance_report(data), lambda report: {"sha256": sha256(repr(report))}),
        "run": (lambda: run(data), lambda ran: {"sha256": sha256(ran.dendrogram.labels.tobytes()),
                                                "iterations": len(ran.trace), "clusters": len(ran.partition)}),
        "to_json": (lambda: "".join(writers.dendrogram_json(result.dendrogram)), lambda text: {"sha256": sha256(text)}),
        "to_newick": (lambda: result.dendrogram.to_newick(), lambda text: {"sha256": sha256(text)}),
        "to_dict": (lambda: result.dendrogram.to_dict(), lambda tree: {"sha256": sha256(json.dumps(tree))}),
        "contingency": (lambda: contingency(result.partition, data.labels), lambda table: {
            "sha256": sha256(json.dumps([table.label_names, table.counts.tolist()]))}),
    }[layer]


def commands_child(commands: list[list[str]], outputs: list[str]):
    """Set-up of a child that runs the mbclust ``commands`` in turn; its facts
    are the SHA-256 of each of ``outputs``, by file name."""
    def facts(statuses: list[int]) -> dict:
        if any(statuses):
            raise RuntimeError(f"mbclust commands {commands} exited with {statuses}")
        return {"sha256": {Path(path).name: sha256(Path(path).read_bytes()) for path in outputs}}

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
        pgp2 = {"sweeps": len(sweeps), "sweep_candidates": sweeps} if config.tie_policy == core.TIES_PGP2 else {}
        return {"labels_sha256": sha256(result.dendrogram.labels.tobytes()), **pgp2}

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


def fresh(what: str, program: str, *argv: str) -> dict:
    """The last line that ``program`` prints, as JSON, run with ``argv`` in a
    fresh interpreter; ``what`` names it when it fails."""
    proc = subprocess.run([sys.executable, "-c", program, *argv], capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{what} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def child(function, *args) -> dict:
    """What ``child_main`` prints for ``function`` and ``args``, run in a fresh
    interpreter. The arguments travel as one JSON text, so lists and paths
    arrive whole."""
    return fresh(f"child {function.__name__}{args}", _TRAMPOLINE, str(Path(__file__).resolve().parent),
                 function.__name__, json.dumps(args))


def summary(what: str, runs: list[dict]) -> dict:
    """Minimum and median seconds of ``runs``, their largest peak, and their
    facts, which every run must agree on."""
    seconds = [r.pop("seconds") for r in runs]
    peaks = [peak for peak in (r.pop("peak_rss_mb") for r in runs) if peak is not None]
    if any(r != runs[0] for r in runs):
        raise RuntimeError(f"runs of {what} disagree: {runs}")
    return {"min_s": min(seconds), "median_s": statistics.median(seconds),
            "peak_rss_mb": max(peaks) if peaks else None, **runs[0]}


def bench_runs(function, *args) -> dict:
    """The ``summary`` of ``REPEATS`` child runs of ``function`` on ``args``."""
    return summary(f"{function.__name__}{args}", [child(function, *args) for _ in range(REPEATS)])


def bench_import() -> dict:
    """The ``summary`` of ``REPEATS`` fresh runs of ``import mbclust.cli``."""
    return summary("import", [fresh("import child", _IMPORT_CHILD, str(SRC), str(Path(__file__).resolve().parent))
                              for _ in range(REPEATS)])


def bench_table(label: str, table: dict) -> dict:
    """``bench_runs`` of each layer of ``table`` (its name: a child function
    and its arguments), each printed under ``label`` as it ends."""
    layers = {}
    for name, (function, *args) in table.items():
        layer = layers[name] = bench_runs(function, *args)
        print(f"{label}: {name} {layer['median_s']:.4f} s, peak RSS {layer['peak_rss_mb']} MB", file=sys.stderr)
    return layers


def bench_size(n: int, work: Path) -> dict:
    """The library and CLI layers on a planted CSV of ``n`` objects, with the
    iterations and clusters of its ``run()``."""
    csv_path = work / f"planted_{n}.csv"
    planted_csv(csv_path, n, SEED)
    out = work / f"out_{n}"
    out.mkdir()
    table = {layer: (library_child, str(csv_path), layer) for layer in LIBRARY_LAYERS}
    outputs = {"--out": str(out / "clusters.json"), "--dendrogram-out": str(out / "dendrogram.json"),
               "--newick-out": str(out / "tree.nwk"), "--trace-out": str(out / "trace.json")}
    argv = ["cluster", str(csv_path), "--label-column", "label", "--format", "json",
            *(arg for output in outputs.items() for arg in output), "--manifest-out", str(out / "manifest.json")]
    table["cli_cluster"] = (commands_child, [argv], list(outputs.values()))
    argv = ["dendrogram", str(csv_path), "--label-column", "label", "--out", str(out / "dendrogram_cmd.json")]
    table["cli_dendrogram"] = (commands_child, [argv], [argv[-1]])
    layers = bench_table(f"n={n}", table)
    return {"n": n, **{key: layers["run"].pop(key) for key in ("iterations", "clusters")}, "layers": layers}


def bench_similarity(n: int, work: Path) -> dict:
    """The commands child per measure and format, and of goodall then lin in
    JSON, on planted data of ``n`` objects."""
    csv_path = work / f"similarity_{n}.csv"
    planted_csv(csv_path, n, SEED)
    runs = {"lin": ("csv", "lin"), "lin_json": ("json", "lin"), "goodall": ("csv", "goodall"),
            "goodall_json": ("json", "goodall"), "goodall_lin_json": ("json", "goodall", "lin")}
    table = {}
    for name, (fmt, *measures) in runs.items():
        out = work / f"similarity_{n}_{name}"
        out.mkdir()
        outputs = [str(out / f"similarity_{measure}.{fmt}") for measure in measures]
        commands = [["similarity", str(csv_path), "--label-column", "label", "--measure", measure, "--format", fmt,
                     "--out", path] for measure, path in zip(measures, outputs)]
        table[f"cli_similarity_{name}"] = (commands_child, commands, outputs)
    return {"n": n, "layers": bench_table(f"n={n}", table)}


def source_lines() -> dict:
    """The ``wc -l`` (newline count) of each ``src/mbclust/*.py`` file, and their total."""
    files = {path.name: path.read_bytes().count(b"\n") for path in sorted((SRC / "mbclust").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    imported = bench_import()
    print(f"import mbclust.cli {imported['median_s']:.4f} s, peak RSS {imported['peak_rss_mb']} MB", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        sizes = [bench_size(n, Path(tmp)) for n in SIZES]
        similarity = [bench_similarity(n, Path(tmp)) for n in SIMILARITY_SIZES]
    shapes = {"run_wide": ("planted", *WIDE, core.TIES_DROP_ALL),  # the arguments of each run_child layer
              "run_wide_large": ("planted", SIZES[-1], WIDE[1], core.TIES_DROP_ALL),
              "run_pgp2": ("pgp2", PGP2_N, 20, core.TIES_PGP2)}
    runs = bench_table("run()", {name: (run_child, *shape) for name, shape in shapes.items()})
    report = {
        "data": {"features": FEATURES, "categories": CATEGORIES, "prototypes": PROTOTYPES, "noise": NOISE,
                 "seed": SEED},
        "repeats": REPEATS,
        "machine": {"platform": platform.platform(), "processor": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__, "mbclust": mbclust.__version__},
        "import": imported,
        "sizes": sizes,
        "similarity": similarity,
        **{name: {"n": shapes[name][1], "m": shapes[name][2], **layer} for name, layer in runs.items()},
        "source_lines": source_lines(),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
