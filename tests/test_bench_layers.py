"""Smoke test of ``scripts/bench_layers.py`` at tiny sizes.

The full bench takes minutes, so a broken child script would otherwise
show only when someone runs it. Each layer here is one fresh child
process per run, as in the bench.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPTS / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_children_report_their_keys_and_agree(bench_layers):
    runs = [bench_layers.child(bench_layers._RUN_CHILD, "300", "12") for _ in range(2)]
    assert all(set(run) == {"seconds", "peak_rss_mb", "labels_sha256"} for run in runs)
    assert runs[0]["labels_sha256"] == runs[1]["labels_sha256"]
    pgp2 = bench_layers.child(bench_layers._PGP2_CHILD, "300")
    assert set(pgp2) == {"seconds", "peak_rss_mb", "labels_sha256", "sweeps", "sweep_candidates"}
    assert pgp2["sweeps"] == len(pgp2["sweep_candidates"]) > 0


def test_bench_command_of_cluster_digests_its_outputs(bench_layers, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_layers, "REPEATS", 1)
    csv_path = tmp_path / "planted.csv"
    bench_layers.planted_csv(csv_path, 60, bench_layers.SEED)
    outputs = {option: tmp_path / name for option, name in (
        ("--out", "clusters.json"), ("--dendrogram-out", "dendrogram.json"), ("--newick-out", "tree.nwk"),
        ("--trace-out", "trace.json"))}
    argv = ["cluster", str(csv_path), "--label-column", "label", "--format", "json"]
    for option, path in outputs.items():
        argv += [option, str(path)]
    layers = [bench_layers.bench_command(argv, list(outputs.values())) for _ in range(2)]
    assert all(set(layer) == {"min_s", "median_s", "peak_rss_mb", "sha256"} for layer in layers)
    assert set(layers[0]["sha256"]) == {path.name for path in outputs.values()}
    assert layers[0]["sha256"] == layers[1]["sha256"]


def test_similarity_child_digests_each_output(bench_layers, tmp_path):
    csv_path = tmp_path / "planted.csv"
    bench_layers.planted_csv(csv_path, 300, bench_layers.SEED)
    run = bench_layers.child(bench_layers._SIMILARITY_CHILD, str(csv_path), "json", str(tmp_path), "goodall", "lin")
    assert set(run) == {"seconds", "peak_rss_mb", "sha256"}
    outputs = [tmp_path / "similarity_goodall.json", tmp_path / "similarity_lin.json"]
    assert run["sha256"] == {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs}
    assert json.loads(outputs[1].read_text())["n"] == 300


def test_source_lines_counts_the_newlines_of_each_package_file(bench_layers):
    package = SCRIPTS.parent / "src" / "mbclust"
    with_newline = {}
    for path in sorted(package.glob("*.py")):
        with open(path, "rb") as fh:
            with_newline[path.name] = sum(line.endswith(b"\n") for line in fh)
    assert bench_layers.source_lines() == {"files": with_newline, "total": sum(with_newline.values())}
