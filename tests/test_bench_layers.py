"""Smoke tests of ``scripts/bench_layers.py`` at tiny sizes.

The full bench takes minutes, so a broken child would otherwise show only
when someone runs it. ``main()`` runs here at tiny sizes with one run per
layer, and each layer is one fresh process per run, as in the bench.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPTS / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_main_at_tiny_sizes_reports_every_layer(bench_layers, tmp_path, monkeypatch):
    for name, value in (("SIZES", (120,)), ("WIDE", (120, 8)), ("PGP2_N", 120), ("SIMILARITY_SIZES", (40,)),
                        ("REPEATS", 1)):
        monkeypatch.setattr(bench_layers, name, value)
    assert bench_layers.main([str(tmp_path / "bench.json")]) == 0
    report = json.loads((tmp_path / "bench.json").read_text())
    assert list(report) == ["data", "repeats", "machine", "import", "sizes", "similarity", "run_wide",
                            "run_wide_large", "run_pgp2", "source_lines"]
    assert set(report["import"]) == {"min_s", "median_s", "peak_rss_mb"} and report["import"]["min_s"] > 0
    [size] = report["sizes"]
    assert list(size) == ["n", "iterations", "clusters", "layers"]  # no peak_rss_mb_so_far
    assert list(size["layers"]) == ["load_csv", "importance", "run", "to_json", "to_newick", "to_dict", "contingency",
                                    "cli_cluster", "cli_dendrogram"]
    assert all({"min_s", "median_s", "peak_rss_mb", "sha256"} <= set(layer) for layer in size["layers"].values())
    assert list(size["layers"]["cli_cluster"]["sha256"]) == ["clusters.json", "dendrogram.json", "tree.nwk",
                                                            "trace.json"]  # no manifest: it holds seconds
    [similarity] = report["similarity"]
    assert list(similarity["layers"]) == [f"cli_similarity_{name}" for name in (
        "lin", "lin_json", "goodall", "goodall_json", "goodall_lin_json")]
    assert list(similarity["layers"]["cli_similarity_goodall_lin_json"]["sha256"]) == [
        "similarity_goodall.json", "similarity_lin.json"]
    wide, large, pgp2 = report["run_wide"], report["run_wide_large"], report["run_pgp2"]
    assert (wide["n"], wide["m"]) == (large["n"], large["m"]) == (120, 8)  # the largest size is 120 here
    assert wide["labels_sha256"] == large["labels_sha256"] and "sweeps" not in wide
    assert (pgp2["n"], pgp2["m"]) == (120, 20) and pgp2["sweeps"] == len(pgp2["sweep_candidates"]) > 0
    assert report["source_lines"] == bench_layers.source_lines()


def test_import_child_imports_nothing_before_its_clock(bench_layers):
    before_clock = bench_layers._IMPORT_CHILD.split("started =")[0]
    probe = before_clock + "print(sorted(name for name in ('numpy', 'mbclust') if name in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe, str(bench_layers.SRC)], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_import_layer_reports_its_peak_and_shows_a_failing_import(bench_layers, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_layers, "REPEATS", 1)
    layer = bench_layers.bench_import()
    assert set(layer) == {"min_s", "median_s", "peak_rss_mb"} and layer["peak_rss_mb"] > 0
    (tmp_path / "mbclust").mkdir()
    (tmp_path / "mbclust" / "__init__.py").write_text("raise ImportError('planted import failure')\n")
    monkeypatch.setattr(bench_layers, "SRC", tmp_path)
    with pytest.raises(RuntimeError, match="planted import failure"):
        bench_layers.bench_import()


def test_library_children_report_their_keys_and_agree_with_the_cli(bench_layers, tmp_path):
    csv_path = tmp_path / "planted.csv"
    bench_layers.planted_csv(csv_path, 300, bench_layers.SEED)
    digests = {}
    for layer in bench_layers.LIBRARY_LAYERS:
        runs = [bench_layers.child(bench_layers.library_child, str(csv_path), layer) for _ in range(2)]
        counts = {"iterations", "clusters"} if layer == "run" else set()
        for run in runs:
            assert set(run) == {"seconds", "peak_rss_mb", "sha256"} | counts
            assert run.pop("seconds") > 0 and run.pop("peak_rss_mb") > 0
        assert runs[0] == runs[1], layer
        digests[layer] = runs[0]["sha256"]
    outputs = [tmp_path / "clusters.json", tmp_path / "dendrogram.json", tmp_path / "tree.nwk"]
    argv = ["cluster", str(csv_path), "--label-column", "label", "--out", str(outputs[0]), "--dendrogram-out",
            str(outputs[1]), "--newick-out", str(outputs[2])]
    bench_layers.child(bench_layers.commands_child, [argv], [str(path) for path in outputs])
    for layer, path in (("to_json", outputs[1]), ("to_newick", outputs[2])):
        text = path.read_bytes()  # the CLI ends each file with a newline that the writer's text lacks
        assert text.endswith(b"\n") and digests[layer] == hashlib.sha256(text[:-1]).hexdigest()


def test_bench_runs_raises_when_runs_disagree(bench_layers, monkeypatch):
    def runs(*digests):
        return iter({"seconds": 2.0 - i, "peak_rss_mb": 30.0 + i, "sha256": d} for i, d in enumerate(digests))

    monkeypatch.setattr(bench_layers, "REPEATS", 2)
    monkeypatch.setattr(bench_layers, "child", lambda function, *args: next(children))
    children = runs("a", "a")
    assert bench_layers.bench_runs(bench_layers.run_child) == {
        "min_s": 1.0, "median_s": 1.5, "peak_rss_mb": 31.0, "sha256": "a"}
    children = runs("a", "b")
    with pytest.raises(RuntimeError, match="disagree"):
        bench_layers.bench_runs(bench_layers.run_child)


def test_run_children_report_their_keys_and_agree(bench_layers):
    runs = [bench_layers.child(bench_layers.run_child, "planted", 300, 12, "drop-all") for _ in range(2)]
    assert all(set(run) == {"seconds", "peak_rss_mb", "labels_sha256"} for run in runs)
    assert runs[0]["labels_sha256"] == runs[1]["labels_sha256"]
    pgp2 = bench_layers.child(bench_layers.run_child, "pgp2", 300, 20, "pgp2")
    assert set(pgp2) == {"seconds", "peak_rss_mb", "labels_sha256", "sweeps", "sweep_candidates"}
    assert pgp2["sweeps"] == len(pgp2["sweep_candidates"]) > 0


def test_bench_runs_of_cluster_digests_its_outputs(bench_layers, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_layers, "REPEATS", 2)
    csv_path = tmp_path / "planted.csv"
    bench_layers.planted_csv(csv_path, 60, bench_layers.SEED)
    outputs = {option: tmp_path / name for option, name in (
        ("--out", "clusters.json"), ("--dendrogram-out", "dendrogram.json"), ("--newick-out", "tree.nwk"),
        ("--trace-out", "trace.json"))}
    argv = ["cluster", str(csv_path), "--label-column", "label", "--format", "json"]
    for option, path in outputs.items():
        argv += [option, str(path)]
    layer = bench_layers.bench_runs(bench_layers.commands_child, [argv], [str(path) for path in outputs.values()])
    assert set(layer) == {"min_s", "median_s", "peak_rss_mb", "sha256"}
    assert layer["sha256"] == {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs.values()}
    with pytest.raises(RuntimeError, match="exited with \\[1\\]"):  # a command that fails stops the bench
        bench_layers.child(bench_layers.commands_child, [["cluster", str(tmp_path / "missing.csv")]], [])


def test_similarity_child_digests_each_output(bench_layers, tmp_path):
    folder = tmp_path / "a folder with spaces"  # commands travel as lists, never split on spaces
    folder.mkdir()
    csv_path = folder / "planted data.csv"
    bench_layers.planted_csv(csv_path, 300, bench_layers.SEED)
    outputs = [folder / "similarity_goodall.json", folder / "similarity_lin.json"]
    commands = [["similarity", str(csv_path), "--label-column", "label", "--measure", measure, "--format", "json",
                 "--out", str(path)] for measure, path in zip(("goodall", "lin"), outputs)]
    run = bench_layers.child(bench_layers.commands_child, commands, [str(path) for path in outputs])
    assert set(run) == {"seconds", "peak_rss_mb", "sha256"}
    assert run["sha256"] == {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs}
    assert json.loads(outputs[1].read_text())["n"] == 300


def test_source_lines_counts_the_newlines_of_each_package_file(bench_layers):
    package = SCRIPTS.parent / "src" / "mbclust"
    with_newline = {}
    for path in sorted(package.glob("*.py")):
        with open(path, "rb") as fh:
            with_newline[path.name] = sum(line.endswith(b"\n") for line in fh)
    assert bench_layers.source_lines() == {"files": with_newline, "total": sum(with_newline.values())}
