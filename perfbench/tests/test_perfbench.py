"""Self-test of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import mbclust  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "planted-cli": workloads.Sizes(n=60, m=6, categories=3, prototypes=4, noise=0.15),
    "redundant-ids": workloads.Sizes(n=60, m=4, categories=4, prototypes=4, noise=0.25, k=5),
    "pairwise-measures": workloads.Sizes(n=20, m=5, categories=3, prototypes=3, noise=0.3),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, name: str, trace: int) -> tuple[dict, str]:
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY[name]) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def test_every_workload_is_tested():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_prints_every_metric_with_its_unit(capsys, name, trace):
    result, out = _run(capsys, name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name_, unit in declared.items():
        assert f" {name_} " in out and unit in out
    assert "error_rate" in out


def test_corrupted_output_counts_in_error_rate(capsys, monkeypatch):
    original = workloads.load_cluster_outputs

    def listed_twice(out):
        outputs = original(out)
        outputs["clusters"][0].append(outputs["clusters"][-1][0])
        return outputs

    monkeypatch.setattr(workloads, "load_cluster_outputs", listed_twice)
    result, out = _run(capsys, "planted-cli", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert "appear exactly once" in out
    assert [line.split()[1] for line in out.splitlines() if line.split()[:1] == ["error_rate"]] == ["1"]


def test_digest_differing_from_the_recorded_one_fails(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["redundant-ids"]
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    workload.generate(0, inp, TINY["redundant-ids"])
    operation, finish = workload.prepare(mbclust, inp, out)
    finish(operation())
    digest = workload.check(inp, out, 0)["digest"]
    monkeypatch.setattr(workloads, "expected_digests",
                        lambda: {workloads.input_digest(inp): {"output_sha256": digest[::-1]}})
    with pytest.raises(workloads.CheckFailed, match="recorded"):
        workload.check(inp, out, 0)


def test_wrong_similarity_value_is_caught(tmp_path):
    workload = workloads.WORKLOADS["pairwise-measures"]
    workload.generate(5, tmp_path, TINY["pairwise-measures"])
    codes = np.load(tmp_path / "codes.npy")
    n = len(codes)
    for measure in workload.measures:
        matrix = [[workloads.reference_similarity(measure, codes, i, j) for j in range(n)] for i in range(n)]
        (tmp_path / f"{measure}.json").write_text(json.dumps({"measure": measure, "n": n, "matrix": matrix}))
    workload.check(tmp_path, tmp_path, 5)
    doc = json.loads((tmp_path / "lin.json").read_text())
    doc["matrix"][0][0] = 0.5
    (tmp_path / "lin.json").write_text(json.dumps(doc))
    with pytest.raises(workloads.CheckFailed):
        workload.check(tmp_path, tmp_path, 5)


def test_seed_changes_the_bytes_but_not_the_structure(tmp_path):
    workload = workloads.WORKLOADS["planted-cli"]
    digests, purities = set(), set()
    for seed in (1, 2):
        inp = tmp_path / str(seed)
        inp.mkdir()
        workload.generate(seed, inp, TINY["planted-cli"])
        digests.add(workloads.input_digest(inp))
        result = mbclust.run(mbclust.load_csv(inp / "data.csv", label_column="label"))
        labels = np.load(inp / "labels.npy")
        purities.add(workloads._partition_purity(result.partition, labels))
    assert len(digests) == 2 and len(purities) == 1


def test_removed_function_reports_zero_calls(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "core.anti_merge", (("mbclust.core:removed_function",), None))
    codes, _ = workloads._planted(np.random.default_rng(0), TINY["planted-cli"])
    with tracing.Tracer(0) as tracer:
        mbclust.core.run(codes)
    assert tracer.missing == ["mbclust.core:removed_function"]
    metrics = tracing.layer_metrics(tracer.spans, 0)
    assert metrics["core.anti_merge_fired"] == 0 and metrics["core.anti_merge_s"] == 0
    assert metrics["core.run_s"] > 0 and metrics["core.iterations"] >= 1
    assert mbclust.core.run.__name__ == "run" and not hasattr(mbclust.core.run, "__wrapped__")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-cli", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
