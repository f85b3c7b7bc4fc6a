import json

import pytest

from mbclust.cli import main
from conftest import DATA_DIR
from oracles import NEWICK_A

DATASET_A = str(DATA_DIR / "dataset_a.csv")
D42 = str(DATA_DIR / "d42.csv")
LABELED = str(DATA_DIR / "dataset_a_labeled.csv")


def test_cluster_assignments_csv(capsys):
    assert main(["cluster", DATASET_A]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0] == "object,cluster"
    assert lines[1:] == ["0,1", "1,1", "2,1", "3,1", "4,2", "5,3", "6,2", "7,3", "8,4", "9,2"]
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["final_clusters"] == 4
    assert manifest["config"]["importance"] == "pgp"
    assert [it["theta"] for it in manifest["per_iteration"]] == [5, 4, 2]
    assert manifest["per_iteration"][0]["dropped"] == ["E"]
    assert manifest["seconds"] >= 0


def test_cluster_json_format(capsys):
    assert main(["cluster", DATASET_A, "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert payload["clusters"][0] == [0, 1, 2, 3]
    assert payload["assignments"][:4] == [1, 1, 1, 1]
    assert payload["iterations"] == 3


def test_cluster_output_files(tmp_path, capsys):
    out = tmp_path / "assign.csv"
    dendro = tmp_path / "dendro.json"
    newick = tmp_path / "tree.nwk"
    trace = tmp_path / "trace.json"
    manifest = tmp_path / "manifest.json"
    code = main([
        "cluster", DATASET_A, "--no-anti-merge",
        "--out", str(out),
        "--dendrogram-out", str(dendro),
        "--newick-out", str(newick),
        "--trace-out", str(trace),
        "--manifest-out", str(manifest),
    ])
    capsys.readouterr()
    assert code == 0
    assert out.read_text().startswith("object,cluster\n")
    assert newick.read_text().strip() == NEWICK_A
    dendro_payload = json.loads(dendro.read_text())
    assert [len(level) for level in dendro_payload["levels"]] == [10, 8, 4, 2]
    trace_payload = json.loads(trace.read_text())
    assert trace_payload[0]["pgp"][0] == "21/71"
    manifest_payload = json.loads(manifest.read_text())
    assert manifest_payload["config"]["anti_merge"] is False


def test_cluster_with_k(capsys):
    assert main(["cluster", DATASET_A, "--k", "2"]) == 0
    out, err = capsys.readouterr()
    clusters = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
    assert clusters == {"1", "2"}
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["config"]["k"] == 2
    assert manifest["config"]["anti_merge"] is False


def test_cluster_deterministic_output(capsys):
    main(["cluster", DATASET_A])
    first = capsys.readouterr().out
    main(["cluster", DATASET_A])
    second = capsys.readouterr().out
    assert first == second


def test_dendrogram_newick(capsys):
    assert main(["dendrogram", DATASET_A, "--format", "newick"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == NEWICK_A


def test_dendrogram_json(capsys):
    assert main(["dendrogram", DATASET_A]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["anti_merge_used"] is False
    assert [len(level) for level in payload["levels"]] == [10, 8, 4, 2]


def test_importance_text_ranked(capsys):
    assert main(["importance", DATASET_A]) == 0
    out, _ = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0].split() == ["feature", "numerator", "denominator", "value"]
    order = [line.split()[0] for line in lines[1:]]
    assert order == ["A", "B", "C", "D", "E"]
    assert lines[1].split()[1:] == ["42", "142", "0.295775"]


def test_importance_json_exact(capsys):
    assert main(["importance", DATASET_A, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["feature"] == "A" and rows[0]["exact"] == "21/71"
    assert rows[-1]["feature"] == "E" and rows[-1]["numerator"] == 18


def test_importance_other_measures(capsys):
    assert main(["importance", DATASET_A, "--measure", "ppp", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["feature"] == "E" and rows[0]["exact"] == "18/77"

    assert main(["importance", DATASET_A, "--measure", "pgp2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_name = {r["feature"]: r for r in rows}
    assert by_name["E"]["numerator"] == 21 and by_name["E"]["denominator"] == 27


def test_similarity_csv(capsys):
    assert main(["similarity", DATASET_A]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "," + ",".join(str(i) for i in range(10))
    assert lines[1].split(",")[1:3] == ["5", "5"]  # full self-match, then the exact twin


def test_similarity_goodall_values(capsys):
    assert main(["similarity", D42, "--measure", "goodall"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split(",")[3] == "0.416667"
    assert lines[1].split(",")[2] == "0.000000"


def test_similarity_json(capsys):
    assert main(["similarity", D42, "--measure", "overlap", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4 and payload["measure"] == "overlap"
    assert payload["matrix"][0][2] == 0.5


def test_eval_text_and_summary(capsys):
    assert main(["eval", LABELED, "--labels", "group"]) == 0
    out, _ = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0].split() == ["label", "1", "2", "3", "4"]
    summary = json.loads(lines[-1])
    assert summary == {"purity": 1.0, "misclassified": 0, "n": 10, "clusters": 4, "labels": 2}


def test_eval_with_assignments_file(tmp_path, capsys):
    assignments = tmp_path / "assign.csv"
    main(["cluster", LABELED, "--label-column", "group", "--out", str(assignments)])
    capsys.readouterr()
    assert main(["eval", LABELED, "--labels", "group", "--assignments", str(assignments), "--format", "csv"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[0] == "label,1,2,3,4"
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["purity"] == 1.0


def test_eval_bad_assignments_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    assert main(["eval", LABELED, "--labels", "group", "--assignments", str(bad)]) == 1
    _, err = capsys.readouterr()
    assert "error:" in err


def test_missing_file_is_data_error(capsys):
    assert main(["cluster", "no-such-file.csv"]) == 1
    _, err = capsys.readouterr()
    assert "error:" in err


def test_missing_cell_is_data_error(tmp_path, capsys):
    path = tmp_path / "gap.csv"
    path.write_text("A,B\nx,\n")
    assert main(["cluster", str(path)]) == 1
    _, err = capsys.readouterr()
    assert "row 2" in err


@pytest.mark.parametrize("argv", [
    ["cluster", DATASET_A, "--ties", "pgp2"],
    ["dendrogram", DATASET_A],
    ["importance", DATASET_A, "--measure", "pgp2"],
    ["eval", LABELED, "--labels", "group"],
])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_non_finite_alpha_is_data_error(argv, alpha, capsys):
    assert main(argv + [f"--alpha={alpha}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: alpha") and "{" not in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["cluster", DATASET_A, "--format", "xml"])
    assert excinfo.value.code == 2


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cluster", "--help"])
    assert excinfo.value.code == 0
    out, _ = capsys.readouterr()
    assert "--ties" in out
