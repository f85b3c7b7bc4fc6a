import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbclust.cli
import pairwise_loop
from mbclust import STOP_ALL_CLUSTERED, STOP_TIED_IMPORTANCE, Dendrogram, MbcConfig, load_csv, writers
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
    assert len(manifest["config"]) == len(dataclasses.fields(MbcConfig))
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


@pytest.mark.parametrize("option", ["--dendrogram-out", "--newick-out", "--trace-out", "--manifest-out"])
def test_cluster_output_that_cannot_be_opened_writes_nothing(tmp_path, capsys, option):
    out = tmp_path / "assign.csv"
    assert main(["cluster", DATASET_A, option, str(tmp_path)]) == 1
    assert main(["cluster", DATASET_A, "--out", str(out), option, str(tmp_path)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("\n") == 2 and err.count("error:") == 2  # no manifest either
    assert not out.exists() or out.read_bytes() == b""


@pytest.mark.parametrize("first, second", [("--out", "--trace-out"), ("--dendrogram-out", "--newick-out"),
                                           ("--out", "--manifest-out")])
def test_cluster_outputs_naming_the_same_file_are_refused(tmp_path, capsys, first, second):
    path = tmp_path / "out.txt"
    path.write_text("kept\n")
    os.link(path, tmp_path / "link.txt")
    for same in (path, f"{tmp_path}/./out.txt", tmp_path / "link.txt"):
        assert main(["cluster", DATASET_A, first, str(path), second, str(same)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("error: two outputs name the same file") == 3
    assert path.read_text() == "kept\n"


def test_cluster_output_that_is_stdout_is_refused(tmp_path, capsys, monkeypatch):
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["cluster", DATASET_A, "--trace-out", str(path)]) == 1
    assert "error: two outputs name the same file" in capsys.readouterr().err
    assert path.read_text() == ""


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


# SHA-256 of the dendrogram JSON that `cluster --dendrogram-out` writes and
# `dendrogram` prints for dataset_a.csv, recorded when both were written
# with json.dumps(dendrogram.to_dict(), indent=2).
DENDROGRAM_A_SHA256 = {
    ("cluster",): "1a92c1ecd3eb90bf5d6c1bbcaf8e33bce21cb1792b5288e82c26100378060d30",
    ("cluster", "--no-anti-merge"): "0bb94fe8a61708d034edc4cb994ff080d745d9aef826f4704c8698db438c5456",
    ("cluster", "--ties", "pgp2"): "2b69fc37224c0b656e6fea21f64dccd09ebb24d8f2a85b10070f6230b65d35da",
    ("dendrogram",): "0bb94fe8a61708d034edc4cb994ff080d745d9aef826f4704c8698db438c5456",
    ("dendrogram", "--ties", "pgp2"): "ef61c807d90d25835c7c8145eb9cfe8e85feb0d4151e6a60717e07a3734281c6",
    ("dendrogram", "--importance", "ppp"): "2daa0038733b7abe4cd35930ff23e1526035b487c29f5bfd0a028e914e835a6d",
}


def _dendrogram_bytes(args, tmp_path, capsys) -> bytes:
    command, *options = args
    if command == "cluster":
        path = tmp_path / "dendro.json"
        assert main(["cluster", DATASET_A, "--dendrogram-out", str(path), *options]) == 0
        capsys.readouterr()
        return path.read_bytes()
    assert main(["dendrogram", DATASET_A, *options]) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("args", sorted(DENDROGRAM_A_SHA256))
def test_dendrogram_output_bytes_pinned(args, tmp_path, capsys):
    out = _dendrogram_bytes(args, tmp_path, capsys)
    assert hashlib.sha256(out).hexdigest() == DENDROGRAM_A_SHA256[args]


@pytest.mark.parametrize("args", [("cluster",), ("dendrogram",)])
def test_dendrogram_output_skips_dict_and_indented_encoder(args, tmp_path, capsys, monkeypatch):
    dumps = json.dumps

    def refuse_to_dict(self):
        raise AssertionError("Dendrogram.to_dict called")

    def guarded_dumps(obj, *pargs, **kwargs):
        if kwargs.get("indent") is not None and isinstance(obj, dict) and "merges" in obj:
            raise AssertionError("dendrogram encoded with json.dumps(indent=...)")
        return dumps(obj, *pargs, **kwargs)

    monkeypatch.setattr(Dendrogram, "to_dict", refuse_to_dict)
    monkeypatch.setattr(json, "dumps", guarded_dumps)
    out = _dendrogram_bytes(args, tmp_path, capsys)
    assert out.startswith(b'{\n  "n_leaves": 10,\n')


# SHA-256 of what `cluster --format FMT` prints, recorded when the payload
# was written with json.dumps(payload, indent=2) and csv.writer.
CLUSTER_SHA256 = {
    ("dataset_a.csv", "json"): "f8541e38e04a3d4476e756dc8084491a6f04e1c79a3fd449aa99ae7c60428a2f",
    ("dataset_a.csv", "csv"): "1877a70e04b66ed23941ed5ab4ca4ca9443e21a4f4a41b1a823a06f3e61c3ee7",
    ("d42.csv", "json"): "0b908ce3aad9404a9dfc340f2b1daa4dbd1eee26f1827dd4c2f51a5329e715b6",
    ("d42.csv", "csv"): "267184ad0297a22f233d52cd0d18872380a405238d0bae19abb49278ee6cb91b",
}


@pytest.mark.parametrize("name, fmt", sorted(CLUSTER_SHA256))
def test_cluster_output_bytes_pinned(capsys, name, fmt):
    assert main(["cluster", str(DATA_DIR / name), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLUSTER_SHA256[name, fmt]


@st.composite
def partitions(draw):
    """Entity labels of a random partition, numbered by smallest member."""
    raw = draw(st.lists(st.integers(0, 6), max_size=30))
    first = {}
    return np.array([first.setdefault(v, len(first)) for v in raw], dtype=np.intp)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(labels=partitions(), stop_reason=st.sampled_from([STOP_ALL_CLUSTERED, STOP_TIED_IMPORTANCE]) | st.text(),
       iterations=st.integers(0, 10**6))
def test_cluster_json_equals_indented_dump(labels, stop_reason, iterations):
    clusters = {}
    for obj, label in enumerate(labels.tolist()):
        clusters.setdefault(label, []).append(obj)
    payload = {
        "assignments": [label + 1 for label in labels.tolist()],
        "clusters": [clusters[label] for label in sorted(clusters)],
        "stop_reason": stop_reason,
        "iterations": iterations,
    }
    assert "".join(writers.cluster_json(labels, stop_reason, iterations)) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("argv", [
    ["cluster", DATASET_A, "--format", "json"],
    ["cluster", DATASET_A, "--k", "3", "--format", "json"],
    ["cluster", DATASET_A],
    ["dendrogram", DATASET_A],
    ["dendrogram", DATASET_A, "--format", "newick"],
])
def test_commands_derive_no_member_tuples_or_merge_events(argv, tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("derived dendrogram tuples computed")

    monkeypatch.setattr(Dendrogram, "levels", property(refuse))
    monkeypatch.setattr(Dendrogram, "merge_events", property(refuse))
    if argv[0] == "cluster":
        argv = argv + ["--dendrogram-out", str(tmp_path / "d.json"), "--newick-out", str(tmp_path / "t.nwk"),
                       "--trace-out", str(tmp_path / "trace.json"), "--manifest-out", str(tmp_path / "m.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out


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


# SHA-256 of `similarity dataset_a.csv` output, the per-pair reference
# matrix rendered cell by cell with int() / float() as the command did
# before it emitted `matrix.tolist()`.
SIMILARITY_A_SHA256 = {
    ("cm", "json"): "f3cf4bcec5bc08af0feb414589ca258c815900c1d35ebcbb44d5d353a8eb93f8",
    ("cm", "csv"): "6f3e005f13e18e0d777a341e30d59f686da59b5984102e87e2eb2da12b0241ed",
    ("overlap", "json"): "769f753253b1f63ac56a0a5955acb6c254183f4070fd14710de8874b8f98d0b7",
    ("overlap", "csv"): "b163babe87f98844dc4e8b42f02930a2e3f8432f7ff8f88521e5938301f448e1",
    ("goodall", "json"): "f99615919bb9307af1af34965fa0cbb2c64c0c4413372ecb9bc184d84b0d5572",
    ("goodall", "csv"): "632912e1b9a70589ecfdc5a5df1c58488e2f0476bcd2b3ca65b53ea8f7751a73",
    ("lin", "json"): "e7e4fd546e01ff7742d524ae895b89071ff8f526b9808b14eca5852b048156e8",
    ("lin", "csv"): "98c2762913d66a90793342c8516e2891ccbda6c69a33f21a0384fa1931dda99a",
}


def _render_per_cell(matrix, measure, fmt):
    integral = measure == "cm"
    if fmt == "json":
        rows = [[int(v) for v in row] if integral else [float(v) for v in row] for row in matrix]
        return json.dumps({"measure": measure, "n": len(matrix), "matrix": rows}) + "\n"
    lines = [",".join([""] + [str(j) for j in range(len(matrix))])]
    for i, row in enumerate(matrix):
        lines.append(",".join([str(i)] + [str(int(v)) if integral else f"{v:.6f}" for v in row]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("measure", ["cm", "overlap", "goodall", "lin"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_similarity_output_bytes_pinned(capsys, measure, fmt):
    assert main(["similarity", DATASET_A, "--measure", measure, "--format", fmt]) == 0
    out = capsys.readouterr().out
    expected = _render_per_cell(pairwise_loop.pairwise_matrix(load_csv(DATASET_A), measure), measure, fmt)
    assert out == expected
    assert hashlib.sha256(out.encode()).hexdigest() == SIMILARITY_A_SHA256[measure, fmt]


@pytest.mark.parametrize("measure", ["cm", "overlap", "goodall", "lin"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_similarity_never_dumps_the_matrix(capsys, monkeypatch, measure, fmt):
    dumps = json.dumps

    def guarded_dumps(obj, *pargs, **kwargs):
        if isinstance(obj, dict) and "matrix" in obj:
            raise AssertionError("similarity matrix encoded with json.dumps")
        return dumps(obj, *pargs, **kwargs)

    monkeypatch.setattr(mbclust.cli.json, "dumps", guarded_dumps)
    assert main(["similarity", DATASET_A, "--measure", measure, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SIMILARITY_A_SHA256[measure, fmt]


@pytest.mark.parametrize("measure, text", [
    ("lin", "A,B\nx,y\nx,y\nx,y\n"),  # every category held by all objects
    ("goodall", "A,B\nx,y\n"),  # one object has no category frequencies
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_similarity_failing_measure_writes_nothing(tmp_path, capsys, measure, text, fmt):
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "matrix.txt"
    assert main(["similarity", str(data), "--measure", measure, "--format", fmt]) == 1
    assert main(["similarity", str(data), "--measure", measure, "--format", fmt, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("error:") == 2
    assert not out.exists()


# Exit code and SHA-256 of the output of `importance --measure pgp2`, taken
# when every candidate was scored over a full match-count matrix. On
# d42.csv at alpha 2.5 no pair is marked, so the command fails and prints
# nothing.
IMPORTANCE_PGP2_SHA256 = {
    ("dataset_a.csv", "json", "-1"): (0, "6e57107995d65eb1d62171c257100e269002aad22bc5eca408e25635c667cd3d"),
    ("dataset_a.csv", "json", "0"): (0, "c5a32f4accc4bf6a23620791cf847d72018a103ba01121a08708c52082ffa7df"),
    ("dataset_a.csv", "json", "2.5"): (0, "8606de810d14a076b92af943be4ec6d3d702facbb6f3bfbcffcc3184a0f6d141"),
    ("dataset_a.csv", "text", "-1"): (0, "ec7011d3c1f3f9ee7491ee54265cc4dceb0faf418afaec92b4aa5787e796b09d"),
    ("dataset_a.csv", "text", "0"): (0, "852587286b0d548089f8a110ec66e1b7aaada376e2b2f120c228ec573832e193"),
    ("dataset_a.csv", "text", "2.5"): (0, "5b743070809262a1ef414d5bb8c9fce2315df9372c1c7819ec6a45b143535c59"),
    ("d42.csv", "json", "-1"): (0, "cbf0eb7e12c3d1db623a710e58e9027f395120292232e88dc1cd9124c462dad2"),
    ("d42.csv", "json", "0"): (0, "9e3850afcb85de2360ff544b7ccc470d0e3d90ab69f884c31be2a5f4dfef99f2"),
    ("d42.csv", "json", "2.5"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("d42.csv", "text", "-1"): (0, "838606c88cbd7e5789fb3a36b25ddccfe2cb561cdd677430e25c4528a74521c8"),
    ("d42.csv", "text", "0"): (0, "91907db2c7e3439d163668d434742ccec5c2e5c2c4cede9ce281bc8deaa15418"),
    ("d42.csv", "text", "2.5"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("name, fmt, alpha", sorted(IMPORTANCE_PGP2_SHA256))
def test_importance_pgp2_output_bytes_pinned(capsys, name, fmt, alpha):
    code = main(["importance", str(DATA_DIR / name), "--measure", "pgp2", "--format", fmt, f"--alpha={alpha}"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == IMPORTANCE_PGP2_SHA256[name, fmt, alpha]


# SHA-256 of the output of `importance --measure pgp|ppp`, recorded when
# each command wrote its output by hand.
IMPORTANCE_SHA256 = {
    ("dataset_a.csv", "pgp", "json"): "011673f5285841a5fffc2fdde23de58db5f508e0384a5c3bc55fb4f8f1188df2",
    ("dataset_a.csv", "pgp", "text"): "ea489ebbc72c9be4200f58266ab57e844e75dfdd10ff617dbe0078c80d65bbfd",
    ("dataset_a.csv", "ppp", "json"): "b79ceecbcbcf90b063f3fe74a28e9acec017a3358f28635d59868dc16f2778a1",
    ("dataset_a.csv", "ppp", "text"): "2f5e04682eabc00f6c28279542e5153c9d84206581bfff0453c901564765d446",
    ("d42.csv", "pgp", "json"): "59405c1131c615e8b0f2185c8ac6ef843070af95294a7cb9319a468558334b7d",
    ("d42.csv", "pgp", "text"): "621e5ff35f8dab47ddcc055d009b9c688ce417fbced69d50119f84f0a9f9dd69",
    ("d42.csv", "ppp", "json"): "350811d6817863f31f375f0255fe2c266ecf1f5f65a1ff1d82397f4637964f92",
    ("d42.csv", "ppp", "text"): "d1e68af6b3fdfae5ebaa325c27308957b8917b6a18831b88bac8150f06266edd",
}


@pytest.mark.parametrize("name, measure, fmt", sorted(IMPORTANCE_SHA256))
def test_importance_output_bytes_pinned(capsys, name, measure, fmt):
    assert main(["importance", str(DATA_DIR / name), "--measure", measure, "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == IMPORTANCE_SHA256[name, measure, fmt]


# SHA-256 of `eval dataset_a_labeled.csv --labels group`, clustering first,
# reading the assignments that `cluster` wrote, or cutting at k = 2.
EVAL_SHA256 = {
    ("csv", ()): "af1800dbbea053dab203501d000c2f50932732845e3e3c57b166fbff3034023f",
    ("csv", ("--assignments",)): "af1800dbbea053dab203501d000c2f50932732845e3e3c57b166fbff3034023f",
    ("csv", ("--k", "2")): "614062fd4da9a2b581564ac4d0b69ceceb84acc69bfbca8112a97c731011719b",
    ("text", ()): "c5a1cc00774c6abac9fca4109362dcfc831cea55a3671f368130469776045039",
    ("text", ("--assignments",)): "c5a1cc00774c6abac9fca4109362dcfc831cea55a3671f368130469776045039",
    ("text", ("--k", "2")): "07f80578c6741d2bb46675b64ee067367665d4dfc100931338991c6b68dc1603",
}


@pytest.mark.parametrize("fmt, options", sorted(EVAL_SHA256))
def test_eval_output_bytes_pinned(tmp_path, capsys, fmt, options):
    argv = ["eval", LABELED, "--labels", "group", "--format", fmt, *options]
    if options == ("--assignments",):
        assignments = tmp_path / "assign.csv"
        assert main(["cluster", LABELED, "--label-column", "group", "--out", str(assignments)]) == 0
        capsys.readouterr()
        argv.append(str(assignments))
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == EVAL_SHA256[fmt, options]


# SHA-256 of the side files of `cluster`, run from the data directory so
# that the manifest's "input" is the bare file name; the manifest's
# "seconds" is masked to 0.
CLUSTER_FILES_SHA256 = {
    ("dataset_a.csv", (), "newick"): "6325efc0bb4ac142b29d8f0a5ef6b7cf608578c656bf68496e5dcf9f69b272e2",
    ("dataset_a.csv", (), "trace"): "9f0f82dc539e4416480b3007f6c179fd69f8e814888f43fc9c9170357dfcf349",
    ("dataset_a.csv", (), "manifest"): "d8b3401e7331e49c71293ff8fb39c0cf72584d52cfc2f5da99bdb4427af6544b",
    ("dataset_a.csv", ("--ties", "pgp2"), "newick"): "6325efc0bb4ac142b29d8f0a5ef6b7cf608578c656bf68496e5dcf9f69b272e2",
    ("dataset_a.csv", ("--ties", "pgp2"), "trace"): "32f470145fd9a776f5c701361525cfa810c4c7becad236dd4745fb45696de0cf",
    ("dataset_a.csv", ("--ties", "pgp2"), "manifest"): "c552b6571bdbfbf652fdea4033206aab763c2073cccbd4bddc822883f891f921",
    ("dataset_a.csv", ("--k", "2"), "newick"): "84f664bed7ee37b1cd4fd4b6f3e2f9056dcd778af32bcac998134cbfcabed15d",
    ("dataset_a.csv", ("--k", "2"), "trace"): "9f0f82dc539e4416480b3007f6c179fd69f8e814888f43fc9c9170357dfcf349",
    ("dataset_a.csv", ("--k", "2"), "manifest"): "3b574a06f80f75a623d896e002bf6a10ff57511e77d2d96c1b5ab3d3c25fc750",
    ("d42.csv", (), "newick"): "040ae3346249c1be7334c5eadc2aedecde250d9f6c245de1b11e13a15c460eb9",
    ("d42.csv", (), "trace"): "e59502bf5296da431c9fc2d1677b46fd77715e2b2484efe49ac9dfa92659a3e9",
    ("d42.csv", (), "manifest"): "247ee424547ea203c75c4c86ef5f95012263fe1441a7b71e658e8a22d87ae1cf",
}


@pytest.mark.parametrize("name, options", sorted({key[:2] for key in CLUSTER_FILES_SHA256}))
def test_cluster_side_files_pinned(tmp_path, capsys, monkeypatch, name, options):
    monkeypatch.chdir(DATA_DIR)
    files = {kind: tmp_path / kind for kind in ("newick", "trace", "manifest")}
    assert main(["cluster", name, *options, *(a for kind, path in files.items() for a in (f"--{kind}-out", str(path)))]) == 0
    capsys.readouterr()
    for kind, path in files.items():
        data = re.sub(rb'"seconds": [0-9.e-]+', b'"seconds": 0', path.read_bytes())
        assert hashlib.sha256(data).hexdigest() == CLUSTER_FILES_SHA256[name, options, kind], kind


@pytest.mark.parametrize("argv", [
    ["cluster", DATASET_A],
    ["cluster", DATASET_A, "--format", "json"],
    ["dendrogram", DATASET_A],
    ["dendrogram", DATASET_A, "--format", "newick"],
    *(["importance", D42, "--measure", measure, "--format", fmt]
      for measure in ("pgp", "ppp", "pgp2") for fmt in ("text", "json")),
    *(["similarity", DATASET_A, "--measure", measure, "--format", fmt]
      for measure in ("cm", "overlap", "goodall", "lin") for fmt in ("csv", "json")),
    ["eval", LABELED, "--labels", "group"],
    ["eval", LABELED, "--labels", "group", "--format", "csv"],
])
def test_stdout_and_out_give_the_same_bytes(argv, tmp_path, capsys):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


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


def test_eval_heads_columns_with_the_files_cluster_ids(tmp_path, capsys):
    assignments = tmp_path / "assign.csv"
    assignments.write_text("object,cluster\n" + "".join(f"{i},{7 if i < 4 else 3}\n" for i in range(10)))
    assert main(["eval", LABELED, "--labels", "group", "--assignments", str(assignments), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["label,3,7", "G1,0,4", "G2,6,0"]
    assert main(["eval", LABELED, "--labels", "group", "--assignments", str(assignments)]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["label", "3", "7"]


def test_byte_order_mark_changes_no_output(tmp_path, capsys):
    """Spreadsheet exports often start with a UTF-8 byte-order mark, which
    must not become part of the first column's name."""
    rows = [line.split(",") for line in (DATA_DIR / "dataset_a_labeled.csv").read_text().splitlines()]
    text = "".join(",".join([row[-1], *row[:-1]]) + "\n" for row in rows)  # the label column first
    for name, encoding in (("data.csv", "utf-8"), ("bom-data.csv", "utf-8-sig")):
        (tmp_path / name).write_text(text, encoding=encoding)
    assert main(["cluster", LABELED, "--label-column", "group", "--out", str(tmp_path / "assign.csv")]) == 0
    (tmp_path / "bom-assign.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "assign.csv").read_bytes())
    capsys.readouterr()

    def printed(argv, prefix):
        assert main([str(arg).replace("PREFIX", prefix) for arg in argv]) == 0
        return capsys.readouterr().out

    for argv in [
        ("cluster", tmp_path / "PREFIXdata.csv", "--label-column", "group", "--format", "json"),
        ("importance", tmp_path / "PREFIXdata.csv", "--label-column", "group"),
        ("eval", LABELED, "--labels", "group", "--assignments", tmp_path / "PREFIXassign.csv"),
    ]:
        assert printed(argv, "bom-") == printed(argv, "")


def test_eval_bad_assignments_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    assert main(["eval", LABELED, "--labels", "group", "--assignments", str(bad)]) == 1
    _, err = capsys.readouterr()
    assert "error:" in err


@pytest.mark.parametrize("rows, message", [
    ("0,1\n1\n", "row 3: expected two integers"),
    ("0,1\n1,a\n", "row 3: expected two integers"),
    ("0,1\n", "partition misses objects [1, 2, 3, 4, 5, 6, 7, 8, 9]"),
    ("".join(f"{i},1\n" for i in range(11)), "object index 10 outside 0..9"),
    ("".join(f"{i},1\n" for i in range(10)) + f"{10**20},2\n", f"object index {10**20} outside 0..9"),
    ("".join(f"{i},1\n" for i in range(10)) + "3,2\n",
     "object 3 is in more than one cluster; each must appear exactly once"),
], ids=["one-field", "non-integer", "misses", "outside", "outside-int64", "repeated"])
def test_eval_names_the_assignments_file_it_rejects(tmp_path, capsys, rows, message):
    path = tmp_path / "assign.csv"
    path.write_text("object,cluster\n" + rows)
    assert main(["eval", LABELED, "--labels", "group", "--assignments", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_field_over_csv_size_limit_is_data_error(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("object,cluster\n0," + "1" * 131073 + "\n")
    for argv in (["cluster", str(big)], ["eval", LABELED, "--labels", "group", "--assignments", str(big)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {big}: row 2: field larger than field limit")


def test_non_utf8_input_is_data_error_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"object,cluster\n0,1\n1,\xe91\n")
    for argv in (["cluster", str(bad)], ["eval", LABELED, "--labels", "group", "--assignments", str(bad)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {bad}: not UTF-8 text (invalid continuation byte)\n"


@pytest.mark.parametrize("text, measure, alpha, message", [
    ("A,B\nx,u\ny,v\nz,w\n", "pgp", "0", "no feature has a repeated category; pgp is undefined"),
    ("A,B\nx,u\nx,u\nx,u\n", "ppp", "0", "every feature is constant; ppp is undefined"),
    ("A,B\nx,u\nx,u\ny,v\n", "pgp2", "2", "no pair exceeds the influence threshold; pgp2 is undefined"),
])
def test_importance_undefined_measure_is_data_error(tmp_path, capsys, text, measure, alpha, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert main(["importance", str(path), "--measure", measure, f"--alpha={alpha}"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_invalid_config_is_data_error(capsys):
    assert main(["cluster", DATASET_A, "--k", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: k must be at least 1\n"


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


def test_importing_the_cli_loads_no_numpy_random():
    """numpy loads ``numpy.random`` on first use; importing it would add about
    9 ms to the start-up of every command."""
    src = str(Path(mbclust.cli.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import mbclust.cli; print('numpy.random' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True).stdout
    assert loaded == "False\n"
