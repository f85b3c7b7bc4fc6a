"""Seeded workloads of the mbclust benchmark: input generators, the timed
operation each one runs, and the checks on its outputs.

Every workload exists to stress different layers of the package, and
each says which layer it bypasses, so that a change aimed at one layer
has a workload that should move and one that should not.

The parent process (``run.py``) calls ``generate`` and ``check``; the
child process (``child.py``) calls ``prepare`` and ``finish``. Inputs are
written to disk before any timing starts, and the program sees only
those files (or the array loaded from them).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# The planted structure of every workload is drawn from this fixed seed.
# The run's --seed draws only its presentation: row order, column order
# and category names or integer IDs. So every seed asks for the same work
# and yields the same purity, while the bytes the program reads differ.
STRUCTURE_SEED = 2018
EXPECTED_PATH = Path(__file__).with_name("expected.json")

CLUSTER_FILES = {
    "clusters": "clusters.json",
    "dendrogram": "dendrogram.json",
    "newick": "tree.nwk",
    "trace": "trace.json",
}


@dataclass(frozen=True)
class Sizes:
    """Input shape of one workload; the self-test shrinks it."""

    n: int
    m: int
    categories: int
    prototypes: int
    noise: float
    k: int | None = None


class CheckFailed(Exception):
    """An output of the program is wrong."""


# -- generators --------------------------------------------------------------


def _planted(rng: np.random.Generator, sizes: Sizes, separated: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Codes drawn from planted prototypes.

    Every prototype gets the same number of objects (up to one), and in
    every column exactly ``round(noise * n)`` cells are replaced by a
    different category. ``separated`` prototypes differ on every feature
    (needs prototypes <= categories).
    """
    n, m = sizes.n, sizes.m
    if separated:
        protos = np.stack([rng.permutation(sizes.categories)[: sizes.prototypes] for _ in range(m)], axis=1)
    else:
        protos = rng.integers(0, sizes.categories, size=(sizes.prototypes, m))
    labels = rng.permutation(np.arange(n) % sizes.prototypes)
    codes = protos[labels]
    flips = round(sizes.noise * n)
    for j in range(m):
        rows = rng.choice(n, size=flips, replace=False)
        codes[rows, j] = (codes[rows, j] + rng.integers(1, sizes.categories, size=flips)) % sizes.categories
    return codes.astype(np.int64), labels.astype(np.int64)


def _presented(seed: int, sizes: Sizes, separated: bool = False):
    """The planted structure with rows and columns shuffled by ``seed``;
    returns the codes, the labels and the generator for further draws."""
    codes, labels = _planted(np.random.default_rng(STRUCTURE_SEED), sizes, separated)
    rng = np.random.default_rng(seed)
    rows = rng.permutation(sizes.n)
    return codes[rows][:, rng.permutation(sizes.m)], labels[rows], rng


def _write_csv(path: Path, codes: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> None:
    """CSV with a label column; each column names its categories in its own
    random order."""
    names = [rng.permutation(int(codes.max()) + 1) for _ in range(codes.shape[1])]
    header = [f"f{j:02d}" for j in range(codes.shape[1])] + ["label"]
    lines = [",".join(header)]
    for row, lab in zip(codes.tolist(), labels.tolist()):
        lines.append(",".join(f"v{names[j][c]}" for j, c in enumerate(row)) + f",p{lab:02d}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Workload:
    name = ""
    sizes: Sizes
    # Kind of reference computation (reference.py) whose time the
    # operation's time is reported in.
    reference = "numpy"

    def generate(self, seed: int, inp: Path, sizes: Sizes | None = None) -> dict:
        """Write the inputs for ``seed`` into ``inp``; return their properties."""
        raise NotImplementedError

    def prepare(self, mbclust, inp: Path, out: Path):
        """Load inputs and return ``(operation, finish)``; only the
        zero-argument ``operation`` is timed, ``finish(result)`` writes what
        the checks read."""
        raise NotImplementedError

    def check(self, inp: Path, out: Path, seed: int) -> dict:
        """Raise CheckFailed on a wrong output; return digest and purity."""
        raise NotImplementedError


def _spec(inp: Path) -> dict:
    return json.loads((inp / "spec.json").read_text(encoding="utf-8"))


def _save_spec(inp: Path, seed: int, sizes: Sizes, labels: np.ndarray) -> None:
    (inp / "spec.json").write_text(json.dumps({"seed": seed, "sizes": asdict(sizes)}), encoding="utf-8")
    np.save(inp / "labels.npy", labels)


def input_digest(inp: Path) -> str:
    """SHA-256 over every generated input file, in name order."""
    h = hashlib.sha256()
    for path in sorted(inp.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- clustering output checks ------------------------------------------------


def load_cluster_outputs(out: Path) -> dict:
    """The four outputs of a clustering workload, parsed."""
    read = lambda key: (out / CLUSTER_FILES[key]).read_text(encoding="utf-8")
    return {
        "clusters": json.loads(read("clusters"))["clusters"],
        "dendrogram": json.loads(read("dendrogram")),
        "newick": read("newick").strip(),
        "trace": json.loads(read("trace")),
    }


def _exactly_once(blocks, n: int, what: str) -> None:
    seen = sorted(m for block in blocks for m in block)
    if seen != list(range(n)):
        raise CheckFailed(f"{what}: objects 0..{n - 1} do not each appear exactly once")


def check_clustering(outputs: dict, n: int) -> str:
    """Structural checks on a clustering; returns the output digest."""
    dendro = outputs["dendrogram"]
    levels = dendro["levels"]
    _exactly_once(outputs["clusters"], n, "partition")
    if dendro["n_leaves"] != n or not levels:
        raise CheckFailed("dendrogram does not cover the input")
    for depth, level in enumerate(levels):
        _exactly_once(level, n, f"dendrogram level {depth}")
    for depth in range(1, len(levels)):
        block_of = {}
        for b, block in enumerate(levels[depth]):
            for m in block:
                block_of[m] = b
        for block in levels[depth - 1]:
            if len({block_of[m] for m in block}) != 1:
                raise CheckFailed(f"dendrogram level {depth} splits a cluster of level {depth - 1}")
    thetas = [rec["theta"] for rec in outputs["trace"]]
    if not thetas or any(a <= b for a, b in zip(thetas, thetas[1:])):
        raise CheckFailed(f"theta does not strictly decrease: {thetas}")
    leaves = sorted(int(t) for t in re.findall(r"\d+", outputs["newick"]))
    if leaves != list(range(n)):
        raise CheckFailed("newick tree does not list every object exactly once")
    canonical = json.dumps(
        [outputs["clusters"], dendro, outputs["trace"]], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _partition_purity(clusters, labels: np.ndarray) -> float:
    from mbclust.evaluation import contingency, purity

    return purity(contingency([tuple(c) for c in clusters], [str(x) for x in labels.tolist()]))


def expected_digests() -> dict:
    """Output digests recorded at seed 0, keyed by input digest."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


class ClusteringWorkload(Workload):
    def check(self, inp: Path, out: Path, seed: int) -> dict:
        labels = np.load(inp / "labels.npy")
        outputs = load_cluster_outputs(out)
        digest = check_clustering(outputs, len(labels))
        recorded = expected_digests().get(input_digest(inp))
        if recorded is not None and recorded["output_sha256"] != digest:
            raise CheckFailed("output digest differs from the one recorded for this input")
        return {"digest": digest, "purity": _partition_purity(outputs["clusters"], labels)}


class PlantedCli(ClusteringWorkload):
    """The main loop's O(e^2) path through the CLI, default config.

    2500 objects x 20 string-valued features with 3 categories, drawn from
    20 prototypes with 15 % noise. Stresses build_sm, group_matching and
    the containment rule (which fires). Bypasses the pgp2 tie-break (no
    feature ties) and code compaction at ingress (codes are dense).
    """

    name = "planted-cli"
    sizes = Sizes(n=2500, m=20, categories=3, prototypes=20, noise=0.15)

    def generate(self, seed, inp, sizes=None):
        sizes = sizes or self.sizes
        codes, labels, rng = _presented(seed, sizes)
        _write_csv(inp / "data.csv", codes, labels, rng)
        _save_spec(inp, seed, sizes, labels)
        return _code_properties(codes)

    def prepare(self, mbclust, inp, out):
        argv = ["cluster", str(inp / "data.csv"), "--label-column", "label", "--format", "json",
                "--out", str(out / CLUSTER_FILES["clusters"]),
                "--dendrogram-out", str(out / CLUSTER_FILES["dendrogram"]),
                "--newick-out", str(out / CLUSTER_FILES["newick"]),
                "--trace-out", str(out / CLUSTER_FILES["trace"])]

        def operation():
            status = mbclust.cli.main(argv)
            if status != 0:
                raise RuntimeError(f"mbclust cluster exited with status {status}")

        return operation, None


class RedundantIds(ClusteringWorkload):
    """Library call with the pgp2 tie-break on twin features with sparse IDs.

    2500 objects; 10 planted base features with 4 categories (4 prototypes
    that differ on every feature, 25 % noise), each stored twice under two
    different sparse integer-ID maps with codes up to 1e5. Twin columns tie exactly, so
    select_drop runs the pgp2 tie-break (build_sm + pgp2 +
    update_sm_after_drop); sparse codes stress Dataset.from_codes and the
    bincount in match_pair_counts; k=20 exercises cut_at_k. Bypasses the
    containment rule (k implies anti_merge off) and CSV parsing.
    """

    name = "redundant-ids"
    sizes = Sizes(n=2500, m=10, categories=4, prototypes=4, noise=0.25, k=20)
    max_code = 100_000

    def generate(self, seed, inp, sizes=None):
        sizes = sizes or self.sizes
        base, labels, rng = _presented(seed, sizes, separated=True)
        twins = []
        for j in range(sizes.m):
            for _ in range(2):
                # Every map reaches max_code, so ingress cost is the same for every seed.
                ids = rng.choice(self.max_code, size=sizes.categories, replace=False)
                ids[rng.integers(sizes.categories)] = self.max_code
                twins.append(ids[base[:, j]])
        codes = np.stack(twins, axis=1)[:, rng.permutation(2 * sizes.m)].astype(np.int64)
        np.save(inp / "codes.npy", codes)
        _save_spec(inp, seed, sizes, labels)
        return _code_properties(codes)

    def prepare(self, mbclust, inp, out):
        codes = np.load(inp / "codes.npy")
        config = mbclust.core.MbcConfig(tie_policy="pgp2-single", anti_merge=False,
                                        k=_spec(inp)["sizes"]["k"])

        def operation():
            result = mbclust.core.run(codes, config)
            return result, result.dendrogram.to_dict(), result.dendrogram.to_newick()

        def finish(returned):
            result, dendro, newick = returned
            write = lambda key, text: (out / CLUSTER_FILES[key]).write_text(text + "\n", encoding="utf-8")
            write("clusters", json.dumps({"clusters": [list(c) for c in result.partition]}))
            write("dendrogram", json.dumps(dendro))
            write("newick", newick)
            write("trace", json.dumps([rec.to_dict() for rec in result.trace]))

        return operation, finish


class PairwiseMeasures(Workload):
    """The pure-Python per-pair goodall and lin measures through the CLI.

    300 objects x 20 features with 5 categories (10 prototypes, 30 %
    noise), written as a CSV; `mbclust similarity` runs with goodall and
    then lin and writes both 300 x 300 matrices as JSON. Bypasses the
    clustering loop entirely, so main-loop changes should not move it.
    """

    name = "pairwise-measures"
    sizes = Sizes(n=300, m=20, categories=5, prototypes=10, noise=0.3)
    reference = "python"
    measures = ("goodall", "lin")
    samples = 300

    def generate(self, seed, inp, sizes=None):
        sizes = sizes or self.sizes
        codes, labels, rng = _presented(seed, sizes)
        _write_csv(inp / "data.csv", codes, labels, rng)
        np.save(inp / "codes.npy", codes)
        _save_spec(inp, seed, sizes, labels)
        return _code_properties(codes)

    def prepare(self, mbclust, inp, out):
        argvs = [["similarity", str(inp / "data.csv"), "--label-column", "label", "--measure", measure,
                  "--format", "json", "--out", str(out / f"{measure}.json")] for measure in self.measures]

        def operation():
            for argv in argvs:
                status = mbclust.cli.main(argv)
                if status != 0:
                    raise RuntimeError(f"mbclust similarity exited with status {status}")

        return operation, None

    def check(self, inp, out, seed):
        codes = np.load(inp / "codes.npy")
        labels = np.load(inp / "labels.npy")
        n = len(codes)
        rng = np.random.default_rng([seed, n])
        pairs = rng.integers(0, n, size=(self.samples, 2))
        pairs[: self.samples // 10, 1] = pairs[: self.samples // 10, 0]  # some diagonal entries
        purities = []
        for measure in self.measures:
            doc = json.loads((out / f"{measure}.json").read_text(encoding="utf-8"))
            matrix = np.array(doc["matrix"], dtype=np.float64)
            if doc["n"] != n or matrix.shape != (n, n):
                raise CheckFailed(f"{measure}: expected a {n}x{n} matrix")
            if np.abs(matrix - matrix.T).max() > 1e-12:
                raise CheckFailed(f"{measure}: matrix is not symmetric")
            if matrix.min() < -1e-12 or matrix.max() > 1.0 + 1e-12:
                raise CheckFailed(f"{measure}: value outside [0, 1]")
            if measure == "lin" and not np.allclose(np.diag(matrix), 1.0, rtol=0.0, atol=1e-12):
                raise CheckFailed("lin: diagonal is not 1")
            for i, j in pairs.tolist():
                want = reference_similarity(measure, codes, i, j)
                if abs(matrix[i, j] - want) > 1e-9:
                    raise CheckFailed(f"{measure}[{i},{j}] = {matrix[i, j]!r}, reference gives {want!r}")
            purities.append(neighbour_purity(matrix, labels))
        return {"digest": None, "purity": float(np.mean(purities))}


def reference_similarity(measure: str, codes: np.ndarray, i: int, j: int) -> float:
    """goodall or lin of objects ``i`` and ``j``, straight from the formulas."""
    n, m = codes.shape
    freq = lambda f, c: int(np.count_nonzero(codes[:, f] == c))
    x, y = codes[i], codes[j]
    if measure == "goodall":
        total = sum(1.0 - freq(f, x[f]) * (freq(f, x[f]) - 1) / (n * (n - 1)) for f in range(m) if x[f] == y[f])
        return total / m
    num = den = 0.0
    for f in range(m):
        px, py = freq(f, x[f]) / n, freq(f, y[f]) / n
        num += 2.0 * math.log(px) if x[f] == y[f] else 2.0 * math.log(px + py)
        den += math.log(px) + math.log(py)
    return num / den


def neighbour_purity(matrix: np.ndarray, labels: np.ndarray) -> float:
    """Mean share of each object's most similar other objects that carry its
    planted label. Neighbours within 1e-9 of the best all count, so a
    different summation order cannot change the value."""
    sims = matrix.copy()
    np.fill_diagonal(sims, -np.inf)
    near = sims >= sims.max(axis=1, keepdims=True) - 1e-9
    same = labels[:, None] == labels[None, :]
    return float(np.mean((near & same).sum(axis=1) / near.sum(axis=1)))


def _code_properties(codes: np.ndarray) -> dict:
    return {
        "n": int(codes.shape[0]),
        "m": int(codes.shape[1]),
        "distinct_codes": int(sum(len(np.unique(codes[:, j])) for j in range(codes.shape[1]))),
        "largest_code": int(codes.max()),
    }


WORKLOADS = {w.name: w for w in (PlantedCli(), RedundantIds(), PairwiseMeasures())}
