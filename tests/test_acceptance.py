"""End-to-end acceptance checks.

Each test covers one numbered criterion and emits a single PASS/FAIL
line (echoed in the terminal summary); the assertion carries the same
verdict. Criterion 5 needs ``tests/data/soybean-small.csv``, staged by
``scripts/fetch_soybean.py`` on a machine with network access; without
the file the criterion fails rather than being skipped.
"""

import random
from fractions import Fraction
from time import perf_counter

import numpy as np

from mbclust import (
    ClusteringState,
    Dataset,
    DegenerateDataError,
    MbcConfig,
    anti_merge_update,
    build_sm,
    contingency,
    goodall,
    group_matching,
    importance_report,
    initial_state,
    lin,
    load_csv,
    overlap,
    pgp,
    purity,
    run,
    update_sm_after_drop,
)
import matrix_loop
from conftest import ACCEPTANCE_LINES, SOYBEAN_CSV, random_codes
from oracles import (
    GOODALL_HALF,
    PAIR_MEASURES_D42,
    PARTITION_A,
    PGP_A,
    PGP_A_2DP,
    SM_A_AFTER_FIRST_DROP,
    SM_A_FULL,
    SM_A_SEVERED,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _drop(state: ClusteringState, original_ids) -> ClusteringState:
    keep = [p for p, f in enumerate(state.remaining_features) if f not in set(original_ids)]
    return ClusteringState(
        entities=state.entities,
        profiles=state.profiles[:, keep].copy(),
        remaining_features=tuple(state.remaining_features[p] for p in keep),
    )


def _matrix_drop(state: matrix_loop.ClusteringState, original_ids) -> matrix_loop.ClusteringState:
    keep = [p for p, f in enumerate(state.remaining_features) if f not in set(original_ids)]
    profiles = state.profiles[:, keep].copy()
    return matrix_loop.ClusteringState(
        entities=state.entities,
        profiles=profiles,
        remaining_features=tuple(state.remaining_features[p] for p in keep),
        sm=build_sm(profiles),
        iteration=state.iteration + 1,
    )


def test_c1_pair_measures_on_four_object_example(d42):
    rows = [d42.row(i) for i in range(4)]
    problems = []
    pos = 0
    for i in range(4):
        for j in range(i + 1, 4):
            expected = PAIR_MEASURES_D42[pos]
            got = (overlap(rows[i], rows[j]),
                   lin(rows[i], rows[j], d42),
                   goodall(rows[i], rows[j], d42))
            for name, got_v, want_v in zip(("overlap", "lin", "goodall"), got, expected):
                if abs(got_v - want_v) > 0.005:
                    problems.append(f"pair ({i},{j}) {name}: {got_v:.4f} vs {want_v:.4f}")
            pos += 1
    if abs(goodall(rows[0], rows[2], d42) - GOODALL_HALF) > 1e-12:
        problems.append("goodall on a single-match pair is not exactly 5/12")
    _report(1, not problems,
            "all 6 pairs match under overlap/lin/goodall within 0.005"
            if not problems else "; ".join(problems))


def test_c2_match_count_matrix_exact(dataset_a):
    sm = build_sm(dataset_a.codes_matrix)
    ok = sm.size == 10 and np.array_equal(sm.values, SM_A_FULL)
    _report(2, ok,
            "10x10 match-count matrix reproduced integer-for-integer"
            if ok else f"matrix mismatch: {sm.values.tolist()}")


def test_c3_importance_values_exact(dataset_a):
    values = pgp(dataset_a)
    problems = []
    if values != PGP_A:
        problems.append(f"exact values {[str(v) for v in values]} != 21/71, 21/71, 10/71, 10/71, 9/71")
    if sum(values) != Fraction(1):
        problems.append("shares do not sum to 1 exactly")
    rendered = tuple(f"{float(v):.2f}" for v in values)
    if rendered != PGP_A_2DP:
        problems.append(f"2-decimal rendering {rendered} != {PGP_A_2DP}")
    _report(3, not problems,
            "pgp = (21,21,10,10,9)/71 exactly, rendering 0.30/0.30/0.14/0.14/0.13"
            if not problems else "; ".join(problems))


def test_c4_worked_trace(dataset_a):
    problems = []

    result = run(dataset_a)
    first_merges = sorted(ev.members for ev in result.dendrogram.merge_events if ev.iteration == 0)
    if first_merges != [(0, 1), (6, 9)]:
        problems.append(f"first-round merges {first_merges} != [(0,1), (6,9)]")

    # replay the loop's states through the public pieces
    grouped0 = group_matching(initial_state(dataset_a))
    state1 = _drop(grouped0, {4})
    if not np.array_equal(build_sm(state1.profiles).values, SM_A_AFTER_FIRST_DROP):
        problems.append("8-entity matrix after the first drop is wrong")
    incremental = update_sm_after_drop(build_sm(grouped0.profiles), grouped0.profiles, [4])
    if not np.array_equal(incremental.values, SM_A_AFTER_FIRST_DROP):
        problems.append("incremental update disagrees with the 8-entity matrix")

    grouped1 = group_matching(state1)
    if grouped1.entities != ((0, 1, 2, 3), (4, 6, 9), (5, 7), (8,)):
        problems.append(f"second-round clusters {grouped1.entities}")

    # the matrix reference severs every link of the colliding clusters ...
    matrix1 = matrix_loop.group_matching(
        _matrix_drop(matrix_loop.group_matching(matrix_loop.initial_state(dataset_a)), {4}))
    severed = matrix_loop.anti_merge_update(_matrix_drop(matrix1, {2, 3}))
    if not np.array_equal(severed.sm.values, SM_A_SEVERED):
        problems.append(f"post-severing matrix {severed.sm.values.tolist()} is not all zeros")
    # ... and the library freezes exactly those clusters, so nothing merges
    frozen = anti_merge_update(_drop(grouped1, {2, 3}))
    frozen_clusters = {frozen.entities[idx] for idx in frozen.frozen}
    if frozen_clusters != {(4, 6, 9), (5, 7)}:
        problems.append(f"frozen clusters {sorted(frozen_clusters)} != [(4, 6, 9), (5, 7)]")
    if group_matching(frozen) is not frozen:
        problems.append("grouping merged entities while the colliding clusters were frozen")

    if result.partition != PARTITION_A:
        problems.append(f"final partition {result.partition} != {PARTITION_A}")

    _report(4, not problems,
            "merges, intermediate matrices, severing and freezing, and final 4-cluster partition all reproduced"
            if not problems else "; ".join(problems))


def test_c5_soybean_small():
    if not SOYBEAN_CSV.exists():
        _report(5, False,
                f"{SOYBEAN_CSV} is missing and cannot be fetched from this sandbox "
                "(no outbound network); stage it with scripts/fetch_soybean.py and rerun")
        return

    data = load_csv(SOYBEAN_CSV, label_column="class")
    problems = []
    if (data.n, data.m) != (47, 35):
        problems.append(f"expected 47x35, loaded {data.n}x{data.m}")

    started = perf_counter()
    result = run(data)
    seconds = perf_counter() - started
    if seconds >= 1.0:
        problems.append(f"run took {seconds:.2f}s (budget 1s)")

    table = contingency(result.partition, data.labels)
    pur = purity(table)
    if pur < 0.95:
        problems.append(f"purity {pur:.4f} < 0.95")
    impure = int(sum(1 for col in table.counts.T if int((col > 0).sum()) > 1))
    if impure > 1:
        problems.append(f"{impure} impure clusters (at most 1 allowed)")

    cluster_counts = {
        policy: len(run(data, MbcConfig(tie_policy=policy)).partition)
        for policy in ("drop-all", "pgp2-single")
    }
    if not 15 <= cluster_counts["drop-all"] <= 20:
        problems.append(f"default cluster count {cluster_counts['drop-all']} outside 15..20")

    detail = (f"purity {pur:.4f}, {impure} impure cluster(s), "
              f"clusters drop-all={cluster_counts['drop-all']} "
              f"pgp2-single={cluster_counts['pgp2-single']}, {seconds:.3f}s")
    _report(5, not problems, detail if not problems else detail + "; " + "; ".join(problems))


def _sequential_grouping(codes: np.ndarray, shuffler: random.Random) -> set[frozenset]:
    """Merge one fully agreeing pair at a time, rescanning after each merge."""
    theta = codes.shape[1]
    entities = [((i,), tuple(int(c) for c in codes[i])) for i in range(codes.shape[0])]
    while True:
        pairs = [(a, b) for a in range(len(entities)) for b in range(a + 1, len(entities))]
        shuffler.shuffle(pairs)
        for a, b in pairs:
            pa, pb = entities[a][1], entities[b][1]
            if sum(x == y for x, y in zip(pa, pb)) == theta:
                fused = (tuple(sorted(entities[a][0] + entities[b][0])), pa)
                entities = [entities[i] for i in range(len(entities)) if i not in (a, b)]
                entities.append(fused)
                break
        else:
            return {frozenset(members) for members, _ in entities}


def test_c6_oracle_equivalence():
    rng = np.random.default_rng(20250825)
    shuffler = random.Random(99)
    problems = []
    for trial in range(200):
        codes = random_codes(rng)
        sm = build_sm(codes)
        m = codes.shape[1]
        if m >= 2:
            drop = sorted(shuffler.sample(range(m), shuffler.randrange(1, m)))
            kept = [c for c in range(m) if c not in drop]
            incremental = update_sm_after_drop(sm, codes, drop)
            rebuilt = build_sm(codes[:, kept])
            if not (np.array_equal(incremental.values, rebuilt.values)
                    and incremental.theta == rebuilt.theta):
                problems.append(f"trial {trial}: incremental update != rebuild for drop {drop}")
                break
        grouped = {frozenset(e) for e in group_matching(initial_state(codes)).entities}
        if grouped != _sequential_grouping(codes, shuffler):
            problems.append(f"trial {trial}: component grouping != sequential merging")
            break
    _report(6, not problems,
            "200 random datasets: incremental updates bit-identical, grouping matches sequential merging"
            if not problems else "; ".join(problems))


def test_c7_invariant_suite():
    rng = np.random.default_rng(777)
    problems = []

    for trial in range(50):
        codes = random_codes(rng, max_n=30, max_m=8, max_k=4)
        result = run(codes)

        # exact unit sums whenever the shares are defined
        report = importance_report(codes)
        if report.pgp is not None and sum(report.pgp) != Fraction(1):
            problems.append(f"trial {trial}: pgp does not sum to 1")
        if report.ppp is not None and sum(report.ppp) != Fraction(1):
            problems.append(f"trial {trial}: ppp does not sum to 1")

        # symmetry and range of the pairwise measures
        data = Dataset.from_codes(codes)
        i, j = (int(v) for v in rng.integers(0, data.n, size=2))
        x, y = data.row(i), data.row(j)
        pairs = [("overlap", overlap(x, y), overlap(y, x)),
                 ("goodall", goodall(x, y, data), goodall(y, x, data))]
        try:
            pairs.append(("lin", lin(x, y, data), lin(y, x, data)))
        except DegenerateDataError:
            pass
        for name, fw, bw in pairs:
            if fw != bw:
                problems.append(f"trial {trial}: {name} not symmetric")
            if not 0.0 <= fw <= 1.0 + 1e-12:
                problems.append(f"trial {trial}: {name} = {fw} outside [0,1]")

        # row-permutation invariance of the final partition
        perm = rng.permutation(codes.shape[0])
        base = {frozenset(members) for members in result.partition}
        permuted = run(codes[perm]).partition
        mapped = {frozenset(int(perm[m]) for m in members) for members in permuted}
        if mapped != base:
            problems.append(f"trial {trial}: partition changed under row permutation")

        # theta strictly decreasing, levels coarsening
        thetas = [rec.theta for rec in result.trace]
        if not all(a > b for a, b in zip(thetas, thetas[1:])):
            problems.append(f"trial {trial}: theta not strictly decreasing: {thetas}")
        levels = result.dendrogram.levels
        for fine, coarse in zip(levels, levels[1:]):
            if not all(any(set(f) <= set(c) for c in coarse) for f in fine):
                problems.append(f"trial {trial}: levels are not coarsenings")

        if problems:
            break

    _report(7, not problems,
            "unit sums exact, measures symmetric and in [0,1], partitions permutation-invariant, "
            "theta decreasing, levels coarsen (50 random datasets)"
            if not problems else "; ".join(problems[:3]))


def test_c8_matrix_build_performance():
    rng = np.random.default_rng(8)
    codes = rng.integers(0, 4, size=(2000, 20)).astype(np.int64)
    started = perf_counter()
    sm = build_sm(codes)
    seconds = perf_counter() - started
    ok = seconds < 10.0 and sm.values.shape == (2000 * 1999 // 2,)
    _report(8, ok, f"2000x20 match-count matrix built in {seconds:.2f}s (budget 10s)")
