"""Reference implementation of the clustering loop on a match-count matrix.

This is the loop as it stood before the library switched to grouping
entities by profile identity: every round rebuilds the full e x e
match-count matrix, merges the connected components of its
full-agreement pairs with a union-find, and enforces the containment
rule by severing full-agreement entries in the matrix. Its dendrogram
keeps every level as member tuples and records each merge as it
happens, as the library's did before it stored levels as labels. It is
kept verbatim, with only its imports adapted and its branch for ranking
features over the original objects removed, so that property tests
can check the library's loop, and everything the library derives from
its labels, against it under every configuration. ``condensed_index``,
which the library no longer needs, lives here with the loop that reads
its matrix through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain

import numpy as np

from mbclust import (
    IMPORTANCE_PPP,
    STOP_ALL_CLUSTERED,
    STOP_TIED_IMPORTANCE,
    TIES_DROP_ALL,
    Dataset,
    DegenerateDataError,
    ImportanceReport,
    IterationRecord,
    MbcConfig,
    MbcError,
    SimilarityMatrix,
    build_sm,
    importance_report,
)
from pgp2_matrix import pgp2


def condensed_index(size: int, i, j):
    """Position of pair ``(i, j)``, ``i < j``, in a condensed upper triangle.

    Rows are laid out in order ``(0,1), (0,2), .., (0,size-1), (1,2), ..``.
    Accepts scalars or equally shaped arrays.
    """
    return i * (2 * size - i - 3) // 2 + j - 1


@dataclass(frozen=True)
class MergeEvent:
    """One merge in the dendrogram.

    Leaves are numbered ``0..n-1``; each merge gets the next free node
    id. ``children`` lists the merged nodes in entity order and may have
    more than two entries, since full agreement can join several
    entities at once.
    """

    iteration: int
    parent: int
    children: tuple[int, ...]
    members: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "parent": self.parent,
            "children": list(self.children),
            "members": list(self.members),
        }


@dataclass(frozen=True)
class Dendrogram:
    """Merge history of a run.

    ``levels[0]`` is the all-singleton partition; ``levels[p + 1]`` is
    the partition after iteration ``p``. ``anti_merge_used`` records
    whether the containment rule actually froze a cluster, in which case
    the recorded structure understates the merges and must not be cut.
    """

    n_leaves: int
    levels: tuple[tuple[tuple[int, ...], ...], ...]
    merge_events: tuple[MergeEvent, ...]
    anti_merge_used: bool = False

    def to_dict(self) -> dict:
        return {
            "n_leaves": self.n_leaves,
            "levels": [[list(ent) for ent in level] for level in self.levels],
            "merges": [ev.to_dict() for ev in self.merge_events],
            "anti_merge_used": self.anti_merge_used,
        }

    def to_newick(self) -> str:
        """Newick rendering; leaves are object row indices.

        The roots are the nodes that no merge lists as a child, in order
        of their smallest member. Multiple roots are joined under one
        synthetic root so the output is always a single tree.
        """
        by_parent = {ev.parent: ev for ev in self.merge_events}
        children = {child for ev in self.merge_events for child in ev.children}
        roots = sorted([(i, i) for i in range(self.n_leaves) if i not in children]
                       + [(ev.members[0], ev.parent) for ev in self.merge_events if ev.parent not in children])

        def render(node: int) -> str:
            if node < self.n_leaves:
                return str(node)
            ev = by_parent[node]
            return "(" + ",".join(render(child) for child in ev.children) + ")"

        if len(roots) == 1:
            return render(roots[0][1]) + ";"
        return "(" + ",".join(render(node) for _, node in roots) + ");"


def cut_at_k(dendrogram: Dendrogram, k: int) -> int:
    """Index of the level whose cluster count is closest to ``k``.

    Levels are scanned from fine to coarse and a tie in closeness goes
    to the coarser level. Refuses dendrograms censored by the
    containment rule, because their levels misstate the merge history.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not dendrogram.levels:
        raise ValueError("dendrogram has no levels")
    if dendrogram.anti_merge_used:
        raise MbcError("dendrogram was censored by the containment rule; rerun with anti_merge=False")
    best = 0
    best_d = abs(len(dendrogram.levels[0]) - k)
    for p, level in enumerate(dendrogram.levels[1:], start=1):
        d = abs(len(level) - k)
        if d <= best_d:
            best = p
            best_d = d
    return best


@dataclass(frozen=True)
class MbcResult:
    """Outcome of a clustering run; its partition is dendrogram level ``level``."""

    partition: tuple[tuple[int, ...], ...]
    level: int
    dendrogram: Dendrogram
    trace: tuple[IterationRecord, ...]
    config: MbcConfig
    stop_reason: str

    @property
    def assignments(self) -> np.ndarray:
        """Per-object cluster ids, 1-based, in partition order."""
        sizes = [len(members) for members in self.partition]
        objects = np.fromiter(chain.from_iterable(self.partition), dtype=np.intp, count=sum(sizes))
        out = np.zeros(self.dendrogram.n_leaves, dtype=np.int64)
        out[objects] = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        return out


@dataclass(frozen=True, eq=False)
class ClusteringState:
    """Snapshot of the loop between iterations.

    ``entities`` are the current clusters as ascending member tuples,
    ordered by smallest member. ``profiles`` holds one code row per
    entity over the remaining features; ``remaining_features`` maps its
    columns back to original feature indices. ``sm`` is the match-count
    matrix over the entities (its entries may have been severed by the
    containment rule).
    """

    entities: tuple[tuple[int, ...], ...]
    profiles: np.ndarray
    remaining_features: tuple[int, ...]
    sm: SimilarityMatrix
    iteration: int = 0

    def __post_init__(self):
        e = len(self.entities)
        if self.profiles.shape != (e, len(self.remaining_features)):
            raise ValueError(
                f"profiles shape {self.profiles.shape} does not match "
                f"{e} entities x {len(self.remaining_features)} features"
            )
        if self.sm.size != e:
            raise ValueError(f"similarity matrix covers {self.sm.size} entities, state has {e}")
        if self.sm.theta != len(self.remaining_features):
            raise ValueError(f"similarity matrix counts {self.sm.theta} features, state keeps {len(self.remaining_features)}")

    @property
    def theta(self) -> int:
        """Number of remaining features; the full-agreement match count."""
        return len(self.remaining_features)

    def partition(self) -> tuple[tuple[int, ...], ...]:
        """Current clusters as member tuples."""
        return self.entities


def initial_state(data) -> ClusteringState:
    """All-singleton state over a dataset or raw code matrix."""
    codes = np.array(getattr(data, "codes_matrix", data), dtype=np.int64)
    if codes.ndim != 2:
        raise ValueError("data must form a 2-D code matrix")
    n, m = codes.shape
    return ClusteringState(
        entities=tuple((i,) for i in range(n)),
        profiles=codes,
        remaining_features=tuple(range(m)),
        sm=build_sm(codes),
        iteration=0,
    )


class _UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def group_matching(state: ClusteringState) -> ClusteringState:
    """Merge every entity group in full agreement on the remaining features.

    Full agreement is transitive (it means identical profiles), so the
    merged groups are the connected components of the pairs whose match
    count equals ``theta``; any pairwise merge order gives the same
    result. Returns the input state unchanged when nothing matches.
    """
    e = len(state.entities)
    if e < 2:
        return state
    hits = np.flatnonzero(state.sm.values == state.theta)
    if hits.size == 0:
        return state

    ii, jj = np.triu_indices(e, k=1)
    uf = _UnionFind(e)
    for i, j in zip(ii[hits], jj[hits]):
        uf.union(int(i), int(j))

    by_root: dict[int, list[int]] = {}
    for idx in range(e):
        by_root.setdefault(uf.find(idx), []).append(idx)
    # Entities are ordered by smallest member, so ordering components by
    # their smallest old index preserves that invariant after merging.
    components = sorted(by_root.values(), key=lambda comp: comp[0])

    entities = tuple(
        tuple(sorted(m for idx in comp for m in state.entities[idx])) for comp in components
    )
    reps = np.array([comp[0] for comp in components], dtype=np.int64)
    profiles = state.profiles[reps, :].copy()

    k = len(components)
    if k >= 2:
        # Members of a component share one profile, and any surviving
        # full-agreement entry joins its endpoints, so every cross pair of
        # two components carries one value; read it off the representatives.
        ni, nj = np.triu_indices(k, k=1)
        old_i = reps[ni]
        old_j = reps[nj]
        values = state.sm.values[condensed_index(e, np.minimum(old_i, old_j), np.maximum(old_i, old_j))]
    else:
        values = np.zeros(0, dtype=np.int64)
    values.setflags(write=False)
    sm = SimilarityMatrix(size=k, values=values, theta=state.theta)

    return replace(state, entities=entities, profiles=profiles, sm=sm)


def anti_merge_update(state: ClusteringState) -> ClusteringState:
    """Sever full-agreement links around colliding clusters.

    When two multi-member clusters agree on every remaining feature,
    both are frozen for the next round: every entry equal to ``theta``
    in their rows and columns, including links to singletons, is zeroed.
    Returns the input state unchanged when no such collision exists.
    """
    e = len(state.entities)
    if e < 2:
        return state
    values = state.sm.values
    theta_hits = values == state.theta
    if not theta_hits.any():
        return state

    is_cluster = np.array([len(ent) > 1 for ent in state.entities], dtype=bool)
    ii, jj = np.triu_indices(e, k=1)
    triggering = theta_hits & is_cluster[ii] & is_cluster[jj]
    if not triggering.any():
        return state

    marked = np.zeros(e, dtype=bool)
    marked[ii[triggering]] = True
    marked[jj[triggering]] = True
    new_values = values.copy()
    new_values[theta_hits & (marked[ii] | marked[jj])] = 0
    new_values.setflags(write=False)
    sm = SimilarityMatrix(size=e, values=new_values, theta=state.sm.theta)
    return replace(state, sm=sm)


def select_drop(state: ClusteringState, report: ImportanceReport, config: MbcConfig) -> tuple[int, ...]:
    """Original indices of the features to remove this iteration.

    The least important features are the ones with the smallest raw
    pair count under the configured measure. An empty result signals
    termination: either all remaining features are equally important or
    the policy would have to drop every one of them. Under the
    ``pgp2-single`` policy a tie is broken in favor of the candidate
    whose removal preserves the largest share of marked similarity
    pairs, scored over the current entity profiles; any leftover tie
    falls to the lowest feature index.
    """
    if config.importance_measure == IMPORTANCE_PPP:
        numerators = report.mismatch_pairs
    else:
        numerators = report.match_pairs
    if len(numerators) != state.theta:
        raise ValueError(f"report covers {len(numerators)} features, state keeps {state.theta}")
    lowest = min(numerators)
    if lowest == max(numerators):
        return ()
    tied = [pos for pos, v in enumerate(numerators) if v == lowest]

    if config.tie_policy == TIES_DROP_ALL or len(tied) == 1:
        chosen = tied
    else:
        # Score each tied candidate on an unsevered match-count matrix;
        # severed entries would make the no-drop baseline fall below 1.
        sm = build_sm(state.profiles)
        best_pos = tied[0]
        best_score: Fraction | None = None
        for pos in tied:
            try:
                score = pgp2(state.profiles, sm=sm, candidates=(pos,), alpha=config.alpha)
            except DegenerateDataError:
                break
            if best_score is None or score > best_score:
                best_score = score
                best_pos = pos
        chosen = [best_pos]
    if len(chosen) >= state.theta:
        return ()
    return tuple(state.remaining_features[pos] for pos in chosen)


def run(data, config: MbcConfig | None = None) -> MbcResult:
    """Cluster a dataset (or raw code matrix) and return the full result.

    Each iteration ranks the remaining features over the current
    entities, merges all fully agreeing entities, and removes the least
    important features; the match-count matrix is then rebuilt over the
    kept columns, which matches the incremental update exactly. With
    ``config.k`` set, the returned partition is the dendrogram level
    closest to ``k`` clusters instead of the loop's final state.
    """
    config = config or MbcConfig()
    if not hasattr(data, "codes_matrix"):
        data = Dataset.from_codes(np.asarray(data, dtype=np.int64))

    state = initial_state(data)
    n = len(state.entities)
    levels: list[tuple[tuple[int, ...], ...]] = [state.partition()]
    merge_events: list[MergeEvent] = []
    trace: list[IterationRecord] = []
    node_ids = list(range(n))
    next_node = n
    anti_merge_used = False

    while True:
        names = tuple(data.feature_names[f] for f in state.remaining_features)
        report = importance_report(state.profiles, feature_names=names)

        grouped = group_matching(state)
        if grouped is not state:
            member_to_old = {m: oi for oi, ent in enumerate(state.entities) for m in ent}
            new_node_ids = []
            for ent in grouped.entities:
                olds = sorted({member_to_old[m] for m in ent})
                if len(olds) == 1:
                    new_node_ids.append(node_ids[olds[0]])
                    continue
                merge_events.append(
                    MergeEvent(
                        iteration=state.iteration,
                        parent=next_node,
                        children=tuple(node_ids[oi] for oi in olds),
                        members=ent,
                    )
                )
                new_node_ids.append(next_node)
                next_node += 1
            node_ids = new_node_ids
        levels.append(grouped.partition())

        if all(len(ent) >= 2 for ent in grouped.entities):
            trace.append(IterationRecord(state.iteration, report, ()))
            state = grouped
            stop_reason = STOP_ALL_CLUSTERED
            break

        dropped_ids = select_drop(grouped, report, config)
        dropped_names = tuple(data.feature_names[f] for f in dropped_ids)
        trace.append(IterationRecord(state.iteration, report, dropped_names))
        if not dropped_ids:
            state = grouped
            stop_reason = STOP_TIED_IMPORTANCE
            break

        drop_set = set(dropped_ids)
        kept_positions = [pos for pos, f in enumerate(grouped.remaining_features) if f not in drop_set]
        remaining = tuple(grouped.remaining_features[pos] for pos in kept_positions)
        profiles = grouped.profiles[:, kept_positions].copy()
        state = ClusteringState(
            entities=grouped.entities,
            profiles=profiles,
            remaining_features=remaining,
            sm=build_sm(profiles),
            iteration=grouped.iteration + 1,
        )
        if config.anti_merge:
            severed = anti_merge_update(state)
            if severed is not state:
                anti_merge_used = True
                state = severed

    dendrogram = Dendrogram(
        n_leaves=n,
        levels=tuple(levels),
        merge_events=tuple(merge_events),
        anti_merge_used=anti_merge_used,
    )
    level = cut_at_k(dendrogram, config.k) if config.k is not None else len(levels) - 1
    return MbcResult(
        partition=dendrogram.levels[level] if config.k is not None else state.partition(),
        level=level,
        dendrogram=dendrogram,
        trace=tuple(trace),
        config=config,
        stop_reason=stop_reason,
    )
