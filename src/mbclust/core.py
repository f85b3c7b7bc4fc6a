"""The matching based clustering loop.

Objects are clustered by exact profile agreement: at each iteration,
entities whose profiles match on every remaining feature are merged,
then the least important features are removed so that looser agreement
can surface at the next round. The loop stops when every object sits in
a multi-member cluster or when the remaining features can no longer be
told apart by importance; objects still alone at that point stay
singleton clusters.

An optional containment rule keeps already-formed clusters from
absorbing each other: when two multi-member clusters reach full
agreement, they are frozen for that round and merge with nothing. This
trades dendrogram structure for cluster stability, so results produced
with the rule enabled cannot be cut at a chosen cluster count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, as_codes
from .errors import MbcError
from .importance import ImportanceReport, importance_report, pgp2_kept_counts

IMPORTANCE_PGP = "pgp"
IMPORTANCE_PPP = "ppp"

TIES_DROP_ALL = "drop-all"
TIES_PGP2 = "pgp2-single"

POPULATION_ENTITIES = "entities"
POPULATION_ORIGINAL = "original"

STOP_ALL_CLUSTERED = "all objects clustered"
STOP_TIED_IMPORTANCE = "remaining features equally important"


@dataclass(frozen=True)
class MbcConfig:
    """Knobs of the clustering loop.

    ``importance_measure`` ranks features by matching-pair share
    (``pgp``) or mismatching-pair share (``ppp``). ``tie_policy`` says
    what to do when several features tie for least important: drop them
    all at once, or score each tied feature by how much similarity
    structure survives its removal and drop the single best one.
    ``anti_merge`` enables the cluster containment rule. ``alpha`` is
    the match-count threshold of the tie-break scoring. ``k`` asks for
    a partition of about that many clusters, read off the dendrogram;
    setting it disables ``anti_merge`` because a censored dendrogram
    cannot be cut. ``importance_population`` chooses whether importance
    is computed over the current entities (default) or over the
    original objects restricted to the remaining features.
    """

    importance_measure: str = IMPORTANCE_PGP
    tie_policy: str = TIES_DROP_ALL
    anti_merge: bool = True
    alpha: float = 0.0
    k: int | None = None
    importance_population: str = POPULATION_ENTITIES

    def validated(self) -> "MbcConfig":
        """Normalized copy; raises ``ValueError`` on unusable settings."""
        measure = self.importance_measure.lower()
        policy = self.tie_policy.lower()
        if policy == "pgp2":
            policy = TIES_PGP2
        population = self.importance_population.lower()
        if measure not in (IMPORTANCE_PGP, IMPORTANCE_PPP):
            raise ValueError(f"unknown importance measure {self.importance_measure!r}")
        if policy not in (TIES_DROP_ALL, TIES_PGP2):
            raise ValueError(f"unknown tie policy {self.tie_policy!r}")
        if population not in (POPULATION_ENTITIES, POPULATION_ORIGINAL):
            raise ValueError(f"unknown importance population {self.importance_population!r}")
        k = self.k
        if k is not None:
            k = int(k)
            if k < 1:
                raise ValueError("k must be at least 1")
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be a finite number, got {self.alpha!r}")
        anti_merge = bool(self.anti_merge) and k is None
        return MbcConfig(
            importance_measure=measure,
            tie_policy=policy,
            anti_merge=anti_merge,
            alpha=alpha,
            k=k,
            importance_population=population,
        )


@dataclass(frozen=True, eq=False)
class ClusteringState:
    """Snapshot of the loop between iterations.

    ``entities`` are the current clusters as ascending member tuples,
    ordered by smallest member. ``profiles`` holds one code row per
    entity over the remaining features; ``remaining_features`` maps its
    columns back to original feature indices. ``frozen`` holds the
    indices of entities that the containment rule keeps from merging
    this round.
    """

    entities: tuple[tuple[int, ...], ...]
    profiles: np.ndarray
    remaining_features: tuple[int, ...]
    iteration: int = 0
    frozen: frozenset[int] = frozenset()

    def __post_init__(self):
        e = len(self.entities)
        if self.profiles.shape != (e, len(self.remaining_features)):
            raise ValueError(
                f"profiles shape {self.profiles.shape} does not match "
                f"{e} entities x {len(self.remaining_features)} features"
            )
        if any(not 0 <= idx < e for idx in self.frozen):
            raise ValueError(f"frozen entity indices {sorted(self.frozen)} outside 0..{e - 1}")

    @property
    def theta(self) -> int:
        """Number of remaining features; the full-agreement match count."""
        return len(self.remaining_features)

    def partition(self) -> tuple[tuple[int, ...], ...]:
        """Current clusters as member tuples."""
        return self.entities


def initial_state(data) -> ClusteringState:
    """All-singleton state over a dataset or raw code matrix."""
    codes = as_codes(data).copy()
    n, m = codes.shape
    return ClusteringState(
        entities=tuple((i,) for i in range(n)),
        profiles=codes,
        remaining_features=tuple(range(m)),
    )


def _profile_groups(state: ClusteringState) -> np.ndarray:
    """Per entity, the id of its group of identical profiles."""
    _, group = np.unique(state.profiles, axis=0, return_inverse=True)
    return group.reshape(-1)


def group_matching(state: ClusteringState) -> ClusteringState:
    """Merge every entity group in full agreement on the remaining features.

    Full agreement means identical profiles, so the merged groups are the
    groups of identical profile rows and the merge order is irrelevant.
    Frozen entities stay apart. Returns the input state unchanged when
    nothing merges.
    """
    e = len(state.entities)
    if e < 2:
        return state
    group = _profile_groups(state).tolist()
    for idx in state.frozen:
        group[idx] = -1 - idx  # a group of its own
    by_group: dict[int, list[int]] = {}
    for idx, g in enumerate(group):
        by_group.setdefault(g, []).append(idx)
    if len(by_group) == e:
        return state

    # Entities are ordered by smallest member, and components come in
    # order of their smallest old index, which preserves that invariant.
    components = list(by_group.values())
    entities = tuple(
        tuple(sorted(m for idx in comp for m in state.entities[idx])) for comp in components
    )
    profiles = state.profiles[[comp[0] for comp in components], :]
    return replace(state, entities=entities, profiles=profiles, frozen=frozenset())


def anti_merge_update(state: ClusteringState) -> ClusteringState:
    """Freeze colliding clusters for the next round.

    When two or more multi-member clusters agree on every remaining
    feature, all of them are frozen: :func:`group_matching` merges them
    neither with each other nor with the singletons of their profile
    group, while those singletons still merge among themselves. Returns
    the input state unchanged when no new entity is frozen.
    """
    is_cluster = np.array([len(ent) > 1 for ent in state.entities], dtype=bool)
    if is_cluster.sum() < 2:
        return state
    group = _profile_groups(state)
    clusters_per_group = np.bincount(group[is_cluster], minlength=group.max() + 1)
    colliding = np.flatnonzero(is_cluster & (clusters_per_group[group] >= 2))
    frozen = state.frozen | {int(idx) for idx in colliding}
    if frozen == state.frozen:
        return state
    return replace(state, frozen=frozen)


def select_drop(state: ClusteringState, report: ImportanceReport, config: MbcConfig) -> tuple[int, ...]:
    """Original indices of the features to remove this iteration.

    The least important features are the ones with the smallest raw
    pair count under the configured measure. An empty result signals
    termination: either all remaining features are equally important or
    the policy would have to drop every one of them. Under the
    ``pgp2-single`` policy a tie is broken in favor of the candidate
    whose removal preserves the largest share of marked similarity
    pairs, scored over the current entity profiles; any leftover tie
    falls to the lowest feature index. All candidates share the count
    of marked pairs before the drop, so the largest share is the
    largest count of marked pairs kept, and one
    :func:`~mbclust.importance.pgp2_kept_counts` sweep over the entity
    pairs scores every tied candidate without a match-count matrix.
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
        kept, _ = pgp2_kept_counts(state.profiles, tied, config.alpha)
        chosen = [tied[kept.index(max(kept))]]
    if len(chosen) >= state.theta:
        return ()
    return tuple(state.remaining_features[pos] for pos in chosen)


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

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def to_dict(self) -> dict:
        return {
            "n_leaves": self.n_leaves,
            "levels": [[list(ent) for ent in level] for level in self.levels],
            "merges": [ev.to_dict() for ev in self.merge_events],
            "anti_merge_used": self.anti_merge_used,
        }

    def to_newick(self) -> str:
        """Newick rendering; leaves are object row indices.

        Multiple surviving roots are joined under one synthetic root so
        the output is always a single tree.
        """
        by_parent = {ev.parent: ev for ev in self.merge_events}
        node_of = {frozenset((i,)): i for i in range(self.n_leaves)}
        for ev in self.merge_events:
            node_of[frozenset(ev.members)] = ev.parent

        def render(node: int) -> str:
            if node < self.n_leaves:
                return str(node)
            ev = by_parent[node]
            return "(" + ",".join(render(child) for child in ev.children) + ")"

        roots = [node_of[frozenset(ent)] for ent in self.levels[-1]]
        if len(roots) == 1:
            return render(roots[0]) + ";"
        return "(" + ",".join(render(r) for r in roots) + ");"


def cut_at_k(dendrogram: Dendrogram, k: int) -> tuple[tuple[int, ...], ...]:
    """Partition whose cluster count is closest to ``k``.

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
    best = dendrogram.levels[0]
    best_d = abs(len(best) - k)
    for level in dendrogram.levels[1:]:
        d = abs(len(level) - k)
        if d <= best_d:
            best = level
            best_d = d
    return best


@dataclass(frozen=True)
class IterationRecord:
    """Importance snapshot and drop decision of one iteration."""

    iteration: int
    theta: int
    feature_names: tuple[str, ...]
    report: ImportanceReport
    dropped: tuple[str, ...]

    def to_dict(self) -> dict:
        def fracs(values):
            return None if values is None else [str(v) for v in values]

        return {
            "iteration": self.iteration,
            "theta": self.theta,
            "features": list(self.feature_names),
            "match_pairs": list(self.report.match_pairs),
            "mismatch_pairs": list(self.report.mismatch_pairs),
            "pgp": fracs(self.report.pgp),
            "ppp": fracs(self.report.ppp),
            "dropped": list(self.dropped),
        }


@dataclass(frozen=True)
class MbcResult:
    """Outcome of a clustering run."""

    partition: tuple[tuple[int, ...], ...]
    dendrogram: Dendrogram
    trace: tuple[IterationRecord, ...]
    config: MbcConfig
    stop_reason: str

    @property
    def n_objects(self) -> int:
        return self.dendrogram.n_leaves

    @property
    def assignments(self) -> np.ndarray:
        """Per-object cluster ids, 1-based, in partition order."""
        out = np.zeros(self.n_objects, dtype=np.int64)
        for cid, members in enumerate(self.partition, start=1):
            for m in members:
                out[m] = cid
        return out


def run(data, config: MbcConfig | None = None) -> MbcResult:
    """Cluster a dataset (or raw code matrix) and return the full result.

    Each iteration ranks the remaining features over the current
    entities, merges all fully agreeing entities, and removes the least
    important features. With ``config.k`` set, the returned partition is
    the dendrogram level closest to ``k`` clusters instead of the loop's
    final state.
    """
    config = (config or MbcConfig()).validated()
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
        if config.importance_population == POPULATION_ORIGINAL:
            population = data.codes_matrix[:, state.remaining_features]
        else:
            population = state.profiles
        report = importance_report(population, feature_names=names)

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
            trace.append(IterationRecord(state.iteration, state.theta, names, report, ()))
            state = grouped
            stop_reason = STOP_ALL_CLUSTERED
            break

        dropped_ids = select_drop(grouped, report, config)
        dropped_names = tuple(data.feature_names[f] for f in dropped_ids)
        trace.append(IterationRecord(state.iteration, state.theta, names, report, dropped_names))
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
            iteration=grouped.iteration + 1,
        )
        if config.anti_merge:
            frozen = anti_merge_update(state)
            if frozen is not state:
                anti_merge_used = True
                state = frozen

    dendrogram = Dendrogram(
        n_leaves=n,
        levels=tuple(levels),
        merge_events=tuple(merge_events),
        anti_merge_used=anti_merge_used,
    )
    partition = cut_at_k(dendrogram, config.k) if config.k is not None else state.partition()
    return MbcResult(
        partition=partition,
        dendrogram=dendrogram,
        trace=tuple(trace),
        config=config,
        stop_reason=stop_reason,
    )
