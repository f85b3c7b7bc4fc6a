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

The loop is array work: a state holds one entity label per object and
one profile row per entity, and identical profiles are found by sorting
one packed integer key per row. Member tuples are built only for the
dendrogram, and there only for the entities that merged.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .dataset import Dataset, as_codes
from .errors import MbcError
from .importance import ImportanceReport, importance_report, pgp2_kept_counts

IMPORTANCE_PGP = "pgp"
IMPORTANCE_PPP = "ppp"

TIES_DROP_ALL = "drop-all"
TIES_PGP2 = "pgp2-single"

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
    cannot be cut.
    """

    importance_measure: str = IMPORTANCE_PGP
    tie_policy: str = TIES_DROP_ALL
    anti_merge: bool = True
    alpha: float = 0.0
    k: int | None = None

    def validated(self) -> "MbcConfig":
        """Normalized copy; raises ``ValueError`` on unusable settings."""
        measure = self.importance_measure.lower()
        policy = self.tie_policy.lower()
        if policy == "pgp2":
            policy = TIES_PGP2
        if measure not in (IMPORTANCE_PGP, IMPORTANCE_PPP):
            raise ValueError(f"unknown importance measure {self.importance_measure!r}")
        if policy not in (TIES_DROP_ALL, TIES_PGP2):
            raise ValueError(f"unknown tie policy {self.tie_policy!r}")
        k = self.k
        if k is not None:
            try:
                k = operator.index(k)
            except TypeError:
                raise ValueError(f"k must be an integer, got {self.k!r}") from None
            if k < 1:
                raise ValueError("k must be at least 1")
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be a finite number, got {self.alpha!r}")
        if not isinstance(self.anti_merge, (bool, np.bool_)):
            raise ValueError(f"anti_merge must be a bool, got {self.anti_merge!r}")
        anti_merge = bool(self.anti_merge) and k is None
        return MbcConfig(
            importance_measure=measure,
            tie_policy=policy,
            anti_merge=anti_merge,
            alpha=alpha,
            k=k,
        )


@dataclass(frozen=True, eq=False, init=False)
class ClusteringState:
    """Snapshot of the loop between iterations.

    ``labels`` gives each object the index of its entity (its current
    cluster); the loop numbers entities in order of their smallest
    member. ``profiles`` holds one code row per entity over the
    remaining features; ``remaining_features`` maps its columns back to
    original feature indices. ``frozen`` holds the indices of entities
    that the containment rule keeps from merging this round.

    A state is built from ``labels`` or from ``entities``, the clusters
    as member tuples in entity order; :attr:`entities` is derived from
    the labels when asked for.
    """

    labels: np.ndarray
    profiles: np.ndarray
    remaining_features: tuple[int, ...]
    iteration: int
    frozen: frozenset[int]

    def __init__(self, entities=None, *, profiles, remaining_features, iteration=0, frozen=frozenset(),
                 labels=None):
        if (entities is None) == (labels is None):
            raise ValueError("give exactly one of entities and labels")
        if labels is None:
            labels = _labels_of(entities)
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValueError("labels must be a 1-d integer array")
        labels = labels.astype(np.intp, copy=False)
        for name, value in (("labels", labels), ("profiles", profiles), ("remaining_features", remaining_features),
                            ("iteration", iteration), ("frozen", frozenset(frozen))):
            object.__setattr__(self, name, value)
        e = len(profiles) if entities is None else len(entities)
        if profiles.shape != (e, len(remaining_features)):
            raise ValueError(
                f"profiles shape {profiles.shape} does not match "
                f"{e} entities x {len(remaining_features)} features"
            )
        if len(labels) and (labels.min() < 0 or labels.max() >= e):
            raise ValueError(f"labels outside 0..{e - 1}")
        if not self.sizes.all():
            raise ValueError("an entity has no member")
        if any(not 0 <= idx < e for idx in self.frozen):
            raise ValueError(f"frozen entity indices {sorted(self.frozen)} outside 0..{e - 1}")

    @property
    def theta(self) -> int:
        """Number of remaining features; the full-agreement match count."""
        return len(self.remaining_features)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Number of members of each entity."""
        return np.bincount(self.labels, minlength=len(self.profiles))

    @cached_property
    def entities(self) -> tuple[tuple[int, ...], ...]:
        """Current clusters as ascending member tuples, in entity order."""
        members = np.argsort(self.labels, kind="stable").tolist()
        ends = np.cumsum(self.sizes).tolist()
        return tuple(tuple(members[start:end]) for start, end in zip([0] + ends[:-1], ends))

    @cached_property
    def _groups(self) -> np.ndarray:
        """Per entity, the rank of its profile; see :func:`_profile_groups`."""
        return _profile_groups(self)


def _labels_of(entities) -> np.ndarray:
    """Entity index of each object, from member tuples that cover ``0..n-1``."""
    sizes = [len(ent) for ent in entities]
    n = sum(sizes)
    members = np.fromiter(chain.from_iterable(entities), dtype=np.int64, count=n)
    labels = np.full(n, -1, dtype=np.int64)
    if n and (members.min() < 0 or members.max() >= n):
        raise ValueError(f"entity members outside 0..{n - 1}")
    labels[members] = np.repeat(np.arange(len(sizes)), sizes)
    if (labels < 0).any():
        raise ValueError("entities do not hold each object exactly once")
    return labels


def initial_state(data) -> ClusteringState:
    """All-singleton state over a dataset or raw code matrix."""
    codes = as_codes(data).copy()
    n, m = codes.shape
    return ClusteringState(labels=np.arange(n), profiles=codes, remaining_features=tuple(range(m)))


# Packed profile keys stay below this bound, well inside int64.
_KEY_LIMIT = 1 << 62


def _profile_groups(state: ClusteringState) -> np.ndarray:
    """Per entity, the rank of its profile among the distinct profiles.

    Each profile is packed into one int64 key, column by column
    (``key = key * card + code`` with the column's codes shifted to
    start at 0), so identical profiles are found by sorting one integer
    per entity, and the key order is the lexicographic order of the
    profiles. A column whose codes span more values than there are
    entities is replaced by its ranks first, and the key is replaced by
    its ranks whenever the next product would pass 2**62, so any int64
    codes pack without overflow.
    """
    profiles = state.profiles
    e = len(profiles)
    key = np.zeros(e, dtype=np.int64)
    card = 1
    for column, low, high in zip(profiles.T, profiles.min(axis=0).tolist(), profiles.max(axis=0).tolist()):
        span = high - low + 1
        if span > e:
            _, column = np.unique(column, return_inverse=True)
            span = int(column.max()) + 1
        else:
            column = column - low
        if card * span > _KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            card = int(key.max()) + 1
        key = key * span + column
        card *= span
    return np.unique(key, return_inverse=True)[1]


def group_matching(state: ClusteringState) -> ClusteringState:
    """Merge every entity group in full agreement on the remaining features.

    Full agreement means identical profiles, so the merged groups are the
    groups of identical profile rows and the merge order is irrelevant.
    Frozen entities stay apart. The merged entities are numbered in
    order of their smallest old index, which keeps the entities ordered
    by smallest member, and each object's new label is read off its old
    one. Returns the input state unchanged when nothing merges.
    """
    e = len(state.profiles)
    if e < 2:
        return state
    group = state._groups
    if state.frozen:
        frozen = np.fromiter(state.frozen, dtype=np.intp, count=len(state.frozen))
        group = group.copy()
        group[frozen] = group.max() + 1 + np.arange(len(frozen))  # groups of their own
    _, first, new_of_old = np.unique(group, return_index=True, return_inverse=True)
    if len(first) == e:
        return state
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return replace(state, labels=rank[new_of_old][state.labels], profiles=state.profiles[first[order]],
                   frozen=frozenset())


def anti_merge_update(state: ClusteringState) -> ClusteringState:
    """Freeze colliding clusters for the next round.

    When two or more multi-member clusters agree on every remaining
    feature, all of them are frozen: :func:`group_matching` merges them
    neither with each other nor with the singletons of their profile
    group, while those singletons still merge among themselves. Returns
    the input state unchanged when no new entity is frozen.
    """
    is_cluster = state.sizes > 1
    if is_cluster.sum() < 2:
        return state
    group = state._groups
    clusters_per_group = np.bincount(group[is_cluster], minlength=group.max() + 1)
    colliding = np.flatnonzero(is_cluster & (clusters_per_group[group] >= 2))
    frozen = state.frozen | set(colliding.tolist())
    if frozen == state.frozen:
        return state
    out = replace(state, frozen=frozen)
    out.__dict__["_groups"] = group  # same profiles, so the next group_matching reuses them
    return out


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


def _json_list(items, indent: int) -> str:
    """A JSON list of rendered items as ``json.dumps(..., indent=2)`` lays it
    out with the items ``indent`` spaces deep; no item renders empty."""
    pad = "\n" + " " * indent
    body = ("," + pad).join(items)
    return "[" + pad + body + pad[:-2] + "]" if body else "[]"


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

    def to_json(self) -> str:
        """The text of ``json.dumps(self.to_dict(), indent=2)``, written directly.

        :func:`run` shares member tuples between levels, and a merge's
        ``members`` is the tuple of its level entry. Both lists sit at
        the same depth, so each distinct tuple is rendered once, keyed by
        ``id`` while ``self`` keeps it alive.
        """
        tuples = {id(ent): ent for level in self.levels for ent in level}
        tuples.update((id(ev.members), ev.members) for ev in self.merge_events)
        text = {key: _json_list(map(str, ent), 8) for key, ent in tuples.items()}
        levels = (_json_list(map(text.__getitem__, map(id, level)), 6) for level in self.levels)
        merges = (
            f'{{\n      "iteration": {ev.iteration},\n      "parent": {ev.parent},\n'
            f'      "children": {_json_list(map(str, ev.children), 8)},\n'
            f'      "members": {text[id(ev.members)]}\n    }}'
            for ev in self.merge_events
        )
        return (
            f'{{\n  "n_leaves": {self.n_leaves},\n  "levels": {_json_list(levels, 4)},\n'
            f'  "merges": {_json_list(merges, 4)},\n'
            f'  "anti_merge_used": {"true" if self.anti_merge_used else "false"}\n}}'
        )

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
        sizes = [len(members) for members in self.partition]
        objects = np.fromiter(chain.from_iterable(self.partition), dtype=np.intp, count=sum(sizes))
        out = np.zeros(self.n_objects, dtype=np.int64)
        out[objects] = np.repeat(np.arange(1, len(sizes) + 1), sizes)
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
    n = len(state.labels)
    # Member tuples of the current entities. Unmerged entities keep their
    # tuple from level to level, and merged ones are built from their
    # children's, so every level shares one int object per object.
    level = tuple((i,) for i in range(n))
    levels: list[tuple[tuple[int, ...], ...]] = [level]
    merge_events: list[MergeEvent] = []
    trace: list[IterationRecord] = []
    node_ids = np.arange(n)
    next_node = n
    anti_merge_used = False

    while True:
        names = tuple(data.feature_names[f] for f in state.remaining_features)
        report = importance_report(state.profiles, feature_names=names)

        grouped = group_matching(state)
        if grouped is not state:
            # New entity of each old one; the old entities of each new one,
            # in entity order, are a run of ``children``.
            new_of_old = np.empty(len(level), dtype=np.intp)
            new_of_old[state.labels] = grouped.labels
            children = np.argsort(new_of_old, kind="stable")
            counts = np.bincount(new_of_old)
            ends = np.cumsum(counts)
            first = children[ends - counts]
            old_nodes = node_ids
            node_ids = node_ids[first]
            new_level = list(map(level.__getitem__, first.tolist()))
            for idx in np.flatnonzero(counts > 1).tolist():
                olds = children[ends[idx] - counts[idx]:ends[idx]]
                members = tuple(sorted(chain.from_iterable(map(level.__getitem__, olds.tolist()))))
                merge_events.append(
                    MergeEvent(
                        iteration=state.iteration,
                        parent=next_node,
                        children=tuple(old_nodes[olds].tolist()),
                        members=members,
                    )
                )
                new_level[idx] = members
                node_ids[idx] = next_node
                next_node += 1
            level = tuple(new_level)
        levels.append(level)

        if (grouped.sizes >= 2).all():
            trace.append(IterationRecord(state.iteration, state.theta, names, report, ()))
            stop_reason = STOP_ALL_CLUSTERED
            break

        dropped_ids = select_drop(grouped, report, config)
        dropped_names = tuple(data.feature_names[f] for f in dropped_ids)
        trace.append(IterationRecord(state.iteration, state.theta, names, report, dropped_names))
        if not dropped_ids:
            stop_reason = STOP_TIED_IMPORTANCE
            break

        drop_set = set(dropped_ids)
        kept_positions = [pos for pos, f in enumerate(grouped.remaining_features) if f not in drop_set]
        remaining = tuple(grouped.remaining_features[pos] for pos in kept_positions)
        profiles = grouped.profiles[:, kept_positions].copy()
        state = ClusteringState(
            labels=grouped.labels,
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
    partition = cut_at_k(dendrogram, config.k) if config.k is not None else level
    return MbcResult(
        partition=partition,
        dendrogram=dendrogram,
        trace=tuple(trace),
        config=config,
        stop_reason=stop_reason,
    )
