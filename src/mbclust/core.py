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
one feature-major profile row per entity, and identical profiles are
found by one sort of one checked key per row: a wrapping integer hash of
the row, whose groups are compared with the rows. The dendrogram keeps
each level's labels; member tuples and merge records are derived from
them on demand. This module holds no text layout: the JSON and
Newick texts come from :mod:`mbclust.writers`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .dataset import Dataset, as_codes
from .importance import ImportanceReport, finite_alpha, importance_report, pgp2_kept_counts

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
    cannot be cut. Construction normalises the settings (lower case,
    ``pgp2`` as ``pgp2-single``) and raises ``ValueError`` on bad ones.
    """

    importance_measure: str = IMPORTANCE_PGP
    tie_policy: str = TIES_DROP_ALL
    anti_merge: bool = True
    alpha: float = 0.0
    k: int | None = None

    def __post_init__(self):
        measure = self.importance_measure.lower() if isinstance(self.importance_measure, str) else None
        policy = self.tie_policy.lower() if isinstance(self.tie_policy, str) else None
        if policy == "pgp2":
            policy = TIES_PGP2
        if measure not in (IMPORTANCE_PGP, IMPORTANCE_PPP):
            raise ValueError(f"unknown importance measure {self.importance_measure!r}")
        if policy not in (TIES_DROP_ALL, TIES_PGP2):
            raise ValueError(f"unknown tie policy {self.tie_policy!r}")
        k = self.k
        if k is not None:
            try:  # a bool is an int to Python, but no cluster count
                k = operator.index(None if isinstance(k, bool) else k)
            except TypeError:
                raise ValueError(f"k must be an integer, got {self.k!r}") from None
            if k < 1:
                raise ValueError("k must be at least 1")
        alpha = finite_alpha(self.alpha)
        if not isinstance(self.anti_merge, (bool, np.bool_)):
            raise ValueError(f"anti_merge must be a bool, got {self.anti_merge!r}")
        anti_merge = bool(self.anti_merge) and k is None
        self.__dict__.update(importance_measure=measure, tie_policy=policy, anti_merge=anti_merge, alpha=alpha, k=k)


@dataclass(frozen=True, eq=False, init=False)
class ClusteringState:
    """Snapshot of the loop between iterations.

    ``labels`` gives each object the index of its entity (its current
    cluster); the loop numbers entities in order of their smallest
    member. ``profiles`` holds one code row per entity over the
    remaining features, checked and made int64 by ``as_codes`` as a
    dataset's codes are, feature-major in the loop so that each column is
    contiguous; ``remaining_features`` maps its columns back to original
    feature indices. ``frozen`` holds the indices of entities that the
    containment rule keeps from merging this round.

    A state is built from ``labels`` or from ``entities``, the clusters
    as member tuples in entity order; :attr:`entities` is derived from
    the labels when asked for.
    """

    labels: np.ndarray
    profiles: np.ndarray
    remaining_features: tuple[int, ...]
    frozen: frozenset[int]

    def __init__(self, entities=None, *, profiles, remaining_features, frozen=frozenset(), labels=None):
        if (entities is None) == (labels is None):
            raise ValueError("give exactly one of entities and labels")
        if labels is None:
            labels = _labels_of(entities)
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValueError("labels must be a 1-d integer array")
        labels = labels.astype(np.intp, copy=False)
        for name, value in (("labels", labels), ("profiles", as_codes(profiles)),
                            ("remaining_features", remaining_features), ("frozen", frozenset(frozen))):
            object.__setattr__(self, name, value)
        e = len(self.profiles) if entities is None else len(entities)
        if self.profiles.shape != (e, len(remaining_features)):
            raise ValueError(
                f"profiles shape {self.profiles.shape} does not match "
                f"{e} entities x {len(remaining_features)} features"
            )
        if labels.min(initial=0) < 0 or labels.max(initial=-1) >= e:
            raise ValueError(f"labels outside 0..{e - 1}")
        if not self.sizes.all():
            raise ValueError("an entity has no member")
        frozen = np.array([*self.frozen])  # not integer-typed when an index is no int, e.g. 0.5, or past int64
        if len(frozen) and (frozen.dtype.kind not in "iu" or frozen.min() < 0 or frozen.max() >= e):
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
        return _member_tuples(self.labels)

    @cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Per entity its profile's group, and per group its first entity; see :func:`_profile_groups`."""
        return _profile_groups(self)


def _groups_of(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The objects in entity order, ascending within each entity, and the
    end of each entity in that order; every entity has a member."""
    # The narrowest dtype that holds the labels; numpy radix-sorts 8- and
    # 16-bit keys when asked for a stable sort.
    keys = labels.astype(np.min_scalar_type(labels.max(initial=0)), copy=False)
    return np.argsort(keys, kind="stable"), np.cumsum(np.bincount(labels))


def _member_tuples(labels: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Ascending member tuple of each entity, in entity order."""
    order, ends = _groups_of(labels)
    members, ends = order.tolist(), ends.tolist()
    return tuple(tuple(members[start:end]) for start, end in zip([0] + ends[:-1], ends))


def _labels_of(entities, n=None) -> np.ndarray:
    """Entity index of each object, from member tuples that hold each of the
    objects ``0..n-1`` exactly once; ``n`` defaults to the number of members."""
    sizes = [len(ent) for ent in entities]
    n = sum(sizes) if n is None else n
    members = np.array(flat := [*chain.from_iterable(entities)])
    if members.dtype.kind not in "iu":  # no members, non-integers, or an int past int64 (typed float or object)
        try:  # clipped to -1..n, each int outside 0..n-1 stays outside
            members = np.array([min(max(operator.index(m), -1), n) for m in flat], dtype=np.int64)
        except TypeError:
            raise ValueError(f"object indices must be integers, got {members.dtype} values") from None
    outside = (members < 0) | (members >= n)
    if outside.any():
        raise ValueError(f"object index {flat[outside.argmax()]} outside 0..{n - 1}")
    times = np.bincount(members, minlength=n)
    if (times > 1).any():
        raise ValueError(f"object {(times > 1).argmax()} is in more than one cluster; each must appear exactly once")
    if not times.all():
        missing = np.flatnonzero(times == 0).tolist()
        raise ValueError(f"partition misses objects {missing[:10]}{'...' if len(missing) > 10 else ''}")
    labels = np.empty(n, dtype=np.int64)
    labels[members] = np.repeat(np.arange(len(sizes)), sizes)
    return labels


def initial_state(data) -> ClusteringState:
    """All-singleton state over a dataset or raw code matrix."""
    codes = as_codes(data).copy(order="F")
    n, m = codes.shape
    return ClusteringState(labels=np.arange(n), profiles=codes, remaining_features=tuple(range(m)))


# Odd, so that ``key * _BASE`` maps the uint64 values one to one.
_BASE = np.uint64(0x9E3779B97F4A7C15)


def _sorted_groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the rank of its key among the distinct keys, and per rank
    the first item with that key; from one argsort of the keys."""
    order = np.argsort(key)
    ranked, new = key[order], np.ones(len(key), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    group = np.empty_like(order)
    group[order] = np.cumsum(new) - 1
    return group, np.minimum.reduceat(order, np.flatnonzero(new))


def _profile_groups(state: ClusteringState) -> tuple[np.ndarray, np.ndarray]:
    """Per entity the group of its profile among the distinct profiles, and
    per group the first entity with that profile.

    Each profile is folded into one uint64 key, column by column (``key =
    key * _BASE + code``, wrapping modulo 2**64), so one argsort of one
    integer per entity groups the entities. Identical profiles share a
    key; distinct ones can share one too, so each member of a key group is
    compared with the group's first entity, in blocks of rows. When any
    differs, the groups come from ``np.unique`` of the whole rows instead.
    """
    profiles = state.profiles
    key = np.zeros(len(profiles), dtype=np.uint64)
    for column in profiles.T:
        key *= _BASE
        key += column.view(np.uint64)
    group, first = _sorted_groups(key)
    head = first[group]
    members = np.flatnonzero(head != np.arange(len(head)))
    step = 1 + (1 << 20) // (1 + profiles.shape[1])  # entities per block: at most 2**20 codes a side
    blocks = (members[start:start + step] for start in range(0, len(members), step))
    if any((profiles.T.take(rows, axis=1) != profiles.T.take(head[rows], axis=1)).any() for rows in blocks):
        _, first, group = np.unique(profiles, axis=0, return_index=True, return_inverse=True)
    return group, first


def group_matching(state: ClusteringState) -> ClusteringState:
    """Merge every entity group in full agreement on the remaining features.

    Full agreement means identical profiles, so the merged groups are the
    groups of identical profile rows and the merge order is irrelevant.
    Frozen entities stay apart. The merged entities are numbered in
    order of their smallest old index, which keeps the entities ordered
    by smallest member, and each object's new label is read off its old
    one, all from the state's cached grouping without another sort. The
    merged profiles are feature-major. Returns the input state unchanged
    when nothing merges.
    """
    e = len(state.profiles)
    group, first = state._groups
    if state.frozen:
        frozen = np.fromiter(state.frozen, dtype=np.intp, count=len(state.frozen))
        group = group.copy()
        group[frozen] = len(first) + np.arange(len(frozen))  # groups of their own
        first = np.full(len(first) + len(frozen), e)  # e stays on a group the freeze emptied
        np.minimum.at(first, group, np.arange(e))
    is_first = np.zeros(e, dtype=bool)
    is_first[first[first < e]] = True
    if is_first.all():
        return state
    return replace(state, labels=(np.cumsum(is_first) - 1)[first[group]][state.labels],
                   profiles=state.profiles.T.compress(is_first, axis=1).T, frozen=frozenset())


def anti_merge_update(state: ClusteringState) -> ClusteringState:
    """Freeze colliding clusters for the next round.

    When two or more multi-member clusters agree on every remaining
    feature, all of them are frozen: :func:`group_matching` merges them
    neither with each other nor with the singletons of their profile
    group, while those singletons still merge among themselves. Returns
    the input state unchanged when no new entity is frozen.
    """
    is_cluster = state.sizes > 1
    group, first = state._groups
    clusters_per_group = np.bincount(group[is_cluster], minlength=len(first))
    colliding = np.flatnonzero(is_cluster & (clusters_per_group[group] >= 2))
    frozen = state.frozen | set(colliding.tolist())
    if frozen == state.frozen:
        return state
    out = replace(state, frozen=frozen)
    out.__dict__["_groups"] = state._groups  # same profiles, so the next group_matching reuses them
    return out


def select_drop(state: ClusteringState, report: ImportanceReport, config: MbcConfig) -> tuple[int, ...]:
    """Original indices of the features to remove this iteration.

    The least important features are the ones with the smallest raw
    pair count under the configured measure. An empty result signals
    termination: all remaining features are equally important. Under the
    ``pgp2-single`` policy a tie is broken in favor of the candidate
    whose removal preserves the largest share of marked similarity
    pairs, scored over the current entity profiles; any leftover tie
    falls to the lowest feature index. All candidates share the count
    of marked pairs before the drop, so the largest share is the
    largest count of marked pairs kept. That count sees a column only
    through the entity pairs it matches, so columns that split the
    entities alike tie and the first of them stands for all. A tie of
    one split needs no scoring; several splits are scored in one
    :func:`~mbclust.importance.pgp2_kept_counts` sweep over the entity
    pairs, without a match-count matrix.
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
        # The first tied column of each split; a split's key gives every
        # entity the first entity that shares its code.
        splits = {}
        for pos in tied:
            group, first = _sorted_groups(state.profiles[:, pos])
            splits.setdefault(first[group].tobytes(), pos)
        heads = list(splits.values())
        kept = pgp2_kept_counts(state.profiles, heads, config.alpha)[0] if len(heads) > 1 else [0]
        chosen = [heads[kept.index(max(kept))]]
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


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Merge history of a run, stored as the partition at every level.

    ``labels[p]`` gives each object its entity index at level ``p``, with
    entities numbered by smallest member. Level 0 is the all-singleton
    partition; level ``p + 1``, the partition after iteration ``p``,
    coarsens level ``p``. The merges of iteration ``p`` are the entities
    of level ``p + 1`` that hold two or more entities of level ``p``;
    they take the next free node ids after the leaves ``0..n-1``, in
    entity order. Member tuples and merge records are derived on demand,
    and the writers read the labels. ``anti_merge_used`` records whether
    the containment rule froze a cluster, in which case the structure
    understates the merges and must not be cut.
    """

    n_leaves: int
    labels: np.ndarray
    anti_merge_used: bool = False

    def __post_init__(self):
        labels = as_codes(np.array(self.labels).reshape(len(self.labels), self.n_leaves))
        if (labels[:1] != np.arange(self.n_leaves)).any():
            raise ValueError("level 0 must be the all-singleton partition")
        # Each level numbers its entities by first appearance (no label negative or more than one above all
        # before it) and coarsens the level before; checked level by level, so temporaries stay O(n).
        new_of_old = np.empty(self.n_leaves, dtype=np.intp)
        for old, new in zip(labels, labels[1:]):
            if np.array_equal(old, new):
                continue
            if new[:1].any() or new.min() < 0 or (np.diff(np.maximum.accumulate(new)) > 1).any():
                raise ValueError("each level must number its entities 0, 1, ... in order of smallest member")
            new_of_old[old] = new
            if (new_of_old[old] != new).any():
                raise ValueError("each level must coarsen the level before it")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @cached_property
    def _merges(self) -> tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]:
        """Per level, the merges that formed it as ``(entity, parent,
        children)``, with the children's node ids in entity order."""
        nodes, next_node, formed = np.arange(self.n_leaves), self.n_leaves, [()]
        sizes = self.level_sizes
        for old, new, before, size in zip(self.labels, self.labels[1:], sizes, sizes[1:]):
            if size == before:  # a coarsening of the same size repeats the level before: nothing merged
                formed.append(())
                continue
            # New entity of each old one; the old entities of each new one,
            # in entity order, are a run of ``children``.
            new_of_old = np.empty(len(nodes), dtype=np.intp)
            new_of_old[old] = new
            children, ends = _groups_of(new_of_old)
            counts = np.diff(ends, prepend=0)
            merged = np.flatnonzero(counts > 1)
            child_nodes = tuple(nodes[children[np.repeat(counts > 1, counts)]].tolist())
            cuts = np.cumsum(counts[merged]).tolist()
            nodes = nodes[children[ends - counts]]
            nodes[merged] = np.arange(next_node, next_node + len(merged))
            next_node += len(merged)
            runs = map(slice, [0] + cuts[:-1], cuts)
            formed.append(tuple(zip(merged.tolist(), nodes[merged].tolist(), map(child_nodes.__getitem__, runs))))
        return tuple(formed)

    @cached_property
    def level_sizes(self) -> tuple[int, ...]:
        """Number of entities at each level."""
        return tuple((self.labels.max(axis=1, initial=-1) + 1).tolist())

    def _each_level(self, derive):
        """``derive(labels)`` of each level in turn; a level that repeats the one
        before (a coarsening of the same size) gets the same object again."""
        value, before = None, None
        for labels, size in zip(self.labels, self.level_sizes):
            if size != before:
                value, before = derive(labels), size
            yield value

    @cached_property
    def levels(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each level's entities as ascending member tuples, in entity order."""
        return tuple(self._each_level(_member_tuples))

    @cached_property
    def merge_events(self) -> tuple[MergeEvent, ...]:
        """Every merge, in node id order."""
        return tuple(
            MergeEvent(p - 1, parent, children, self.levels[p][idx])
            for p, merges in enumerate(self._merges)
            for idx, parent, children in merges
        )

    def to_dict(self) -> dict:
        """Levels as member lists and merges as dicts: the data :func:`mbclust.writers.dendrogram_json` writes."""
        objects = np.arange(self.n_leaves).astype(object)  # one int per object, shared by every level

        def member_lists(labels):
            order, ends = _groups_of(labels)
            members, ends = objects[order].tolist(), ends.tolist()
            return [members[start:end] for start, end in zip([0] + ends[:-1], ends)]

        levels, merges, previous = [], [], None
        for p, (level, formed) in enumerate(zip(self._each_level(member_lists), self._merges)):
            # A repeated level gets lists of its own, so that no two levels share one.
            levels.append(list(map(list.copy, level)) if level is previous else level)
            previous = level
            merges += ({"iteration": p - 1, "parent": parent, "children": list(children), "members": list(level[idx])}
                       for idx, parent, children in formed)
        return {"n_leaves": self.n_leaves, "levels": levels, "merges": merges, "anti_merge_used": self.anti_merge_used}

    def to_newick(self) -> str:
        """Newick rendering, from :func:`mbclust.writers.newick`."""
        from .writers import newick

        return "".join(newick(self))


@dataclass(frozen=True)
class IterationRecord:
    """Importance snapshot and drop decision of one iteration; ``theta`` (the
    number of remaining features) and ``feature_names`` are read from ``report``."""

    iteration: int
    report: ImportanceReport
    dropped: tuple[str, ...]
    feature_names = property(lambda self: self.report.feature_names)
    theta = property(lambda self: len(self.feature_names))

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
    """Outcome of a clustering run; its partition is dendrogram level :attr:`level`."""

    dendrogram: Dendrogram
    trace: tuple[IterationRecord, ...]
    config: MbcConfig

    @cached_property
    def level(self) -> int:
        """The level closest to ``config.k`` clusters, the coarser of two equally close; without ``k``, the last."""
        sizes, k = self.dendrogram.level_sizes, self.config.k
        return len(sizes) - 1 if k is None else min(range(len(sizes)), key=lambda p: (abs(sizes[p] - k), -p))

    @property
    def stop_reason(self) -> str:
        """Why the loop stopped: it stops before a drop decision exactly when its last level has no singleton."""
        all_clustered = np.bincount(self.dendrogram.labels[-1]).min() >= 2
        return STOP_ALL_CLUSTERED if all_clustered else STOP_TIED_IMPORTANCE

    @property
    def labels(self) -> np.ndarray:
        """Per-object index of its cluster in :attr:`partition`."""
        return self.dendrogram.labels[self.level]

    @cached_property
    def partition(self) -> tuple[tuple[int, ...], ...]:
        """Clusters as ascending member tuples, ordered by smallest member."""
        return _member_tuples(self.labels)

    @property
    def assignments(self) -> np.ndarray:
        """Per-object cluster ids, 1-based, in partition order."""
        return self.labels + 1


def run(data, config: MbcConfig | None = None) -> MbcResult:
    """Cluster a dataset (or raw code matrix) and return the full result.

    Each iteration ranks the remaining features over the current
    entities, merges all fully agreeing entities, and removes the least
    important features, until every object is in a multi-member cluster
    or no feature is least important. A round that merged nothing hands
    the next its pair counts at the kept features, as the entities are
    the same. The result derives its level and stop reason.
    """
    config = config or MbcConfig()
    if not hasattr(data, "codes_matrix"):
        data = Dataset.from_codes(data)

    state = initial_state(data)
    labels = [state.labels]
    trace: list[IterationRecord] = []
    anti_merge_used = False
    report = None

    while True:
        if report is None:
            report = importance_report(state.profiles, [data.feature_names[f] for f in state.remaining_features])

        grouped = group_matching(state)
        labels.append(grouped.labels)

        dropped_ids = () if (grouped.sizes >= 2).all() else select_drop(grouped, report, config)
        trace.append(IterationRecord(len(trace), report, tuple(data.feature_names[f] for f in dropped_ids)))
        if not dropped_ids:
            break

        kept = [pos for pos, f in enumerate(grouped.remaining_features) if f not in dropped_ids]
        # When nothing merged, the next round counts the same entities over the kept columns.
        report = None if grouped is not state else ImportanceReport(
            tuple(report.feature_names[pos] for pos in kept), report.n_entities,
            tuple(report.match_pairs[pos] for pos in kept))
        state = ClusteringState(labels=grouped.labels, profiles=np.asfortranarray(grouped.profiles[:, kept]),
                                remaining_features=tuple(grouped.remaining_features[pos] for pos in kept))
        if config.anti_merge:
            frozen = anti_merge_update(state)
            if frozen is not state:
                anti_merge_used = True
                state = frozen

    dendrogram = Dendrogram(n_leaves=len(labels[0]), labels=labels, anti_merge_used=anti_merge_used)
    return MbcResult(dendrogram, tuple(trace), config)
