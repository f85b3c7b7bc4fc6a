"""The text of every output file, as generators of ``str`` pieces.

Callers write each piece as it comes, so a dendrogram's text is held one
level at a time and a similarity matrix's one block of rows at a time.
JSON texts are ``json.dumps(payload, indent=2)`` byte for byte (the
similarity matrix without indent). No text ends with a newline: the
sink that writes a file adds its last one. Writers read finished
results and raise nothing on them.
"""

from __future__ import annotations

import json

import numpy as np

from . import similarity
from .core import _groups_of


def _numbers(count: int) -> np.ndarray:
    """The text of ``0..count-1``, one object per number."""
    return np.array(list(map(str, range(count))), dtype=object)


def _json_list(chunks, indent: int):
    """Pieces of a JSON list laid out by ``json.dumps(..., indent=2)`` with its
    items ``indent`` spaces deep, from chunks (lists) of rendered items; the
    items of each non-empty chunk make one piece."""
    pad = "\n" + " " * indent
    head = "[" + pad
    for items in chunks:
        if items:
            yield head
            yield ("," + pad).join(items)
            head = "," + pad
    yield pad[:-2] + "]" if head[0] == "," else "[]"


def _member_lists(numbers: np.ndarray, labels: np.ndarray, indent: int) -> str:
    """The JSON list of a partition's member lists, laid out by
    ``json.dumps(..., indent=2)`` with the inner lists ``indent`` spaces deep;
    members ascending, each rendered as ``numbers`` gives it."""
    if not len(labels):
        return "[]"
    order, ends = _groups_of(labels)
    pad, inner = "\n" + " " * indent, "\n" + " " * (indent + 2)
    parts = np.empty(2 * len(labels) + 1, dtype=object)
    parts[1::2] = numbers[order]
    parts[2:-1:2] = "," + inner
    parts[2 * ends[:-1]] = pad + "]," + pad + "[" + inner
    parts[0], parts[-1] = "[" + pad + "[" + inner, pad + "]" + pad[:-2] + "]"
    return "".join(parts.tolist())


def cluster_json(labels: np.ndarray, stop_reason: str, iterations: int):
    """The ``cluster`` payload of a partition, from its entity labels:
    ``assignments`` (1-based cluster ids, one piece), ``clusters`` (member
    lists, one piece), ``stop_reason`` and ``iterations``."""
    numbers = _numbers(len(labels) + 1)
    yield '{\n  "assignments": '
    yield from _json_list([numbers[labels + 1].tolist()], 4)
    yield ',\n  "clusters": '
    yield _member_lists(numbers, labels, 4)
    yield f',\n  "stop_reason": {json.dumps(stop_reason)},\n  "iterations": {iterations}\n}}'


def assignments_csv(assignments: np.ndarray):
    """The ``object,cluster`` CSV of per-object cluster ids; the rows are one piece."""
    yield "object,cluster"
    yield "".join(f"\n{obj},{cid}" for obj, cid in enumerate(assignments.tolist()))


def dendrogram_json(dendrogram):
    """The text of ``json.dumps(dendrogram.to_dict(), indent=2)``.

    Each level's member lists are one piece, which a level that repeats
    the one before yields again; then the merges of each level are one
    piece, whose ``members`` are grouped again from the labels of that
    level's merged objects. So at most one level's text is held.
    """
    numbers, sep = _numbers(dendrogram.n_leaves), ",\n        "

    def merges():
        for p, (labels, formed) in enumerate(zip(dendrogram.labels, dendrogram._merges)):
            if not formed:
                continue
            rank = np.full(len(labels), -1)  # each merged entity's place among the merged ones
            rank[[idx for idx, _, _ in formed]] = np.arange(len(formed))
            objects = np.flatnonzero(rank[labels] >= 0)
            order, ends = _groups_of(rank[labels[objects]])
            members, bounds = numbers[objects[order]].tolist(), [0] + ends.tolist()
            yield [f'{{\n      "iteration": {p - 1},\n      "parent": {parent},\n'
                   f'      "children": [\n        {sep.join(map(str, children))}\n      ],\n'
                   f'      "members": [\n        {sep.join(members[bounds[k]:bounds[k + 1]])}\n      ]\n    }}'
                   for k, (_, parent, children) in enumerate(formed)]

    yield f'{{\n  "n_leaves": {dendrogram.n_leaves},\n  "levels": '
    yield from _json_list(dendrogram._each_level(lambda labels: [_member_lists(numbers, labels, 6)]), 4)
    yield ',\n  "merges": '
    yield from _json_list(merges(), 4)
    yield f',\n  "anti_merge_used": {"true" if dendrogram.anti_merge_used else "false"}\n}}'


def newick(dendrogram):
    """Newick rendering, one piece; leaves are object row indices.

    The roots are the nodes that no merge lists as a child, in order of
    their smallest member. Multiple roots are joined under one synthetic
    root so the output is always a single tree.
    """
    text = dict(enumerate(map(str, range(dendrogram.n_leaves))))
    low = list(range(dendrogram.n_leaves))  # smallest member of each node
    for merges in dendrogram._merges:
        for _, parent, children in merges:
            low.append(low[children[0]])
            text[parent] = "(" + ",".join(map(text.pop, children)) + ")"
    roots = [text[node] for node in sorted(text, key=low.__getitem__)]
    yield (roots[0] if len(roots) == 1 else "(" + ",".join(roots) + ")") + ";"


def trace_json(trace):
    """The iteration records of a run as one indented JSON list."""
    yield json.dumps([record.to_dict() for record in trace], indent=2)


def similarity_matrix(blocks, n: int, measure: str, fmt: str):
    """The ``similarity`` matrix as CSV or JSON, one row at a time, from the
    blocks of rows of :func:`~mbclust.similarity.pairwise_blocks`.

    Each distinct cell of a block is formatted once. Cells are keyed by
    bit pattern, so ``-0.0`` keeps its sign. JSON floats use ``repr``,
    which is what ``json.dumps`` writes for them.
    """
    sep = ", " if fmt == "json" else ","

    def rows():
        # Where few distinct values recur from block to block (data with few distinct rows,
        # or few features and categories), formatting each block's values anew made the
        # command slower than the whole-matrix writer it replaced. So the text of the values
        # met so far is kept, sorted by key, while another block follows and it holds at
        # most one block's cells; once it would not, nothing more is kept.
        nothing = np.empty(0, dtype=np.uint64), np.empty(0, dtype=object)
        (seen, seen_text), keep, done = nothing, True, 0
        for block in blocks:
            cell = str if block.dtype.kind == "i" else repr if fmt == "json" else "{:.6f}".format
            keys, inverse = np.unique(block.view(np.uint64), return_inverse=True)
            at = np.searchsorted(seen, keys)
            known = at < len(seen)
            known[known] = seen[at[known]] == keys[known]
            new = ~known
            text = np.empty(len(keys), dtype=object)
            text[known] = seen_text[at[known]]
            text[new] = np.frompyfunc(cell, 1, 1)(keys[new].view(block.dtype))
            done += len(block)
            keep = keep and done < n and len(seen) + np.count_nonzero(new) <= similarity._BLOCK_CELLS
            if keep:
                seen, seen_text = np.insert(seen, at[new], keys[new]), np.insert(seen_text, at[new], text[new])
            else:  # a view would keep the old text alive
                seen, seen_text = nothing
            for cells in text[inverse.reshape(-1, n)]:
                yield sep.join(cells.tolist())

    if fmt == "json":
        yield f'{{"measure": "{measure}", "n": {n}, "matrix": ['
        yield from (f"{', ' if i else ''}[{row}]" for i, row in enumerate(rows()))
        yield "]}"
    else:
        yield "".join(f",{j}" for j in range(n))
        yield from (f"\n{i},{row}" for i, row in enumerate(rows()))
