"""The text of every output file, as generators of ``str`` pieces.

Callers write each piece as it comes, so a dendrogram's text is held one
level at a time and a similarity matrix's one block of rows at a time.
JSON texts are ``json.dumps(payload, indent=2)`` byte for byte (the
similarity matrix without indent). No text ends with a newline: the
sink that writes a file adds its last one. Writers read finished
results and raise nothing on them.

The similarity matrix's float cells come from one digit engine,
:func:`float_text`: it writes the ``repr`` (JSON) or ``"{:.6f}"`` (CSV)
text of the values in [2**-8, 1) with uint64 arithmetic, a bounded chunk
of values at a time, and formats the other values (outside that range,
powers of two, and ties between two shortest ``repr`` texts) one by one.
"""

from __future__ import annotations

import json

import numpy as np

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


_TEXT_CHUNK = 1 << 12  # values laid out at once, so that the digit engine's temporaries stay small


def float_text(values: np.ndarray, fmt: str) -> np.ndarray:
    """The text of each float64 of ``values`` as JSON writes it (``repr``, for
    ``fmt == "json"``) or as ``"{:.6f}".format`` does, in an object array.

    A value v in [2**-8, 1) that is not a power of two is M / 2**s with an
    integer M in [2**52, 2**53) and s in 53..60. So ``frac = 10 * frac`` stays
    below 2**64, and ``frac >> s`` is the next exact decimal digit of v and
    ``frac % 2**s`` the exact remainder. The ``{:.6f}`` text stops after six
    digits and rounds half to even on the remainder. ``repr`` is the shortest
    text that reads back as v: it stops at the first k digits where the text
    rounded down (or up) is nearer to v than half of v's gap of 2**-s to its
    neighbours, ``2 * frac < 10**k`` (or ``2 * (2**s - frac) < 10**k``), and
    takes the nearer of the two. Neither is ever exactly that near, as that
    would make the odd ``5**k * (2M - 1)`` a multiple of 2**(s - k + 1), so
    how a read breaks a tie between two floats does not matter. Other values
    (outside the range, powers of two, whose lower gap is half as wide, and
    the rare tie between the two shortest texts) are formatted one by one by
    ``repr`` or ``format``.
    """
    json_text = fmt == "json"
    places = 19 if json_text else 6  # repr of v >= 2**-8 has at most 2 zeros and 17 digits after the point
    text = np.empty(len(values), dtype=object)
    for a in range(0, len(values), _TEXT_CHUNK):
        bits = values[a:a + _TEXT_CHUNK].view(np.uint64)
        biased, frac = bits >> 52, bits & ((1 << 52) - 1)
        fast = (biased >= 1015) & (biased < 1023) & (frac > 0)  # the sign bit fails biased < 1023
        shift, frac = 1075 - biased[fast], frac[fast] | (1 << 52)
        half = (np.uint64(1) << (shift - 1)).view(np.int64)
        low = (2 * half - 1).view(np.uint64)
        digits = np.empty((places, len(frac)), dtype=np.uint8)  # characters
        side = np.empty((places, len(frac)), dtype=np.int8)  # sign of the remainder less half of 2**s
        going = np.empty((places, len(frac)), dtype=bool)  # no text of this many digits reads back as v
        for k in range(places):
            frac *= 10
            np.add(frac >> shift, ord("0"), out=digits[k], casting="unsafe")
            frac &= low
            away = frac.view(np.int64) - half
            np.sign(away, out=side[k], casting="unsafe")
            if json_text:  # the nearer text reads back as v if |2 frac - 2**s| + 10**(k+1) > 2**s
                np.abs(away, out=away)
                away += 5 * 10**k
                np.less_equal(away, half, out=going[k])
                if not going[k].any():  # every text is known (short ones, such as overlap's, early)
                    digits, side, going = digits[:k + 1], side[:k + 1], going[:k + 1]
                    break
        if json_text:  # a text that reads back as v still does with one more digit
            last, at = np.add.reduce(going.view(np.uint8), axis=0), np.arange(len(frac))
            digits[1:] *= going[:-1]  # NUL after the last digit
            tie, carry = side[last, at] == 0, False
            digits[last, at] += side[last, at] > 0
        else:  # round half to even, carrying into the integer digit
            tie, carry = False, side[-1] + (digits[-1] & 1) > 0
            for k in range(places - 1, -1, -1):
                digits[k] += carry
                carry = digits[k] > ord("9")
                digits[k][carry] = ord("0")
        chars = np.empty((len(frac), 2 + len(digits)), dtype=np.uint32)
        chars[:, 0], chars[:, 1], chars[:, 2:] = ord("0") + carry, ord("."), digits.T
        part, slow = text[a:a + len(bits)], ~fast
        part[fast] = chars.view(f"U{chars.shape[1]}").ravel().astype(object)
        slow[fast] = tie  # the values outside the engine's range, and its ties
        part[slow] = np.frompyfunc(repr if json_text else "{:.6f}".format, 1, 1)(bits[slow].view(np.float64))
    return text


def similarity_matrix(blocks, n: int, measure: str, fmt: str):
    """The ``similarity`` matrix as CSV or JSON, one row at a time, from the
    blocks of rows of :func:`~mbclust.similarity.pairwise_blocks`.

    Each distinct cell of a block is formatted once. Cells are keyed by
    bit pattern, so ``-0.0`` keeps its sign. Integer cells (``cm``) use
    ``str``; float cells use :func:`float_text`, whose digit engine writes
    the values in [2**-8, 1) with uint64 arithmetic, the text of ``repr``
    for JSON (what ``json.dumps`` writes) and of ``"{:.6f}".format`` for
    CSV, and formats the others one by one.
    """
    sep = ", " if fmt == "json" else ","

    def rows():
        for block in blocks:
            keys, inverse = np.unique(block.view(np.uint64), return_inverse=True)
            if block.dtype.kind == "i":
                text = np.frompyfunc(str, 1, 1)(keys.view(block.dtype))
            else:
                text = float_text(keys.view(np.float64), fmt)
            for cells in text[inverse.reshape(-1, n)]:
                yield sep.join(cells.tolist())

    if fmt == "json":
        yield f'{{"measure": "{measure}", "n": {n}, "matrix": ['
        yield from (f"{', ' if i else ''}[{row}]" for i, row in enumerate(rows()))
        yield "]}"
    else:
        yield "".join(f",{j}" for j in range(n))
        yield from (f"\n{i},{row}" for i, row in enumerate(rows()))
