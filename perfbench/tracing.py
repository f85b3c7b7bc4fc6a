"""Per-layer spans recorded from outside the program.

Each span wraps a call into one public function of a layer. The wrapper
is installed by replacing the module (or class) attribute that the caller
looks up at call time, so the package itself carries no instrumentation.
Spans are kept in memory and written out by the caller once the traced
operation has finished.

A target that a later version of the package no longer has is skipped
and reported in ``Tracer.missing``; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time


def _pairs(args, kwargs, result) -> dict:
    profiles = args[0] if args else kwargs["profiles"]
    e = len(getattr(profiles, "codes_matrix", profiles))
    return {"pairs": e * (e - 1) // 2}


def _cells(args, kwargs, result) -> dict:
    return {"cells": int(result.size)}


def _merges(args, kwargs, result) -> dict:
    return {"merges": len(args[0].entities) - len(result.entities)}


def _fired(args, kwargs, result) -> dict:
    return {"fired": int(result is not args[0])}


def _run_result(args, kwargs, result) -> dict:
    levels = getattr(result.dendrogram, "levels", ())
    return {"iterations": len(result.trace), "entity_rounds": sum(len(level) for level in levels)}


# Span name -> ("module:attribute" targets, counter of the call or None).
# Exports are sized after the operation (see Tracer.exports), so that the
# encoding does not land inside an open span.
TARGETS = {
    "dataset.load_csv": (("mbclust.cli:load_csv",), None),
    "dataset.from_codes": (("mbclust.dataset:Dataset.from_codes",), None),
    "importance.report": (("mbclust.core:importance_report",), None),
    "importance.pgp2": (("mbclust.core:pgp2",), None),
    "similarity.build_sm": (("mbclust.core:build_sm", "mbclust.importance:build_sm"), _pairs),
    "similarity.update_sm": (("mbclust.importance:update_sm_after_drop",), None),
    "similarity.pairwise": (("mbclust.cli:pairwise_matrix",), _cells),
    "core.run": (("mbclust.core:run", "mbclust.cli:run"), _run_result),
    "core.group_matching": (("mbclust.core:group_matching",), _merges),
    "core.anti_merge": (("mbclust.core:anti_merge_update",), _fired),
    "core.select_drop": (("mbclust.core:select_drop",), None),
    "core.export": (("mbclust.core:Dendrogram.to_dict", "mbclust.core:Dendrogram.to_newick",
                     "mbclust.core:IterationRecord.to_dict"), None),
    "cli.main": (("mbclust.cli:main",), None),
}


def _resolve(target: str):
    """(owner, attribute name) of a target, or None when it is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Records spans and counters while installed; not thread-safe, since
    the traced operations run on one thread."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.exports: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id, "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            if name == "core.export":
                self.exports.append((span["id"], result))
            return result

        return traced

    def install(self) -> None:
        for name, (targets, count) in TARGETS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr = found
                static = inspect.getattr_static(owner, attr)
                if isinstance(static, classmethod):
                    replacement = classmethod(self._wrap(name, static.__func__, count))
                else:
                    replacement = self._wrap(name, static, count)
                self._undo.append((owner, attr, static))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for span_id, result in self.exports:
            text = result if isinstance(result, str) else json.dumps(result, separators=(",", ":"))
            self.spans[span_id].setdefault("counts", {})["bytes"] = len(text.encode())
        self.exports.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- aggregation -------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[dict], output_bytes: int) -> dict:
    """Per-layer metrics of one traced operation."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def outermost(name):
        # Spans of ``name`` not nested in another span of the same name.
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            parent = s["parent"]
            while parent is not None and by_id[parent]["name"] != name:
                parent = by_id[parent]["parent"]
            if parent is None:
                out.append(s)
        return out

    def busy(name):
        return sum(s["end"] - s["start"] for s in outermost(name))

    def self_time(name):
        return sum(s["end"] - s["start"] - _covered((c["start"], c["end"]) for c in children.get(s["id"], []))
                   for s in outermost(name))

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def counted(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name)

    run_s = busy("core.run")
    run_self_s = self_time("core.run")
    return {
        "dataset.load_csv_s": busy("dataset.load_csv"),
        "dataset.from_codes_s": busy("dataset.from_codes"),
        "importance.report_s": busy("importance.report"),
        "importance.report_calls": calls("importance.report"),
        "importance.pgp2_s": busy("importance.pgp2"),
        "importance.pgp2_calls": calls("importance.pgp2"),
        "similarity.build_sm_s": busy("similarity.build_sm"),
        "similarity.build_sm_calls": calls("similarity.build_sm"),
        "similarity.build_sm_pairs": counted("similarity.build_sm", "pairs"),
        "similarity.update_sm_s": busy("similarity.update_sm"),
        "similarity.update_sm_calls": calls("similarity.update_sm"),
        "similarity.pairwise_s": busy("similarity.pairwise"),
        "similarity.pairwise_cells": counted("similarity.pairwise", "cells"),
        "core.run_s": run_s,
        "core.run_self_s": run_self_s,
        "core.run_covered": 1.0 - run_self_s / run_s if run_s else 0.0,
        "core.group_matching_s": busy("core.group_matching"),
        "core.merges": counted("core.group_matching", "merges"),
        "core.anti_merge_s": busy("core.anti_merge"),
        "core.anti_merge_fired": counted("core.anti_merge", "fired"),
        "core.select_drop_s": busy("core.select_drop"),
        "core.tie_break_rounds": sum(
            1 for s in spans if s["name"] == "core.select_drop"
            and any(c["name"] == "importance.pgp2" for c in children.get(s["id"], []))),
        "core.iterations": counted("core.run", "iterations"),
        "core.entity_rounds": counted("core.run", "entity_rounds"),
        "core.export_s": busy("core.export"),
        "core.export_bytes": counted("core.export", "bytes"),
        "cli.main_s": busy("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "cli.output_bytes": output_bytes,
    }
