"""The public surface of the package: ``mbclust.__all__``, and the
settable values of the per-round records and of ``Dataset.from_codes``.

Both are pinned so that an export, a field or a parameter is added or
removed only on purpose, and a stale entry fails at once.
"""

import dataclasses
import inspect

import mbclust

PUBLIC = {
    "CsvError",
    "ClusteringState",
    "ContingencyTable",
    "Dataset",
    "DegenerateDataError",
    "Dendrogram",
    "ImportanceReport",
    "IterationRecord",
    "IMPORTANCE_PGP",
    "IMPORTANCE_PPP",
    "MbcConfig",
    "MbcError",
    "MbcResult",
    "MergeEvent",
    "STOP_ALL_CLUSTERED",
    "STOP_TIED_IMPORTANCE",
    "SimilarityMatrix",
    "TIES_DROP_ALL",
    "TIES_PGP2",
    "anti_merge_update",
    "build_sm",
    "contingency",
    "count_matches",
    "goodall",
    "group_matching",
    "importance_report",
    "initial_state",
    "lin",
    "load_csv",
    "match_pair_counts",
    "misclassified",
    "overlap",
    "pairwise_blocks",
    "pgp",
    "pgp2_kept_counts",
    "ppp",
    "purity",
    "run",
    "select_drop",
    "update_sm_after_drop",
}


def test_all_has_no_duplicates():
    assert len(mbclust.__all__) == len(set(mbclust.__all__))


def test_every_export_resolves():
    missing = [name for name in mbclust.__all__ if not hasattr(mbclust, name)]
    assert missing == []


def test_exports_equal_the_pinned_list():
    assert set(mbclust.__all__) == PUBLIC


def test_record_fields_and_from_codes_parameters_are_pinned():
    """Derived values (``theta``, ``feature_names``, ``mismatch_pairs``) are properties, not stored copies."""
    assert [f.name for f in dataclasses.fields(mbclust.IterationRecord)] == ["iteration", "report", "dropped"]
    assert [f.name for f in dataclasses.fields(mbclust.ImportanceReport)] == [
        "feature_names", "n_entities", "match_pairs"]
    assert list(inspect.signature(mbclust.Dataset.from_codes).parameters) == ["codes"]
