"""Matching-based clustering of categorical data.

Objects described by categorical features are merged when they agree on
every remaining feature; features are then pruned by importance so that
looser agreement can surface, yielding a hierarchy of partitions. The
package also ships standalone similarity measures, feature-importance
rankings, and clustering evaluation against known labels.
"""

from .core import (
    IMPORTANCE_PGP,
    IMPORTANCE_PPP,
    STOP_ALL_CLUSTERED,
    STOP_TIED_IMPORTANCE,
    TIES_DROP_ALL,
    TIES_PGP2,
    ClusteringState,
    Dendrogram,
    IterationRecord,
    MbcConfig,
    MbcResult,
    MergeEvent,
    anti_merge_update,
    group_matching,
    initial_state,
    run,
    select_drop,
)
from .dataset import Dataset, load_csv
from .errors import CsvError, DegenerateDataError, MbcError
from .evaluation import ContingencyTable, contingency, misclassified, purity
from .importance import (
    ImportanceReport,
    importance_report,
    match_pair_counts,
    pgp,
    pgp2_kept_counts,
    ppp,
)
from .similarity import (
    SimilarityMatrix,
    build_sm,
    count_matches,
    goodall,
    lin,
    overlap,
    pairwise_blocks,
    update_sm_after_drop,
)

__version__ = "0.1.0"

__all__ = [
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
]
