"""Record the output digests of the clustering workloads at seed 0.

Usage, from the repository root:

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``, keyed by the SHA-256 of the generated
inputs, which the output checks then compare against. Rerun it only when
the outputs change on purpose.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import (EXPECTED_PATH, WORKLOADS, ClusteringWorkload, check_clustering, input_digest,
                       load_cluster_outputs)

SEED = 0


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    recorded = {}
    for workload in WORKLOADS.values():
        if not isinstance(workload, ClusteringWorkload):
            continue
        tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
        try:
            inp = tmp / "input"
            inp.mkdir()
            workload.generate(SEED, inp)
            run._spawn(workload.name, inp, tmp / "out", "plain", 0, run.RUN_TIMEOUT_S)
            digest = check_clustering(load_cluster_outputs(tmp / "out"), workload.sizes.n)
            recorded[input_digest(inp)] = {"workload": workload.name, "seed": SEED, "output_sha256": digest}
            print(f"{workload.name}: {digest}")
        finally:
            shutil.rmtree(tmp)
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
