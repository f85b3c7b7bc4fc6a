"""One operation of one workload, run in a fresh process.

Usage: child.py WORKLOAD INPUT_DIR OUTPUT_DIR MODE SPAWNED RUN_ID

MODE is ``warm`` (import only), ``plain`` or ``traced``. SPAWNED is the
parent's ``time.monotonic()`` just before it started this process; that
clock is shared by all processes, so the difference to the moment
``import mbclust.cli`` returns is the set-up time every CLI call pays.
Writes ``result.json`` into OUTPUT_DIR; any failure exits non-zero.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mbclust.cli  # noqa: E402  the import being timed

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def main(argv: list[str]) -> int:
    name, inp, out, mode, spawned, run_id = argv
    inp, out = Path(inp), Path(out)
    result = {"setup_s": IMPORTED - float(spawned), "package": mbclust.__file__}
    if mode != "warm":
        operation, finish = WORKLOADS[name].prepare(mbclust, inp, out)
        tracer = Tracer(int(run_id)) if mode == "traced" else None
        if tracer is not None:
            tracer.install()
        started = time.perf_counter()
        try:
            returned = operation()
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["output_bytes"] = _output_bytes(out)
        if finish is not None:
            finish(returned)
        if tracer is not None:
            result["spans"] = tracer.spans
            result["missing"] = tracer.missing
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
