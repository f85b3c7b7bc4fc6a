"""Benchmark of the mbclust package: seeded workloads, checked outputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/mbclust``. Inputs are
generated from the seed and written to disk before timing starts. Then a
closed loop with one client runs the workload's operation, each time in
a fresh child process, until ``--seconds`` have passed; each output is
checked. After each untraced operation, and once before the first, a
process of its own times a fixed reference computation (``reference.py``).
The last line of standard output is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). A
traced run alternates untraced and traced operations, so that it can
also report the tracing overhead. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import KINDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = Path(__file__).resolve().with_name("child.py")
REFERENCE = Path(__file__).resolve().with_name("reference.py")
# Children still running this long after the run started are killed and
# count as failed, so that a run ends well within three minutes.
RUN_TIMEOUT_S = 150.0

# Tail percentiles considered for the timing summary, highest first.
PERCENTILES = (99, 95, 90, 75, 50)


def _spawn(workload: str, inp: Path, out: Path, mode: str, run_id: int, timeout: float) -> dict:
    """Run one child; return its result, or raise RuntimeError."""
    out.mkdir()
    with open(out / "stderr.txt", "w", encoding="utf-8") as err:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), workload, str(inp), str(out), mode, repr(spawned), str(run_id)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"operation did not finish within {timeout:.0f} s") from None
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (out / "stderr.txt").read_text(encoding="utf-8").strip().splitlines()[-3:]
        raise RuntimeError(f"child exited with status {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["package"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported mbclust from {result['package']}, not from {SRC}")
    return result


def _reference(kind: str) -> float:
    """Seconds of one reference pass, timed in a fresh process."""
    proc = subprocess.run([sys.executable, str(REFERENCE), kind], stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_operations(workload, seed: int, seconds: float, trace: bool, inp: Path,
                   run_dir: Path) -> tuple[float, list[dict]]:
    """Closed loop: one operation at a time until the time is used up.

    A new operation starts only if a typical one still fits. A traced run
    alternates untraced and traced operations and makes at least one of
    each. Untraced operations are each followed by a reference timing.
    Returns the reference timing made before the first operation and one
    record per operation.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    _spawn(workload.name, inp, run_dir / "warm", "warm", -1, RUN_TIMEOUT_S)  # compiles the package once
    first_reference = _reference(workload.reference)
    records: list[dict] = []
    first_digest = None
    started = time.monotonic()
    while True:
        index = len(records)
        mode = "traced" if trace and index % 2 else "plain"
        out = run_dir / f"op{index:04d}"
        op_started = time.monotonic()
        record = {"mode": mode, "error": None}
        try:
            record.update(_spawn(workload.name, inp, out, mode, index, deadline - op_started))
            checked = workload.check(inp, out, seed)
            record["purity"] = checked["purity"]
            if first_digest is None:
                first_digest = checked["digest"]
            elif checked["digest"] != first_digest:
                raise RuntimeError("output differs from the first operation of this run on the same input")
        except Exception as exc:  # every failure is counted, never fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        if mode == "plain":
            record["reference_s"] = _reference(workload.reference)
        record["elapsed"] = time.monotonic() - op_started
        records.append(record)
        shutil.rmtree(out)
        used = time.monotonic() - started
        typical = statistics.median(r["elapsed"] for r in records)
        enough = len(records) >= (2 if trace else 1)
        if (enough and used + typical > seconds) or time.monotonic() >= deadline:
            return first_reference, records


def tail_summary(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.4f} s"
    return f"no percentile has ten samples beyond it with {n} samples"


def end_to_end(records: list[dict], references: list[float], nominal_s: float) -> dict:
    plain = [r for r in records if r["mode"] == "plain" and "wall_s" in r]
    timed = [r for r in records if "setup_s" in r]
    purities = [r["purity"] for r in records if "purity" in r]
    failed = sum(1 for r in records if r["error"])
    # Each operation lies between two reference timings, the one after it
    # and the one after the previous operation (or before the first). The
    # ratio of their means cancels much of the host's speed drift; it
    # varied less from run to run than the median of per-operation ratios.
    return {
        "wall_norm_s": (statistics.fmean(r["wall_s"] for r in plain)
                        / statistics.fmean(references) * nominal_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "purity": statistics.median(purities) if purities else 0.0,
        "success_rate": 1.0 - failed / len(records),
    }


def per_layer(records: list[dict]) -> dict:
    from tracing import layer_metrics

    traced = [r for r in records if r["mode"] == "traced" and "spans" in r]
    plain = [r for r in records if r["mode"] == "plain" and "wall_s" in r]
    rows = [layer_metrics(r["spans"], r["output_bytes"]) for r in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics


def _units(benchmark: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in benchmark[key]}


def main(argv=None, sizes=None) -> int:
    """Run one workload; ``sizes`` overrides its input shape (the self-test
    uses tiny ones)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mbclust" / "__init__.py").is_file():
        print(f"error: no mbclust sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    try:
        inp = run_dir / "input"
        inp.mkdir()
        properties = workload.generate(args.seed, inp, sizes)
        first_reference, records = run_operations(workload, args.seed, args.seconds, bool(args.trace),
                                                  inp, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in records if r["error"]]
    completed = {r["mode"] for r in records if "wall_s" in r}
    if not completed >= ({"plain", "traced"} if args.trace else {"plain"}):
        print(f"error: no operation of some mode completed; first failure: {failed[0]['error']}", file=sys.stderr)
        return 1
    references = [first_reference] + [r["reference_s"] for r in records
                                      if r["mode"] == "plain" and "wall_s" in r]
    nominal_s = KINDS[workload.reference][1]
    e2e = end_to_end(records, references, nominal_s)
    walls = [r["wall_s"] for r in records if r["mode"] == "plain" and "wall_s" in r]
    print(f"workload {workload.name}, seed {args.seed}: {len(records)} operations, closed loop, one client, "
          f"one fresh process each; {len(failed)} failed")
    print("input: " + ", ".join(f"{k}={v}" for k, v in properties.items()))
    for r in failed:
        print(f"failed: {r['error']}")
    units = _units(benchmark, "end_to_end")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g} {units[name]}")
    print(f"  {'error_rate':<14} {len(failed) / len(records):.6g} share")
    print(f"  wall_s over {len(walls)} untraced samples: median {statistics.median(walls):.4f} s, "
          f"max {max(walls):.4f} s, {tail_summary(walls)}")
    print("  wall_s samples: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  reference_s ({workload.reference}) over {len(references)} samples: "
          f"median {statistics.median(references):.4f} s, nominal {nominal_s} s")
    print("  reference_s samples: " + " ".join(f"{r:.3f}" for r in references))

    if args.trace:
        units = _units(benchmark, "per_layer")
        metrics = per_layer(records)
        for name, value in metrics.items():
            print(f"  {name:<28} {value:.6g} {units[name]}")
        spans = [s for r in records for s in r.get("spans", ())]
        missing = sorted({m for r in records for m in r.get("missing", ())})
        if missing:
            print("not found, reported as zero: " + ", ".join(missing))
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
