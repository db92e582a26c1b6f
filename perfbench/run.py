"""Benchmark of ``superfock.verify``, one workload per invocation.

    python3 perfbench/run.py --workload fock-pairing --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Every sample runs in a fresh interpreter on this checkout's ``src/`` (see
``worker.py``).  With ``--trace 0`` the run repeats samples for ``--seconds``
seconds and reports the end-to-end metrics of BENCHMARK.json, its times
rescaled to the reference host speed (see ``probe.py``); with
``--trace 1`` it alternates untraced and traced samples and reports the
per-layer metrics.  ``--workload all`` runs both for every workload.  Each
metric is printed as ``name value unit``; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only when every check passed and every report matched its reference digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import READY, RESULT, SRC, clock
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
RUN_LIMIT_S = 170.0   # a run must end within 180 s, set-up included
MIN_SAMPLES = 3


class BenchError(Exception):
    """A worker that crashed or ran past the run's time limit."""


def spawn(workload: str, seed: int, deadline: float, spans: Path | None = None) -> dict:
    """Run one worker to completion; return its result plus its wall set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a {workload} worker ran past the run's time limit") from None
    result: dict = {}
    for line in out.splitlines():
        if line.startswith(READY):
            result["setup_wall_s"] = float(line[len(READY):]) - t0
        elif line.startswith(RESULT):
            result.update(json.loads(line[len(RESULT):]))
    if proc.returncode != 0 or "setup_wall_s" not in result or "digest" not in result:
        raise BenchError(f"worker exited with {proc.returncode}:\n{out}")
    return result


def repeat(step, seconds: float, min_steps: int) -> list:
    """Call ``step`` at least ``min_steps`` times, then while the next call fits in ``seconds``."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - t0
        if len(out) >= min_steps and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def problems(workload: str, samples: list[dict], reference: dict) -> list[str]:
    """Failed checks, and reports that disagree with each other or the reference."""
    found = [f"{s['failed']} of {s['checks']} checks failed" for s in samples if s["failed"]]
    expected = reference.get(workload)
    for got in sorted({s["digest"] for s in samples}):
        if got != expected:
            found.append(f"report digest {got} differs from the reference {expected}")
    return found


def quartiles(name: str, values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)  # needs two values or more
    return f"{name} median {q2:.4f} quartiles {q1:.4f} {q3:.4f} s over {len(values)} samples"


def end_to_end(samples: list[dict]) -> tuple[dict, list[str]]:
    times = [s["verify_s"] for s in samples]
    checks = sum(s["checks"] for s in samples)
    metrics = {"verify_s": statistics.median(times),
               "setup_s": statistics.median(s["setup_s"] for s in samples),
               "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples)}
    notes = [quartiles("verify_s", times),
             quartiles("wall verify_s", [s["wall_s"] for s in samples]),
             quartiles("wall setup_s", [s["setup_wall_s"] for s in samples]),
             f"check_fail_ratio {sum(s['failed'] for s in samples) / checks} ratio"
             f" ({checks} checks)"]
    for module, counts in sorted(samples[0]["caches"].items()):
        notes += [f"{module}.{key} {value} count" for key, value in counts.items()]
    return metrics, notes


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics from untraced samples (caches, suites) and traced ones."""
    metrics: dict = {}
    layers = sorted({layer for s in traced for layer in s["layers"]})
    for layer in layers:
        rows = [s["layers"].get(layer, {}) for s in traced]
        metrics[f"{layer}.calls"] = rows[0].get("calls", 0)
        metrics[f"{layer}.self_s"] = statistics.median(r.get("self_s", 0.0) for r in rows)
        if "max_terms" in rows[0]:
            metrics[f"{layer}.max_terms"] = rows[0]["max_terms"]
    metrics["scalars.ops"] = traced[0]["scalar_ops"]
    for module, counts in plain[0]["caches"].items():
        for key, value in counts.items():
            metrics[f"{module}.{key}"] = value
    for suite in sorted({name for s in plain for name in s["suite_s"]}):
        metrics[f"suite.{suite}_s"] = statistics.median(s["suite_s"].get(suite, 0.0) for s in plain)
    metrics["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                   - statistics.median(s["wall_s"] for s in plain))
    if len(plain[0]["pass_s"]) > 1:
        metrics["sweep.second_pass_ratio"] = statistics.median(
            s["pass_s"][1] / s["pass_s"][0] for s in plain)
    return metrics


def unit_of(name: str) -> str:
    """Unit of a printed metric that BENCHMARK.json does not list."""
    return "s" if name.endswith("_s") else "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 specs: list[dict], reference: dict) -> dict:
    """One timed or traced run; prints its metrics and returns the result object."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not trace:
        samples = repeat(lambda: spawn(workload, seed, deadline), seconds, MIN_SAMPLES)
        values, notes = end_to_end(samples)
        checked = samples
    else:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{workload}.tsv.gz"
        pairs = repeat(lambda: (spawn(workload, seed, deadline),
                                spawn(workload, seed, deadline, spans=spans)), seconds, 1)
        plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
        values = per_layer(plain, traced)
        notes = [f"spans {traced[-1]['spans']} count (written to {spans.relative_to(ROOT)})"]
        checked = plain + traced
    by_name = {spec["name"]: spec for spec in specs}
    found = problems(workload, checked, reference)
    for line in notes + [f"{name} {values[name]!r} {unit_of(name)}"
                         for name in sorted(set(values) - set(by_name))]:
        print(f"{workload}: {line}")
    for line in found:
        print(f"{workload}: FAILED {line}")
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"], 0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{workload}: {spec['name']} {value!r} {spec['unit']}")
    return {"correct": not found, "attempted": sum(s["checks"] for s in checked),
            "failed": sum(s["failed"] for s in checked), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of superfock.verify")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "superfock" / "verify.py").is_file():
        print(f"no superfock sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    if args.workload == "all":
        plan = [(w["name"], trace) for w in bench["workloads"] for trace in (False, True)]
    elif args.workload in WORKLOADS:
        plan = [(args.workload, bool(args.trace))]
    else:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    results = []
    try:
        for workload, trace in plan:
            specs = bench["per_layer" if trace else "end_to_end"]
            results.append((workload, run_workload(workload, args.seed, args.seconds,
                                                   trace, specs, reference)))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{w}/{name}": m for w, r in results
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
