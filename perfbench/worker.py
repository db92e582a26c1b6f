"""One sample of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--spans FILE]

Imports ``superfock`` from the ``src/`` next to ``perfbench/`` (never an
installed copy), prints ``READY <t>`` with ``t`` read from the system-wide
monotonic clock, runs the workload's ``run_suite`` calls and prints
``RESULT <json>``.  Without ``--spans`` a ``probe.Probe`` times the host's
speed throughout, and each time is also given at the reference speed.  With
``--spans`` every layer is traced and the spans are written to FILE instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import inspect
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

from probe import Probe, at_reference_speed
from spans import Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
READY = "READY "
RESULT = "RESULT "
NOT_LAYERS = ("verify", "cli")  # the root of every span, and the CLI


def clock() -> float:
    """Monotonic time, comparable between processes of one host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_verify():
    """Import ``superfock.verify`` from SRC and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    verify = importlib.import_module("superfock.verify")
    where = Path(verify.__file__).resolve().parent
    if where != SRC / "superfock":
        raise ImportError(f"superfock was imported from {where}, not from {SRC}")
    return verify


def package_modules() -> dict:
    """Every module of ``superfock``, by short name."""
    import superfock
    return {info.name: importlib.import_module(f"superfock.{info.name}")
            for info in pkgutil.iter_modules(superfock.__path__)}


def discover_caches(modules: dict) -> dict[str, list]:
    """Every object with ``cache_info`` that a module or one of its classes defines."""
    found: dict[str, list] = {}
    seen: set[int] = set()
    for short, mod in modules.items():
        holders = [mod] + [c for c in vars(mod).values()
                           if inspect.isclass(c) and c.__module__ == mod.__name__]
        for holder in holders:
            for obj in vars(holder).values():
                if (hasattr(obj, "cache_info") and id(obj) not in seen
                        and getattr(obj, "__module__", None) == mod.__name__):
                    seen.add(id(obj))
                    found.setdefault(short, []).append(obj)
    return found


def cache_totals(caches: dict[str, list]) -> dict[str, dict]:
    """Hits, misses and entries of each module's caches, summed."""
    out = {}
    for short, objs in caches.items():
        infos = [obj.cache_info() for obj in objs]
        out[short] = {"cache_hits": sum(i.hits for i in infos),
                      "cache_misses": sum(i.misses for i in infos),
                      "cache_entries": sum(i.currsize for i in infos)}
    return out


def stripped_report(verify, cfg, results) -> dict:
    """``report_json`` without its timing fields and without the seed.

    Passing checks report no sampled data, so what is left is the same at
    every seed and one reference digest serves them all.
    """
    report = json.loads(verify.report_json(cfg, results))
    for check in report["checks"]:
        del check["seconds"]
    del report["config"]["seed"]
    return report


def digest(reports: list[dict]) -> str:
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def run_sample(verify, passes, seed: int, tracer: Tracer | None = None,
               probe: Probe | None = None) -> dict:
    """Run the passes; ``wall_s`` leaves out the probe's own time.

    With a probe, ``verify_s`` and ``pass_s`` are at the reference speed;
    without one they are wall times.
    """
    pass_s, reports, suite_s = [], [], {}
    wall = 0.0
    checks = failed = 0
    for configs in passes:
        spent = 0.0
        for kwargs in configs:
            cfg = verify.RunConfig(seed=seed, **kwargs)
            span = tracer.run(len(reports)) if tracer else contextlib.nullcontext()
            with span:
                if probe:
                    probe.take()
                t0, c0 = time.perf_counter(), time.process_time()
                results = verify.run_suite(cfg)
                elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
            if probe:
                ticks = probe.take()
                wall += elapsed - sum(ticks)
                spent += at_reference_speed(cpu, ticks)
            else:
                wall += elapsed
                spent += elapsed
            reports.append(stripped_report(verify, cfg, results))
            for r in results:
                suite_s[r.suite] = suite_s.get(r.suite, 0.0) + r.seconds
                checks += 1
                failed += r.status == "fail"
        pass_s.append(spent)
    return {"verify_s": sum(pass_s), "wall_s": wall, "pass_s": pass_s, "suite_s": suite_s,
            "checks": checks, "failed": failed, "digest": digest(reports)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    probe = None if args.spans else Probe()
    if probe:
        probe.start()
    verify = load_verify()
    print(f"{READY}{clock()!r}", flush=True)
    if probe:  # CPU time since the process started, at the reference speed
        setup_s = at_reference_speed(time.process_time(), probe.take())

    modules = package_modules()
    caches = discover_caches(modules)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install({k: m for k, m in modules.items() if k not in NOT_LAYERS},
                       list(modules.values()))
    result = run_sample(verify, WORKLOADS[args.workload], args.seed, tracer, probe)
    if probe:
        probe.stop()
        result["setup_s"] = setup_s
    result["caches"] = cache_totals(caches)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.layer_totals()
        result["scalar_ops"] = tracer.scalar_ops
        result["spans"] = tracer.write(args.spans)
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
