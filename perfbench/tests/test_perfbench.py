"""Tests of run.py, the digest gate, the speed probe and the span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from probe import PERIOD_S, REF_S, Probe, at_reference_speed  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_self_time_subtracts_children():
    #   root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #                -> b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]



def test_reference_speed_takes_out_the_probe_and_averages_the_speed():
    # Two ticks: one at the reference speed, one at half of it.
    ticks = [REF_S, 2 * REF_S]
    expected = (1.0 - 3 * REF_S) * (1.0 + 0.5) / 2
    assert abs(at_reference_speed(1.0, ticks) - expected) < 1e-12
    assert at_reference_speed(1.0, []) > 0  # times the kernel once instead


def test_probe_ticks_between_start_and_stop_only():
    probe = Probe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 10 * PERIOD_S:
        sum(range(1000))
    probe.stop()
    ticks = probe.take()
    assert len(ticks) >= 5 and all(c > 0 for c in ticks)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 2 * PERIOD_S:
        sum(range(1000))
    assert probe.take() == []


def _toy_package():
    """Two layer modules and a root module that calls them."""
    low = types.ModuleType("toy.low")

    class Poly:
        def __init__(self, n):
            self.terms = dict.fromkeys(range(n))

        def __mul__(self, other):
            return Poly(len(self.terms) * len(other.terms))

    Poly.__module__ = "toy.low"

    def make(n):
        return Poly(n) * Poly(1)  # stays inside the layer: no second span

    make.__module__ = "toy.low"
    low.Poly, low.make = Poly, make

    high = types.ModuleType("toy.high")

    def square(n):
        p = low.make(n)  # crosses into the low layer
        return p * p

    square.__module__ = "toy.high"
    high.square, high.low = square, low
    return low, high


def test_tracer_opens_spans_at_layer_boundaries_only():
    low, high = _toy_package()
    tracer = Tracer()
    tracer.install({"low": low, "high": high}, [low, high])
    with tracer.run(0):
        result = high.square(3)
    assert len(result.terms) == 9
    totals = tracer.layer_totals()
    # high.square once; from it, make and Poly.__mul__; make's own product is inner.
    assert totals["high"]["calls"] == 1
    assert totals["low"]["calls"] == 2
    assert totals["low"]["max_terms"] == 9
    assert totals["verify"]["calls"] == 1
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["verify.run_suite", "high.square", "low.make", "low.Poly.__mul__"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    total_self = sum(row["self_s"] for row in totals.values())
    assert abs(total_self - (tracer.end[0] - tracer.start[0])) < 1e-9


def test_smoke_worker_matches_reference_and_writes_spans(tmp_path):
    spans = tmp_path / "spans.tsv.gz"
    out = subprocess.run([sys.executable, str(HERE / "worker.py"),
                          "--workload", "smoke", "--seed", "5", "--spans", str(spans)],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    result = json.loads(out.splitlines()[-1][len(worker.RESULT):])
    reference = json.loads(run.REFERENCE.read_text())
    assert result["digest"] == reference["smoke"]
    assert result["failed"] == 0 and result["checks"] == 2
    assert result["caches"]["quotient"]["cache_misses"] > 0
    assert result["layers"]["quotient"]["calls"] > 0
    assert result["scalar_ops"] > 0
    with gzip.open(spans, "rt") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    assert rows[0] == ["name", "start", "end", "parent", "run"]
    assert len(rows) - 1 == result["spans"]
    for i, row in enumerate(rows[1:]):
        assert -1 <= int(row[3]) < i and float(row[1]) <= float(row[2])


def test_caches_roll_up_per_module_including_class_attributes():
    worker.load_verify()
    caches = worker.discover_caches(worker.package_modules())
    names = {short: {obj.__name__ for obj in objs} for short, objs in caches.items()}
    assert "_cayley_matrices" in names["liealg"] and "tkk_for" in names["liealg"]
    assert "bf_mono_pair" in names["fock"]
    assert "verify" not in names


def test_gate_reports_failed_checks_and_digest_mismatch():
    good = {"digest": "abc", "failed": 0, "checks": 4}
    assert run.problems("w", [good, good], {"w": "abc"}) == []
    assert len(run.problems("w", [good], {"w": "xyz"})) == 1
    assert len(run.problems("w", [good, dict(good, digest="abd")], {"w": "abc"})) == 1
    assert len(run.problems("w", [dict(good, failed=1)], {"w": "abc"})) == 1
    assert len(run.problems("unknown", [good], {})) == 1


def test_smoke_run_prints_every_metric_of_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [spec["name"] for spec in bench[key]]
    assert last["metrics"]["fock.calls"]["value"] == 0
    assert last["metrics"]["quotient.calls"]["value"] > 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "fock-pairing", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
