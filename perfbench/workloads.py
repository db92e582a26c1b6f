"""The benchmark's workloads.

A workload is a list of passes; a pass is a list of ``RunConfig`` keyword
sets, each run by one ``run_suite`` call.  One sample of a workload runs all
its passes in one fresh interpreter, so module-level caches start empty in
every sample and are shared only between the calls of that sample.

The shapes are trimmed from the acceptance matrix so that one sample takes a
few seconds and a run can report the median of several samples.
"""

from __future__ import annotations

SWEEP_SUITES = ("algebra", "quotient", "harmonics", "liealg", "schrodinger")
SWEEP_SHAPES = ((4, 0), (3, 0))

WORKLOADS: dict[str, list[list[dict]]] = {
    # M = 3: the fock suite builds the Bessel-Fischer table (degree 3) and the
    # Fock action, while the integral and forward-SB layers do no work.
    "fock-pairing": [[dict(m=5, n=1, max_degree=2, suites=("fock",))]],
    # M = 5: the W-side form (pi-skew, unitarity), the forward transform
    # (intertwining) and the inverse transform on top of a few BF pairings.
    "sb-transform": [[dict(m=5, n=0, max_degree=2, suites=("integral", "sb"))]],
    # One long-lived process, two passes over alternating shapes: many
    # signatures sharing module-level caches, as the test suite uses them.
    "shape-sweep": [[dict(m=m, n=n, max_degree=2, suites=SWEEP_SUITES)
                     for m, n in SWEEP_SHAPES] for _ in range(2)],
    # Tiny workload for the benchmark's own tests; not in BENCHMARK.json.
    "smoke": [[dict(m=4, n=0, max_degree=2, suites=("quotient",))]],
}
