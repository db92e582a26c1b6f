"""Golden files pin the serialized interchange formats byte-for-byte."""

import contextlib
import io
import json
import pathlib

from superfock.algebra import R2, Signature, SuperPolynomial
from superfock.cli import main
from superfock.fock import gram
from superfock.liealg import tkk_for
from superfock.scalars import QQi
from superfock.verify import RunConfig, report_json, run_suite

GOLDEN = pathlib.Path(__file__).parent / "golden"


def gram_json(k: int, sig: Signature) -> str:
    """The degree-k Bessel-Fischer Gram matrix as JSON: basis monomials and
    entries, as strings."""
    keys, mat = gram(k, sig)
    names = [str(SuperPolynomial.monomial(sig, key)) for key in keys]
    return json.dumps({
        "degree": k,
        "basis": names,
        "entries": [[str(v) for v in row] for row in mat],
    }, indent=1)


def test_structure_constants_golden():
    blob = tkk_for(Signature(2, 1)).structure_constants_json() + "\n"
    assert blob == (GOLDEN / "tkk_structure_2_1.json").read_text()


def test_gram_golden():
    blob = gram_json(1, Signature(4, 0, varset="z")) + "\n"
    assert blob == (GOLDEN / "gram_4_0_k1.json").read_text()


def test_polynomial_rendering_pinned():
    sig = Signature(4, 1)
    assert str(R2(sig)) == "2*t1*t2 + 1*x3^2 + 1*x2^2 + 1*x1^2 + -1*x0^2"
    p = SuperPolynomial.monomial(sig, ((1, 0, 2, 0), (4,)), QQi(-1, 2, 3))
    assert str(p) == "-1/3+2/3*i*x0*x2^2*t1"


def report_without_timings(cfg: RunConfig) -> str:
    payload = json.loads(report_json(cfg, run_suite(cfg)))
    for check in payload["checks"]:
        del check["seconds"]
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_verification_report_golden():
    # every suite at (4,0), degree 2, seed 0; only the timings may move
    cfg = RunConfig(m=4, n=0, max_degree=2, seed=0)
    assert report_without_timings(cfg) == (GOLDEN / "report_4_0_d2.json").read_text()


def test_verification_report_golden_with_odd_variables():
    # the Fock, integral and SB suites at (6,1), degree 2, seed 0
    cfg = RunConfig(m=6, n=1, max_degree=2, seed=0, suites=("fock", "integral", "sb"))
    assert report_without_timings(cfg) == (GOLDEN / "report_6_1_d2.json").read_text()


def test_verification_report_golden_with_two_odd_pairs():
    # every suite at (8,2), degree 2, seed 0: M = 4, so the forward SB images run
    cfg = RunConfig(m=8, n=2, max_degree=2, seed=0)
    assert report_without_timings(cfg) == (GOLDEN / "report_8_2_d2.json").read_text()


def test_verification_report_golden_below_m4():
    # every suite at (4,1), degree 2, seed 0: M = 2, so the integral, the
    # forward SB checks and the kernel series skip, and the Fock suite takes
    # its degenerate M - 2 paths
    cfg = RunConfig(m=4, n=1, max_degree=2, seed=0)
    assert report_without_timings(cfg) == (GOLDEN / "report_4_1_d2.json").read_text()


# --trace prints every record of phi#, the weights and the ray restriction
# that reaches the top odd monomial; --gamma the raw integral of exp(-4 x_0)
CLI_RUNS = (
    "--m 6 --n 1 --trace 2,0,0,0,0,0",
    "--m 8 --n 2 --max-degree 1 --trace 2,2,0,0,0,0,0,0",
    "--m 10 --n 3 --max-degree 1 --trace 0,0,0,0,0,0,0,0,0,0",
    "--m 6 --n 1 --gamma",
    "--m 8 --n 2 --max-degree 1 --gamma",
    "--m 10 --n 3 --max-degree 1 --gamma",
)


def cli_transcript() -> str:
    """Each run of CLI_RUNS as a "$ superfock-verify ARGS" line and its stdout."""
    parts = []
    for args in CLI_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(args.split()) == 0
        parts.append(f"$ superfock-verify {args}\n{out.getvalue()}")
    return "".join(parts)


def test_traced_integrals_and_gamma_golden():
    assert cli_transcript() == (GOLDEN / "trace_gamma.txt").read_text()
