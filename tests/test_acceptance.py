"""Acceptance suite: every exit criterion at its pinned scope, exact.

Configuration matrix: integral-dependent criteria run on the four shapes with
superdimension at least 4; purely algebraic criteria additionally run on
(4,1) and (2,2).  Each test prints one line per configuration; everything is
asserted with zero tolerance except the explicitly numeric special-function
bounds of criterion 16.
"""

import pytest

from superfock.verify import (ALL_SUITES, Context, RunConfig, check_angular_commutes,
                              check_bessel_product_rule, check_bessel_tangential,
                              check_bf_l_adjoint, check_bf_products,
                              check_cayley, check_dimension_chain,
                              check_euler_vanishing, check_gram,
                              check_hermite, check_integral_well_defined,
                              check_intertwining, check_intertwining_inverse,
                              check_k_exponential, check_kernel,
                              check_laguerre, check_normalization,
                              check_osp_matrices, check_pi_representation,
                              check_pi_skew, check_rho_composition,
                              check_rho_ladders, check_rho_representation,
                              check_round_trips, check_sl2_triple, check_tkk_axioms,
                              check_truncation_consistency, check_unitarity,
                              check_i_halfinteger, run_suite)

INTEGRAL_MATRIX = [(4, 0), (5, 0), (6, 1), (7, 1)]
ALGEBRAIC_MATRIX = INTEGRAL_MATRIX + [(4, 1), (2, 2)]
# extra shape with superdimension 3: the forward transform is out of range
# there but the inverse-side identities are purely algebraic and must hold
INVERSE_SIDE_MATRIX = ALGEBRAIC_MATRIX + [(5, 1)]

_CONTEXTS: dict = {}


def ctx_for(m: int, n: int) -> Context:
    key = (m, n)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = Context(RunConfig(m=m, n=n, max_degree=3, seed=0))
    return _CONTEXTS[key]


def report(criterion: str, m: int, n: int, outcome) -> None:
    ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
    print(f"criterion {criterion} @ (m,n)=({m},{n}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} fails at (m,n)=({m},{n}): {detail}"


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_01_sl2_triple(m, n):
    report("1 (sl2 triple, degree <= 5)", m, n, check_sl2_triple(ctx_for(m, n), 5))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_02_bessel_tangentiality(m, n):
    report("2 (Bessel tangentiality on P_<=4, with witness one parameter off)",
           m, n, check_bessel_tangential(ctx_for(m, n), 4))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_02_bessel_product_rule(m, n):
    report("2b (six-term product rule of B(x_i) on monomial pairs of degree <= 3)",
           m, n, check_bessel_product_rule(ctx_for(m, n), 3))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_02_angular_commutant(m, n):
    report("2c (L_ij commutes with R^2, E, Delta on degree <= 3)",
           m, n, check_angular_commutes(ctx_for(m, n), 3))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_03_bessel_fischer_product(m, n):
    ctx = ctx_for(m, n)
    report("3a (product values, orthogonality, superhermitianity, shift; degree <= 4)",
           m, n, check_bf_products(ctx, 4))
    report("3b (angular adjointness; degree <= 4)", m, n, check_bf_l_adjoint(ctx, 4))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_04_reproducing_kernel(m, n):
    report("4 (reproducing kernel, k <= 4)", m, n, check_kernel(ctx_for(m, n), 4))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_05_gram_ranks(m, n):
    report("5 (Gram ranks, k <= 3; certified null vector when degenerate)",
           m, n, check_gram(ctx_for(m, n), 3))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_06_cayley(m, n):
    report("6 (Cayley closed forms and bracket preservation)",
           m, n, check_cayley(ctx_for(m, n)))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_06_tkk_axioms(m, n):
    report("6 (graded antisymmetry on all pairs; graded Jacobi on all or sampled triples)",
           m, n, check_tkk_axioms(ctx_for(m, n)))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_06_matrix_model(m, n):
    report("6 (the realization preserves the block metric on the big variables)",
           m, n, check_osp_matrices(ctx_for(m, n)))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_07_fock_action(m, n):
    ctx = ctx_for(m, n)
    report("7a (Cayley composition on F_<=3)", m, n, check_rho_composition(ctx, 3))
    report("7b (commutation relations on F_<=3)", m, n, check_rho_representation(ctx, 3))
    report("7c (ladder values, k <= 5)", m, n, check_rho_ladders(ctx, 5))


def test_criterion_07_representations_with_two_odd_pairs():
    # (8,2): n = 2, on top of the matrix, at degree <= 2; each check, with its
    # rows filled, takes about 0.9-1.5 s on a shared 2-vCPU host (1.0-1.8 s
    # with the commutator loop on columns and the fills through pi_op)
    ctx = Context(RunConfig(m=8, n=2, max_degree=2, seed=0))
    report("7b (commutation relations on F_<=2)", 8, 2, check_rho_representation(ctx, 2))
    report("7d (commutation relations of pi on W_<=2)", 8, 2, check_pi_representation(ctx, 2))


@pytest.mark.parametrize("m,n", ALGEBRAIC_MATRIX)
def test_criterion_08_dimension_chain(m, n):
    report("8 (normal-form count = shifted polynomial dims = harmonic nullspace, k <= 5)",
           m, n, check_dimension_chain(ctx_for(m, n), 5))


@pytest.mark.parametrize("m,n", INTEGRAL_MATRIX)
def test_criterion_09_integral_normalization(m, n):
    report("9 (unit normalization; closed-form comparison)",
           m, n, check_normalization(ctx_for(m, n)))


@pytest.mark.parametrize("m,n", INTEGRAL_MATRIX)
def test_criterion_10_integral_well_defined(m, n):
    ctx = ctx_for(m, n)
    report("10a (invariance under R^2 shifts)", m, n, check_integral_well_defined(ctx))
    report("10b (Euler identity under the integral)", m, n, check_euler_vanishing(ctx))


@pytest.mark.parametrize("m,n", INTEGRAL_MATRIX)
def test_criterion_11_pi_skew_supersymmetry(m, n):
    report("11 (skew-supersymmetry of the Schrodinger action)",
           m, n, check_pi_skew(ctx_for(m, n), 2))


@pytest.mark.parametrize("m,n", INTEGRAL_MATRIX)
def test_criterion_12_intertwining_forward(m, n):
    # the span of length-<=2 words applied to the lowest vector equals the
    # span of the reduced degree-<=2 monomial vectors, which is what we use
    report("12a (forward intertwining on the degree <= 2 spanning set)",
           m, n, check_intertwining(ctx_for(m, n), 2))


@pytest.mark.parametrize("m,n", INVERSE_SIDE_MATRIX)
def test_criterion_12_intertwining_inverse(m, n):
    report("12b (inverse-side intertwining on F_<=3 where the pairing exists)",
           m, n, check_intertwining_inverse(ctx_for(m, n), 3))


def test_every_check_passes_with_two_odd_pairs():
    # (8,2), every suite at max_degree 1: the row of two odd pairs, on top of
    # the matrix
    results = run_suite(RunConfig(m=8, n=2, max_degree=1, seed=0))
    assert {r.suite for r in results} == set(ALL_SUITES) and len(results) == 54
    assert [(r.suite, r.name, r.status, r.detail) for r in results
            if r.status != "pass"] == []


def test_criterion_12_intertwining_with_two_odd_pairs():
    # (8,2): n = 2 with M >= 4, on top of the matrix, at degree <= 2
    ctx = Context(RunConfig(m=8, n=2, max_degree=2, seed=0))
    report("12a (forward intertwining on the degree <= 2 spanning set)",
           8, 2, check_intertwining(ctx, 2))
    report("12b (inverse-side intertwining on F_<=2)",
           8, 2, check_intertwining_inverse(ctx, 2))


@pytest.mark.parametrize("m,n", INTEGRAL_MATRIX)
def test_criterion_13_unitarity(m, n):
    report("13 (the transform preserves the sesquilinear forms, degree <= 2)",
           m, n, check_unitarity(ctx_for(m, n), 2))


@pytest.mark.parametrize("m,n", INTEGRAL_MATRIX)
def test_criterion_14_round_trips(m, n):
    report("14 (round trips on degree <= 3)", m, n, check_round_trips(ctx_for(m, n), 3))


@pytest.mark.parametrize("m,n", INTEGRAL_MATRIX)
def test_criterion_15_hermite(m, n):
    report("15 (dual-route Hermite values and monomial images, |alpha| <= 2)",
           m, n, check_hermite(ctx_for(m, n), 2))


def test_criterion_16_special_functions():
    report("16a (exponential K-value to 1e-12)", 0, 0, check_k_exponential())
    report("16b (half-integer I-value and monotonicity)", 0, 0, check_i_halfinteger())
    for (m, n) in INTEGRAL_MATRIX:
        report("16c (Laguerre generator values to 1e-10)", m, n,
               check_laguerre(m - 2 * n))
    report("16d (truncation self-consistency at order 40)", 0, 0,
           check_truncation_consistency())
