import math

import pytest

from superfock import specfun
from superfock.specfun import g2, itilde, ktilde, laguerre_lambda, value_table
from superfock.verify import check_k_exponential


def test_ktilde_minus_half_is_exponential():
    for t in (0.5, 1.0, 2.0):
        got = ktilde(-0.5, t).value
        want = math.sqrt(math.pi) / 2 * math.exp(-t)
        assert abs(got - want) <= 1e-12


def test_itilde_half_closed_form():
    for t in (0.5, 1.0, 3.0):
        got = itilde(0.5, t).value
        want = 2 * math.sinh(t) / (t * math.sqrt(math.pi))
        assert abs(got - want) <= 1e-12


def test_itilde_at_zero_and_growth():
    assert abs(itilde(0.7, 0.0).value - 1 / math.gamma(1.7)) < 1e-15
    vals = [itilde(0.0, 0.5 * k).value for k in range(1, 11)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_ktilde_half_recurrence_value():
    # Ktilde_{1/2}(t) = sqrt(pi) e^{-t} / t
    for t in (0.5, 1.0, 2.0):
        got = ktilde(0.5, t).value
        want = math.sqrt(math.pi) * math.exp(-t) / t
        assert abs(got - want) <= 1e-12
    with pytest.raises(ValueError):
        ktilde(0.5, -1.0)


def test_ktilde_decay():
    # exponential decay at a half-integer order, where the formula is exact
    r = ktilde(0.5, 20.0).value / ktilde(0.5, 10.0).value
    assert 0 < r < math.exp(-9.5)


def test_laguerre_zero_order():
    for mu, t in [(1.0, 0.8), (2.0, 1.5), (3.0, 2.0)]:
        got = laguerre_lambda(0, mu, -1.0, t).value
        want = math.sqrt(math.pi) / 2 * math.exp(-t) / math.gamma(mu / 2 + 1)
        assert abs(got - want) <= 1e-10


def test_laguerre_generator_ratio():
    x0, y0 = 0.7, 1.1
    r = laguerre_lambda(0, 2.0, -1.0, 2 * x0).value \
        / laguerre_lambda(0, 2.0, -1.0, 2 * y0).value
    assert abs(r - math.exp(-2 * (x0 - y0))) <= 1e-10


def test_g2_reconstruction():
    s, t = 0.1, 1.3
    mu, nu = 2.0, -1.0
    total = sum(laguerre_lambda(j, mu, nu, t).value * s ** j for j in range(12))
    assert abs(total - g2(mu, nu, complex(s), t).real) <= 1e-10


def test_truncation_reporting():
    v = itilde(0.5, 1.0, terms=40)
    assert v.tail < 1e-30
    assert abs(itilde(0.5, 1.0, 40).value - itilde(0.5, 1.0, 60).value) < 1e-13
    w = laguerre_lambda(1, 2.0, -1.0, 1.0)
    assert w.tail < 1e-10


def test_value_table_shape():
    rows = value_table(2.0, -1.0, [0.5, 1.0], j_max=2)
    assert len(rows) == 2
    assert set(rows[0]) == {"t", "itilde_mu_half", "ktilde_nu_half",
                            "laguerre_0", "laguerre_1", "laguerre_2"}


def test_a_wrong_k_series_fails_the_exponential_check(monkeypatch):
    # the check reads the series route that g2 reads, not ktilde's closed form
    series = specfun._ktilde_c
    assert check_k_exponential() == (True, "half-integer K-value matches the pure exponential")
    monkeypatch.setattr(specfun, "_ktilde_c", lambda *args: series(*args) * (1 + 1e-9))
    ok, detail = check_k_exponential()
    assert not ok and detail.startswith("t=0.5: ")
