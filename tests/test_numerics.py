import math

import numpy as np
import pytest

from etau.errors import DomainError, UsageError
from etau.numerics import ToleranceConfig, bisect_monotone, integrate
from reference_checks import integrate_to_infinity, reference_bisect


def test_polynomial_exact_in_one_panel():
    res = integrate(lambda x: x**3, 0.0, 1.0)
    assert res.converged
    assert res.evaluations == 15
    assert abs(res.value - 0.25) < 1e-14


def test_error_estimate_keeps_a_rounding_floor():
    # both rules integrate a constant exactly, so their difference reads 0;
    # the estimate still stays at 50 eps times the integral of |f|
    res = integrate(lambda x: 1.0, 0.0, 1.0, ToleranceConfig(abs_tol=1e-20, rel_tol=1e-20, max_evals=1000))
    assert not res.converged
    assert res.error_estimate == pytest.approx(50.0 * 2.0**-52, rel=1e-12)


def test_orientation_flip_changes_sign():
    fwd = integrate(math.sin, 0.0, 2.0)
    rev = integrate(math.sin, 2.0, 0.0)
    assert abs(fwd.value + rev.value) < 1e-14


def test_empty_interval():
    res = integrate(math.exp, 1.0, 1.0)
    assert res.value == 0.0 and res.converged


@pytest.mark.parametrize(
    "f, a, b, exact",
    [
        (lambda x: math.log(x), 0.0, 1.0, -1.0),
        (lambda x: math.cos(10.0 * x), 0.0, 2.0 * math.pi, 0.0),
        (lambda x: math.exp(-x) * math.sin(x), 0.0, 50.0, 0.5 - math.exp(-50) * (math.cos(50) + math.sin(50)) / 2),
    ],
)
def test_known_integrals(f, a, b, exact):
    # endpoint singularities are fine: Kronrod nodes are interior
    res = integrate(f, a, b, ToleranceConfig(abs_tol=1e-9, rel_tol=1e-9, max_evals=500_000))
    assert res.converged
    assert abs(res.value - exact) < 5e-8


def test_algebraic_endpoint_singularity():
    # x^(-1/2) makes plain bisection crawl: the value lands well inside the
    # reported error estimate but the formal tolerance is not certified
    res = integrate(
        lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, ToleranceConfig(abs_tol=1e-9, rel_tol=1e-9, max_evals=500_000)
    )
    assert abs(res.value - 2.0) < 1e-7
    assert abs(res.value - 2.0) < 10.0 * res.error_estimate


def test_gaussian_tail():
    res = integrate_to_infinity(
        lambda x: math.exp(-x * x),
        0.0,
        tail_bound=lambda T: math.exp(-T * T) / (2.0 * T) if T > 0 else 1.0,
    )
    assert res.converged
    assert abs(res.value - math.sqrt(math.pi) / 2.0) < 1e-9


def test_divergent_integral_reports_non_convergence():
    res = integrate(lambda x: 1.0 / x, 0.0, 1.0, ToleranceConfig(max_evals=5000))
    assert not res.converged


def test_nan_integrand_raises():
    with pytest.raises(DomainError):
        integrate(lambda x: float("nan"), 0.0, 1.0)


def test_determinism():
    f = lambda x: math.sin(17.0 * x) / (1.0 + x * x)
    a = integrate(f, 0.0, 3.0)
    b = integrate(f, 0.0, 3.0)
    assert a.value == b.value and a.evaluations == b.evaluations


def test_error_estimate_is_honest():
    res = integrate(
        lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, ToleranceConfig(abs_tol=1e-8, rel_tol=1e-8)
    )
    assert abs(res.value - 2.0) <= 10.0 * max(res.error_estimate, 1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        {"abs_tol": math.inf},
        {"rel_tol": math.inf},
        {"abs_tol": math.nan},
        {"rel_tol": math.nan},
        {"abs_tol": -1.0},
        {"rel_tol": -1e-300},
        {"abs_tol": 0.0, "rel_tol": 0.0},
        {"max_evals": 0},
    ],
)
def test_tolerance_config_rejects_invalid_values(bad):
    with pytest.raises(UsageError):
        ToleranceConfig(**bad)


def test_tolerance_config_allows_one_zero_tolerance():
    for tols in (ToleranceConfig(abs_tol=0.0), ToleranceConfig(rel_tol=0.0)):
        assert integrate(math.exp, 0.0, 1.0, tols).converged


def test_bisect_cosine():
    root = bisect_monotone(math.cos, 0.0, 3.0)
    assert abs(root - math.pi / 2.0) < 1e-9


def test_bisect_target_and_direction():
    # decreasing function, nonzero target
    root = bisect_monotone(lambda x: math.exp(-x), 0.0, 10.0, target=0.25)
    assert abs(root - math.log(4.0)) < 1e-9


def test_bisect_rejects_non_bracket():
    with pytest.raises(UsageError):
        bisect_monotone(lambda x: x, 1.0, 2.0, target=0.0)


def _counting(f):
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


# (g, lo, hi, target, root): flat, step-like, skewed, inflected, smooth,
# decreasing, and a root where floats are spaced wider than the tolerance
ROOT_CASES = {
    "x^21": (lambda x: x**21, -0.3, 1.0, 0.0, 0.0),
    "tanh-step": (lambda x: math.tanh(1e4 * (x - 0.3)), 0.0, 1.0, 0.0, 0.3),
    "x^10-0.5": (lambda x: x**10 - 0.5, 0.0, 1.0, 0.0, 0.5**0.1),
    "(x-0.7)^3": (lambda x: (x - 0.7) ** 3, 0.0, 1.0, 0.0, 0.7),
    "cos": (math.cos, 0.0, 3.0, 0.0, math.pi / 2.0),
    "exp(-x)": (lambda x: math.exp(-x), 0.0, 10.0, 0.25, math.log(4.0)),
    "near-1e12": (lambda x: x - 1e12, 1e12 - 1.0, 1e12 + 1.0, 3e-5, 1e12 + 3e-5),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-10, 1e-12])
@pytest.mark.parametrize("name", sorted(ROOT_CASES))
def test_root_finder_contract_and_worst_case_count(name, tol):
    f, lo, hi, target, root = ROOT_CASES[name]
    g, xs = _counting(f)
    x = bisect_monotone(g, lo, hi, target=target, tol=tol)
    # either the value is within tol, or x is the midpoint of a bracket
    # narrower than tol (or, near 1e12, of the two floats around the root)
    assert abs(f(x) - target) <= tol or abs(x - root) <= max(0.5 * tol, np.spacing(root))
    # two bracket ends plus at most n_max = ceil(log2((hi - lo) / tol)) + 1 steps
    assert len(xs) <= 2 + math.ceil(math.log2((hi - lo) / tol)) + 1
    assert len(set(xs)) == len(xs)


def test_root_finder_beats_bisection_on_smooth_function():
    g, itp = _counting(math.cos)
    bisect_monotone(g, 0.0, 3.0)
    g, plain = _counting(math.cos)
    reference_bisect(g, 0.0, 3.0)
    assert len(itp) * 3 <= len(plain)


def test_root_finder_has_no_fixed_step_cap():
    # a sign step gives regula falsi nothing to use, so every step is a
    # bisection; halving [-1e300, 1e300] down to 1e-300 takes ~1995 steps
    g, xs = _counting(lambda x: -1.0 if x < 0.0 else 1.0)
    tol = 1e-300
    x = bisect_monotone(g, -1e300, 1e300, tol=tol)
    assert abs(x) <= 0.5 * tol
    assert 400 < len(xs) <= 2 + math.ceil(math.log2(2e300) - math.log2(tol)) + 1


def test_bisect_rejects_non_positive_tolerance():
    with pytest.raises(UsageError):
        bisect_monotone(math.cos, 0.0, 3.0, tol=0.0)
