"""Tests for the built-in benchmark problems.

Oracle: symbolic differentiation. The state y, adjoint p and coefficient a
of each problem are short defining expressions; the source f and target g
must satisfy the continuous optimality system

    f = y_t - div(a grad y) - p / gamma
    g = -p_t - div(a grad p) + y

so both are re-derived here with sympy from (y, p, a) alone and compared
against the package's hand-coded callables at random points.
"""

import numpy as np
import pytest
import sympy as sp

from pintopt.problems import ParabolicControlProblem, get_problem, problem_names

X1, X2, T = sp.symbols("x1 x2 t", real=True)


def symbolic_fields(name, gamma):
    if name == "example1":
        a = sp.Integer(1)
        y = sp.exp(-T) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2)
        p = sp.Integer(0)
    else:
        a = sp.Rational(1, 100000) * sp.sin(sp.pi * X1 * X2)
        y = sp.exp(-T) * X1 * (1 - X1) * X2 * (1 - X2)
        p = gamma * sp.sin(sp.pi * T) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2)
    return a, y, p


def derived_source_and_target(name, gamma):
    a, y, p = symbolic_fields(name, gamma)

    def elliptic(u):
        return sp.diff(a * sp.diff(u, X1), X1) + sp.diff(a * sp.diff(u, X2), X2)

    f = sp.diff(y, T) - elliptic(y) - p / gamma
    g = -sp.diff(p, T) - elliptic(p) + y
    return (
        sp.lambdify((X1, X2, T), f, "numpy"),
        sp.lambdify((X1, X2, T), g, "numpy"),
    )


@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("gamma", [1e-8, 1e-2, 1.0])
def test_source_and_target_satisfy_optimality_system(name, gamma):
    problem = get_problem(name, gamma)
    f_want, g_want = derived_source_and_target(name, sp.Float(gamma, 30))
    rng = np.random.default_rng(17)
    x1 = rng.uniform(0.05, 0.95, 50)
    x2 = rng.uniform(0.05, 0.95, 50)
    t = rng.uniform(0.0, 1.0, 50)
    fw = np.asarray(f_want(x1, x2, t), dtype=float)
    gw = np.asarray(g_want(x1, x2, t), dtype=float)
    assert np.max(np.abs(problem.f(x1, x2, t) - fw)) < 1e-12 * max(1, np.max(np.abs(fw)))
    assert np.max(np.abs(problem.g(x1, x2, t) - gw)) < 1e-12 * max(1, np.max(np.abs(gw)))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_exact_solution_boundary_and_endpoint_structure(name):
    problem = get_problem(name, 1e-4)
    xs = np.linspace(0.1, 0.9, 7)
    # initial condition is the t=0 trace of the exact state
    assert np.allclose(problem.exact_y(xs, xs, 0.0), problem.y0(xs, xs), atol=1e-15)
    # adjoint vanishes at the final time
    assert np.max(np.abs(problem.exact_p(xs, xs, 1.0))) < 1e-15
    # both vanish on the boundary of the square
    for edge in (np.zeros(7), np.ones(7)):
        assert np.max(np.abs(problem.exact_y(edge, xs, 0.3))) < 1e-15
        assert np.max(np.abs(problem.exact_y(xs, edge, 0.3))) < 1e-15
        assert np.max(np.abs(problem.exact_p(edge, xs, 0.3))) < 1e-15


def test_variable_coefficient_positive_inside_zero_on_two_edges():
    problem = get_problem("example2", 1.0)
    xs = np.linspace(0.03, 0.97, 11)
    X1g, X2g = np.meshgrid(xs, xs, indexing="ij")
    assert np.all(problem.a(X1g, X2g) > 0)
    # the coefficient degenerates on {x1 = 0} and {x2 = 0}: only strictly
    # interior sampling keeps the discretization well defined
    assert np.max(np.abs(problem.a(np.zeros(5), xs[:5]))) == 0.0
    assert np.max(np.abs(problem.a(xs[:5], np.zeros(5)))) == 0.0


def test_registry_and_validation():
    assert problem_names() == ["example1", "example2"]
    with pytest.raises(ValueError, match="example1"):
        get_problem("missing", 1.0)
    with pytest.raises(ValueError):
        get_problem("example1", 0.0)
    with pytest.raises(ValueError):
        get_problem("example1", -2.0)
    problem = get_problem("example1", 0.5)
    assert isinstance(problem, ParabolicControlProblem)
    assert problem.gamma == 0.5 and problem.name == "example1"
