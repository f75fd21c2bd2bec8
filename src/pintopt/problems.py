"""Benchmark problem definitions for the tracking-type control solver.

A problem bundles the diffusion coefficient, source term f, tracking target
g, initial state y0 and the closed-form state/adjoint pair used to measure
discretization error. All space-time callables are vectorized over numpy
arrays with signature (x1, x2, t) -> array; purely spatial ones take
(x1, x2).

The diffusion coefficient ``a`` is a function of position only, the same
for every gamma.

:data:`EXAMPLES` is the one list of the examples there are: it maps each
example's number to the function that makes it, which :func:`get_problem`
calls.

``1``
    Constant unit diffusion. The target is reached up to the regularization
    tail: y(x, t) = exp(-t) sin(pi x1) sin(pi x2) and the adjoint vanishes
    identically, so f carries the whole dynamics.

``2``
    Small variable diffusion a(x) = 1e-5 sin(pi x1 x2), which is positive in
    the interior but decays to zero toward two of the edges. State
    y = exp(-t) x1 (1 - x1) x2 (1 - x2) and adjoint
    p = gamma sin(pi t) sin(pi x1) sin(pi x2); f and g are the matching
    closed forms, so they depend on the regularization weight gamma.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ParabolicControlProblem:
    """Data of one tracking-type control problem on (0,1)^2 x (0,1)."""

    gamma: float
    a: Callable
    f: Callable
    g: Callable
    y0: Callable
    exact_y: Callable
    exact_p: Callable

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"regularization weight must be positive, got {self.gamma}")


def _example1(gamma):
    def shape(x1, x2):
        return np.sin(np.pi * x1) * np.sin(np.pi * x2)

    return ParabolicControlProblem(
        gamma=gamma,
        a=lambda x1, x2: np.ones_like(np.asarray(x1, dtype=float)),
        f=lambda x1, x2, t: (2 * np.pi**2 - 1) * np.exp(-t) * shape(x1, x2),
        g=lambda x1, x2, t: np.exp(-t) * shape(x1, x2),
        y0=shape,
        exact_y=lambda x1, x2, t: np.exp(-t) * shape(x1, x2),
        exact_p=lambda x1, x2, t: np.zeros(np.broadcast(x1, x2, t).shape),
    )


def _example2(gamma):
    c = 1.0e-5

    def bump(x1, x2):
        return x1 * (1 - x1) * x2 * (1 - x2)

    def sines(x1, x2):
        return np.sin(np.pi * x1) * np.sin(np.pi * x2)

    def f(x1, x2, t):
        s = np.sin(np.pi * x1 * x2)
        co = np.cos(np.pi * x1 * x2)
        u = x1 * (1 - x1)
        v = x2 * (1 - x2)
        return (
            -np.sin(np.pi * t) * sines(x1, x2)
            + np.exp(-t) * u * (2 * c * s - v - c * np.pi * co * x1 * (1 - 2 * x2))
            + np.exp(-t) * v * (2 * c * s - c * np.pi * co * x2 * (1 - 2 * x1))
        )

    def g(x1, x2, t):
        s = np.sin(np.pi * x1 * x2)
        co = np.cos(np.pi * x1 * x2)
        return (
            -gamma * np.pi * np.cos(np.pi * t) * sines(x1, x2)
            + np.exp(-t) * bump(x1, x2)
            - c * gamma * np.pi**2 * np.sin(np.pi * t)
            * (
                -2 * s * sines(x1, x2)
                + co
                * (
                    x1 * np.sin(np.pi * x1) * np.cos(np.pi * x2)
                    + x2 * np.cos(np.pi * x1) * np.sin(np.pi * x2)
                )
            )
        )

    return ParabolicControlProblem(
        gamma=gamma,
        a=lambda x1, x2: c * np.sin(np.pi * x1 * x2),
        f=f,
        g=g,
        y0=bump,
        exact_y=lambda x1, x2, t: np.exp(-t) * bump(x1, x2),
        exact_p=lambda x1, x2, t: gamma * np.sin(np.pi * t) * sines(x1, x2),
    )


EXAMPLES = {1: _example1, 2: _example2}


def get_problem(example, gamma):
    """Instantiate the example numbered ``example`` with the given weight.

    A number that is no key of :data:`EXAMPLES` raises KeyError; the
    validated entry point, ``bench.ExperimentSpec``, names the keys.
    """
    return EXAMPLES[example](gamma)
