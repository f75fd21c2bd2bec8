"""Benchmark problem definitions for the tracking-type control solver.

A problem bundles the diffusion coefficient, source term f, tracking target
g, initial state y0 and the closed-form state/adjoint pair used to measure
discretization error. The diffusion coefficient ``a`` and the initial state
``y0`` are functions of position only, (x1, x2) -> array, the same for
every gamma.

The space-time fields f, g, exact_y and exact_p are each a tuple of terms
``(coefficient, time function, space function)``; the field is the sum
over its terms of coefficient * time(t) * space(x1, x2), and an empty tuple
is zero. Time functions map a vector of times to a vector, space functions
map the (m1, m1) interior coordinates to an (m1, m1) array. The space
functions are module-level functions, so every gamma of an example names the
same ones: gamma enters only the coefficients, and
:func:`pintopt.discretize.sample_space` samples a mesh's space data once
for all of them.

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

# example 2's diffusion scale: a(x) = C sin(pi x1 x2)
C = 1.0e-5


@dataclass(frozen=True)
class ParabolicControlProblem:
    """Data of one tracking-type control problem on (0,1)^2 x (0,1)."""

    gamma: float
    a: Callable
    f: tuple
    g: tuple
    y0: Callable
    exact_y: tuple
    exact_p: tuple

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"regularization weight must be positive, got {self.gamma}")


def decay(t):
    return np.exp(-t)


def sin_pi(t):
    return np.sin(np.pi * t)


def cos_pi(t):
    return np.cos(np.pi * t)


def sines(x1, x2):
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


def bump(x1, x2):
    return x1 * (1 - x1) * x2 * (1 - x2)


def bump_source(x1, x2):
    """Example 2's exp(-t) part of f: -div(a grad bump) - bump."""
    s, co = np.sin(np.pi * x1 * x2), np.cos(np.pi * x1 * x2)
    u, v = x1 * (1 - x1), x2 * (1 - x2)
    return (u * (2 * C * s - v - C * np.pi * co * x1 * (1 - 2 * x2))
            + v * (2 * C * s - C * np.pi * co * x2 * (1 - 2 * x1)))


def sines_flux(x1, x2):
    """Example 2's sin(pi t) part of g over -C gamma pi^2: div(a grad sines) / (C pi^2)."""
    s, co = np.sin(np.pi * x1 * x2), np.cos(np.pi * x1 * x2)
    return -2 * s * sines(x1, x2) + co * (x1 * np.sin(np.pi * x1) * np.cos(np.pi * x2)
                                          + x2 * np.cos(np.pi * x1) * np.sin(np.pi * x2))


def _example1(gamma):
    return ParabolicControlProblem(
        gamma=gamma,
        a=lambda x1, x2: np.ones_like(np.asarray(x1, dtype=float)),
        f=((2 * np.pi**2 - 1, decay, sines),),
        g=((1.0, decay, sines),),
        y0=sines,
        exact_y=((1.0, decay, sines),),
        exact_p=(),
    )


def _example2(gamma):
    return ParabolicControlProblem(
        gamma=gamma,
        a=lambda x1, x2: C * np.sin(np.pi * x1 * x2),
        f=((-1.0, sin_pi, sines), (1.0, decay, bump_source)),
        g=(
            (-gamma * np.pi, cos_pi, sines),
            (1.0, decay, bump),
            (-C * gamma * np.pi**2, sin_pi, sines_flux),
        ),
        y0=bump,
        exact_y=((1.0, decay, bump),),
        exact_p=((gamma, sin_pi, sines),),
    )


EXAMPLES = {1: _example1, 2: _example2}


def get_problem(example, gamma):
    """Instantiate the example numbered ``example`` with the given weight.

    A number that is no key of :data:`EXAMPLES` raises KeyError; the
    validated entry point, ``bench.ExperimentSpec``, names the keys.
    """
    return EXAMPLES[example](gamma)
