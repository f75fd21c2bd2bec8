"""The pointwise value of a problem field given as (coefficient, time, space) terms.

The package never evaluates a field at points: it samples the space
functions once per mesh and combines them with the time coefficients. Tests
that check a field against a closed form, or build an oracle from it, sum
the terms here.
"""

import numpy as np


def field(terms, x1, x2, t):
    """sum of coefficient * time(t) * space(x1, x2) over ``terms``; 0 for none."""
    shape = np.broadcast(np.asarray(x1), np.asarray(x2), np.asarray(t)).shape
    total = np.zeros(shape)
    for coefficient, time, space in terms:
        total = total + coefficient * time(np.asarray(t, dtype=float)) * space(x1, x2)
    return total
