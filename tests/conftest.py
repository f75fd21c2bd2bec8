"""Shared fixtures of tier 1."""

import pytest

from pintopt import bench


@pytest.fixture(autouse=True)
def cold_mesh_setup():
    """Start every test without a kept mesh set-up.

    A test that patches what ``bench.mesh_setup`` calls (``stencil``,
    ``build_stiffness``, ``make_inner_solver``) then sees its patch run,
    whichever test ran before it.
    """
    bench.mesh_setup.cache_clear()
