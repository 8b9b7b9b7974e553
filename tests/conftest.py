"""Fixtures shared by the test modules."""

import contextlib

import pytest

from indexlaw import temporal, ugrid


@contextlib.contextmanager
def _mesh_sizes(grid=None, copula_grid=None):
    """Run a block on other mesh sizes than the package's: ``grid`` uniform
    base cells of every parametric mesh (``ugrid.DEFAULT_GRID``) and
    ``copula_grid`` midpoints per axis of the Gaussian copula's tensor
    (``temporal.DEFAULT_COPULA_GRID``).  A size left None stays as it is."""
    with pytest.MonkeyPatch.context() as mp:
        if grid is not None:
            mp.setattr(ugrid, "DEFAULT_GRID", grid)
        if copula_grid is not None:
            mp.setattr(temporal, "DEFAULT_COPULA_GRID", copula_grid)
        yield


@pytest.fixture(scope="session")
def mesh():
    """``with mesh(grid=512, copula_grid=256): ...``.  It holds no state, so
    it is session-wide and Hypothesis tests can take it."""
    return _mesh_sizes
