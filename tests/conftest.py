"""Fixtures shared by the test modules."""

import contextlib

import pytest

from indexlaw import ugrid


@contextlib.contextmanager
def _mesh_sizes(grid=None):
    """Run a block on another number of uniform base cells of every
    parametric mesh (``ugrid.DEFAULT_GRID``) than the package's; None keeps
    it.  The Gaussian copula's Hermite spectra are taken on the mesh of
    ``DEFAULT_GRID`` base cells, so they move with it."""
    with pytest.MonkeyPatch.context() as mp:
        if grid is not None:
            mp.setattr(ugrid, "DEFAULT_GRID", grid)
        yield


@pytest.fixture(scope="session")
def mesh():
    """``with mesh(grid=512): ...``.  It holds no state, so it is
    session-wide and Hypothesis tests can take it."""
    return _mesh_sizes
