"""Property test of the convection form: b(v, w, w) = 0 on the default
product grids (5-smooth n_lon) and on explicit grids with a prime n_lon."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snse import harmonics as sh
from snse import operators as op


def _next_prime(n):
    while any(n % k == 0 for k in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(lmax=st.integers(1, 12), prime_grid=st.booleans(),
       extra_lat=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_b_vww_vanishes_on_product_and_prime_grids(lmax, prime_grid,
                                                   extra_lat, seed):
    grid = None
    if prime_grid:
        n_lat, n_lon = sh.min_grid(lmax, dealias=True)
        grid = sh.gauss_legendre_grid(n_lat + extra_lat, _next_prime(n_lon))
    ctx = op.OperatorContext(lmax, grid=grid)
    rng = np.random.default_rng(seed)
    v = sh.random_stream_field(lmax, rng)
    w = sh.random_stream_field(lmax, rng)
    assert abs(op.trilinear_b(v, w, w, ctx)) < 1e-12
