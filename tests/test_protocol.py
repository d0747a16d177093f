"""Properties every registered basis shares, over random small (N, W, R).

Each entry of ``roast.BASES``, and the svd_fbf ROAST basis, builds a basis
with ``n``, ``dimension``, ``analyze``, ``synthesize``, ``project`` and
``dense_basis``; the fast paths must agree with the explicit matrix Q that
``dense_basis`` returns.  A ROAST basis's R is the column count of its
stored factor q, and its serialized bytes restore it bit for bit.  Explicit
examples take R = n_high, the whole out-of-band span, where ``build_roast``
decomposes with ``eigh`` instead of Lanczos.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from roast import (BASES, RoastBasis, build_roast, deserialize_basis,
                   serialize_basis)

TOL = 1e-10

BUILDERS = {**BASES,
            "roast_svd_fbf": lambda n, w, r, seed: build_roast(n, w, r, "svd_fbf")}


@st.composite
def instances(draw):
    n = draw(st.integers(8, 256))
    w = draw(st.floats(0.02, 0.45))
    n_high = n - (2 * math.floor(n * w) + 1)
    assume(n_high >= 1)
    r = draw(st.integers(1, n_high))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, w, r, seed


def probe(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gap(a, b):
    return float(np.max(np.abs(a - b)))


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(instance=instances())
# (N, W, R = n_high, seed) at odd and even N
@example(instance=(64, 0.25, 31, 0))
@example(instance=(101, 0.25, 50, 1))
@example(instance=(200, 0.1, 159, 2))
@example(instance=(255, 0.25, 128, 3))
@example(instance=(299, 0.4, 60, 4))
@example(instance=(300, 0.25, 149, 5))
def test_basis_protocol(name, instance):
    n, w, r, seed = instance
    basis = BUILDERS[name](n, w, r, seed)
    q = basis.dense_basis()
    assert basis.n == n
    assert q.shape == (n, basis.dimension)
    assert gap(q.conj().T @ q, np.eye(basis.dimension)) <= TOL

    rng = np.random.default_rng(seed)
    for cols in ((), (3,)):
        x = probe(rng, n, *cols)
        c = probe(rng, basis.dimension, *cols)
        assert gap(basis.analyze(x), q.conj().T @ x) <= TOL
        assert gap(basis.synthesize(c), q @ c) <= TOL
        assert gap(basis.project(x), q @ (q.conj().T @ x)) <= TOL
        assert gap(basis.analyze(basis.synthesize(c)), c) <= TOL
        once = basis.project(x)
        assert gap(basis.project(once), once) <= TOL
    for size in (1, basis.dimension + 1):
        with pytest.raises(ValueError):
            basis.synthesize(np.ones(size))
    if isinstance(basis, RoastBasis):
        assert basis.r == basis.q.shape[1]
        assert basis.r == r or (basis.method == "randomized" and 1 <= basis.r < r)
        restored = deserialize_basis(serialize_basis(basis))
        x = probe(rng, n, 3)
        assert np.array_equal(restored.analyze(x), basis.analyze(x))


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(instance=instances())
def test_wrong_input_shapes_are_refused(name, instance):
    n, w, r, seed = instance
    basis = BUILDERS[name](n, w, r, seed)
    for size in (n - 1, n + 1):
        with pytest.raises(ValueError):
            basis.analyze(np.ones(size))
    for method in (basis.analyze, basis.synthesize):
        with pytest.raises(ValueError):
            method(np.array(1.0))

