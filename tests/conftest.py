import dataclasses
import sys

import numpy as np
import pytest

import roast


class SessionCaches:
    """Memoized heavy objects shared across the whole test session."""

    def __init__(self):
        self._store = {}

    def op(self, n, w):
        return self._get(("op", n, w), lambda: roast.build_prolate(n, w))

    def dpss(self, n, w, k=None):
        """All N Slepian vectors, or the leading ``k`` of the cached solve."""
        full = self._get(("dpss", n, w), lambda: roast.build_dpss(n, w, n))
        if k is None:
            return full
        return dataclasses.replace(full, vectors=full.vectors[:, :k],
                                   eigenvalues=full.eigenvalues[:k])

    def spectrum(self, n, w):
        return self._get(("spec", n, w),
                         lambda: roast.singular_decay_report(n, w))

    def cross(self, n, w):
        def make():
            return roast.cross_operator_dense(self.op(n, w),
                                              roast.build_band_split(n, w))
        return self._get(("cross", n, w), make)

    def roast(self, n, w, r, method="svd_fb"):
        return self._get(("roast", n, w, r, method),
                         lambda: roast.build_roast(n, w, r, method))

    def _get(self, key, make):
        if key not in self._store:
            self._store[key] = make()
        return self._store[key]


@pytest.fixture(scope="session")
def caches():
    return SessionCaches()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def _patcher(monkeypatch):
    """``patch(original, replacement)`` swaps every reference to
    ``original`` in the loaded ``roast`` modules through ``monkeypatch``."""
    def patch(original, replacement):
        for name, module in list(sys.modules.items()):
            if name == "roast" or name.startswith("roast."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)
    return patch


def _raising(message):
    def forbidden(*args, **kwargs):
        raise AssertionError(message)
    return forbidden


@pytest.fixture
def patch_everywhere(monkeypatch):
    """``_patcher`` for the test."""
    return _patcher(monkeypatch)


@pytest.fixture
def forbid_dense_columns(patch_everywhere):
    """Make every reference to ``roast.basis.dft_columns`` raise."""
    patch_everywhere(roast.basis.dft_columns, _raising("dense DFT columns formed"))


@pytest.fixture(scope="class")
def forbid_complex_v():
    """Make every reference to ``roast.basis._dft_rows``, which expands a
    stored factor q into its complex V, raise for the tests of one class,
    so that one expensive run can serve several of them."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _patcher(monkeypatch)(roast.basis._dft_rows, _raising("complex V formed"))
        yield
