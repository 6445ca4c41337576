"""Shared fixtures: the small GF(2) reference code used across the suite,
and a cold field cache."""

from __future__ import annotations

import functools

import pytest

from convec import field, gf
from convec.polymat import ConvCode, PolyMatrix


@pytest.fixture
def cold_fields(monkeypatch):
    """A field cache of the test's own, empty at the start."""
    cache = functools.lru_cache(maxsize=None)(gf.Field)
    monkeypatch.setattr(gf, "_cached_field", cache)
    return cache


@pytest.fixture(scope="session")
def gf2():
    return field(2)


@pytest.fixture(scope="session")
def code522(gf2):
    """(5,2,2) binary code with memory one; the hand-worked decode example."""
    G = PolyMatrix.from_packed(gf2, [
        [[1, 1, 0, 1, 1],
         [1, 0, 1, 1, 0]],
        [[1, 1, 1, 1, 1],
         [0, 0, 0, 1, 1]],
    ])
    return ConvCode(5, 2, G)


@pytest.fixture(scope="session")
def msg522(gf2):
    """u(z) = (1 + z^2, 1 + z^3)."""
    return PolyMatrix.from_packed(gf2, [[[1, 1]], [[0, 0]], [[1, 0]], [[0, 1]]])


# per-block erased positions (1-based) of the reference erasure pattern
MASK522 = [(3, 4), (1, 5), (4,), (2, 3, 5), (5,)]


@pytest.fixture(scope="session")
def mask522():
    return MASK522


@pytest.fixture(scope="session")
def code522h(gf2, code522):
    """The reference code equipped with a left-prime degree-1 parity check."""
    H = PolyMatrix.from_packed(gf2, [
        [[1, 1, 0, 1, 1],
         [1, 0, 0, 1, 0],
         [1, 1, 1, 0, 0]],
        [[0, 0, 0, 0, 0],
         [1, 1, 0, 0, 0],
         [1, 0, 1, 0, 0]],
    ])
    assert (H * code522.G.transpose()).is_zero
    return ConvCode(5, 2, code522.G, H)


@pytest.fixture
def pair_2_1():
    """Factory for (2,1,delta) generator/parity pairs H = (g2, -g1)."""

    def make(fld, g1_packed, g2_packed):
        from convec.polymat import Poly

        g1 = Poly.from_packed(fld, g1_packed)
        g2 = Poly.from_packed(fld, g2_packed)
        d = max(g1.degree, g2.degree)

        def as_grids(a, b):
            return [[[a.coeff(i).val, b.coeff(i).val]] for i in range(d + 1)]

        G = PolyMatrix.from_packed(fld, as_grids(g1, g2))
        H = PolyMatrix.from_packed(fld, as_grids(g2, -g1))
        return ConvCode(2, 1, G, H)

    return make
