"""Shared fixtures: the small GF(2) reference code used across the suite,
a cold field cache and a count of the Elements a test builds."""

from __future__ import annotations

import pytest

from convec import field, gf
from convec.polymat import ConvCode, PolyMatrix


@pytest.fixture
def cold_fields(monkeypatch):
    """The field cache over a store of the test's own, empty at the start."""
    monkeypatch.setattr(gf._cached_field, "fields", {})
    return gf._cached_field


@pytest.fixture
def element_builds(monkeypatch):
    """The number of Elements built while the test runs, as builds[0], which
    a test may reset: every Element.__init__ call counts."""
    builds = [0]
    init = gf.Element.__init__

    def counted(self, fld, val):
        builds[0] += 1
        init(self, fld, val)

    monkeypatch.setattr(gf.Element, "__init__", counted)
    return builds


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
