"""The discrete residual commutes with the flat torus's holomorphic
isometries and with conjugation, whatever the data, and not with the
reflection of one real axis.

For a map g of the grid and random, non-symmetric u, f >= 0 and mean-free
mu, R(u o g; f o g, mu o g) = R(u; f, mu) o g to rounding.  A sign or
conjugation slip in a Hermitian contraction breaks one of these maps."""

import functools

import numpy as np
import pytest

from sigma2lab.forms import ProblemData, evaluate
from sigma2lab.torus import TorusGeometry, random_band_limited


def reflected(u, axis):
    """u o (x -> -x along one real axis): u at index -i mod p."""
    return np.roll(np.flip(u, axis), 1, axis)


def negated(j):
    """z_j -> -z_j."""
    return lambda u: reflected(reflected(u, 2 * j), 2 * j + 1)


def rotated(j):
    """z_j -> i z_j, that is (x_j, y_j) -> (-y_j, x_j)."""
    return lambda u: reflected(np.swapaxes(u, 2 * j, 2 * j + 1), 2 * j + 1)


def swapped(u):
    """z_1 <-> z_2."""
    return np.transpose(u, (2, 3, 0, 1) + tuple(range(4, u.ndim)))


def conjugated(u):
    """z -> zbar: y_j -> -y_j on every j."""
    for axis in range(1, u.ndim, 2):
        u = reflected(u, axis)
    return u


def shifted(u):
    """A shift by whole grid cells, a different count along each axis."""
    return np.roll(u, (3, -2, 5, 1, -1, 2)[:u.ndim], axis=tuple(range(u.ndim)))


def maps(n):
    out = {"swap_z1_z2": swapped, "conjugate": conjugated, "shift": shifted}
    for j in range(n):
        out[f"negate_z{j + 1}"] = negated(j)
        out[f"rotate_z{j + 1}"] = rotated(j)
    return out


GEOMETRIES = {"n2_16": TorusGeometry(2, 16), "n3_8": TorusGeometry(3, 8)}


@functools.lru_cache(maxsize=None)
def problem(key):
    """(u, f, mu, residual) on one geometry: random band-limited fields with
    no symmetry, f >= 0 and mu mean-free."""
    geom = GEOMETRIES[key]
    rng = np.random.default_rng(37)
    u = -np.log(0.1) + random_band_limited(geom, rng, 3, 0.5)
    f = 0.3 * (1.0 + random_band_limited(geom, rng, 3, 1.0))
    mu = random_band_limited(geom, rng, 3, 0.5)
    return u, f, mu, residual(geom, u, f, mu)


def residual(geom, u, f, mu):
    return evaluate(np.ascontiguousarray(u), ProblemData(
        geom, 0.8, np.ascontiguousarray(f), np.ascontiguousarray(mu), 0.1), 0.0).residual


def mapped_gap(key, g):
    """max|R(u o g; data o g) - R(u; data) o g| / max|R(u; data)|."""
    u, f, mu, r = problem(key)
    got = residual(GEOMETRIES[key], g(u), g(f), g(mu))
    return float(np.max(np.abs(got - g(r)))) / float(np.max(np.abs(r)))


@pytest.mark.parametrize("key, name", [(key, name) for key, geom in GEOMETRIES.items()
                                       for name in maps(geom.n)])
def test_residual_commutes_with_holomorphic_isometries_and_conjugation(key, name):
    assert mapped_gap(key, maps(GEOMETRIES[key].n)[name]) <= 1e-13


@pytest.mark.parametrize("key", GEOMETRIES)
def test_residual_does_not_commute_with_one_real_reflection(key):
    # x_1 -> -x_1 alone is neither holomorphic nor antiholomorphic: a check
    # that passed here would pass whatever the residual did
    assert mapped_gap(key, lambda u: reflected(u, 0)) > 1e-3
