import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr
from scipy.special import sici

from wignerhvm import special
from wignerhvm.special import ndtr, sine_integral


def ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def sweep() -> np.ndarray:
    """Points over +-1e9 on every piece, with every piece edge and its
    neighbours, of both signs."""
    edges = np.array(special._EDGES)
    near = np.concatenate([np.nextafter(edges, 0), edges,
                           np.nextafter(edges, np.inf)])
    rng = np.random.default_rng(29)
    x = np.concatenate([near, np.linspace(0, 60, 6001),
                        np.geomspace(1e-6, 1e9, 6000),
                        rng.uniform(0, 2 ** 21, 2000)])
    return np.concatenate([x, -x])


def test_sine_integral_matches_scipy_within_4_ulp():
    x = sweep()
    assert ulps(sine_integral(x), sici(x)[0]).max() <= 4


def test_sine_integral_special_points_are_exact():
    x = np.array([0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, 1e300,
                  -1e300])
    want = [0.0, 0.0, np.pi / 2, -np.pi / 2, 1e-300, -1e-300, np.pi / 2,
            -np.pi / 2]
    assert sine_integral(x).tolist() == want
    assert np.isnan(sine_integral(np.nan))
    assert sine_integral(np.inf) == np.pi / 2  # 0-d in, 0-d out


def test_ndtr_matches_scipy():
    # both round x / sqrt 2 the same way, which is about x^2 ulp off in
    # the lower tail; below about -37.7 scipy flushes to 0 where the
    # values are subnormal, so there only both are below the normal range
    x = np.linspace(-38, 38, 30001)
    got, want = ndtr(x), scipy_ndtr(x)
    normal = want >= np.finfo(float).tiny
    assert np.all(ulps(got, want)[normal] <= 8 + 2 * x[normal] ** 2)
    assert np.all(got[~normal] < np.finfo(float).tiny)
    assert ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
    assert np.isnan(ndtr(np.nan))


@pytest.mark.parametrize("kernel", [sine_integral, ndtr])
def test_values_do_not_depend_on_the_array_around_them(kernel):
    # every element alone, inside arrays of other lengths and at other
    # offsets, and inside an array of several passes per piece
    rng = np.random.default_rng(3)
    x = np.concatenate([sweep()[::50], [np.nan, np.inf, -np.inf]])
    x = rng.permutation(x)
    whole = kernel(x)
    alone = np.array([kernel(v) for v in x])
    assert np.array_equal(alone, whole, equal_nan=True)
    for n in (1, 2, 7, 64, 333):
        for start in range(0, len(x) - n, 97):
            assert np.array_equal(kernel(x[start:start + n]),
                                  whole[start:start + n], equal_nan=True)
    if kernel is sine_integral:
        big = np.tile(x, 3 * special._CHUNK // len(x) + 2)
        assert np.array_equal(kernel(big.reshape(2, -1)).reshape(-1),
                              np.tile(whole, len(big) // len(x)),
                              equal_nan=True)


def test_kernels_match_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    x = sweep()[::20]
    want = np.array([float(mp.si(mp.mpf(v))) for v in x])
    assert ulps(sine_integral(x), want).max() <= 2
    y = np.linspace(-37, 37, 741)
    want = np.array([float(mp.ncdf(mp.mpf(v))) for v in y])
    assert np.all(ulps(ndtr(y), want) <= 4 + 2 * y ** 2)
