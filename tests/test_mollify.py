import numpy as np
import pytest
from scipy.signal import fftconvolve

from roughgg.mollify import convolve_same


@pytest.mark.parametrize("values_shape, weights_shape", [
    ((33, 20), (9, 9)),
    ((32, 21), (5, 5)),
    ((4, 30), (11, 11)),      # kernel wider than the array along one axis
    ((1, 17), (3, 3)),        # a size-1 axis is broadcast, not transformed
    ((17, 12, 9), (5, 5, 5)),
    ((16, 11, 10), (7, 7, 7)),
])
def test_convolve_same_equals_fftconvolve(values_shape, weights_shape):
    rng = np.random.default_rng(sum(values_shape) + sum(weights_shape))
    values = rng.standard_normal(values_shape)
    weights = rng.random(weights_shape)
    for v in (values, (values > 0.0).astype(float)):
        expected = fftconvolve(v, weights, mode="same")
        got = convolve_same(v, weights)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
