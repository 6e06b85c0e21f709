import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage
from scipy.signal import fftconvolve

from roughgg.gridcore import box_any
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


@settings(max_examples=100, deadline=None)
@given(mask=arrays(bool, array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=12)),
       r=st.integers(1, 4))
def test_box_any_matches_ndimage(mask, r):
    box = np.ones((2 * r + 1,) * mask.ndim, dtype=bool)
    assert np.array_equal(box_any(mask, r), ndimage.binary_dilation(mask, structure=box))
    assert np.array_equal(~box_any(~mask, r, outside=True),
                          ndimage.binary_erosion(mask, structure=box))
    assert np.array_equal(box_any(mask, r),
                          ndimage.maximum_filter(mask.astype(np.uint8), size=2 * r + 1) > 0)
