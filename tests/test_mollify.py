import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage
from scipy.fft import next_fast_len
from scipy.signal import convolve

from roughgg.dmfield import mollify_field, sample_field
from roughgg.errors import InputError
from roughgg.fields import seeded_trig_field
from roughgg.gridcore import box_any
from roughgg.mollify import MollifierKernel, _fast_len, convolve_same


def _numpy_fft_same(values, weights):
    """Same-mode convolution by numpy.fft real FFTs at ``_fast_len`` over
    the axes where both sizes exceed 1, cropped to the centre."""
    s1, s2 = np.array(values.shape), np.array(weights.shape)
    axes = [a for a in range(values.ndim) if s1[a] > 1 and s2[a] > 1]
    full = np.maximum(s1, s2)
    full[axes] = s1[axes] + s2[axes] - 1
    fshape = [_fast_len(int(full[a])) for a in axes]
    out = np.fft.irfftn(np.fft.rfftn(values, fshape, axes=axes)
                        * np.fft.rfftn(weights, fshape, axes=axes), fshape, axes=axes)
    start = (full - s1) // 2
    return out[tuple(slice(b, b + k) for b, k in zip(start, s1))]


@pytest.mark.parametrize("values_shape, weights_shape", [
    ((33, 20), (9, 9)),
    ((32, 21), (5, 5)),
    ((4, 30), (11, 11)),      # kernel wider than the array along one axis
    ((1, 17), (3, 3)),        # a size-1 axis is broadcast, not transformed
    ((9, 9), (1, 5)),         # likewise a size-1 axis of the kernel
    ((17, 12, 9), (5, 5, 5)),
    ((12, 1, 9), (5, 5, 5)),
    ((16, 11, 10), (7, 7, 7)),
])
def test_convolve_same_equals_fftconvolve(values_shape, weights_shape):
    """``fftconvolve``'s same mode: bit for bit the numpy.fft arithmetic,
    and within roundoff of the direct sum."""
    rng = np.random.default_rng(sum(values_shape) + sum(weights_shape))
    values = rng.standard_normal(values_shape)
    weights = rng.random(weights_shape)
    for v in (values, (values > 0.0).astype(float)):
        got = convolve_same(v, weights)
        expected = _numpy_fft_same(v, weights)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        direct = convolve(v, weights, mode="same", method="direct")
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()


def test_fast_len_matches_scipy():
    assert [_fast_len(n) for n in range(1, 5001)] == [
        next_fast_len(n, True) for n in range(1, 5001)]


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


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_width_is_refused(eps, slit_square_32):
    """Refused as not finite, not as too large for the grid or too small."""
    F = sample_field(seeded_trig_field(0), slit_square_32, 1.0)
    for build in (lambda: MollifierKernel(eps, slit_square_32.grid),
                  lambda: mollify_field(F, eps)):
        with pytest.raises(InputError, match=f"^mollifier width {eps} is not finite$"):
            build()
