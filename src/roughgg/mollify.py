"""Discrete mollification kernels on the cell lattice, and the package's
one same-mode convolution routine (``convolve_same``)."""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .gridcore import Grid, faces, lattice_reach, lift


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a fast real-FFT length (as
    ``scipy.fft.next_fast_len(n, True)``)."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def convolve_same(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Linear convolution with zero padding, cropped to ``values.shape``
    (centered, as ``scipy.signal.fftconvolve(..., mode="same")``).

    ``numpy.fft`` real FFTs run over the axes where both sizes exceed 1
    (the others broadcast), padded to ``_fast_len`` of the full size.
    """
    values = np.asarray(values, dtype=float)
    s1, s2 = values.shape, weights.shape
    axes = [a for a in range(len(s1)) if s1[a] != 1 and s2[a] != 1]
    full = [s1[a] + s2[a] - 1 if a in axes else max(s1[a], s2[a])
            for a in range(len(s1))]
    crop = tuple(slice((f - k) // 2, (f - k) // 2 + k) for f, k in zip(full, s1))
    if not axes:
        return (values * weights)[crop].copy()
    fshape = [_fast_len(full[a]) for a in axes]
    out = np.fft.irfftn(np.fft.rfftn(values, fshape, axes=axes)
                        * np.fft.rfftn(weights, fshape, axes=axes), fshape, axes=axes)
    return out[tuple(slice(k) for k in full)][crop].copy()


class MollifierKernel:
    """Radial polynomial bump of width ``eps``, normalized to unit mass.

    Profile (1 - u^2)^3 on u = |x|/eps < 1, sampled on the cell lattice and
    renormalized so the discrete mass is exactly 1.
    """

    def __init__(self, eps: float, grid: Grid):
        if not np.isfinite(eps):
            raise InputError(f"mollifier width {eps} is not finite")
        if eps < 2.0 * grid.spacing:
            raise InputError(f"mollifier width {eps} must be >= 2 spacings")
        self.eps = float(eps)
        self.grid = grid
        radius = lattice_reach(np.floor(eps / grid.spacing + 1e-12), grid.n,
                               f"mollifier width {eps}")
        axes = [np.arange(-radius, radius + 1) * grid.spacing for _ in range(grid.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        r2 = sum(m**2 for m in mesh)
        u2 = r2 / (eps * eps)
        profile = np.where(u2 < 1.0, (1.0 - np.minimum(u2, 1.0)) ** 3, 0.0)
        self.weights = profile / profile.sum()
        self.radius_cells = radius

    def smooth_cells(self, values: np.ndarray) -> np.ndarray:
        """Convolve a cell array with the kernel, zero padded."""
        return convolve_same(values, self.weights)


def smooth_cells_masked(kernel: MollifierKernel, values: np.ndarray,
                        mask: np.ndarray) -> np.ndarray:
    """Mollify a cell field defined only on ``mask``, zero outside it like
    the result: the kernel is renormalized over the masked cells, so
    constants are preserved up to the mask boundary (one-sided smoothing)."""
    num, den = kernel.smooth_cells(values), kernel.smooth_cells(mask)
    return np.divide(num, den, out=np.zeros(values.shape), where=mask & (den > 0.0))


def masked_gradient(values: np.ndarray, mask: np.ndarray, spacing: float) -> np.ndarray:
    """Per-axis central differences using only in-mask neighbors; one-sided
    at the mask edge, zero where no neighbor exists.  Shape (..., n)."""
    n = values.ndim
    out = np.zeros(values.shape + (n,))
    for a in range(n):
        lower, upper = lift(values, a)
        bwd_val, fwd_val = faces(lower, a)[0], faces(upper, a)[1]
        lower, upper = lift(mask, a, False)
        bwd_ok, fwd_ok = faces(lower, a)[0], faces(upper, a)[1]
        both = fwd_ok & bwd_ok & mask
        fonly = fwd_ok & ~bwd_ok & mask
        bonly = ~fwd_ok & bwd_ok & mask
        g = out[..., a]
        g[both] = (fwd_val[both] - bwd_val[both]) / (2.0 * spacing)
        g[fonly] = (fwd_val[fonly] - values[fonly]) / spacing
        g[bonly] = (values[bonly] - bwd_val[bonly]) / spacing
    return out
