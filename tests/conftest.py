import json
import warnings

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from roughgg.dmfield import FluxField
from roughgg.domain import make_grid, parse_domain, preset_set, rasterize
from roughgg.errors import CrackPlacementError


def pytest_configure(config):
    # hypothesis reports a failing example through ``hypothesis.extra._patching``,
    # which imports libcst when it is installed; libcst's import raises a
    # DeprecationWarning that ``-W error`` would turn into an INTERNALERROR.
    # Importing it once here, with that warning ignored, makes the report
    # hook's import a cache hit.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def slit_square_32():
    return preset_set("slit-square", 1.0 / 32.0, margin_cells=4)


@pytest.fixture(scope="session")
def slit_square_64():
    return preset_set("slit-square", 1.0 / 64.0, margin_cells=4)


@pytest.fixture(scope="session")
def disk_64():
    return preset_set("disk", 1.0 / 64.0, margin_cells=4)


@pytest.fixture(scope="session")
def square_32():
    return preset_set("square", 1.0 / 32.0, margin_cells=4)


def cell_centers(set_):
    return np.stack(np.broadcast_arrays(*set_.grid.cell_center_mesh()), axis=-1)


def constant_field(vec):
    vec = np.asarray(vec, dtype=float)

    def f(X):
        out = np.zeros(X.shape)
        out[...] = vec
        return out

    return f


def copy_field(F: FluxField) -> FluxField:
    """A field on the same set with copies of F's facet arrays."""
    out = FluxField(F.set, F.sup_bound)
    out.vminus = [v.copy() for v in F.vminus]
    out.vplus = [v.copy() for v in F.vplus]
    return out


def random_facet_noise(set_, seed: int, sup_bound: float = 1.0) -> FluxField:
    """Independent uniform values on every live facet side; the roughest
    member of the bounded class, for worst-case property checks."""
    rng = np.random.default_rng(seed)
    F = FluxField(set_, sup_bound)
    for a in range(set_.grid.n):
        shape = set_.grid.facet_shape(a)
        vals = rng.uniform(-sup_bound, sup_bound, size=shape)
        F.vminus[a][...] = vals
        F.vplus[a][...] = vals
        crack = F.topology.crack[a]
        F.vplus[a][crack] = rng.uniform(-sup_bound, sup_bound, size=shape)[crack]
    return F.restrict()


def _eighths(n, reach=8):
    return st.lists(st.integers(-reach, reach), min_size=n, max_size=n).map(
        lambda v: [x / 8.0 for x in v])


@st.composite
def cracked_domains(draw, dims=(2, 3)):
    """A CSG shape inside [-1, 1]^n (a box, a union with a box or disk, and
    perhaps a hole) and one to three cracks in [-3/4, 3/4]^n: segments in
    2D, axis-aligned rectangles in 3D, on the eighths lattice.  The grid is
    1/16 to 1/32 in 2D and 1/8 in 3D.  Draws whose hole cuts a crack out of
    the body are rejected."""
    n = draw(st.sampled_from(dims))
    args = [{"op": "box", "min": [-1.0] * n, "max": [1.0] * n}]

    def shape():
        c = draw(_eighths(n))
        if draw(st.booleans()):
            return {"op": "disk", "center": c, "r": draw(st.integers(2, 6)) / 8.0}
        size = draw(st.integers(2, 6)) / 8.0
        return {"op": "box", "min": [x - size for x in c], "max": [x + size for x in c]}

    node = {"op": "union", "args": args + [shape()]}
    if draw(st.booleans()):
        node = {"op": "diff", "args": [node, shape()]}
    cracks = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(_eighths(n, 6)), draw(_eighths(n, 6))
        if n == 2:
            if a != b:
                cracks.append({"seg": [a, b]})
            continue
        flat = draw(st.integers(0, 2))
        b[flat] = a[flat]
        if all(a[k] != b[k] for k in range(3) if k != flat):
            cracks.append({"rect": [[min(x, y) for x, y in zip(a, b)],
                                    [max(x, y) for x, y in zip(a, b)]]})
    spacing = 1.0 / (draw(st.sampled_from([16, 24, 32])) if n == 2 else 8)
    spec = parse_domain(json.dumps({"shape": node, "cracks": cracks}))
    try:
        return rasterize(spec, make_grid(spec, spacing, margin_cells=4))
    except CrackPlacementError:
        assume(False)
