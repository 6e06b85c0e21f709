"""Bounded flux fields with measure divergence on rough sets.

A field is stored staggered: one normal component per facet, with two
one-sided values on crack and boundary facets.  The discrete divergence
of a field on its domain is the per-cell flux balance (one-sided values
included, so constant-per-side fields across a crack are divergence
free); extending by zero turns crack and boundary facets into genuine
interior jumps, which concentrate divergence on the facets themselves.

The facet roles of a rough set, and its one-sided slots, are
``RoughSet.topology`` (computed once per set): ``topology.minus`` /
``topology.plus`` are the boundary-minus-exterior facet sides (both
sides of a crack facet, the body side of a reduced facet).  A field
lives on the interior facets and those slots (``FluxField.restrict``);
its normal trace is a bounded density on the slots, stored as per-axis
minus/plus arrays in ``TraceData``: the density of a side is the
one-sided outward flux, whether or not the two sides differ.  Where they
differ it equals the negated facet part of the extended divergence.
Dicts keyed by (axis, facet index, side) exist only as export views
(``sides()``, ``side_weights``, ``InteriorTraceReport.atoms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import FacetTopology, RoughSet
from .errors import CompatibilityError, InputError, InvariantViolation
from .gridcore import (MINUS, PLUS, FacetArrays, Grid, box_any, faces, lift, nonzero,
                       side_orient, touches_edge, touching)
from .measure import refinement_order
from .mollify import MollifierKernel, masked_gradient, smooth_cells_masked
from .onesided import smooth_facet_values


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


class TestFunction:
    """Monomial test function x^e0 * y^e1 (* z^e2) with analytic gradient.

    The Gauss-Green formula up to the boundary pairs against test
    functions that need not vanish near the boundary, and the pairing
    evaluates phi only inside the grid box, so no cutoff is applied.
    Every method takes one coordinate array per axis, the broadcastable
    1-D arrays of ``Grid.cell_center_mesh()`` / ``facet_center_mesh(a)``
    or equal-length 1-D gathers of a few slots, and multiplies the per-axis
    powers coefficient first, then axis 0, 1, ....
    """

    __test__ = False  # pytest would otherwise collect it by its name

    def __init__(self, exponents: tuple[int, ...]):
        self.exponents = tuple(exponents)
        self.name = "x^" + ",".join(str(e) for e in self.exponents)

    @staticmethod
    def _term(coords, coef: int, powers) -> np.ndarray:
        out = coef
        for x, p in zip(coords, powers):
            if p:
                out = out * x ** p
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(*(np.shape(x) for x in coords)))

    def value(self, coords) -> np.ndarray:
        return self._term(coords, 1, self.exponents)

    def grad_component(self, coords, axis: int) -> np.ndarray:
        """One partial derivative, without forming the others."""
        e = self.exponents[axis]
        powers = [p - (b == axis) for b, p in enumerate(self.exponents)] if e else []
        return self._term(coords, e, powers)  # e = 0: zeros of the coords' shape


def default_phi_basis(grid: Grid, degree: int = 2) -> list[TestFunction]:
    """Monomials of degree <= 2 for ``degree=2``, plus cubics for
    ``degree=3``.  In 2D the quadratic set is all six monomials; in 3D it
    is 1, x, y, z, y^2 and xy (six of the ten: no x^2, z^2, xz or yz)."""
    if degree not in (2, 3):
        raise InputError(f"phi basis degree must be 2 or 3, not {degree!r}")
    if grid.n == 2:
        exps = [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0)]
        cubics = [(0, 3), (3, 0), (2, 1)]
    else:
        exps = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0), (1, 1, 0)]
        cubics = [(0, 0, 3), (3, 0, 0)]
    return [TestFunction(e) for e in exps + (cubics if degree == 3 else [])]


# ---------------------------------------------------------------------------
# flux fields
# ---------------------------------------------------------------------------


def facet_topology(set_: RoughSet) -> FacetTopology:
    return set_.topology


class FluxField:
    """Staggered bounded vector field on a rough set.

    ``vminus[a]`` / ``vplus[a]`` hold the +a normal component seen from
    the lower / upper cell of each axis-a facet.  Interior non-crack
    facets carry one value (both arrays agree there); crack and boundary
    facets carry two independent one-sided values.
    """

    def __init__(self, set_: RoughSet, sup_bound: float):
        if sup_bound < 0.0:
            raise InputError("sup bound must be nonnegative")
        self.set = set_
        self.grid = set_.grid
        self.sup_bound = float(sup_bound)
        self.topology = set_.topology
        self.vminus = [np.zeros(self.grid.facet_shape(a)) for a in range(self.grid.n)]
        self.vplus = [np.zeros(self.grid.facet_shape(a)) for a in range(self.grid.n)]

    def restrict(self) -> "FluxField":
        """Zero every value off the field's own slots: ``vminus`` lives on
        the interior facets and the MINUS slots, ``vplus`` on the interior
        facets and the PLUS slots (an exterior side carries no material)."""
        top = self.topology
        for a in range(self.grid.n):
            self.vminus[a][~(top.interior[a] | top.minus[a])] = 0.0
            self.vplus[a][~(top.interior[a] | top.plus[a])] = 0.0
        return self

    def tighten(self) -> "FluxField":
        """Refit ``sup_bound`` to the largest stored magnitude (kept
        positive)."""
        self.sup_bound = max(
            float(max(np.abs(v).max() for v in self.vminus)),
            float(max(np.abs(v).max() for v in self.vplus)),
            1e-300,
        )
        return self

    def check_bound(self) -> None:
        """Raise ``InputError`` when a live slot is not finite or exceeds
        the declared bound."""
        worst = 0.0
        for a in range(self.grid.n):
            live = self.topology.interior[a] | self.topology.crack[a] | self.topology.boundary[a]
            for values in (self.vminus[a][live], self.vplus[a][live]):
                if not np.isfinite(values).all():
                    raise InputError(f"field has {np.count_nonzero(~np.isfinite(values))} "
                                     f"non-finite values on live axis-{a} facets")
                if values.size:
                    worst = max(worst, float(np.abs(values).max()))
        if worst > self.sup_bound * (1.0 + 1e-12):
            raise InputError(
                f"field magnitude {worst} exceeds declared bound {self.sup_bound}"
            )

    def plus_face_values(self, axis: int) -> np.ndarray:
        """Cell-aligned values on each cell's +axis face (seen from it)."""
        return faces(self.vminus[axis], axis)[1]

    def minus_face_values(self, axis: int) -> np.ndarray:
        return faces(self.vplus[axis], axis)[0]


def sample_field(f, set_: RoughSet, sup_bound: float) -> FluxField:
    """Sample an analytic vector function onto the facets of a rough set.

    Facet values are normal components at facet centers; crack facets
    take one-sided limits at offsets of a quarter cell along the normal.
    ``f`` gets an (m, n) array of points and returns their (m, n) values;
    it must act on each point alone.  Per axis it is called once on the
    centres of the interior and reduced facets and, on a cracked axis,
    twice more on the crack facet centres shifted a quarter cell down and
    up, so it is never called off the slots the field fills.  Raises if
    the sampled magnitude exceeds the declared bound.
    """
    grid = set_.grid
    F = FluxField(set_, sup_bound)
    top = F.topology
    for a in range(grid.n):
        live = top.interior[a] | top.boundary[a]
        if live.any():
            vals = np.asarray(f(np.stack(grid.facet_centers(a, nonzero(live)), axis=-1)))[:, a]
            F.vminus[a][live] = vals
            F.vplus[a][live] = vals
        crack = top.crack[a]
        if crack.any():
            Xc = np.stack(grid.facet_centers(a, nonzero(crack)), axis=-1)
            off = np.zeros(grid.n)
            off[a] = 0.25 * grid.spacing
            F.vminus[a][crack] = np.asarray(f(Xc - off))[:, a]
            F.vplus[a][crack] = np.asarray(f(Xc + off))[:, a]
    F.restrict().check_bound()
    return F


def extend_by_zero(F: FluxField) -> FluxField:
    """Zero extension onto the grid, which must strictly contain the body.

    Crack facets keep both one-sided values; former boundary facets keep
    the inside value against an outside value of zero.  In the extended
    field those facets are interior, so their jumps become divergence.
    """
    grid = F.grid
    if touches_edge(F.set.cells):
        raise InputError("the grid must strictly contain the set to extend by zero")
    box_set = RoughSet(grid, np.ones(grid.extents, dtype=bool))
    out = FluxField(box_set, F.sup_bound)
    for a in range(grid.n):
        out.vminus[a][...] = F.vminus[a]
        out.vplus[a][...] = F.vplus[a]
    return out


# ---------------------------------------------------------------------------
# signed measures
# ---------------------------------------------------------------------------


class SignedMeasure:
    """Sparse real measure with cell atoms and facet-side atoms.

    Facet-side atoms are halves of one geometric facet atom; the total
    variation therefore aggregates the net weight per facet, so a facet
    whose two sides cancel contributes nothing.
    """

    def __init__(self, grid: Grid, cell_weights: np.ndarray,
                 facet_minus: list[np.ndarray], facet_plus: list[np.ndarray]):
        self.grid = grid
        self.cell_weights = cell_weights
        self.facet_minus = facet_minus
        self.facet_plus = facet_plus

    @property
    def total_variation(self) -> float:
        tv = float(np.abs(self.cell_weights).sum())
        for a in range(self.grid.n):
            tv += float(np.abs(self.facet_minus[a] + self.facet_plus[a]).sum())
        return tv


def divergence_measure(F: FluxField) -> SignedMeasure:
    """Distributional divergence of a field on its own domain.

    Cell atoms are full one-sided flux balances; facet atoms appear only
    on two-valued facets interior to the domain (none for a field on a
    cracked set: its cracks are boundary, not interior, so the jump
    across a crack is never divergence inside the body).
    """
    grid = F.grid
    area = grid.facet_area
    fminus = [np.zeros(grid.facet_shape(a)) for a in range(grid.n)]
    fplus = [np.zeros(grid.facet_shape(a)) for a in range(grid.n)]
    for a in range(grid.n):
        jump_here = F.topology.interior[a] & (F.vminus[a] != F.vplus[a])
        fminus[a][jump_here] = -F.vminus[a][jump_here] * area
        fplus[a][jump_here] = F.vplus[a][jump_here] * area
    return SignedMeasure(grid, cell_balance(F), fminus, fplus)


def cell_balance(F: FluxField) -> np.ndarray:
    """The cell atoms of ``divergence_measure(F)``: each body cell's
    one-sided flux balance times the facet area."""
    balance = np.zeros(F.grid.extents)
    scratch = np.empty(F.grid.extents)
    for a in range(F.grid.n):
        balance += np.subtract(F.plus_face_values(a), F.minus_face_values(a), out=scratch)
    balance *= F.grid.facet_area
    balance[~F.set.cells] = 0.0
    return balance


# ---------------------------------------------------------------------------
# trace measures and pairings
# ---------------------------------------------------------------------------


def _facet_pairing(grid: Grid, weights: list[np.ndarray], phi: TestFunction) -> float:
    """Sum over facets of the per-axis ``weights`` times phi at the facet
    center (phi is evaluated on the nonzero weights only, at the centres
    of ``Grid.facet_centers``, concatenated per coordinate axis)."""
    live = [nonzero(w != 0.0) for w in weights]
    coords = [np.concatenate(x) for x in
              zip(*(grid.facet_centers(a, idx) for a, idx in enumerate(live)))]
    return float(np.dot(np.concatenate([w[idx] for w, idx in zip(weights, live)]),
                        phi.value(coords)))


class TraceData:
    """Normal trace on the boundary-minus-exterior facet sides of a rough
    set: one bounded outward density per legal side.

    Per axis, ``gminus`` / ``gplus`` hold the density on the MINUS / PLUS
    side of each facet slot; only the sides in ``topology.minus`` /
    ``topology.plus`` (both sides of a crack facet, the body side of a
    reduced facet) carry data.  The same arrays hold the trace of a field
    (``trace_measure``) and a prescription for the solver.  ``sides()``
    and ``side_weights`` are dict views for export only.
    """

    eq_mixed_gap = 0.0  # halving-identity gap, audited by trace_measure

    def __init__(self, set_: RoughSet):
        self.set = set_
        self.grid = set_.grid
        self.topology = set_.topology
        self.gminus = [np.zeros(self.grid.facet_shape(a)) for a in range(self.grid.n)]
        self.gplus = [np.zeros(self.grid.facet_shape(a)) for a in range(self.grid.n)]

    def slots(self):
        """(axis, side, legal-side mask, density array) per axis and side."""
        for a in range(self.grid.n):
            yield a, MINUS, self.topology.minus[a], self.gminus[a]
            yield a, PLUS, self.topology.plus[a], self.gplus[a]

    def set_side(self, axis: int, fidx, side: int, g: float) -> None:
        mask = self.topology.minus if side == MINUS else self.topology.plus
        if not mask[axis][tuple(fidx)]:
            raise InputError(
                f"(axis {axis}, {tuple(fidx)}, side {side}) is not a trace side"
            )
        arr = self.gminus if side == MINUS else self.gplus
        arr[axis][tuple(fidx)] = g

    def fill(self, fn) -> "TraceData":
        """Prescribe g = fn(x, nu) from facet centers and exterior normals.

        ``fn`` gets an (m, n) array of the centres of one slot's legal
        sides and that slot's exterior unit normal, and returns the (m,)
        densities; it must act on each point alone, and it is never called
        off the legal sides.
        """
        for a, side, mask, arr in self.slots():
            if not mask.any():
                continue
            nu = np.zeros(self.grid.n)
            nu[a] = side_orient(side)
            arr[mask] = fn(np.stack(self.grid.facet_centers(a, nonzero(mask)), axis=-1), nu)
        return self

    def sides(self) -> dict:
        """{(axis, facet index, side): density} on the nonzero legal sides."""
        out = {}
        for a, side, mask, arr in self.slots():
            idx = nonzero(mask & (arr != 0.0))
            for i, g in zip(zip(*(c.tolist() for c in idx)), arr[idx].tolist()):
                out[(a, i, side)] = g
        return out

    @property
    def side_weights(self) -> dict:
        """{(axis, facet index, side): density x facet area} on the nonzero
        sides, in ``sides()`` order."""
        area = self.grid.facet_area
        return {key: g * area for key, g in self.sides().items()}

    @property
    def support_reduced(self) -> FacetArrays:
        return FacetArrays(self.grid, [m.copy() for m in self.topology.boundary])

    @property
    def support_crack(self) -> FacetArrays:
        return FacetArrays(self.grid, [m.copy() for m in self.topology.crack])

    def net(self, axis: int) -> np.ndarray:
        """Per-facet density: the two legal sides of each facet summed."""
        return (np.where(self.topology.minus[axis], self.gminus[axis], 0.0)
                + np.where(self.topology.plus[axis], self.gplus[axis], 0.0))

    @property
    def g_infinity(self) -> float:
        return max(float(np.abs(self.net(a)).max()) for a in range(self.grid.n))

    @property
    def integral(self) -> float:
        return sum(float(arr[mask].sum())
                   for *_, mask, arr in self.slots()) * self.grid.facet_area

    def abs_integral(self) -> float:
        return sum(float(np.abs(arr[mask]).sum())
                   for *_, mask, arr in self.slots()) * self.grid.facet_area

    def sup(self) -> float:
        worst = 0.0
        for *_, mask, arr in self.slots():
            if mask.any():
                worst = max(worst, float(np.abs(arr[mask]).max()))
        return worst

    def integrate(self, phi: TestFunction) -> float:
        """Facet-midpoint integral of phi against the trace."""
        nets = [self.net(a) for a in range(self.grid.n)]
        return _facet_pairing(self.grid, nets, phi) * self.grid.facet_area

    def inflow_per_cell(self) -> np.ndarray:
        """Net prescribed outward flux attached to each body cell (the
        trace side belongs to its inside cell)."""
        out = np.zeros(self.grid.extents)
        for a in range(self.grid.n):
            gm = np.where(self.topology.minus[a], self.gminus[a], 0.0)
            gp = np.where(self.topology.plus[a], self.gplus[a], 0.0)
            # the minus side is its lower cell's upper face, and vice versa
            out += faces(gm, a)[1]
            out += faces(gp, a)[0]
        return out


TraceMeasure = TraceData

# The largest magnitude a prescribed density may have: it keeps the
# solver's squared norms finite on any grid up to the 2^23-cell cap.
MAX_DENSITY = 1e100


def is_compatible(td: TraceData) -> bool:
    """Zero net prescribed flux up to roundoff; never for non-finite data."""
    scale = td.abs_integral()
    return math.isfinite(scale) and abs(td.integral) <= 1e-10 * (scale + 1.0)


def check_prescription(td: TraceData) -> None:
    """Refuse data no solve accepts: a density on a legal side that is not
    finite or exceeds ``MAX_DENSITY`` in magnitude (InputError), then net
    flux over the whole set (CompatibilityError), which Gauss-Green rules
    out for the trace of any divergence-free field.  Needs no scipy, so a
    caller can refuse data before the solver loads."""
    for a, _side, mask, arr in td.slots():
        values = arr[mask]
        if not np.isfinite(values).all():
            raise InputError(f"non-finite prescribed trace density on axis {a}")
        if (np.abs(values) > MAX_DENSITY).any():
            raise InputError(f"prescribed trace density on axis {a} exceeds "
                             f"{MAX_DENSITY:g} in magnitude")
    if not is_compatible(td):
        raise CompatibilityError(f"globally incompatible trace data: integral {td.integral}")


def trace_measure(F: FluxField) -> TraceData:
    """Normal trace of F: the one-sided outward flux on every legal side,
    ``gminus = vminus`` and ``gplus = -vplus``, whether or not the two
    sides of a crack facet differ.  Where a facet's sides differ this is
    the negated facet part of the zero-extended divergence.

    Also audits, exactly, that the reduced-boundary part equals twice the
    mean-flux pairing against the indicator gradient (the discrete form
    of the halving identity for mollified indicators).
    """
    if touches_edge(F.set.cells):
        raise InputError("the grid must strictly contain the set to extend by zero")
    tm = TraceData(F.set)
    area = F.grid.facet_area
    eq_gap = 0.0
    for a in range(F.grid.n):
        minus, plus = F.topology.minus[a], F.topology.plus[a]
        tm.gminus[a][minus] = F.vminus[a][minus]
        tm.gplus[a][plus] = -F.vplus[a][plus]
        # halving identity on the reduced part: the facet atom of the
        # zero-extended divergence, (vp - vm) * area, is 2 * mean * s_chi * area
        bdry = F.topology.boundary[a]
        vm, vp = F.vminus[a][bdry], F.vplus[a][bdry]
        net = -vm * area + vp * area
        s_chi = np.where(F.topology.inside_lower[a][bdry], -1.0, 1.0)
        gap = np.abs(net - 2.0 * (0.5 * (vm + vp) * s_chi * area))
        if gap.size:
            eq_gap = max(eq_gap, float(gap.max()))
    tm.eq_mixed_gap = eq_gap
    return tm


def trace_linfinity_check(tm: TraceData, F: FluxField) -> dict:
    """Sup bound on the trace density against 4 times the field bound."""
    c_check = 4.0
    ginf = tm.g_infinity
    sup = F.sup_bound
    ratio = ginf / sup if sup > 0.0 else 0.0
    ok = ginf <= c_check * sup * (1.0 + 1e-12) + 1e-300
    if not ok:
        raise InvariantViolation(
            f"trace density {ginf} exceeds {c_check} x field bound {sup}"
        )
    return {"g_infinity": ginf, "sup_bound": sup, "ratio": ratio,
            "c_check": c_check, "ok": ok}


@dataclass
class _MidpointPhi:
    """The test-function half of the midpoint pairing, for one topology.

    ``cells`` is phi at cell centers; per axis a, ``facet[a]`` is the
    partial derivative along a at the facet centers of
    ``topology.interior[a]``, as a 1-D array in C order.  ``lower[a]`` /
    ``upper[a]`` are 1-D arrays over the slots of ``topology.minus[a]`` /
    ``topology.plus[a]`` in C order: the same derivative a quarter cell
    below / above those facet centers, evaluated there only.
    """

    cells: np.ndarray
    facet: list[np.ndarray]
    lower: list[np.ndarray]
    upper: list[np.ndarray]


def _midpoint_phi(grid: Grid, phi: TestFunction, top: FacetTopology) -> _MidpointPhi:
    facet, lower, upper = [], [], []
    for a in range(grid.n):
        facet.append(phi.grad_component(grid.facet_center_mesh(a), a)[top.interior[a]])
        for out, mask, sign in zip((lower, upper), (top.minus[a], top.plus[a]), (-1.0, 1.0)):
            coords = grid.facet_centers(a, nonzero(mask))
            # a quarter cell into the side's cell
            coords[a] = coords[a] + sign * 0.25 * grid.spacing
            out.append(phi.grad_component(coords, a))
    return _MidpointPhi(phi.value(grid.cell_center_mesh()), facet, lower, upper)


def _field_half(F: FluxField):
    """The field half of the midpoint pairing: the cell weights of div F,
    and per axis F on the interior facets and on the MINUS and PLUS
    slots, each gathered in C order."""
    top = F.topology
    return cell_balance(F), [(F.vminus[a][top.interior[a]], F.vminus[a][top.minus[a]],
                              F.vplus[a][top.plus[a]]) for a in range(F.grid.n)]


def _midpoint_pairing(half, pp: _MidpointPhi, vol: float) -> float:
    """A field half (``_field_half``) against a precomputed test function
    on the same topology, with cell volume ``vol``."""
    cell_weights, slots = half
    total = float((pp.cells * cell_weights).sum())
    for a, (interior, minus, plus) in enumerate(slots):
        total += float((interior * pp.facet[a]).sum()) * vol
        for vals, dphi_half in ((minus, pp.lower[a]), (plus, pp.upper[a])):
            if dphi_half.size:
                total += float((vals * dphi_half).sum()) * vol * 0.5
    return total


def normal_trace_pairing(F: FluxField, phi: TestFunction) -> float:
    """The trace pairing: integral of phi against div F plus the flux-
    gradient integral over the body.

    The flux-gradient integral takes the analytic grad(phi) at facet
    centers on interior facets (full dual volume) and at half-cell
    midpoints on crack and boundary sides (half volume).  Where grad(phi)
    is affine (the degree-2 ``default_phi_basis``) the pairing equals
    ``trace_measure(F).integrate(phi)`` up to rounding, for every field
    on the set.  The pairing is linear in the field, so it is the field
    half (``_field_half``: the cell balance of the divergence and the
    gathered facet slots) paired (``_midpoint_pairing``) with the phi half
    (``_midpoint_phi``, evaluated on the grid's per-axis coordinates, the
    facet derivatives kept on the interior facets and the half-cell ones
    taken at the one-sided slots only); callers pairing many fields of
    one topology against many phi build each half once.
    """
    return _midpoint_pairing(_field_half(F), _midpoint_phi(F.grid, phi, F.topology),
                             F.grid.cell_volume)


def gauss_green_residual(F: FluxField, phi: TestFunction, tm: TraceData) -> float:
    """Gap between the trace pairing and the facet-midpoint integral of
    phi against the trace measure ``tm`` of F; exact for grid-aligned
    piecewise-constant fields, first-order small for smooth data."""
    return abs(normal_trace_pairing(F, phi) - tm.integrate(phi))


# ---------------------------------------------------------------------------
# mollification and weak-star trace continuity
# ---------------------------------------------------------------------------


def mollify_field(F: FluxField, eps: float) -> FluxField:
    """Facet-wise one-sided mollification, one facet axis at a time
    (``onesided.smooth_facet_values``), by one kernel built for all axes.

    Interior facets are smoothed, and crack and boundary sides keep their
    values.  A facet averages the interior facets of its axis that it sees.
    The kernel is renormalized only near a crack, non-sample or grid edge,
    over the sample pairs it keeps; elsewhere its unit mass is on samples.
    The recorded sup bound never grows: outputs are convex averages.
    """
    out = FluxField(F.set, F.sup_bound)
    kernel = MollifierKernel(eps, F.grid)
    for a in range(F.grid.n):
        out.vminus[a], out.vplus[a] = smooth_facet_values(F, kernel, a)
    out.check_bound()
    return out


def _widths(grid: Grid) -> list[float]:
    """The mollification ladder of every audit: 8, 4 and 2 spacings."""
    return [8.0 * grid.spacing, 4.0 * grid.spacing, 2.0 * grid.spacing]


def trace_weak_convergence(F: FluxField) -> dict:
    """Mollification ladder for the trace pairing.

    Rows hold the worst midpoint pairing gap over the degree-3
    ``default_phi_basis`` at each width of the 8/4/2 dx ladder: max over
    phi of |pairing(mollify_field(F, eps), phi) -
    pairing(F, phi)|.  The field half of the pairing is taken once for
    ``F`` and once per width, each mollified field dropped once its half
    is gathered; then each phi's half is built once and paired with every
    field half (they share one topology), so a test function is evaluated
    once per ladder and a field gathered once, not once per phi.  The
    verdict is CONVERGENT when the final gap is below 1e-3 of the natural
    scale (field bound times boundary size) and rows do not increase by
    more than ten percent.  No order is fitted (``refinement_order``): on
    exact data the gaps sit at roundoff (4e-17 for the slit jump), where
    a slope means nothing.
    """
    grid = F.grid
    eps_list = _widths(grid)
    halves = [_field_half(F)] + [_field_half(mollify_field(F, eps)) for eps in eps_list]
    gaps = [[] for _ in eps_list]
    for phi in default_phi_basis(grid, degree=3):
        pp = _midpoint_phi(grid, phi, F.topology)
        base, *paired = (_midpoint_pairing(h, pp, grid.cell_volume) for h in halves)
        for row_gaps, value in zip(gaps, paired):
            row_gaps.append(abs(value - base))
    boundary_area = 0.0
    for a in range(grid.n):
        for mask in (F.topology.minus[a], F.topology.plus[a]):
            boundary_area += float(mask.sum()) * grid.facet_area
    scale = max(F.sup_bound, 1e-300) * (1.0 + boundary_area)
    rows = [{"eps": eps, "gap": max(row_gaps)}
            for eps, row_gaps in zip(eps_list, gaps)]
    nonincreasing = all(
        rows[i + 1]["gap"] <= rows[i]["gap"] * 1.1 + 1e-14 * scale
        for i in range(len(rows) - 1)
    )
    final_ok = rows[-1]["gap"] <= 1e-3 * scale
    return {
        "rows": rows,
        "scale": scale,
        "verdict": "CONVERGENT" if (nonincreasing and final_ok) else "DIVERGENT",
    }


# ---------------------------------------------------------------------------
# interior normal traces (compactly contained sets)
# ---------------------------------------------------------------------------


def _project_to_targets(atoms: np.ndarray, targets: np.ndarray, axis: int) -> np.ndarray:
    """Collapse a facet-atom layer onto the nearest target facet along
    each axis line (a tie goes to the lower target); atoms on a line with
    no target are dropped."""
    m = atoms.shape[axis]
    shape = [1] * atoms.ndim
    shape[axis] = m
    pos = np.arange(m).reshape(shape)
    # nearest target at or below / at or above; -2m and 3m mark "none",
    # which always loses the distance comparison to a real target
    below = np.maximum.accumulate(np.where(targets, pos, -2 * m), axis=axis)
    above = np.flip(np.minimum.accumulate(
        np.flip(np.where(targets, pos, 3 * m), axis), axis=axis), axis)
    chosen = np.where(pos - below <= above - pos, below, above)
    keep = (atoms != 0.0) & (chosen >= 0) & (chosen < m)
    dst = list(np.nonzero(keep))
    dst[axis] = chosen[keep]
    out = np.zeros(atoms.shape)
    # np.add.at adds in source order: each target sums its atoms bottom up
    np.add.at(out, tuple(dst), atoms[keep])
    return out


def _mollified_chi_pairing(F: FluxField, e_cells: np.ndarray,
                           eps: float) -> list[np.ndarray]:
    """Per-axis facet atoms of the mollified indicator pairing weighted by
    chi_E (the two-cell mean on a facet), projected onto the reduced
    facets of E."""
    grid = F.grid
    e_float = e_cells.astype(float)
    w = MollifierKernel(eps, grid).smooth_cells(e_float)
    out = []
    for a in range(grid.n):
        w_lo, w_up = lift(w, a)
        e_lo, e_up = lift(e_float, a)
        chi = 0.5 * (e_lo + e_up)
        atoms = F.vminus[a] * chi * (w_up - w_lo) * grid.facet_area
        out.append(_project_to_targets(atoms, e_lo != e_up, a))
    return out


@dataclass
class InteriorTraceReport:
    """Mollified interior-trace construction on the reduced boundary of a
    compactly contained set, with its interior Gauss-Green audit."""

    weights: list[np.ndarray]   # per axis: finest-width measure on reduced facets of E
    gate_passed: bool
    gate_details: list[dict]
    gg_residual: float          # interior Gauss-Green against -2x the measure

    @property
    def atoms(self) -> dict:
        """{(axis, facet index): weight} on the nonzero facets; the export
        view of ``weights``."""
        return {(a, tuple(int(v) for v in i)): float(w[tuple(i)])
                for a, w in enumerate(self.weights) for i in np.argwhere(w != 0.0)}


def interior_normal_trace(F: FluxField, e_cells: np.ndarray) -> InteriorTraceReport:
    """Interior normal trace of F on the boundary of E (compactly inside
    the body): the vanishing-width limit of the indicator-gradient
    pairing, realized on the 8/4/2 dx ladder.  A gate passes each phi of
    the degree-2 ``default_phi_basis`` whose pairings m8, m4, m2 have
    settled (|m4 - m2| <= 1e-10 (1 + |m2|)) or whose steps |m8 - m4|,
    |m4 - m2| fit an order >= log2(4/3): a step ratio <= 3/4, so the tail
    past m2 is <= 3 |m4 - m2| and a stalling or growing ladder fails,
    however fast a converging one goes.

    The returned measure is the 2 dx one; ``gg_residual`` is the worst gap
    over the basis between the Gauss-Green pairing of F over E and minus
    twice that measure.
    """
    grid = F.grid
    e_cells = np.asarray(e_cells, dtype=bool)
    grown = box_any(e_cells, 1)
    if not bool(np.all(F.set.cells[grown])):
        raise InputError("E must be compactly contained in the body (1-cell margin)")
    if bool(np.any(touching(F.topology.crack) & grown)):
        raise InputError("E must keep clear of crack facets")
    eps_list = _widths(grid)
    phi_basis = default_phi_basis(grid)
    ladder = [_mollified_chi_pairing(F, e_cells, eps) for eps in eps_list]

    gate_details = []
    gate_passed = True
    for phi in phi_basis:
        m8, m4, m2 = (_facet_pairing(grid, weights, phi) for weights in ladder)
        order = refinement_order(eps_list[:2], [abs(m8 - m4), abs(m4 - m2)])
        ok = (abs(m4 - m2) <= 1e-10 * (1.0 + abs(m2))
              or (order is not None and order >= np.log2(4.0 / 3.0)))
        gate_passed &= ok
        gate_details.append({"phi": phi.name, "coarse": m8, "mid": m4,
                             "fine": m2, "order": order, "ok": ok})

    # interior Gauss-Green: pairing over E against -2x the measure
    e_set = RoughSet(grid, e_cells)
    F_E = FluxField(e_set, F.sup_bound)
    for a in range(grid.n):
        F_E.vminus[a][...] = F.vminus[a]
        F_E.vplus[a][...] = F.vminus[a]
    F_E.restrict()
    gg_residual = 0.0
    for phi in phi_basis:
        lhs = normal_trace_pairing(F_E, phi)
        rhs = -2.0 * _facet_pairing(grid, ladder[-1], phi)
        gg_residual = max(gg_residual, abs(lhs - rhs))
    return InteriorTraceReport(
        weights=ladder[-1],
        gate_passed=gate_passed,
        gate_details=gate_details,
        gg_residual=gg_residual,
    )


# ---------------------------------------------------------------------------
# product rule and extension bound
# ---------------------------------------------------------------------------


def product_rule_check(F: FluxField, g_cells: np.ndarray) -> dict:
    """Audit div(gF) = g* div F + (F . Dg) against the mollified-gradient
    realization of the second term.

    g is a bounded cell scalar on the body.  The product field samples g
    as the two-cell mean on interior facets (the midpoint representative,
    one half on indicator interfaces) and one-sidedly on crack/boundary
    sides; the pairing term mollifies g one-sidedly over the body and
    pairs the cell gradient with the cell-averaged field.  Reports the
    identity residual over the degree-2 ``default_phi_basis`` at each width
    of the 8/4/2 dx ladder, and the variation bound rows.
    """
    grid = F.grid
    g_cells = np.asarray(g_cells, dtype=float)
    if g_cells.shape != grid.extents:
        raise InputError(f"g has shape {g_cells.shape}, not the grid's {grid.extents}")
    if not np.all(np.isfinite(g_cells)):
        raise InputError("g must be bounded (finite everywhere)")
    eps_list = _widths(grid)
    phi_basis = default_phi_basis(grid)
    body = F.set.cells
    g_body = np.where(body, g_cells, 0.0)

    # product field gF: two-cell mean on interior facets, one-sided at sides
    gF = FluxField(F.set, float(F.sup_bound * np.max(np.abs(g_cells)) or 1.0))
    for a in range(grid.n):
        g_lo, g_up = lift(g_body, a)
        interior = F.topology.interior[a]
        gmean = 0.5 * (g_lo + g_up)
        gF.vminus[a] = np.where(interior, gmean * F.vminus[a], 0.0)
        gF.vplus[a] = np.where(interior, gmean * F.vplus[a], 0.0)
        minus_side, plus_side = F.topology.minus[a], F.topology.plus[a]
        gF.vminus[a][minus_side] = (g_lo * F.vminus[a])[minus_side]
        gF.vplus[a][plus_side] = (g_up * F.vplus[a])[plus_side]

    div_gF, div_F = cell_balance(gF), cell_balance(F)
    mesh = grid.cell_center_mesh()
    # cell-centred field: the mean of each cell's two faces per axis
    Fc = np.stack([0.5 * (F.plus_face_values(a) + F.minus_face_values(a))
                   for a in range(grid.n)], axis=-1)
    rows = []
    bound_rows = []
    for eps in eps_list:
        kernel = MollifierKernel(eps, grid)
        g_eps = smooth_cells_masked(kernel, g_body, body)
        dg = masked_gradient(g_eps, body, grid.spacing)
        pair_density = np.einsum("...a,...a->...", Fc, dg)
        pair_density[~body] = 0.0
        residual = 0.0
        for phi in phi_basis:
            phi_c = phi.value(mesh)
            lhs = float((phi_c * div_gF).sum())
            mid = float((phi_c * g_eps * div_F).sum())
            rhs = float((phi_c * pair_density).sum()) * grid.cell_volume
            residual = max(residual, abs(lhs - mid - rhs))
        tv_pairing = float(np.abs(pair_density).sum()) * grid.cell_volume
        dg_total = float(
            np.sqrt(np.einsum("...a,...a->...", dg, dg))[body].sum()
        ) * grid.cell_volume
        bound_ok = tv_pairing <= F.sup_bound * dg_total * (1.0 + 1e-12) + 1e-300
        rows.append({"eps": eps, "residual": residual})
        bound_rows.append({"eps": eps, "pairing_tv": tv_pairing,
                           "dg_total": dg_total, "sup_bound": F.sup_bound,
                           "ok": bound_ok})
    order = refinement_order(eps_list, [r["residual"] for r in rows])
    return {"rows": rows, "bound_rows": bound_rows, "order": order}


def extension_bound_check(F: FluxField) -> dict:
    """Variation of the extended divergence against twice the interior
    variation plus the field bound times the boundary measure."""
    c_ext = 2.0
    lhs = divergence_measure(extend_by_zero(F)).total_variation
    tv_inner = divergence_measure(F).total_variation
    star = F.set.star_measure
    rhs = tv_inner + F.sup_bound * star
    ok = lhs <= c_ext * rhs * (1.0 + 1e-12) + 1e-300
    report = {"extended_tv": lhs, "interior_tv": tv_inner,
              "star_measure": star, "bound": c_ext * rhs, "c_ext": c_ext,
              "ok": ok}
    if not ok:
        raise InvariantViolation(
            f"extension variation {lhs} exceeds {c_ext} x ({tv_inner} + "
            f"{F.sup_bound} x {star})"
        )
    return report
