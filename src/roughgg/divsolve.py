"""Divergence-free fields with prescribed normal trace on rough sets.

The discrete problem: find a flux field with zero cell balance whose
boundary/crack facet-side values reproduce prescribed trace densities.
A prescription is a ``TraceData`` (defined in ``dmfield``, the same type
as the trace of a field): per-axis minus/plus density arrays on the
legal facet sides, so the audits compare the trace of the solution with
the prescription array against array.  Crack facets cut the cell graph, so
the two sides of a crack take independent prescriptions; compatibility
(zero net prescribed flux) is enforced per connected component of the
crack-split graph.

Two routes are provided: a direct graph-Laplacian solve, and a two-step
decomposition that first solves a box-wide problem whose divergence is
the negated trace measure (an explicit facet lift plus a cut-edge box
Laplacian), reads the exterior flux on the reduced boundary off that
global field, and then solves the reduced crack-free data on the body.
Of the first two steps only the box potential outlives them: the global
field is rebuilt from it one axis at a time and added into the body's.

Every graph-Laplacian solve, of any size and dimension, takes one path:
conjugate gradients preconditioned by a plain-aggregation multigrid
V-cycle.  An aggregate is the part of a 2^n block of nodes that the
block's own graph edges connect, so no aggregate reaches across a crack
facet or joins two components.  Every edge joins two face neighbours,
so the graph is bipartite by the parity of a cell's coordinate sum: the
finest level is numbered red (even) then black and smoothed by one
red-black Gauss-Seidel sweep before the coarse correction and the
reverse sweep after it, two half matvecs per sweep; the coarser levels
use damped Jacobi.  Coarsening stops at ``COARSE_SIZE`` nodes, where the
coarsest level is factorized; a system already that small is solved
exactly and CG stops after one iteration.  CG is a short loop (``_pcg``)
in the recurrence of ``scipy.sparse.linalg.cg`` whose inner products are
numpy's fixed-order reductions, not BLAS calls, so a solve's bits do not
follow the BLAS thread count.

The policy is one for every caller and takes no argument: CG stops at
the relative residual ``_CG_RTOL``, both audits (``_audit`` inside each
solve, then ``verify_solution``) hold the interior divergence residual
to ``_AUDIT_TOL`` times a scale of the data, and both solves first
refuse what ``dmfield.check_prescription`` refuses: a density that is
not finite or exceeds ``MAX_DENSITY`` in magnitude (``InputError``), or
net flux over the whole set (``CompatibilityError``).  Those checks need
no scipy and live in ``dmfield``, so the command line runs them before
this module loads.

The matrix is assembled straight from the grid in red|black node order,
as a diagonal vector and a sorted int32 CSR of the off-diagonal part:
each node's row is read off a per-node table of its neighbours in
increasing id order, masked by the edge masks, with no COO edge lists.
The red rows of that CSR are A_RB and the black rows A_BR, so the
smoother reads both blocks in place.  Each Galerkin product is a sparse
``P^T A P`` of integer entries, so it is exact.  The audits read the
cell balance (the cell atoms of the divergence measure) and, per trace
slot, the field's one-sided values on the legal sides only; they build
no whole measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dmfield import FluxField, TraceData, cell_balance, check_prescription
from .domain import RoughSet
from .errors import CompatibilityError, InputError, InvariantViolation
from .gridcore import MINUS, PLUS, faces, lift, side_orient, touches_edge

__all__ = ["SolveReport", "TraceData", "solve_decomposed", "solve_direct", "verify_solution"]

# Fixed multigrid constants (not tuning knobs): coarsening stops at
# COARSE_SIZE nodes or when a level keeps more than _STALL of its nodes;
# on every level below the finest (which is smoothed red-black), _SWEEPS
# damped-Jacobi sweeps of weight _OMEGA smooth before and after; every
# coarse correction is scaled by _COARSE_SCALE, the usual over-correction
# for unsmoothed aggregation (below 2, so the cycle stays SPD).
COARSE_SIZE = 2_000
_STALL = 0.8
_OMEGA = 2.0 / 3.0
_SWEEPS = 2
_COARSE_SCALE = 1.8
_CG_MAXITER = 1_000
# The solve policy (see the module docstring).
_CG_RTOL = 1e-12
_AUDIT_TOL = 1e-10


@dataclass
class SolveReport:
    F: FluxField
    interior_div_residual: float
    trace_linf_gap: float
    trace_l1_gap: float
    mode: str
    kappa: float
    # one entry per graph-Laplacian solve, in the order they ran
    cg_iterations: tuple[int, ...] = ()
    levels: tuple[int, ...] = ()


def _aggregate(A: sp.csr_matrix, coords: np.ndarray):
    """Aggregates of one level: each 2^n block of ``coords`` split into
    the components of its block-internal edges.  Returns the aggregate of
    every node (numbered by smallest node) and the block coordinates of
    every aggregate."""
    block = coords // 2
    bid = np.ravel_multi_index(tuple(block.T), tuple(block.max(axis=0) + 1)).astype(np.int32)
    # the entries of A within a block; the diagonal is a self loop, which
    # joins nothing
    inner = np.repeat(bid, np.diff(A.indptr)) == bid[A.indices]
    kept = np.zeros(inner.size + 1, dtype=np.int32)
    np.cumsum(inner, out=kept[1:])
    graph = sp.csr_matrix((np.ones(kept[-1]), A.indices[inner], kept[A.indptr]), shape=A.shape)
    n_agg, agg = sp.csgraph.connected_components(graph, directed=False)
    coarse = np.empty((n_agg, coords.shape[1]), dtype=coords.dtype)
    coarse[agg] = block
    return agg, coarse


def _galerkin(A: sp.csr_matrix, agg: np.ndarray, n_agg: int, diag=None) -> sp.csr_matrix:
    """P^T (A + diag(``diag``)) P for the aggregation P (one unit entry per
    row, in column ``agg``), with sorted column indices; the diagonal, when
    given apart from A, adds up by ``bincount``.  Every entry is an integer,
    so every coarse entry is an exact sum whatever order it is formed in."""
    n = agg.size
    P = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1, dtype=np.int32)), shape=(n, n_agg))
    coarse = P.T.tocsr() @ (A @ P)
    if diag is not None:
        coarse = (coarse + sp.diags(np.bincount(agg, weights=diag, minlength=n_agg))).tocsr()
    coarse.sort_indices()
    return coarse


def _coarsen(graph: sp.csr_matrix, coords: np.ndarray):
    """The aggregates of a level above ``COARSE_SIZE`` nodes and their
    block coordinates, or None where coarsening stops."""
    if graph.shape[0] <= COARSE_SIZE:
        return None
    agg, coarse_coords = _aggregate(graph, coords)
    if coarse_coords.shape[0] > _STALL * graph.shape[0]:
        return None
    return agg, coarse_coords


_RED, _BLACK = 0, 1


class _Laplacian:
    """A grounded graph Laplacian ``D + O`` in red|black node order: the
    diagonal ``diag`` and the off-diagonal part ``off``, one sorted CSR.
    Every edge joins a red node (ids below ``n_red``) and a black one, so
    the red rows of ``off`` are A_RB and the black rows A_BR; ``rows``
    holds the two as CSR views of ``off``."""

    def __init__(self, off: sp.csr_matrix, diag: np.ndarray, n_red: int):
        self.off, self.diag, self.n_red = off, diag, n_red
        self.halves = (slice(None, n_red), slice(n_red, None))
        cut = off.indptr[n_red]
        self.rows = (
            sp.csr_matrix((off.data[:cut], off.indices[:cut], off.indptr[:n_red + 1]),
                          shape=(n_red, off.shape[1])),
            sp.csr_matrix((off.data[cut:], off.indices[cut:], off.indptr[n_red:] - cut),
                          shape=(off.shape[0] - n_red, off.shape[1])))

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        q = self.off @ p
        q += self.diag * p
        return q

    def relax(self, colour: int, x: np.ndarray, r: np.ndarray) -> None:
        """Gauss-Seidel on one colour (``_RED`` or ``_BLACK``) in place:
        its nodes see only the other colour, so x_c = D_c^-1 (r_c - O_c x)
        at once."""
        half = self.halves[colour]
        np.subtract(r[half], self.rows[colour] @ x, out=x[half])
        x[half] /= self.diag[half]

    def tocsr(self) -> sp.csr_matrix:
        """D + O as one CSR, for a system factorized whole."""
        return (self.off + sp.diags(self.diag)).tocsr()


class _AggregationVCycle:
    """Symmetric V-cycle over a plain-aggregation hierarchy of the SPD
    Laplacian ``lap`` whose nodes sit at integer ``coords``.  The fine
    level is smoothed by one red-black Gauss-Seidel sweep before the
    coarse correction and its reverse after it; each coarser level
    ``(A, wdinv, agg, n_agg)`` in ``levels`` by damped Jacobi.
    Prolongation is stored as the aggregate index array alone:
    restriction is a ``bincount`` and prolongation a gather.  ``fine`` is
    the fine level's ``(agg, n_agg)``, or None where ``lap`` is
    factorized whole."""

    def __init__(self, lap: _Laplacian, coords: np.ndarray):
        self.lap = lap
        self.fine = None
        self.levels = []
        step = _coarsen(lap.off, coords)
        if step is None:
            A = lap.tocsr()
        else:
            agg, coords = step
            self.fine = agg, coords.shape[0]
            A = _galerkin(lap.off, agg, coords.shape[0], lap.diag)
        while (step := _coarsen(A, coords)) is not None:
            agg, coords = step
            self.levels.append((A, _OMEGA / A.diagonal(), agg, coords.shape[0]))
            A = _galerkin(A, agg, coords.shape[0])
        self.coarse = spla.splu(A.tocsc())
        self.depth = len(self.levels) + 1 + (self.fine is not None)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if self.fine is None:
            return self.coarse.solve(r)
        lap, (agg, n_agg) = self.lap, self.fine
        red = lap.halves[_RED]
        x = np.empty(r.shape)
        # forward sweep from x = 0, red then black
        np.divide(r[red], lap.diag[red], out=x[red])
        lap.relax(_BLACK, x, r)
        # the black residual is now zero and the red one is -A_RB x_B
        rc = np.bincount(agg[red], weights=lap.rows[_RED] @ x, minlength=n_agg)
        x -= _COARSE_SCALE * self._cycle(0, rc)[agg]
        # backward sweep, black then red
        lap.relax(_BLACK, x, r)
        lap.relax(_RED, x, r)
        return x

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse.solve(r)
        A, wdinv, agg, n_agg = self.levels[level]
        x = wdinv * r
        for _ in range(_SWEEPS - 1):
            x += wdinv * (r - A @ x)
        rc = np.bincount(agg, weights=r - A @ x, minlength=n_agg)
        x += _COARSE_SCALE * self._cycle(level + 1, rc)[agg]
        for _ in range(_SWEEPS):
            x += wdinv * (r - A @ x)
        return x


def _laplacian(cells: np.ndarray, edge_masks):
    """Unit-weight graph Laplacian of the body cells joined by the edges
    in the facet masks, grounded at one node per component.

    Nodes are numbered red|black (int32 ids): the red body cells (even
    coordinate sum) in C order, then the black ones.  Every edge joins a
    red and a black cell.  Row i of the off-diagonal CSR lists its lower
    neighbours along axes 0..n-1, then its upper neighbours along axes
    n-1..0: increasing ids, so the column indices come out sorted.
    Returns the ``_Laplacian``, the red and the black body cells (two
    masks), the component count, the component of every node (numbered
    by smallest node) and the integer coordinates of every node."""
    n = cells.ndim
    black = np.zeros(cells.shape, dtype=bool)
    for a, m in enumerate(cells.shape):
        black ^= (np.arange(m) % 2 == 1).reshape([-1 if b == a else 1 for b in range(n)])
    black &= cells
    red = cells ^ black
    order = np.concatenate([np.flatnonzero(red), np.flatnonzero(black)])
    n_nodes = order.size
    if n_nodes == 0:
        raise InputError("empty body: nothing to solve on")
    n_red = n_nodes - int(np.count_nonzero(black))
    node_id = np.full(cells.shape, -1, dtype=np.int32)
    node_id.flat[order] = np.arange(n_nodes, dtype=np.int32)
    table = np.empty((n_nodes, 2 * n), dtype=np.int32)
    for a in range(n):
        lo_ids, up_ids = lift(node_id, a, -1)
        cut = ~(edge_masks[a] & (lo_ids >= 0) & (up_ids >= 0))
        lo_ids[cut] = -1
        up_ids[cut] = -1
        # a cell's lower face is the facet at its own index, its upper
        # face the next one
        for column, ids in ((a, faces(lo_ids, a)[0]), (2 * n - 1 - a, faces(up_ids, a)[1])):
            table[:n_red, column] = ids[red]
            table[n_red:, column] = ids[black]
    del node_id, lo_ids, up_ids, cut
    keep = table >= 0
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    indices = table[keep]
    del table, keep
    off = sp.csr_matrix((np.full(indices.size, -1.0), indices, indptr), shape=(n_nodes, n_nodes))
    diag = np.diff(indptr).astype(float)
    n_comp, comp = sp.csgraph.connected_components(off, directed=False)
    # ground each component's first node: shifts the component's
    # potential by a constant, which the flux (a pure gradient) never sees
    _, first = np.unique(comp, return_index=True)
    diag[first] += 1.0
    coords = np.empty((n_nodes, n), dtype=np.int32)
    for a, c in enumerate(np.unravel_index(order, cells.shape)):
        coords[:, a] = c
    return _Laplacian(off, diag, n_red), (red, black), n_comp, comp, coords


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v by numpy's own fixed-order reduction: BLAS ``ddot`` blocks
    its sum by the thread count, so its bits follow the host."""
    return float(np.einsum("i,i->", u, v))


def _pcg(A: _Laplacian, b: np.ndarray, precondition) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients from x = 0, in the recurrence of
    ``scipy.sparse.linalg.cg``: stop when ||r|| < ``_CG_RTOL`` ||b||,
    checked before each iteration, and count the iterations run (none for
    b = 0, whose solution is 0).  Every inner product is ``_dot``, so the
    result does not depend on the BLAS thread count."""
    x = np.zeros(b.shape)
    b_norm = np.sqrt(_dot(b, b))
    if b_norm == 0.0:
        return x, 0
    r = b.copy()
    p, rho_prev = None, 0.0
    for iteration in range(_CG_MAXITER):
        if np.sqrt(_dot(r, r)) < _CG_RTOL * b_norm:
            return x, iteration
        z = precondition(r)
        rho = _dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = A @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise InvariantViolation(f"conjugate gradient did not converge ({_CG_MAXITER})")


def _laplacian_solve(cells: np.ndarray, edge_masks, b: np.ndarray):
    """Solve the unit-weight graph Laplacian L u = b on the cells whose
    edges are the given facet masks; b must be balanced per component.

    Returns the potential on the cells, the CG iteration count and the
    depth of the multigrid hierarchy."""
    lap, colours, n_comp, comp, coords = _laplacian(cells, edge_masks)
    bn = np.concatenate([b[colour] for colour in colours])
    scale = float(np.abs(bn).sum()) + 1.0
    net = np.bincount(comp, weights=bn, minlength=n_comp)
    bad = np.flatnonzero(np.abs(net) > 1e-10 * scale)
    if bad.size:
        # a component's number is its rank by first cell in C order
        comp_cells = np.empty(cells.shape, dtype=comp.dtype)
        for colour, half in zip(colours, lap.halves):
            comp_cells[colour] = comp[half]
        _, first = np.unique(comp_cells[cells], return_index=True)
        number = np.argsort(np.argsort(first))
        c = int(bad[np.argmin(number[bad])])
        raise CompatibilityError(
            f"prescribed trace is incompatible on component {int(number[c])}: "
            f"net flux {float(net[c])}"
        )
    # remove the roundoff-level mean so the singular system is consistent
    bn -= (net / np.bincount(comp, minlength=n_comp))[comp]
    del comp
    vcycle = _AggregationVCycle(lap, coords)
    del coords
    u, iterations = _pcg(lap, bn, vcycle)
    u_cells = np.zeros(cells.shape)
    for colour, half in zip(colours, lap.halves):
        u_cells[colour] = u[half]
    return u_cells, iterations, vcycle.depth


def _gradient_flux(u_cells, edges, axis, dx):
    """Axis-``axis`` edge flux (u_lower - u_upper)/dx on the allowed
    ``edges``, whose two cells are both graph nodes; zero elsewhere."""
    u_lo, u_up = lift(u_cells, axis)
    v = np.zeros(edges.shape)
    v[edges] = (u_lo[edges] - u_up[edges]) / dx
    return v


def _trace_gaps(F: FluxField, td: TraceData):
    """|trace of F - prescription| on the legal sides of each slot:
    (axis, side, flat facet indices of the legal sides, gaps there).  The
    trace of F is ``vminus`` on a MINUS side and ``-vplus`` on a PLUS
    side, as in ``trace_measure``, which also refuses a set touching the
    grid edge."""
    if touches_edge(F.set.cells):
        raise InputError("the grid must strictly contain the set to extend by zero")
    for a, side, mask, want in td.slots():
        at = np.flatnonzero(mask)
        got = F.vminus[a].flat[at] if side == MINUS else -F.vplus[a].flat[at]
        got -= want.flat[at]
        yield a, side, at, np.abs(got, out=got)


def _audit(F: FluxField, td: TraceData, mode: str, stats) -> SolveReport:
    balance = cell_balance(F)
    sup = td.sup()
    residual = float(np.abs(balance, out=balance).max()) / F.grid.facet_area
    del balance
    linf = 0.0
    l1 = 0.0
    for *_, gap in _trace_gaps(F, td):
        if gap.size:
            linf = max(linf, float(gap.max()))
            l1 += float(gap.sum()) * F.grid.facet_area
    kappa = F.sup_bound / sup if sup > 0.0 else 0.0
    if residual > _AUDIT_TOL * max(1.0, sup) * 10.0 + 1e-300:
        raise InvariantViolation(
            f"interior divergence residual {residual} above tolerance {_AUDIT_TOL}"
        )
    return SolveReport(F=F, interior_div_residual=residual, trace_linf_gap=linf,
                       trace_l1_gap=l1, mode=mode, kappa=kappa,
                       cg_iterations=tuple(it for it, _ in stats),
                       levels=tuple(depth for _, depth in stats))


def solve_direct(set_: RoughSet, td: TraceData) -> SolveReport:
    """Divergence-free field with the prescribed trace, built from the
    Neumann problem on the crack-split cell graph.

    The prescribed side values are imposed exactly; the graph solve
    distributes them so every cell balance vanishes.  Raises what
    ``check_prescription`` raises, and CompatibilityError naming the
    component when the data balance over the set but some component has
    net prescribed flux.
    """
    check_prescription(td)
    grid = set_.grid
    interior = set_.topology.interior
    u_cells, iterations, depth = _laplacian_solve(
        set_.cells, interior, -grid.spacing * td.inflow_per_cell())
    F = FluxField(set_, 1.0)
    for a in range(grid.n):
        F.vminus[a] = _gradient_flux(u_cells, interior[a], a, grid.spacing)
        F.vplus[a] = F.vminus[a].copy()
        minus, plus = td.topology.minus[a], td.topology.plus[a]
        # side value = orientation * density reproduces the trace exactly
        F.vminus[a][minus] = td.gminus[a][minus] * side_orient(MINUS)
        F.vplus[a][plus] = td.gplus[a][plus] * side_orient(PLUS)
    return _audit(F.tighten(), td, "DIRECT", [(iterations, depth)])


def _box_edges(set_: RoughSet, axis: int) -> np.ndarray:
    """The box graph's axis-``axis`` edges: between two cells, off the cracks."""
    lower, upper = lift(np.ones(set_.grid.extents, dtype=bool), axis, False)
    return lower & upper & ~set_.cracks.masks[axis]


def _lift_and_reduce(set_: RoughSet, td: TraceData):
    """Steps 1 and 2 of ``solve_decomposed``: the potential of G's gradient
    part on the box cells, the reduced data h on the body sides of the
    reduced facets, and the box solve's (iterations, depth)."""
    grid = set_.grid
    u_cells, iterations, depth = _laplacian_solve(
        np.ones(grid.extents, dtype=bool), [_box_edges(set_, a) for a in range(grid.n)],
        -grid.spacing * td.inflow_per_cell())
    td_hat = TraceData(set_)
    for a in range(grid.n):
        # h: G's outward flux on the lift-free exterior side, its gradient part
        flux = _gradient_flux(u_cells, _box_edges(set_, a), a, grid.spacing)
        lower = set_.topology.inside_lower[a]
        upper = set_.topology.boundary[a] & ~lower
        td_hat.gminus[a][lower] = -flux[lower]
        td_hat.gplus[a][upper] = flux[upper]
    if abs(td_hat.integral) > 1e-9 * (td_hat.abs_integral() + 1.0):
        raise InvariantViolation(
            f"derived reduced-boundary data is unbalanced: integral {td_hat.integral}"
        )
    return u_cells, td_hat, (iterations, depth)


def solve_decomposed(set_: RoughSet, td: TraceData) -> SolveReport:
    """Two-step solve through the reduced-boundary problem.

    Step 1 builds a box-wide field G whose divergence is the negated
    trace measure (facet lift + cut-edge box Laplacian; the data must be
    compatible on each region the cracks cut out of the box).  Step 2
    reads the exterior flux h on the reduced facets off G; its integral
    vanishes identically (audited).
    Step 3 solves the crack-free data h on the body, and G is added into
    that field one axis at a time.
    """
    if touches_edge(set_.cells):
        raise InputError("the grid must strictly contain the set to decompose")
    check_prescription(td)
    u_cells, td_hat, step1 = _lift_and_reduce(set_, td)
    hat_report = solve_direct(set_, td_hat)
    F = hat_report.F
    for a in range(set_.grid.n):
        # G is the flux plus the facet lift, whose side value sigma * g
        # concentrates -mu on the facet; Fhat + G has the bits of G + Fhat
        flux = _gradient_flux(u_cells, _box_edges(set_, a), a, set_.grid.spacing)
        minus, plus = td.topology.minus[a], td.topology.plus[a]
        F.vminus[a] += flux + np.where(minus, td.gminus[a], 0.0) * side_orient(MINUS)
        F.vplus[a] += flux + np.where(plus, td.gplus[a], 0.0) * side_orient(PLUS)
    F.restrict().tighten()
    stats = [step1, *zip(hat_report.cg_iterations, hat_report.levels)]
    return _audit(F, td, "DECOMPOSED", stats)


def verify_solution(report: SolveReport, set_: RoughSet, td: TraceData) -> dict:
    """Independent audit: recompute the interior divergence and the trace
    measure of the returned field and compare against the prescription."""
    F = report.F
    sup = max(1.0, td.sup())
    tv_inside = float(np.abs(cell_balance(F)[set_.cells]).sum())
    div_ok = tv_inside / F.grid.facet_area <= _AUDIT_TOL * (sup * max(1, set_.cell_count)) * 100.0
    offenders = []
    for a, side, at, gap in _trace_gaps(F, td):
        over = gap > 1e-8 * sup
        bad, bad_gap = at[over], gap[over]
        shape = F.grid.facet_shape(a)
        # the three worst of this slot, ties in facet order
        for k in np.argsort(-bad_gap, kind="stable")[:3]:
            idx = tuple(int(v) for v in np.unravel_index(bad[k], shape))
            offenders.append(((a, idx, side), float(bad_gap[k])))
    offenders.sort(key=lambda kv: -kv[1])
    ok = div_ok and not offenders
    return {
        "pass": ok,
        "interior_tv": tv_inside,
        "div_ok": div_ok,
        "trace_ok": not offenders,
        "worst_offenders": offenders[:3],
    }
