"""Grid-based engine for the L1((0,inf), x dx) evolution.

Densities are stored as per-cell masses w.r.t. m(dx) = x dx on a log-spaced
grid (conservative discretization).  Mass leaving the grid is tracked in
sub/super-grid buckets, never renormalized away: two more rows of transport
S(t)'s CSC arrays, and the last two columns of the arrays S adds into, each
Dyson-Phillips level among them.  The sub-grid bucket holds
what transport carries below x_min and what B sends there; it is not the
mass shattered to zero size.  Under the grid generator exp(tM) of pure
jump it would be, but the truncated Dyson-Phillips sum drains the stiff
cells (phi h >> 1) without a record: for phi = 1/x at t = 4 about 0.49 of
the mass shatters, and the bucket holds 1.8e-9 of it at n_s = 64.

Operators: the explicit substochastic semigroup S(t), the perturbation
B u = P(phi u), the resolvent R(lambda, A), the truncated Dyson-Phillips
expansion, and the truncated resolvent series for R(lambda, C).  Only
``_SOperator`` knows how S(t) is stored.  A pure-jump S(t) decays each cell
by its nodal survival e^{-phi(node) t}, at the same nodal phi at which B
redistributes mass, so S and B together create none; it also turns each
Dyson-Phillips level's time convolution into a recurrence, O(n n_s) work
in about 4 sqrt(n_s) array operations, as a blocked scan.  A transport
level's convolution is one sparse product per lag, which the compiled
kernel adds straight into an accumulator of halving width, with
O(log n_s) array adds per level.  B sends mass only to smaller cells, so
a pure-jump Dyson-Phillips sum runs on the cells up to u's highest
occupied one and leaves the cells above it exactly 0.
R(lambda, A) for growth/decay is a log-space prefix sum over the cells
upstream of each node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# private scipy kernel behind csc_matrix @ stack; its calling convention,
# its in-place writes through offset slices and bit-equality with that path
# were checked on scipy 1.17.1 only, and test_transport_S_add_matches_scipy
# keeps the public path as the reference
from scipy.sparse import _sparsetools

from .characteristics import Regime, cumulative_rate
from .errors import NoDensity
from .monotone import gauss_panels

EPS_TAIL_FACTOR = 1e-8


class LogGrid:
    """Log-spaced cell grid on [x_min, x_max] with geometric midpoints."""

    def __init__(self, x_min=1e-4, x_max=1e4, n_cells=512):
        if not (0 < x_min < x_max < math.inf and n_cells >= 1
                and float(n_cells).is_integer()):
            raise ValueError("a grid needs 0 < x_min < x_max < inf and an "
                             f"integer n_cells >= 1, got {x_min}, {x_max}, "
                             f"{n_cells}")
        self.edges = np.geomspace(x_min, x_max, int(n_cells) + 1)
        self.nodes = np.sqrt(self.edges[:-1] * self.edges[1:])
        self.m_weights = 0.5 * (self.edges[1:] ** 2 - self.edges[:-1] ** 2)

    @property
    def n_cells(self):
        return len(self.nodes)

    def head(self, k):
        """The grid of the first k cells, sharing this grid's arrays: a fresh
        geomspace over them would move the edges."""
        grid = object.__new__(LogGrid)
        grid.edges = self.edges[:k + 1]
        grid.nodes = self.nodes[:k]
        grid.m_weights = self.m_weights[:k]
        return grid


@dataclass
class GridDensity:
    """Cell masses w.r.t. m plus tracked out-of-grid mass."""

    grid: LogGrid
    masses: np.ndarray
    sub_grid_mass: float = 0.0
    super_grid_mass: float = 0.0

    @property
    def grid_mass(self):
        return float(np.sum(self.masses))

    @property
    def total_mass(self):
        return self.grid_mass + self.sub_grid_mass + self.super_grid_mass

    def values(self):
        """Midpoint reconstruction of the density u = mass / cell m-measure."""
        return self.masses / self.grid.m_weights

    def copy(self):
        return GridDensity(self.grid, self.masses.copy(),
                           self.sub_grid_mass, self.super_grid_mass)

    @classmethod
    def from_function(cls, grid, u):
        """Project a pointwise density u(x) onto cell masses by quadrature."""
        masses = gauss_panels(lambda x: u(x) * x, grid.edges[:-1], grid.edges[1:])
        return cls(grid, np.maximum(masses, 0.0))

    @classmethod
    def uniform_in_m(cls, grid, lo, hi):
        """The density u = 2/(hi^2 - lo^2) 1_[lo,hi], of unit mass."""
        if not 0.0 <= lo < hi < np.inf:  # NaN too
            raise ValueError(f"uniform_in_m needs 0 <= lo < hi < inf, got "
                             f"lo={lo}, hi={hi}")
        c = 2.0 / (hi ** 2 - lo ** 2)
        a = np.clip(grid.edges[:-1], lo, hi)
        b = np.clip(grid.edges[1:], lo, hi)
        return cls(grid, c * 0.5 * (b ** 2 - a ** 2))

    def sample_inverse_cdf(self, us):
        """States whose m-law is this density, via generalized inverse CDF."""
        total = self.grid_mass
        if not total > 0:  # nan too
            raise ValueError(f"sampling needs grid mass > 0, got {total}")
        cum = np.concatenate([[0.0], np.cumsum(self.masses)]) / total
        us = np.asarray(us, dtype=float)
        idx = np.clip(np.searchsorted(cum, us, side="right") - 1, 0,
                      self.grid.n_cells - 1)
        frac = (us - cum[idx]) / np.maximum(cum[idx + 1] - cum[idx], 1e-300)
        a = self.grid.edges[idx]
        b = self.grid.edges[idx + 1]
        return np.sqrt(a ** 2 + np.clip(frac, 0.0, 1.0) * (b ** 2 - a ** 2))


@dataclass
class OperatorTrace:
    """Per-term norms of a truncated expansion plus identity residuals, and
    the number of cells each Dyson-Phillips level ran on (0: none ran)."""

    term_norms: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    converged: bool = True
    note: str = ""
    cells: int = 0


# -- semigroup S(t) ----------------------------------------------------------

def _transport(spec, grid, ts):
    """Transport S(t) at the times ``ts``: T (n + 2, n) matrices, each the
    raw CSC triple (float64 data, int32 row indices, int32 column pointers),
    from one searchsorted / repeat / overlap pass over the (T, n)
    destination intervals, on the w-cells extended by (-inf, w_0] and
    [w_n, +inf), whose deposits are rows n + 1 (below x_min) and n (above
    x_max).  Entries come by source cell, so the arrays are CSC storage as
    they stand: a product adds every output up in ascending source order,
    as the CSR of a COO conversion did, so grid results keep every bit."""
    T, n = len(ts), grid.n_cells
    # shift in the flow coordinate w = direction * G: flow_vec moves G(x) ->
    # G(x) + t, so w = d G moves by d t, up for growth (d = +1) and down for
    # decay (d = -1)
    d = spec.G.direction
    w_edges = d * np.asarray(spec.G(grid.edges), dtype=float)
    w_dest = w_edges + d * ts[:, None]
    edges = np.concatenate([[-np.inf], w_edges, [np.inf]])
    survival = np.exp(-np.asarray(
        cumulative_rate(spec, grid.nodes, ts[:, None]), dtype=float)).ravel()
    # source cell i at time ts[r], flat index r * n + i, goes to [a, b]
    a, b = w_dest[:, :-1].ravel(), w_dest[:, 1:].ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        width = b - a
        regular = np.isfinite(width) & (width > 0)
        # a regular cell spreads over the extended cells [k0, k1] it
        # overlaps, a degenerate one deposits whole at its midpoint's cell
        # k0 = k1, clamped to n + 1: a midpoint at +inf is past the end
        mid = np.where(np.isfinite(a), 0.5 * (a + b), b)
        k0 = np.minimum(np.searchsorted(
            edges, np.where(regular, a, mid), side="right") - 1, n + 1)
        k1 = np.where(regular, np.searchsorted(edges, b, side="left") - 1, k0)
        counts = k1 - k0 + 1
        pos = np.repeat(np.arange(T * n), counts)
        cells = k0[pos] + np.arange(len(pos)) - (np.cumsum(counts) - counts)[pos]
        ov = np.minimum(b[pos], edges[cells + 1]) - np.maximum(a[pos], edges[cells])
        keep = (ov > 0) | ~regular[pos]
        pos, cells, ov = pos[keep], cells[keep], ov[keep]
        vals = np.where(regular[pos], survival[pos] * ov / width[pos], survival[pos])
    # extended cell k is row k - 1, and cell 0, below the grid, row n + 1;
    # entries come by source cell, then destination: CSC storage order,
    # with the int32 indices the compiled product takes
    rows = ((cells - 1) % (n + 2)).astype(np.int32)
    ptr = np.searchsorted(pos, np.arange(T * n + 1))
    return [(vals[p[0]:p[-1]], rows[p[0]:p[-1]], (p - p[0]).astype(np.int32))
            for p in (ptr[r * n:r * n + n + 1] for r in range(T))]


class _SOperator:
    """S(t) at each time of the 1-D array ``ts`` on cell masses along the
    trailing axis, with out-of-grid accounting; row r of every array below
    belongs to ts[r].  Callers go through ``add`` and ``convolve``, which
    add into one (..., n + 2) array: cells, super- and sub-grid buckets.

    A pure-jump S(t) is the diagonal ``factor`` (T, n + 2), e^{-phi(node) t}
    in the cells and 0 in the buckets, where S deposits nothing: the nodal
    survival, so that S takes out of each cell the phi(node)
    share that B redistributes; a cell-averaged survival took less, and the
    Dyson-Phillips sum created mass (3.5e-4 for phi = 1/x).  Transport is
    ``mats``, one (n + 2, n) CSC triple (data, row indices, column
    pointers) per time whose rows n and n + 1 are the super- and sub-grid
    deposits, built in blocks of ~8192 (time, cell) pairs and multiplied by
    scipy's compiled ``csc_matvecs``, the kernel ``csc_matrix @ stack``
    ends in, without the sparse-matrix layer around it, through the one
    size-checked ``_matvecs``.  A diagonal S convolves a Dyson-Phillips
    level in O(n n_s) work and about 4 sqrt(n_s) array operations;
    transport in one product per lag, written by the kernel into
    accumulators of halving width, and O(log n_s) array adds."""

    def __init__(self, spec, grid, ts):
        ts = np.asarray(ts, dtype=float)
        self.mats = None
        if spec.regime is Regime.PURE_JUMP:
            self.factor = np.zeros((len(ts), grid.n_cells + 2))
            self.factor[:, :-2] = np.exp(
                -ts[:, None] * np.asarray(spec.phi(grid.nodes), dtype=float))
            return
        step = max(1, 8192 // grid.n_cells)
        self.mats = [m for r in range(0, len(ts), step)
                     for m in _transport(spec, grid, ts[r:r + step])]

    def add(self, r, masses, out):
        """Add S(ts[r]) of one density (n,) or a stack (..., n) into ``out``
        (..., n + 2), whose last two columns are the super- and sub-grid
        buckets, from one sparse product; a diagonal S deposits nothing."""
        if self.mats is None:
            out[..., :-2] += masses * self.factor[r, :-2]
        else:
            out += self._product(r, masses)

    def _cells(self, masses):
        """Transport's n, refusing masses whose last axis is not n cells."""
        n = len(self.mats[0][2]) - 1
        if masses.shape[-1] != n:
            raise ValueError(f"transport S(t) acts on {n} cells, got "
                             f"masses of length {masses.shape[-1]}")
        return n

    def _matvecs(self, r, x, y, k):
        """y += S(ts[r]) x for k densities, the columns of the C-order (n, k)
        array x, into the C-order (n + 2, k) array y, both flat: scipy's
        compiled csc_matvecs, which adds each output row's sources in
        ascending order.  It checks no sizes and writes wherever y points,
        an offset slice too, so the sizes are checked here: a short x would
        be read past its end, a short y written past it."""
        data, rows, ptr = self.mats[r]
        n = len(ptr) - 1
        if x.size != n * k or y.size != (n + 2) * k:
            raise ValueError(f"transport S(t) on {k} densities of {n} cells "
                             f"needs {n * k} sources and {(n + 2) * k} "
                             f"outputs, got {x.size} and {y.size}")
        _sparsetools.csc_matvecs(n + 2, n, k, ptr, rows, data, x, y)

    def _product(self, r, masses):
        """Transport S(ts[r]) of one density (n,) or a stack (..., n), as a
        (..., n + 2) view whose last two columns are the super- and
        sub-grid deposits, from one product into a zeroed result."""
        n = self._cells(masses)
        x = np.ascontiguousarray(masses.reshape(-1, n).T)
        k = x.shape[1]
        res = np.zeros((n + 2, k))
        self._matvecs(r, x.ravel(), res.ravel(), k)
        return res.T.reshape(masses.shape[:-1] + (n + 2,))

    def convolve(self, wm, out):
        """Add sum_{j<k} S((k-j-1/2) h) wm[j] into out[k-1], k = 1..len(wm),
        its deposits into the last two columns of ``out`` (n_s, n + 2), for
        ts the half steps j h/2, j = 1, ..., 2 len(wm).  A diagonal S is
        e^{-phi t} per cell, so the sum is the recurrence v[k] =
        e^{-phi h} v[k-1] + e^{-phi h/2} wm[k], run as a blocked scan
        (Blelloch 1990): blocks of b = round(sqrt(n_s)) rows scan all at
        once, then each block's last row carries into the next.  That is
        O(n n_s) work in about 4 sqrt(n_s) array operations.  Transport
        runs one product per lag d = k-j-1, grid cells and both deposits,
        in decreasing order of d; the kernel adds each straight into the
        accumulator of its group of lags, whose width w = 1, 2, 4, ...,
        capped at n_s, is the first at least the lag's n_s - d sources, and
        each group adds into the rows out[n_s-w:] once: 4/3 of the minimal
        multiply-adds and O(log n_s) array adds.  A wm not n cells wide is
        refused."""
        n_s = len(wm)
        if self.mats is None:
            # row 2m+1 of factor, e^{-phi (m+1) h}, carries a block's last
            # row into row m of the next; the zero-padded rows are dropped.
            # v spans out's whole rows, as the zero bucket columns of factor
            # do, since a 2-D add on a strided view is ~5x slower in numpy 2.4
            b = round(math.sqrt(n_s))
            nb = -(-n_s // b)
            v = np.zeros((nb * b, out.shape[1]))
            v[:n_s, :-2] = wm
            v[:n_s] *= self.factor[0]
            vb = v.reshape(nb, b, -1)
            for m in range(1, b):
                vb[:, m] += vb[:, m - 1] * self.factor[1]
            carry = self.factor[1:2 * b:2]
            for k in range(1, nb):
                vb[k] += vb[k - 1, -1] * carry
            out += v[:n_s]
            return
        # lag d has s = n_s - d sources, and the lags with s in (w/2, w]
        # share a width-w group: x holds wm[j] in column j from the first
        # lag that reads it, zeros before; acc, flat, holds output row
        # n_s - w + c in column c of its n + 2 rows, plus w of slack.  Lag d
        # writes at offset w - s = d - (n_s - w), so source j lands in row
        # j + d, and the zero columns j >= s spill exact zeros into the next
        # row or the slack
        n = self._cells(wm)
        s = 0
        while s < n_s:
            w = min(2 * s, n_s) or 1
            x = np.zeros((n, w))
            x[:, :s] = wm[:s].T
            acc = np.zeros((n + 3) * w)
            for s in range(s + 1, w + 1):
                x[:, s - 1] = wm[s - 1]
                self._matvecs(2 * (n_s - s), x.ravel(),
                              acc[w - s:w - s + (n + 2) * w], w)
            out[n_s - w:] += acc[:(n + 2) * w].reshape(n + 2, w).T


def apply_S(spec, t, u: GridDensity) -> GridDensity:
    """Explicit substochastic semigroup S(t): survival-weighted transport."""
    if not 0 <= t < math.inf:
        raise ValueError("t must lie in [0, inf)")
    if t == 0:
        return u.copy()
    m = np.zeros(u.grid.n_cells + 2)
    m[-2:] = u.super_grid_mass, u.sub_grid_mass
    _SOperator(spec, u.grid, [t]).add(0, u.masses, m)
    return GridDensity(u.grid, m[:-2], float(m[-1]), float(m[-2]))


# -- perturbation B = P(phi .) ------------------------------------------------

class _BOperator:
    """Fragmentation redistribution: columns are exact H_x cell increments."""

    def __init__(self, spec, grid):
        if spec.kernel is None:
            raise NoDensity("spec has no jump kernel")
        n = grid.n_cells
        self.phi = np.asarray(spec.phi(grid.nodes), dtype=float)
        self.frac = np.empty((n, n))
        self.sub_row = np.empty(n)
        # column j is parent node j's CDF at every edge, differenced; blocks
        # of ~2^14 (edge, node) pairs bound a tabulated kernel's Gauss points
        # (15 per pair); 2^16 made HomogeneousKernel slower at n = 1024
        step = max(1, 2 ** 14 // (n + 1))
        for j in range(0, n, step):
            cdf = np.asarray(spec.kernel.fragment_cdf(
                grid.nodes[j:j + step], grid.edges[:, None]), dtype=float)
            self.frac[:, j:j + step] = np.diff(cdf, axis=0)
            self.sub_row[j:j + step] = cdf[0]

    def apply(self, masses):
        """B on one density (n,) or a stack (..., n): (masses, sub deposits)."""
        inflow = masses * self.phi
        # a C-order stack: the row averages of a Dyson-Phillips level read
        # it faster than the transposed view (frac @ inflow.T).T, same bits
        return inflow @ self.frac.T, inflow @ self.sub_row

    def adjoint(self, f):
        """P* f on nodal values f (n,), the transpose of B without its phi:
        each parent node's average of f over the cells its mass lands in,
        the sub-grid share taking the value at the smallest node."""
        return self.frac.T @ f + self.sub_row * f[0]


def apply_B(spec, u: GridDensity) -> GridDensity:
    """B u = P(phi u).  Output mass equals int phi u dm exactly (P is stochastic);
    the part landing below x_min goes to the sub-grid bucket."""
    m, sub = _BOperator(spec, u.grid).apply(u.masses)
    return GridDensity(u.grid, m, u.sub_grid_mass + float(sub), u.super_grid_mass)


# -- resolvent of A -----------------------------------------------------------

def _resolvent_transport(spec, grid, lam, masses):
    """R(lam, A) on cell masses >= 0 for growth/decay via the explicit kernel
    e^{E(y) - E(x)} / (x g(x)), E = lam G + Q, integrated over the backward
    orbit of x.  Each cell's integral of e^{E(y)} y dy is taken against its
    own largest exponent ``ref``; the cells upstream of a node add up as a
    prefix sum, in downstream order, of log(cell integral * u / ||u||) + ref.
    That sum is at most ||u|| e^{E(node)}: every exponent evaluated is <= 0."""
    nodes, edges = grid.nodes, grid.edges
    u_vals = masses / grid.m_weights

    def expo(y):
        return lam * np.asarray(spec.G(y), float) + np.asarray(spec.Q(y), float)

    def integral(a, b, top):
        # int_a^b e^{E(y) - top} y dy per cell, top >= E on the cell
        def f(y):
            ex = expo(y).reshape(len(top), -1) - top[:, None]
            return np.exp(np.minimum(ex, 0.0)).ravel() * y
        return gauss_panels(f, a, b)

    growth = spec.regime is Regime.GROWTH
    e_edge, e_node = expo(edges), expo(nodes)
    # E rises along the flow: downstream is up the grid for growth
    down = slice(None) if growth else slice(None, None, -1)
    ref = e_edge[1:] if growth else e_edge[:-1]
    part_lo, part_hi = (edges[:-1], nodes) if growth else (nodes, edges[1:])
    norm = float(np.sum(masses)) or 1.0  # u = 0: no 0/0
    with np.errstate(divide="ignore"):
        logs = np.log(integral(edges[:-1], edges[1:], ref) * u_vals / norm) + ref
    cum = np.logaddexp.accumulate(logs[down])
    upstream = np.concatenate([[-np.inf], cum[:-1]])[down]
    full = norm * np.exp(np.minimum(upstream - e_node, 0.0))
    own = integral(part_lo, part_hi, e_node) * u_vals
    g_nodes = np.asarray(spec.g(nodes), dtype=float)
    return (full + own) / (nodes * g_nodes) * grid.m_weights


def resolvent_A(spec, lam, u: GridDensity) -> GridDensity:
    """R(lam, A) u.  Diagonal u/(lam+phi) in the pure-jump regime; explicit
    backward-orbit integral for growth/decay, which needs masses >= 0."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must lie in (0, inf)")
    if spec.regime is Regime.PURE_JUMP:
        phi = np.asarray(spec.phi(u.grid.nodes), dtype=float)
        return GridDensity(u.grid, u.masses / (lam + phi), 0.0, 0.0)
    if not np.all(u.masses >= 0):  # nan too
        raise ValueError("R(lam, A) of growth/decay needs cell masses >= 0")
    out = _resolvent_transport(spec, u.grid, lam, u.masses)
    return GridDensity(u.grid, out, 0.0, 0.0)


# -- Dyson-Phillips expansion --------------------------------------------------

def dyson_phillips(spec, t, u: GridDensity, N=60, n_s=64):
    """Truncated expansion sum_{n<=N} S_n(t) u with
    S_{n+1}(t) u = int_0^t S(t-s) B S_n(s) u ds.

    Each term is held on the time grid s_k = k h, h = t / n_s, as one
    (n_s+1, n+2) array: row k is the term at s_k, its n cell masses then
    its super- and sub-grid buckets, the layout ``_SOperator`` adds into.
    The convolution uses a midpoint Volterra rule:
    S_{n+1}(k h) u = h sum_{j<k} S((k-j-1/2) h) Wbar_j, with Wbar_j the
    average of B S_n u over [s_j, s_{j+1}].  Every S factor acts over a time
    >= h/2, which keeps the recursion stable where the jump rate is stiff
    (phi * h >> 1); a trapezoid rule would apply the unbounded B at s = t
    without any survival damping and diverge.  A level costs one B product
    on the whole stack and one ``_SOperator.convolve``: for a diagonal S a
    recurrence over k, O(n n_s) multiply-adds in about 4 sqrt(n_s) array
    operations (a blocked scan); for transport, whose operator
    depends only on the lag d = k-j-1, one product of each S((d+1/2) h)
    with the block Wbar[:n_s-d], which the compiled kernel adds straight
    into an accumulator of halving width, O(nnz n_s^2).  All the S
    factors, at the 2 n_s half steps j h/2, are built once per call, in one
    ``_SOperator``, before the first level.

    The buckets are fluxes: level n+1 deposits, integrated once over time,
    the part of B S_n u that lands below the grid and the mass S carries out
    of the grid on each side.  Level n's buckets are never pushed through B
    or into level n+1 (minimal semigroup, Kato-Voigt setting), so the total
    over all terms stays substochastic.

    In the pure-jump regime every term lives on the first J cells, J = 1 +
    the index of u's highest nonzero cell: S is diagonal and B sends mass
    only to smaller cells (b(x, y) = 0 for x >= y, so ``frac`` is upper
    triangular).  S, B and the levels are built on those J cells, the head
    of u's grid, and the cells above hold exactly 0; transport moves
    mass up, so it runs on all n cells.  ``trace.cells`` is that J or n.

    Returns (GridDensity, OperatorTrace).  Stops early once a term's total
    mass falls to 1e-8 * ||u|| or below, so a density with no mass stops
    after one level; if the budget N is reached first the trace is flagged
    unconverged (result still returned).
    """
    if not (0 <= t < math.inf and N >= 0 and n_s >= 1
            and float(N).is_integer() and float(n_s).is_integer()):
        raise ValueError("need t in [0, inf), integers N >= 0 and n_s >= 1, "
                         f"got t = {t}, N = {N}, n_s = {n_s}")
    N, n_s = int(N), int(n_s)
    if t == 0.0 or N == 0:
        res = apply_S(spec, t, u)
        return res, OperatorTrace(term_norms=[res.total_mass])

    n = J = u.grid.n_cells
    if spec.regime is Regime.PURE_JUMP:
        J = int(np.flatnonzero(u.masses).max(initial=-1)) + 1
    grid = u.grid.head(J)
    h = t / n_s
    # S at the half steps j h/2, j = 1..2 n_s: row 2d is (d + 1/2) h and row
    # 2k - 1 is k h, bitwise, since halving h is exact
    s_op = _SOperator(spec, grid, np.arange(1, 2 * n_s + 1) * (0.5 * h))
    b_op = _BOperator(spec, grid)
    eps_tail = EPS_TAIL_FACTOR * u.total_mass

    def last(V):
        # a level's last row padded to n cells, and its norm: zeros added at
        # the end keep the bits of a sum over the whole grid, then sub, sup
        row = np.zeros(n + 2)
        row[:J], row[n:] = V[-1, :J], V[-1, J:]
        return row, float(row[:n].sum() + row[n + 1] + row[n])

    # term 0 on the time grid: row k is S(k h) u, its buckets include u's own
    V = np.zeros((n_s + 1, J + 2))
    V[:, J:] = u.super_grid_mass, u.sub_grid_mass
    V[0, :J] = u.masses[:J]
    for k in range(1, n_s + 1):
        s_op.add(2 * k - 1, V[0, :J], V[k])

    acc, tn = last(V)
    trace = OperatorTrace(term_norms=[tn], cells=J)
    for _level in range(1, N + 1):
        bm, bsub = b_op.apply(V[:, :J])
        # h times the midpoint values of B S_n(s) u on each subinterval
        wm = (0.5 * h) * (bm[:-1] + bm[1:])
        V = np.zeros_like(V)
        # B's sub-grid deposits go in before convolve adds S's: the order
        # of the two adds fixes the bucket's bits
        V[1:, -1] = np.cumsum((0.5 * h) * (bsub[:-1] + bsub[1:]))
        s_op.convolve(wm, V[1:])
        row, tn = last(V)
        trace.term_norms.append(tn)
        acc += row
        if tn <= eps_tail:
            break
    else:
        trace.converged = False
        trace.note = f"tail {trace.term_norms[-1]:.3e} above {eps_tail:.3e} at N={N}"
    return GridDensity(u.grid, acc[:n], float(acc[n + 1]), float(acc[n])), trace


# -- resolvent series for R(lam, C) --------------------------------------------

def resolvent_series(spec, lam, u: GridDensity, N=60):
    """R(lam, A) sum_{n<=N} (B R(lam, A))^n u with per-term norms and the
    residual of the identity
    lam ||R(lam,A) sum_{n<=N} (BR)^n u|| = ||u|| - ||(BR)^{N+1} u||.

    Mass pushed below the grid by B is treated as absorbing under BR (exact
    in the pure-fragmentation limit x -> 0) and carried in the norms."""
    if not 0 < lam < math.inf:
        raise ValueError("lam must lie in (0, inf)")
    if not (N >= 0 and float(N).is_integer()):
        raise ValueError(f"N must be an integer >= 0, got {N}")
    grid = u.grid
    b_op = _BOperator(spec, grid)
    u_norm = u.total_mass

    v = u.masses.copy()
    v_bucket = u.sub_grid_mass + u.super_grid_mass
    acc = np.zeros(grid.n_cells)
    acc_R_norm = 0.0
    trace = OperatorTrace()
    for n_term in range(int(N) + 1):
        r = resolvent_A(spec, lam, GridDensity(grid, v)).masses
        acc += r
        acc_R_norm += float(np.sum(r))
        bm, bsub = b_op.apply(r)
        v = bm
        v_bucket = v_bucket + bsub
        w_norm = float(np.sum(v)) + v_bucket
        trace.term_norms.append(w_norm)  # ||(BR)^{n_term+1} u||
        residual = abs(lam * acc_R_norm - (u_norm - w_norm))
        trace.residuals.append(residual)
    # the (BR)^n norms decrease to <f_lambda, u> (nonzero for dishonest
    # models); convergence of the series means they have stabilized
    if len(trace.term_norms) >= 2:
        gap = trace.term_norms[-2] - trace.term_norms[-1]
        if gap > EPS_TAIL_FACTOR * u_norm:
            trace.converged = False
            trace.note = (f"term norms still moving by {gap:.3e} "
                          f"at the budget N={N}")
    return GridDensity(grid, acc, 0.0, 0.0), trace
