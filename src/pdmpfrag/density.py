"""Grid-based engine for the L1((0,inf), x dx) evolution.

Densities are stored as per-cell masses w.r.t. m(dx) = x dx on a log-spaced
grid (conservative discretization).  Mass leaving the grid is tracked in
sub/super-grid buckets, never renormalized away: the sub-grid bucket is the
numerical proxy for mass shattered to zero size, which is exactly the
honest/dishonest distinction this engine must keep visible.

Operators: the explicit substochastic semigroup S(t), the perturbation
B u = P(phi u), the resolvent R(lambda, A), the truncated Dyson-Phillips
expansion, and the truncated resolvent series for R(lambda, C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .characteristics import Regime, cumulative_rate, flow_vec
from .errors import NoDensity
from .monotone import gauss_panels

EPS_TAIL_FACTOR = 1e-8


class LogGrid:
    """Log-spaced cell grid on [x_min, x_max] with geometric midpoints."""

    def __init__(self, x_min=1e-4, x_max=1e4, n_cells=512):
        self.edges = np.geomspace(x_min, x_max, n_cells + 1)
        self.nodes = np.sqrt(self.edges[:-1] * self.edges[1:])
        self.m_weights = 0.5 * (self.edges[1:] ** 2 - self.edges[:-1] ** 2)

    @property
    def n_cells(self):
        return len(self.nodes)

    def __eq__(self, other):
        return isinstance(other, LogGrid) and \
            self.edges.shape == other.edges.shape and \
            bool(np.all(self.edges == other.edges))


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
        c = 2.0 / (hi ** 2 - lo ** 2)
        a = np.clip(grid.edges[:-1], lo, hi)
        b = np.clip(grid.edges[1:], lo, hi)
        return cls(grid, c * 0.5 * (b ** 2 - a ** 2))

    def sample_inverse_cdf(self, us):
        """States whose m-law is this density, via generalized inverse CDF."""
        total = self.grid_mass
        cum = np.concatenate([[0.0], np.cumsum(self.masses)]) / total
        us = np.asarray(us, dtype=float)
        idx = np.clip(np.searchsorted(cum, us, side="right") - 1, 0,
                      self.grid.n_cells - 1)
        frac = (us - cum[idx]) / np.maximum(cum[idx + 1] - cum[idx], 1e-300)
        a = self.grid.edges[idx]
        b = self.grid.edges[idx + 1]
        return np.sqrt(a ** 2 + np.clip(frac, 0.0, 1.0) * (b ** 2 - a ** 2))

    def save_csv(self, path):
        np.savetxt(path, np.column_stack([self.grid.nodes, self.masses]),
                   delimiter=",", header="node,cell_mass", comments="")


@dataclass
class OperatorTrace:
    """Per-term norms of a truncated expansion plus identity residuals."""

    term_norms: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    converged: bool = True
    note: str = ""


# -- semigroup S(t) ----------------------------------------------------------

class _SOperator:
    """S(t) on cell masses along the trailing axis, with out-of-grid accounting.

    A pure-jump S(t) (and S(0) in any regime) is the diagonal ``factor``;
    transport is the sparse ``mat``.  ``sub_row`` / ``sup_row`` give the
    surviving mass each cell sends below x_min / above x_max."""

    def __init__(self, spec, grid, t):
        n = grid.n_cells
        self.mat = None
        if t == 0.0:
            self.factor = np.ones(n)
            return
        if spec.regime is Regime.PURE_JUMP:
            # cell-averaged survival: exact for cellwise-constant densities
            avg = gauss_panels(
                lambda x: np.exp(-np.asarray(spec.phi(x), float) * t) * x,
                grid.edges[:-1], grid.edges[1:])
            self.factor = avg / grid.m_weights
            return
        # transport: shift in the flow coordinate w = direction * G
        d = spec.G.direction
        w_edges = d * np.asarray(spec.G(grid.edges), dtype=float)
        # flow_vec moves G(x) -> G(x) + t, so w = d G moves by d t: up for
        # growth (d = +1) and down for decay (d = -1)
        w_dest = w_edges + d * t  # source cell i -> [w_dest[i], w_dest[i+1]]
        survival = np.exp(-np.asarray(
            cumulative_rate(spec, grid.nodes, t), dtype=float))
        a, b = w_dest[:-1], w_dest[1:]
        with np.errstate(invalid="ignore"):
            width = b - a
            regular = np.isfinite(width) & (width > 0)
            mid = np.where(np.isfinite(a), 0.5 * (a + b), b)
        # a regular cell spreads over the destination cells [k0, k1] it
        # overlaps; what falls outside [w_edges[0], w_edges[-1]] is a bucket
        src = np.flatnonzero(regular)
        a, b, width, surv = a[src], b[src], width[src], survival[src]
        self.sub_row = np.zeros(n)
        self.sup_row = np.zeros(n)
        self.sub_row[src] = surv * np.clip((w_edges[0] - a) / width, 0.0, 1.0)
        self.sup_row[src] = surv * np.clip((b - w_edges[-1]) / width, 0.0, 1.0)
        k0 = np.maximum(np.searchsorted(w_edges, a, side="right") - 1, 0)
        k1 = np.minimum(np.searchsorted(w_edges, b, side="left") - 1, n - 1)
        counts = np.maximum(k1 - k0 + 1, 0)
        pos = np.repeat(np.arange(len(src)), counts)
        rows = k0[pos] + np.arange(len(pos)) - (np.cumsum(counts) - counts)[pos]
        ov = np.minimum(b[pos], w_edges[rows + 1]) - np.maximum(a[pos], w_edges[rows])
        keep = ov > 0
        pos, rows = pos[keep], rows[keep]
        vals = surv[pos] * ov[keep] / width[pos]
        # a degenerate cell deposits whole at its midpoint's destination
        deg = np.flatnonzero(~regular)
        k_d = np.searchsorted(w_edges, mid[deg], side="right") - 1
        self.sub_row[deg[k_d < 0]] = survival[deg[k_d < 0]]
        self.sup_row[deg[k_d >= n]] = survival[deg[k_d >= n]]
        on = (k_d >= 0) & (k_d < n)
        self.mat = sp.csr_matrix(
            (np.concatenate([vals, survival[deg[on]]]),
             (np.concatenate([rows, k_d[on]]),
              np.concatenate([src[pos], deg[on]]))), shape=(n, n))

    def apply(self, masses):
        """S(t) on one density (n,) or a stack (..., n): returns the moved
        masses and the sub- and super-grid deposits, one per density."""
        if self.mat is None:
            none = np.zeros(masses.shape[:-1])
            return masses * self.factor, none, none
        return (self.mat @ masses.T).T, masses @ self.sub_row, masses @ self.sup_row


def apply_S(spec, t, u: GridDensity) -> GridDensity:
    """Explicit substochastic semigroup S(t): survival-weighted transport."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    m, sub, sup = _SOperator(spec, u.grid, float(t)).apply(u.masses)
    return GridDensity(u.grid, m, u.sub_grid_mass + float(sub),
                       u.super_grid_mass + float(sup))


# -- perturbation B = P(phi .) ------------------------------------------------

class _BOperator:
    """Fragmentation redistribution: columns are exact H_x cell increments."""

    def __init__(self, spec, grid):
        if spec.kernel is None:
            raise NoDensity("spec has no jump kernel")
        n = grid.n_cells
        self.phi = np.asarray(spec.phi(grid.nodes), dtype=float)
        cols = np.empty((n, n))
        sub = np.empty(n)
        for j, y in enumerate(grid.nodes):
            cdf = np.asarray(spec.kernel.fragment_cdf(y, grid.edges), dtype=float)
            cols[:, j] = np.diff(cdf)
            sub[j] = cdf[0]
        self.frac = cols
        self.sub_row = sub

    def apply(self, masses):
        """B on one density (n,) or a stack (..., n): (masses, sub deposits)."""
        inflow = masses * self.phi
        return (self.frac @ inflow.T).T, inflow @ self.sub_row


def apply_B(spec, u: GridDensity, _op=None) -> GridDensity:
    """B u = P(phi u).  Output mass equals int phi u dm exactly (P is stochastic);
    the part landing below x_min goes to the sub-grid bucket."""
    op = _op if _op is not None else _BOperator(spec, u.grid)
    m, sub = op.apply(u.masses)
    return GridDensity(u.grid, m, u.sub_grid_mass + float(sub), u.super_grid_mass)


# -- resolvent of A -----------------------------------------------------------

def _resolvent_transport(spec, grid, lam, masses):
    """R(lam, A) on cell masses for growth/decay via the explicit kernel
    e^{lam(G(y)-G(x)) + Q(y)-Q(x)} / (x g(x)) integrated over the backward
    orbit; evaluated with a stable scaled scan (all exponents <= 0)."""
    n = grid.n_cells
    nodes, edges = grid.nodes, grid.edges
    u_vals = masses / grid.m_weights

    def expo(y):
        return lam * np.asarray(spec.G(y), float) + np.asarray(spec.Q(y), float)

    growth = spec.regime is Regime.GROWTH
    m_edge = expo(edges)          # n+1, monotone (inc. for growth, dec. decay)
    m_node = expo(nodes)

    # full-cell integrals of e^{expo(y)} y dy, scaled by the cell's max exponent
    ref = m_edge[1:] if growth else m_edge[:-1]

    # integrate each cell with its own reference exponent (vectorized Gauss)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    from .monotone import _GL_X, _GL_W
    pts = mid[:, None] + half[:, None] * _GL_X
    ex = expo(pts.reshape(-1)).reshape(pts.shape) - ref[:, None]
    cell_int = ((np.exp(np.minimum(ex, 50.0)) * pts) @ _GL_W) * half

    # partial cell from the node-side edge up to the node, scaled by m_node
    if growth:
        pa, pb = edges[:-1], nodes
    else:
        pa, pb = nodes, edges[1:]
    midp = 0.5 * (pa + pb)
    halfp = 0.5 * (pb - pa)
    ptsp = midp[:, None] + halfp[:, None] * _GL_X
    exp_p = expo(ptsp.reshape(-1)).reshape(ptsp.shape) - m_node[:, None]
    part_int = ((np.exp(np.minimum(exp_p, 50.0)) * ptsp) @ _GL_W) * halfp

    out = np.empty(n)
    g_nodes = np.asarray(spec.g(nodes), dtype=float)
    # scan along the backward orbit: D carries the sum over fully-traversed
    # cells at the most recent reference exponent; the node exponent always
    # dominates that reference, so every rescaling factor is <= 1
    order = range(n) if growth else range(n - 1, -1, -1)
    D = 0.0
    last_ref = None
    for i in order:
        if last_ref is None:
            full = 0.0
        else:
            full = D * math.exp(min(last_ref - m_node[i], 0.0))
        own = part_int[i] * u_vals[i]
        out[i] = (full + own) / (nodes[i] * g_nodes[i])
        if last_ref is None:
            D = cell_int[i] * u_vals[i]
        else:
            D = D * math.exp(min(last_ref - ref[i], 0.0)) + cell_int[i] * u_vals[i]
        last_ref = ref[i]
    return out * grid.m_weights


def resolvent_A(spec, lam, u: GridDensity) -> GridDensity:
    """R(lam, A) u.  Diagonal u/(lam+phi) in the pure-jump regime; explicit
    backward-orbit integral for growth/decay."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if spec.regime is Regime.PURE_JUMP:
        phi = np.asarray(spec.phi(u.grid.nodes), dtype=float)
        return GridDensity(u.grid, u.masses / (lam + phi), 0.0, 0.0)
    out = _resolvent_transport(spec, u.grid, lam, u.masses)
    return GridDensity(u.grid, out, 0.0, 0.0)


# -- Dyson-Phillips expansion --------------------------------------------------

def dyson_phillips(spec, t, u: GridDensity, N=60, n_s=64):
    """Truncated expansion sum_{n<=N} S_n(t) u with
    S_{n+1}(t) u = int_0^t S(t-s) B S_n(s) u ds.

    Each term is held on the time grid s_k = k h, h = t / n_s, as an
    (n_s+1, n) stack of cell masses plus one sub- and one super-grid bucket
    per row.  The convolution uses a midpoint Volterra rule:
    S_{n+1}(k h) u = h sum_{j<k} S((k-j-1/2) h) Wbar_j, with Wbar_j the
    average of B S_n u over [s_j, s_{j+1}].  Every S factor acts over a time
    >= h/2, which keeps the recursion stable where the jump rate is stiff
    (phi * h >> 1); a trapezoid rule would apply the unbounded B at s = t
    without any survival damping and diverge.  The operator depends only on
    the lag d = k-j-1, so a level costs one B product on the whole stack and
    one application of each S((d+1/2) h) to the block Wbar[:n_s-d].

    The buckets are fluxes: level n+1 deposits, integrated once over time,
    the part of B S_n u that lands below the grid and the mass S carries out
    of the grid on each side.  Level n's buckets are never pushed through B
    or into level n+1 (minimal semigroup, Kato-Voigt setting), so the total
    over all terms stays substochastic.

    Returns (GridDensity, OperatorTrace).  Stops early once a term's total
    mass falls below 1e-8 * ||u||; if the budget N is reached first the
    trace is flagged unconverged (result still returned).
    """
    if t < 0 or N < 0 or n_s < 1:
        raise ValueError("need t >= 0, N >= 0, n_s >= 1")
    grid = u.grid
    if t == 0.0 or N == 0:
        res = apply_S(spec, t, u)
        return res, OperatorTrace(term_norms=[res.total_mass])

    h = t / n_s
    s_half = [_SOperator(spec, grid, (d + 0.5) * h) for d in range(n_s)]
    b_op = _BOperator(spec, grid)
    eps_tail = EPS_TAIL_FACTOR * u.total_mass

    # term 0 on the time grid: row k is S(k h) u, its buckets include u's own
    V = np.empty((n_s + 1, grid.n_cells))
    sub = np.empty(n_s + 1)
    sup = np.empty(n_s + 1)
    for k in range(n_s + 1):
        V[k], sub[k], sup[k] = _SOperator(spec, grid, k * h).apply(u.masses)
    sub += u.sub_grid_mass
    sup += u.super_grid_mass

    acc, acc_sub, acc_sup = V[-1].copy(), sub[-1], sup[-1]
    trace = OperatorTrace(term_norms=[float(V[-1].sum() + sub[-1] + sup[-1])])
    for _level in range(1, N + 1):
        bm, bsub = b_op.apply(V)
        # h times the midpoint values of B S_n(s) u on each subinterval
        wm = (0.5 * h) * (bm[:-1] + bm[1:])
        V = np.zeros_like(V)
        sub = np.zeros(n_s + 1)
        sup = np.zeros(n_s + 1)
        sub[1:] = np.cumsum((0.5 * h) * (bsub[:-1] + bsub[1:]))
        # lags in decreasing order add each row's sources j = 0, 1, ... in turn
        for d in range(n_s - 1, -1, -1):
            sm, ssub, ssup = s_half[d].apply(wm[:n_s - d])
            V[d + 1:] += sm
            sub[d + 1:] += ssub
            sup[d + 1:] += ssup
        tn = float(V[-1].sum() + sub[-1] + sup[-1])
        trace.term_norms.append(tn)
        acc += V[-1]
        acc_sub += sub[-1]
        acc_sup += sup[-1]
        if tn < eps_tail:
            break
    else:
        trace.converged = False
        trace.note = f"tail {trace.term_norms[-1]:.3e} above {eps_tail:.3e} at N={N}"
    return GridDensity(grid, acc, float(acc_sub), float(acc_sup)), trace


# -- resolvent series for R(lam, C) --------------------------------------------

def resolvent_series(spec, lam, u: GridDensity, N=60):
    """R(lam, A) sum_{n<=N} (B R(lam, A))^n u with per-term norms and the
    residual of the identity
    lam ||R(lam,A) sum_{n<=N} (BR)^n u|| = ||u|| - ||(BR)^{N+1} u||.

    Mass pushed below the grid by B is treated as absorbing under BR (exact
    in the pure-fragmentation limit x -> 0) and carried in the norms."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if N < 0:
        raise ValueError("N must be >= 0")
    grid = u.grid
    b_op = _BOperator(spec, grid) if spec.kernel is not None else None
    u_norm = u.total_mass

    v = u.masses.copy()
    v_bucket = u.sub_grid_mass + u.super_grid_mass
    acc = np.zeros(grid.n_cells)
    acc_R_norm = 0.0
    trace = OperatorTrace()
    for n_term in range(N + 1):
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
