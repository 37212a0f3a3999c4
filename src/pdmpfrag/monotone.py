"""Numerically invertible monotone maps.

Houses the cumulative integrals G, Q of the flow/rate machinery and the
kernel CDFs H, Lambda, either as closed forms or as tabulations of a
nonnegative integrand on a log-spaced grid with panel-wise Gauss-Legendre
quadrature.  Inverses are generalized inverses, robust to flat pieces.  A
tabulated inverse is a Newton iteration within one grid cell, started from
a degree-7 polynomial per cell, so on a smooth integrand one pass of 16
integrand evaluations per point suffices.
"""

from __future__ import annotations

import numpy as np

from .errors import NonIntegrableRate, _count

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)

# Newton inverse of tabulated maps: a relative step this small is final; a
# stalled step stops at |F| within this many ulp of the target; hard cap.
_NEWTON_RTOL = 1e-14
_STALL_ULPS = 4.0
_MAX_STEPS = 64

# Start of that inverse: per cell a degree-7 polynomial through the log-x
# fractions of the Chebyshev-Lobatto points, built this many cells at a time
_START_R = 0.5 * (1.0 - np.cos(np.pi * np.arange(8) / 7.0))
_START_BLOCK = 512


def gauss_panels(f, a, b):
    """Gauss-Legendre integral of ``f`` over panels ``[a_i, b_i]`` (vectorized).

    Accurate to near machine precision for integrands smooth on each panel.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = np.multiply.outer(half, _GL_X)
    pts += mid[..., None]
    vals = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
    return (vals * _GL_W).sum(axis=-1) * half


def endpoint_integral(f, x0, side):
    """Integrate ``f >= 0`` from an endpoint: over ``(0, x0]`` or ``[x0, inf)``.

    Geometric subdivision toward the endpoint, by a factor 4 per piece;
    returns ``(value, converged)``.  Divergence is not decidable
    numerically, so the flag is heuristic: the integral is declared
    divergent once the partial sum exceeds 1e6 or the pieces fail to decay
    within 400 subdivisions.
    """
    if side not in ("zero", "inf"):
        raise ValueError(f"side must be 'zero' or 'inf', got {side!r}")
    step, stop = (0.25, 1e-290) if side == "zero" else (4.0, 1e290)
    total = 0.0
    edge = float(x0)
    for _ in range(400):
        nxt = edge * step
        piece = float(gauss_panels(f, min(edge, nxt), max(edge, nxt)))
        if not np.isfinite(piece) or piece < 0:
            return np.inf, False
        total += piece
        if total > 1e6:
            return np.inf, False
        if piece <= 1e-13 * max(total, 1e-300):
            # remaining tail is below the quadrature noise floor
            return total, True
        edge = nxt
        if edge < stop if step < 1.0 else edge > stop:
            break
    return np.inf, False


def _start_block(f, nodes, width):
    """Coefficients, lowest degree first and one column per cell
    [nodes[i], nodes[i + 1]] of integral ``width[i]``, of the degree-7
    polynomial r(s) through the log-x fractions ``_START_R`` and their
    integral fractions s; r = s where the samples are not finite or not
    increasing, or where the coefficients are not finite.

    The 8 x 8 Vandermonde systems are solved by Newton divided differences
    and the Newton-to-monomial recurrence (Bjorck and Pereyra), vectorized
    over the cells.
    """
    a, b = nodes[:-1], nodes[1:]
    n = len(width)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = gauss_panels(f, a, a * (b / a) ** _START_R[1:-1, None])
        s = np.concatenate([np.zeros((1, n)), inner / width, np.ones((1, n))])
        coef = np.repeat(_START_R[:, None], n, axis=1)
        for k in range(7):
            coef[k + 1:] = ((coef[k + 1:] - coef[k:-1])
                            / (s[k + 1:] - s[:7 - k]))
        for k in range(6, -1, -1):
            coef[k:7] -= s[k] * coef[k + 1:]
        # between s_0 = 0 and s_7 = 1, a NaN or infinite s is not increasing
        ok = ((np.diff(s, axis=0) > 0).all(axis=0)
              & np.isfinite(coef).all(axis=0))
    coef[:, ~ok] = np.eye(8)[:, 1:2]
    return coef


class MonotoneMap:
    """Common interface: vectorized forward map and generalized inverse.

    Every map states ``direction``, +1 for increasing and -1 for decreasing
    maps, and the floats ``limit_zero`` / ``limit_inf``, the values
    approached at the endpoints of (0, inf) (possibly +-inf).
    """

    def __call__(self, x):
        raise NotImplementedError

    def inverse(self, q):
        raise NotImplementedError

    def roundtrip_error(self, xs):
        """max |inverse(forward(x)) - x| / (1 + |x|) over the sample."""
        xs = np.asarray(xs, dtype=float)
        back = self.inverse(self(xs))
        return float(np.max(np.abs(back - xs) / (1.0 + np.abs(xs))))


class ClosedFormMap(MonotoneMap):
    """Monotone map given by explicit forward/inverse callables."""

    def __init__(self, forward, inverse, *, direction, limit_zero, limit_inf):
        self._forward = forward
        self._inverse = inverse
        self.direction = int(direction)
        self.limit_zero = float(limit_zero)
        self.limit_inf = float(limit_inf)

    def __call__(self, x):
        return self._forward(np.asarray(x, dtype=float))

    def inverse(self, q):
        return self._inverse(np.asarray(q, dtype=float))


class TabulatedIntegralMap(MonotoneMap):
    """Monotone map ``V(x) = +-integral of f`` tabulated on a log grid.

    ``orientation='from_below'`` gives the increasing ``V(x) = int_{x0}^x f``,
    ``orientation='from_above'`` the non-increasing ``V(x) = int_x^{x0} f``.
    ``anchor='auto'`` places x0 at the endpoint (0 resp. +inf) exactly when
    the integral converges there, and at 1 otherwise; a float pins it.

    ``cumvals[i]`` is the signed integral of f from an origin to node i,
    summed outward both ways from the origin's cell, and
    ``V = direction * table + const`` with const = -direction * table(x0).
    The origin is the anchor clamped to the domain (the lower edge for
    anchor 0, the upper edge for anchor +inf), except that a ``from_above``
    map with an interior anchor keeps the lower edge.  Near the origin the
    table is small, and a sum of small terms keeps the relative precision
    that a difference of two numbers near the whole integral would lose.
    The head and tail integrals beyond the domain extend the table to 0 and
    +inf, which gives const and the limits.  Between nodes the forward map
    is evaluated exactly (cached table value plus a Gauss panel over the
    remainder of the cell, taken from the node nearer the origin), so its
    accuracy is that of the quadrature, not of an interpolant.
    The generalized inverse is a safeguarded Newton iteration in log x
    within one grid cell, started from the cell's inverse interpolated by a
    polynomial of degree 7: the log-x fraction r as a function of the
    integral fraction s, through the Chebyshev-Lobatto fractions
    r_k = (1 - cos(pi k / 7)) / 2 and their s_k, one Gauss panel each.  A
    cell whose samples are not finite or not increasing, or whose
    coefficients are not finite, starts from r = s instead.  The
    coefficients are built once per map, 512 cells at a time to bound the
    memory, at 90 integrand evaluations per cell: six times those of the
    cell integrals themselves.
    """

    def __init__(self, integrand, *, orientation="from_below", anchor="auto",
                 domain=(1e-9, 1e9), n_nodes=4096):
        if orientation not in ("from_below", "from_above"):
            raise ValueError(f"bad orientation {orientation!r}")
        lo, hi = float(domain[0]), float(domain[1])
        if not 0.0 < lo < hi < np.inf:  # NaN too
            raise ValueError(f"domain must satisfy 0 < lo < hi < inf, got "
                             f"{domain}")
        n_nodes = _count(n_nodes, "n_nodes", 2)
        if not (anchor == "auto" or 0.0 <= float(anchor) <= np.inf):
            raise ValueError(f"anchor must lie in [0, inf], got {anchor}")
        self.f = integrand
        self.domain = (lo, hi)
        self.direction = d = +1 if orientation == "from_below" else -1
        self.nodes = np.geomspace(lo, hi, n_nodes)
        cells = gauss_panels(integrand, self.nodes[:-1], self.nodes[1:])
        tol = 1e-15 * max(1.0, float(np.max(np.abs(cells))))
        if not np.all((cells >= -tol) & (cells < np.inf)):  # NaN too
            raise ValueError("integrand must be nonnegative, cells finite")
        cells = np.maximum(cells, 0.0)
        self._head, _ = endpoint_integral(integrand, lo, "zero")
        self._tail, _ = endpoint_integral(integrand, hi, "inf")

        # the endpoint V is integrated from, and the integral beyond it
        end, beyond = (0.0, self._head) if d > 0 else (np.inf, self._tail)
        if anchor == "auto":
            anchor = end if beyond < np.inf else 1.0
        self.anchor = anchor = float(anchor)
        if anchor in (0.0, np.inf) and anchor != end:
            raise ValueError(f"anchor {anchor} invalid for {orientation} maps")
        # an interior from_above anchor keeps the lower edge: summed outward
        # from it, the table loses precision on the low cells
        interior_above = d < 0 and anchor < np.inf
        origin = lo if interior_above else min(max(anchor, lo), hi)
        self._top = origin == hi
        k = int(np.clip(np.searchsorted(self.nodes, origin, side="right") - 1,
                        0, len(cells) - 1))
        below = gauss_panels(integrand, self.nodes[k], origin)
        above = gauss_panels(integrand, origin, self.nodes[k + 1])
        self.cumvals = np.concatenate([
            -np.cumsum(np.append(below, cells[:k][::-1]))[::-1],
            np.cumsum(np.append(above, cells[k + 1:]))])
        self._const = float(-d * self._table_at(anchor))
        if not np.isfinite(self._const):
            raise NonIntegrableRate(f"integrand not integrable at {anchor:g}")
        self.limit_zero = d * self._table_at(0.0) + self._const
        self.limit_inf = d * self._table_at(np.inf) + self._const

        # inverse's start: per cell the degree-7 polynomial r(s)
        width = np.diff(self.cumvals)
        self._start = np.concatenate([
            _start_block(integrand, self.nodes[i:i + _START_BLOCK + 1],
                         width[i:i + _START_BLOCK])
            for i in range(0, len(width), _START_BLOCK)], axis=1)

    # -- forward ---------------------------------------------------------
    def _cum(self, x):
        """Table value at x, exact per point (cached node value plus a panel
        over the rest of the cell)."""
        x = np.asarray(x, dtype=float)
        # the cell [nodes[idx - 1], nodes[idx]] holding x, the first or last
        # cell for x outside the nodes
        idx = np.searchsorted(self.nodes[1:-1], x, side="right") + 1
        if self._top:
            return self.cumvals[idx] - gauss_panels(self.f, x, self.nodes[idx])
        return self.cumvals[idx - 1] + gauss_panels(
            self.f, self.nodes[idx - 1], x)

    def _table_at(self, x):
        """The table at x in [0, inf]: extended to 0 and +inf by the head and
        tail integrals (infinite where they diverge)."""
        if x == 0.0:
            return self.cumvals[0] - self._head
        if x == np.inf:
            return self.cumvals[-1] + self._tail
        return self._cum(x)

    def __call__(self, x):
        return self.direction * self._cum(x) + self._const

    # -- generalized inverse ---------------------------------------------
    def inverse(self, q):
        """Generalized inverse, clamped to the tabulation domain.

        Increasing maps: inf{x : V(x) >= q}.  Non-increasing maps:
        sup{x : V(x) >= q} (the standard convention for decreasing Q).

        Within the bracketing grid cell [a, b], with F(x) = int_a^x f - tau,
        each point runs Newton steps in log x, x <- x exp(-F / (f(x) x)).
        The start is the cell's degree-7 polynomial r(s) of the log-x
        fraction r at the integral fraction s = tau / int_a^b f, evaluated
        by Horner and clamped to [a, b] (r = s, the log-linear guess, where
        the cell's samples gave no polynomial).  On a smooth integrand the
        polynomial is off by O(log(b / a)^8), about 1e-16 on the default
        grid, so the first Newton step is already below ``_NEWTON_RTOL``:
        one pass of 16 integrand evaluations (a 15-point panel and f(x)) per
        point.  Every pass narrows [a, b] by the sign of F; a step is
        replaced by the log-midpoint of [a, b] when f(x) = 0, when it is not
        finite or when it leaves (a, b), so flat pieces resolve to the same
        end as bisection would.  A point stops when its relative step is at
        most ``_NEWTON_RTOL``, or when the step no longer halves while |F| is
        at the rounding floor of the target.  No point can stall on pass 1,
        so when that pass makes every point final the clamped Newton values
        are returned at once; the stall tolerance and the last step are
        formed only for the points that need another pass.
        """
        q = np.asarray(q, dtype=float)
        t = self.direction * (q - self._const)  # target table value
        shape = t.shape
        t = t.ravel()
        cum = self.cumvals
        inside = (t > cum[0]) & (t < cum[-1])
        if inside.all():
            out = self._newton(t)
        else:
            # a target beyond the table's value at the lower domain edge maps
            # to that edge, beyond its value at the upper edge to the upper
            # edge; a NaN target maps to NaN and, like those, takes no pass
            lo, hi = self.domain
            out = np.where(t >= cum[-1], hi, np.where(t <= cum[0], lo, t))
            out[inside] = self._newton(t[inside])
        return float(out[0]) if not shape else out.reshape(shape)

    def _newton(self, t):
        """The Newton iteration of ``inverse`` at table values t, each
        strictly between the table's first and last value."""
        if not t.size:  # no integrand call on an empty batch
            return t
        cum = self.cumvals
        # leftmost x with V(x) >= q (increasing), rightmost (non-increasing);
        # for such t the index lies in [1, len(cum) - 1]
        j = np.searchsorted(cum, t, side="left" if self.direction > 0
                            else "right")
        left = self.nodes[j - 1]
        a, b = left, self.nodes[j]
        tau = t - cum[j - 1]  # target of int_left^x f
        frac = tau / (cum[j] - cum[j - 1])
        coef = self._start[:, j - 1]
        r = coef[-1]
        for c in coef[-2::-1]:
            r = r * frac + c
        r = np.minimum(np.maximum(r, 0.0), 1.0)
        x = a * (b / a) ** r
        prev = None  # each point's last step; none before pass 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_MAX_STEPS):
                F = gauss_panels(self.f, left, x) - tau
                fx = np.asarray(self.f(x), dtype=float)
                take_left = F >= 0 if self.direction > 0 else F > 0
                b = np.where(take_left, x, b)
                a = np.where(take_left, a, x)
                s = -F / (fx * x)
                newton = x * np.exp(s)
                ok = (fx > 0) & np.isfinite(s)
                step = np.abs(s)
                final = ok & (step <= _NEWTON_RTOL)
                if prev is None:  # pass 1 (prev = inf): no point has stalled
                    if final.all():
                        return np.minimum(np.maximum(newton, a), b)
                    done, out, pos = final, np.empty_like(t), np.arange(t.size)
                else:
                    done = final | (ok & (step > 0.5 * prev)
                                    & (np.abs(F) <= f_tol))
                out[pos[done]] = np.where(
                    final, np.minimum(np.maximum(newton, a), b), x)[done]
                if done.all():
                    return out
                nxt = np.where(ok & (newton > a) & (newton < b), newton,
                               np.sqrt(a * b))
                keep = ~done
                if prev is None:  # the stall tolerance of the points left
                    f_tol = _STALL_ULPS * np.spacing(
                        np.maximum(np.abs(t[keep]), tau[keep]))
                else:
                    f_tol = f_tol[keep]
                x_old, x = x[keep], nxt[keep]
                prev = np.abs(np.log(x / x_old))
                pos, left, tau, a, b = (
                    arr[keep] for arr in (pos, left, tau, a, b))
        out[pos] = b if self.direction > 0 else a
        return out
