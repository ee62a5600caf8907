"""Dense rank/nullity, a small two-phase simplex solver, and vertex enumeration.

Problem sizes here are tiny (tens of variables, alphabets up to ~20), so the
solver favors transparency over speed: an explicit tableau, Bland's
anti-cycling rule, and reduced costs recomputed from scratch each pivot.

Vertices are enumerated by adjacency pivoting over feasible bases (Avis &
Fukuda, DCG 1992): a breadth-first walk from one feasible basis, one basis
at a time from a FIFO queue, that takes every min-ratio pivot, so the work
grows with the number of feasible bases rather than with the C(n, rank)
column subsets. One Gauss-Jordan step, ``_pivot``, serves the row
reduction, the simplex and the vertex walk, each updating a tableau it owns
in place. It forms the rank-1 term as a product with no summed index (BLAS
dgemm with k = 1), so each entry is one rounded product, as in
``np.outer``, and every pivot gives the elementwise step's values, value
for value. Zeros may differ in sign (BLAS writes +0.0 where ``np.outer``
writes -0.0), and no output can see it: every decision compares against a
tolerance, every divisor exceeds a tolerance in magnitude, and LP points
and vertices are clipped at zero (``np.clip`` writes +0.0 for either zero).
One elimination routine, ``_rref``, serves rank/nullity, the reduction to
independent rows and the choice of basis on which each vertex is solved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NumericalFailure

TAU_LP = 1e-9
RANK_TOL = 1e-10


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """One Gauss-Jordan step on entry (row, col), in place: that column
    becomes the unit vector of ``row``. The rank-1 term is dgemm with k = 1,
    the elementwise step value for value; zeros may differ in sign."""
    prow = tab[row] / tab[row, col]
    tab -= np.dot(tab[:, col, None], prow[None, :])
    tab[row] = prow


def _rref(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Gauss-Jordan elimination of [A | b] with partial pivoting.

    Returns (rows, rhs, pivots): the independent rows of the reduced A, their
    right-hand sides, and the pivot column of each row. The pivot columns are
    the lexicographically first basis of A's column space. Pivots no larger
    than RANK_TOL times the largest entry of [A | b] (or 1) count as zero.
    Raises Infeasible when elimination exposes a row 0 = nonzero.
    """
    work = np.concatenate([a, b[:, None]], axis=1, dtype=float)
    scale = max(np.abs(work).max(), 1.0)
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        piv = rank + int(np.argmax(np.abs(work[rank:, c])))
        if abs(work[piv, c]) <= RANK_TOL * scale:
            continue
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
        _pivot(work, rank, c)
        pivots.append(c)
    rank = len(pivots)
    if rank < rows and (np.abs(work[rank:, -1]) > 1e-7 * scale).any():
        raise Infeasible("equality system is inconsistent")
    return work[:rank, :cols], work[:rank, -1], pivots


def rank_and_nullity(m) -> tuple[int, int]:
    """Rank and nullity of a dense matrix by Gaussian elimination.

    Pivots smaller than RANK_TOL (relative to the largest entry) are treated
    as zero. Returns (rank, ncols - rank).
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("rank_and_nullity needs a nonempty 2-d matrix")
    rank = len(_rref(a, np.zeros(a.shape[0]))[2])
    return rank, a.shape[1] - rank


@dataclass(frozen=True)
class LinearProgram:
    """min or max objective . x  subject to  eq_lhs @ x = eq_rhs, x >= 0.
    An inequality is written as an equality row with its own slack column."""

    objective: np.ndarray
    eq_lhs: np.ndarray
    eq_rhs: np.ndarray
    sense: str = "min"


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float
    point: np.ndarray | None


def _bland_iterate(tab, basis, costs, n_allowed) -> str:
    """Run simplex pivots on the tableau [T | rhs], in place, under Bland's
    rule until optimal or unbounded; returns the status.

    Only columns with index < n_allowed may enter (used to shut out
    artificials in phase 2).
    """
    if not n_allowed:
        return "optimal"
    m = tab.shape[0]
    cb = costs[basis]
    cap = 10_000 + 100 * (m + tab.shape[1] - 1)
    for _ in range(cap):
        improving = (costs - cb @ tab[:, :-1])[:n_allowed] < -TAU_LP
        enter = int(improving.argmax())
        if not improving[enter]:
            return "optimal"
        # Python floats compare and divide exactly as float64 scalars do
        col, b = tab[:, enter].tolist(), tab[:, -1].tolist()
        best = np.inf
        leave = -1
        for i in range(m):
            if col[i] > TAU_LP:
                r = b[i] / col[i]
                if r < best - 1e-12:
                    best, leave = r, i
                elif r <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, leave, enter)
        basis[leave] = enter
        cb[leave] = costs[enter]
    raise NumericalFailure(f"simplex exceeded {cap} pivots without certifying a status")


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Two-phase primal simplex on the standard-form tableau: [A | I | b]
    with an artificial basis in phase 1, [A | b] in phase 2. Every
    constraint is an equality row of ``lp``; the caller spells out slacks.

    Raises NumericalFailure when the final point does not satisfy the
    constraints within tolerance (a certificate could not be produced).
    """
    c = np.asarray(lp.objective, dtype=float)
    a = np.array(lp.eq_lhs, dtype=float, ndmin=2)
    b = np.asarray(lp.eq_rhs, dtype=float).copy()
    n = c.size
    if a.shape != (b.size, n):
        raise ValueError(f"LP shape mismatch: A {a.shape}, b {b.size}, c {n}")
    if lp.sense not in ("min", "max"):
        raise ValueError(f"unknown sense {lp.sense!r}")
    sign = 1.0 if lp.sense == "min" else -1.0

    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    m = a.shape[0]

    # Phase 1: artificial basis, minimize total artificial mass.
    tab = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    phase1 = np.concatenate([np.zeros(n), np.ones(m)])
    _bland_iterate(tab, basis, phase1, n + m)
    scale = 1.0 + float(np.abs(b).sum())
    if phase1[basis] @ tab[:, -1] > TAU_LP * scale:
        return LpOutcome("infeasible", float("nan"), None)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        row = tab[i, :n]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > TAU_LP:
            _pivot(tab, i, j)
            basis[i] = j
            keep.append(i)
    tab = tab[np.ix_(keep, [*range(n), n + m])]
    basis = [basis[i] for i in keep]

    status = _bland_iterate(tab, basis, sign * c, n)
    if status == "unbounded":
        return LpOutcome("unbounded", sign * float("-inf"), None)

    x = np.zeros(n)
    x[basis] = tab[:, -1]
    resid = float(np.abs(a @ x - b).max()) if m else 0.0
    if resid > 100 * TAU_LP * scale or x.min() < -100 * TAU_LP:
        raise NumericalFailure(
            f"simplex finished with residual {resid:.3g}, min entry {x.min():.3g}"
        )
    x = np.clip(x, 0.0, None)
    return LpOutcome("optimal", float(c @ x), x)


def _first_basis(red_a: np.ndarray, support) -> tuple[int, ...]:
    """Lexicographically first basis of red_a's columns containing ``support``.

    Eliminating the support columns first and then the rest in order picks
    the greedy extension, which is the first such basis in subset order.
    """
    support = np.asarray(support, dtype=int)
    order = np.concatenate([support, np.setdiff1d(np.arange(red_a.shape[1]), support)])
    pivots = _rref(red_a[:, order], np.zeros(red_a.shape[0]))[2]
    return tuple(sorted(int(order[p]) for p in pivots))


def _basic_solutions(a, b, red_a, red_b, bases: np.ndarray) -> np.ndarray:
    """Basic solutions on the rows of ``bases`` (sorted column indices).

    The determinant and solve run as one batched LAPACK call each, so every
    solution equals np.linalg.solve(red_a[:, basis], red_b) bit for bit.
    Drops singular bases (|det| <= RANK_TOL), solutions with an entry below
    -TAU_LP and solutions whose residual on the original system exceeds
    1e-9. In the rest, every entry at or below TAU_LP (outside
    the support the vertex is keyed by) is written as an exact zero, so no
    round-off gives a vertex mass where it has none.
    """
    k, r = bases.shape
    x = np.zeros((k, a.shape[1]))
    if r:
        subs = red_a[:, bases].transpose(1, 0, 2)
        keep = np.abs(np.linalg.det(subs)) > RANK_TOL
        bases, x = bases[keep], x[keep]
        sol = np.linalg.solve(subs[keep], red_b[None, :, None])[..., 0]
        x[np.arange(len(bases))[:, None], bases] = sol
    x = np.clip(x[x.min(axis=1) >= -TAU_LP], 0.0, None)
    x = x[np.abs(x @ a.T - b).max(axis=1) <= 1e-9]
    x[x <= TAU_LP] = 0.0
    return x


def _walk_bases(red_a: np.ndarray, start: tuple[int, ...], tab: np.ndarray) -> list:
    """The basis to solve each vertex on, found by a breadth-first walk over
    the feasible bases of ``red_a`` from ``start``, whose tableau is ``tab``."""
    r = red_a.shape[0]
    # A basis is a tuple of columns in tableau row order, keyed by its bitmask.
    found: dict[tuple[int, ...], tuple[int, ...]] = {}  # support -> basis to solve on
    key = sum(1 << c for c in start)
    seen = {key}
    queue = deque([(start, key, tab)])
    while queue:
        basis, key, tab = queue.popleft()
        xb = tab[:, -1]
        if xb.min(initial=0.0) < -TAU_LP:
            continue
        support = tuple(sorted(basis[i] for i in np.nonzero(xb > TAU_LP)[0]))
        if support not in found:
            found[support] = support if len(support) == r else _first_basis(red_a, support)

        t = tab[:, :-1]
        enter = t > TAU_LP
        enter[:, basis] = False
        if not enter.any():
            continue
        ratio = np.full(t.shape, np.inf)
        np.divide(np.where(xb > TAU_LP, xb, 0.0)[:, None], t, out=ratio, where=enter)
        tied = enter & (ratio <= ratio.min(axis=0) + 1e-12)
        for row, col in zip(*np.nonzero(tied)):
            nxt = key ^ (1 << basis[row]) ^ (1 << int(col))
            if nxt in seen:
                continue
            seen.add(nxt)
            child = tab.copy()  # _pivot updates in place; the parent has more children
            _pivot(child, row, col)
            queue.append((basis[:row] + (int(col),) + basis[row + 1:], nxt, child))

    return [c for c in found.values() if len(c) == r]


def enumerate_vertices(eq_lhs, eq_rhs) -> np.ndarray:
    """All basic feasible solutions of {x >= 0 : eq_lhs @ x = eq_rhs}.

    Walks the graph of feasible bases breadth first, popping one basis at a
    time from a FIFO queue and pivoting a copy of its tableau into each
    unseen neighbour. The walk starts at the pivot columns of the reduced
    system, or, when those solve to an entry below -TAU_LP, at a basis around
    a phase-1 simplex point. From each basis it takes every min-ratio
    pivot, with every leaving row whose ratio ties the minimum within
    1e-12, so degenerate vertices are reached too.
    When the rank equals the column count the start basis is the only
    basis, and no walk is made.
    Each vertex is keyed by its support (entries above TAU_LP) and solved
    on the lexicographically first nonsingular basis containing that
    support, which is the basis on which a scan over column subsets in
    lexicographic order would first meet it.
    Solutions with an entry below -TAU_LP or a residual above 1e-9
    are dropped. Rows are returned in canonical (lexicographic) order.
    Raises Infeasible when no basic feasible solution exists.
    """
    a = np.array(eq_lhs, dtype=float, ndmin=2)
    b = np.asarray(eq_rhs, dtype=float)
    if a.shape[0] != b.size:
        raise ValueError(f"shape mismatch: A {a.shape}, b {b.size}")
    red_a, red_b, pivots = _rref(a, b)
    r = red_a.shape[0]
    # red_a[:, pivots] is the identity, so that basis solves to red_b and its
    # tableau is [red_a | red_b] itself
    start = tuple(pivots)
    tab = np.hstack([red_a, red_b[:, None]])
    if red_b.min(initial=0.0) < -TAU_LP:
        out = solve_lp(LinearProgram(np.zeros(a.shape[1]), red_a, red_b))
        if out.status != "optimal":
            raise Infeasible("polytope has no basic feasible solution")
        start = _first_basis(red_a, np.nonzero(out.point > TAU_LP)[0])
        if len(start) != r:
            raise NumericalFailure("phase-1 point does not extend to a basis")
        tab = np.linalg.solve(red_a[:, start], tab)

    if r == a.shape[1]:
        # every column is basic, so the start basis is the only basis
        bases = [] if tab[:, -1].min(initial=0.0) < -TAU_LP else [tuple(range(r))]
    else:
        bases = _walk_bases(red_a, start, tab)
    vertices = _basic_solutions(a, b, red_a, red_b, np.array(bases, dtype=int).reshape(len(bases), r))
    if not len(vertices):
        raise Infeasible("polytope has no basic feasible solution")
    return vertices[np.lexsort(vertices.T[::-1])]
