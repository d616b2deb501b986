"""Orthonormal polynomials and differentiation operators for w = phi^2 / f.

For a compact prior nu with marginal density f = nu * phi, the weight
w(y) = phi(y)^2 / f(y) has all moments, so it carries a family of
orthonormal polynomials q_0, q_1, ... with a three-term recurrence

    y q_j = a_{j+1} q_{j+1} + b_j q_j + a_j q_{j-1}.

The recurrence is built by discretized Stieltjes orthogonalization: all
inner products are evaluated on a dense composite Gauss-Legendre grid
over a window wide enough for every polynomial of the requested degree,
and each new polynomial gets one explicit reorthogonalization pass
against its predecessors before normalization.  Construction aborts with
``DegreeUnstable`` if orthonormality degrades beyond 1e-6 or the degree
cap of 60 is exceeded.

From the same grid cache the module assembles the operator matrices of
interest: the differentiation matrix L_{ij} = <q_i, q_j'>, its split
L = A + B into a dense multiplication part and a superdiagonal part, the
symmetrized form S built from V' = y + m_nu, and the Jacobi matrix J.
The spectral norm of L is the sharp constant in the Bernstein-type
inequality ||p'|| <= C ||p|| over polynomials of degree at most k in
L2(w), which ``bernstein_constant`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixtures import MarginalModel, log_phi

__all__ = [
    "DegreeUnstable",
    "HypothesisViolated",
    "MAX_STABLE_DEGREE",
    "RecurrenceTable",
    "OperatorMatrices",
    "recurrence_for_weight",
    "differentiation_matrix",
    "build_operators",
    "operator_norm",
    "bernstein_constant",
    "JacobiBoundReport",
    "jacobi_norm_bound_check",
]

MAX_STABLE_DEGREE = 60
_GRAM_TOL = 1e-6
_PANEL_ORDER = 16  # Gauss-Legendre nodes per panel of the Stieltjes grid


class DegreeUnstable(RuntimeError):
    """Orthogonalization lost too much accuracy at the requested degree."""


class HypothesisViolated(RuntimeError):
    """A premise required by a bound check fails on the evaluation grid."""


def _composite_legendre(radius, n_nodes):
    """Composite Gauss-Legendre grid on [-radius, radius]."""
    n_panels = max(4, int(math.ceil(n_nodes / _PANEL_ORDER)))
    base_x, base_w = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    edges = np.linspace(-radius, radius, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * base_x[None, :]).ravel()
    weights = np.tile(half * base_w, n_panels)
    return nodes, weights


@dataclass(eq=False)
class RecurrenceTable:
    """Recurrence coefficients plus the grid cache that produced them.

    ``a[j]`` holds a_{j+1} for j = 0..degree (off-diagonal entries
    a_1..a_{degree+1}) and ``b[j]`` holds b_j for j = 0..degree+1.  The
    cached grid arrays evaluate q_0..q_{degree+1} and their derivatives
    at the quadrature nodes; ``measure`` already includes the weight w (over its peak, past e^700).
    """

    degree: int
    a: np.ndarray
    b: np.ndarray
    nodes: np.ndarray
    measure: np.ndarray
    basis: np.ndarray
    basis_derivative: np.ndarray
    support_bound: float


def default_window_radius(support_bound, k):
    """Integration window for degree <= k + 1 polynomials against w.

    w decays like a recentred Gaussian, so mass of q_j^2 w lives inside
    |y| <~ sqrt(4j + 2) + support_bound; six units of slack push the
    discarded tail far below the orthogonality tolerances.
    """
    return support_bound + math.sqrt(4.0 * (k + 2) + 2.0) + 6.0


def recurrence_for_weight(nu, k, grid_size=4000):
    """Orthonormal-polynomial recurrence for w = phi^2 / f_nu up to degree k+1.

    Discretized Stieltjes procedure: starting from q_0 = const, each step
    forms r = (y - b_j) q_j - a_j q_{j-1}, removes residual components
    along all earlier polynomials (one reorthogonalization pass),
    normalizes, and reads the coefficients back off as inner products.
    Derivative values are propagated through the exact same linear
    combinations, so ``basis_derivative`` differentiates the polynomials
    actually stored, roundoff included.  Past e^700 (w peaks near
    e^(u^2) for a point mass at u) w is divided by its peak, which a, b
    and L do not see; a weight whose log overflows on the grid raises
    ``ValueError`` naming the support bound.
    """
    k = int(k)
    if k < 0 or grid_size < 1:
        raise ValueError("need degree >= 0 and grid_size >= 1")
    if k > MAX_STABLE_DEGREE:
        raise DegreeUnstable(f"degree {k} beyond supported cap {MAX_STABLE_DEGREE}")
    model = MarginalModel(nu)
    radius = default_window_radius(model.support_bound, k)
    nodes, quad_w = _composite_legendre(radius, grid_size)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with the support bound
        log_weight = 2.0 * log_phi(nodes) - model.log_density(nodes)
        log_weight -= top if (top := log_weight.max()) > 700.0 else 0.0  # past a double: L and its norms are scale-free
        measure = quad_w * np.exp(log_weight)
        mu0 = float(measure.sum())
    if not (np.isfinite(measure).all() and math.isfinite(mu0)):
        raise ValueError(f"weight phi^2/f overflows a double on the grid at support bound "
                         f"{model.support_bound:.6g} (a point mass at u weighs about e^(u^2))")
    if not mu0 > 0.0:
        raise DegreeUnstable("weight has no mass on the grid")

    def ip(u, v):
        return float(np.dot(u * measure, v))

    n_polys = k + 2
    basis = np.zeros((n_polys, nodes.size))
    deriv = np.zeros_like(basis)
    a = np.zeros(n_polys)  # a[j] = a_{j+1}
    b = np.zeros(n_polys)
    basis[0] = 1.0 / math.sqrt(mu0)
    b[0] = ip(nodes * basis[0], basis[0])

    for j in range(n_polys - 1):
        shifted = nodes - b[j]
        r = shifted * basis[j]
        rd = basis[j] + shifted * deriv[j]
        if j > 0:
            r = r - a[j - 1] * basis[j - 1]
            rd = rd - a[j - 1] * deriv[j - 1]
        scale = math.sqrt(max(ip(r, r), 0.0))
        # one reorthogonalization pass against everything built so far
        coeffs = basis[: j + 1] @ (measure * r)
        r = r - coeffs @ basis[: j + 1]
        rd = rd - coeffs @ deriv[: j + 1]
        nrm2 = ip(r, r)
        if not math.isfinite(nrm2) or nrm2 <= 0.0:
            raise DegreeUnstable(f"lost positivity at degree {j + 1}")
        nrm = math.sqrt(nrm2)
        if nrm < 1e-6 * scale or not math.isfinite(nrm):
            raise DegreeUnstable(f"cancellation collapse at degree {j + 1}")
        basis[j + 1] = r / nrm
        deriv[j + 1] = rd / nrm
        a[j] = ip(nodes * basis[j], basis[j + 1])
        b[j + 1] = ip(nodes * basis[j + 1], basis[j + 1])
        if not a[j] > 0.0:
            raise DegreeUnstable(f"nonpositive recurrence coefficient at degree {j + 1}")

    gram = (basis * measure) @ basis.T
    drift = float(np.max(np.abs(gram - np.eye(n_polys))))
    if drift > _GRAM_TOL:
        raise DegreeUnstable(f"orthonormality drift {drift:.2e} exceeds {_GRAM_TOL:.0e}")

    return RecurrenceTable(
        degree=k,
        a=a[: k + 1].copy(),
        b=b.copy(),
        nodes=nodes,
        measure=measure,
        basis=basis,
        basis_derivative=deriv,
        support_bound=model.support_bound,
    )


@dataclass(eq=False)
class OperatorMatrices:
    """Differentiation and multiplication operators in the q-basis.

    L, A, B, S act on coefficient vectors of degree <= k polynomials
    ((k+1) x (k+1)); J is the (k+2) x (k+2) Jacobi matrix.  Up to
    quadrature error L is strictly upper triangular, L = A + B, and
    S = L + L^T with zero diagonal.
    """

    L: np.ndarray
    A: np.ndarray
    B: np.ndarray
    S: np.ndarray
    J: np.ndarray


def differentiation_matrix(table):
    """L_{ij} = <q_i, q_j'> over degrees <= k, from a recurrence table's grid cache."""
    kp1 = table.degree + 1
    return (table.basis[:kp1] * table.measure) @ table.basis_derivative[:kp1].T


def build_operators(nu, table):
    """Assemble L, A, B, S, J from a recurrence table's grid cache."""
    k = table.degree
    kp1 = k + 1
    model = MarginalModel(nu)
    mvals = model.posterior_mean(table.nodes)

    q = table.basis[:kp1]
    qw = q * table.measure

    l_mat = differentiation_matrix(table)
    mult = qw @ (q * mvals).T  # <q_i, m_nu q_j>
    a_mat = np.triu(mult, 1)
    b_mat = np.diag(table.a[:k], 1)
    s_mat = qw @ (q * (table.nodes + mvals)).T

    j_mat = np.diag(table.b) + np.diag(table.a, 1) + np.diag(table.a, -1)

    return OperatorMatrices(L=l_mat, A=a_mat, B=b_mat, S=s_mat, J=j_mat)


def operator_norm(mat):
    """Spectral norm (largest singular value) of a matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("need a matrix")
    return float(np.linalg.norm(mat, 2))


def bernstein_constant(nu, k, **grid_options):
    """Sharp constant in ||p'|| <= C ||p|| over degree <= k in L2(w).

    Equals the spectral norm of the differentiation matrix L.  For
    compact priors on [-M, M] it is certified against (2M + 1) sqrt(k+1)
    by the A + B split; for the point mass at zero it reduces to the
    Gaussian value sqrt(k).  ``grid_options`` (``grid_size``) go to
    ``recurrence_for_weight``.
    """
    return operator_norm(differentiation_matrix(recurrence_for_weight(nu, k, **grid_options)))


@dataclass
class JacobiBoundReport:
    """Outcome of the Jacobi-matrix norm check for one prior and degree."""

    k: int
    c1: float
    c2: float
    row_lhs: np.ndarray
    row_rhs: np.ndarray
    rows_ok: bool
    j_norm: float
    j_row_bound: float
    l_norm: float
    empirical_c: float


def jacobi_norm_bound_check(nu, k, c1, c2, **grid_options):
    """Verify the tridiagonal row bounds implied by growth of V'.

    Premises checked on the evaluation grid (``HypothesisViolated`` if
    either fails): |V'(y)| <= c1 (1 + |y|) and V''(y) >= c2, where
    V' = y + m_nu and V'' = 1 + Var(U | Y = y).  Under them each Jacobi
    row satisfies

        a_{j+1}^2 + b_j^2 + a_j^2 = int y^2 q_j^2 w <= (4j + 2)/c2 + c1^2/c2^2,

    and the report records both sides, the spectral norm of J against the
    row-sum bound, and the measured Bernstein constant normalized by
    sqrt(k) log(k + 1).  ``grid_options`` go to ``recurrence_for_weight``.
    """
    if not (c1 > 0.0 and c2 > 0.0):
        raise ValueError("c1 and c2 must be positive")
    k = int(k)
    if k < 1:
        raise ValueError("need degree at least 1")
    table = recurrence_for_weight(nu, k, **grid_options)
    model = MarginalModel(nu)
    posterior = model.evaluate(table.nodes)[1]
    mean = np.tensordot(model.atoms, posterior, 1)
    vprime = table.nodes + mean
    vsecond = 1.0 + np.maximum(np.tensordot(model.atoms**2, posterior, 1) - mean * mean, 0.0)

    growth_gap = float(np.max(np.abs(vprime) - c1 * (1.0 + np.abs(table.nodes))))
    if growth_gap > 1e-9:
        raise HypothesisViolated(f"|V'| exceeds c1 (1 + |y|) by {growth_gap:.3e}")
    convexity_gap = float(np.min(vsecond - c2))
    if convexity_gap < -1e-9:
        raise HypothesisViolated(f"V'' dips {-convexity_gap:.3e} below c2")

    a_ext = np.concatenate(([0.0], table.a))  # a_ext[j] = a_j, a_0 = 0
    js = np.arange(k + 1)
    row_lhs = a_ext[js + 1] ** 2 + table.b[js] ** 2 + a_ext[js] ** 2
    row_rhs = (4.0 * js + 2.0) / c2 + c1**2 / c2**2
    rows_ok = bool(np.all(row_lhs <= row_rhs * (1.0 + 1e-9)))

    ops = build_operators(nu, table)
    j_norm = operator_norm(ops.J)
    row_sums = np.abs(ops.J).sum(axis=1)
    j_row_bound = float(np.max(row_sums))
    l_norm = operator_norm(ops.L)
    empirical_c = l_norm / (math.sqrt(k) * math.log(k + 1.0))

    return JacobiBoundReport(
        k=k,
        c1=c1,
        c2=c2,
        row_lhs=row_lhs,
        row_rhs=row_rhs,
        rows_ok=rows_ok,
        j_norm=j_norm,
        j_row_bound=j_row_bound,
        l_norm=l_norm,
        empirical_c=empirical_c,
    )
