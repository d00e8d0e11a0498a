"""Damped Gauss-Newton (Levenberg-Marquardt) solver for nonlinear least squares.

Minimizes ``sum(residual_fn(x)**2)`` with multiplicative damping adaptation,
from normal equations (JᵀJ, Jᵀr) that a caller may build without the m x n
Jacobian. Convergence is declared on a small relative step or a small relative
residual reduction, and the result names the rule that stopped it; hitting
the iteration cap without either raises :class:`FitDivergenceError` so
callers can surface an explicit non-convergence instead of silently returning
garbage parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FitDivergenceError(RuntimeError):
    """Iteration cap reached without meeting the convergence tolerances."""


@dataclass(frozen=True)
class LeastSquaresResult:
    params: np.ndarray
    residual_norm: float  # L2 norm of the residual vector at the solution
    iterations: int
    stop: str  # "step", "cost", "damping" (no improving step left) or "exact" (zero cost)


def finite_difference_jacobian(residual_fn, x, rel_step=1e-6, abs_floor=1e-9):
    """Central-difference Jacobian of ``residual_fn`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    r0 = np.asarray(residual_fn(x), dtype=np.float64)
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = max(rel_step * abs(x[i]), abs_floor)
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(residual_fn(xp)) - np.asarray(residual_fn(xm))) / (2 * h)
    return jac


def least_squares(
    residual_fn,
    x0,
    normal_equations=None,
    max_iter: int = 200,
    step_tol: float = 1e-8,
    residual_tol: float = 1e-10,
    damping: float = 1e-3,
) -> LeastSquaresResult:
    """Levenberg-Marquardt minimization of ``sum(residual_fn(x)**2)``.

    Args:
        residual_fn: maps a parameter vector to a 1D residual vector.
        x0: initial parameter vector.
        normal_equations: optional callable ``(x, r) -> (JᵀJ, Jᵀr)`` at the
            parameters ``x`` with residual ``r``; built from a finite-difference
            Jacobian when omitted.
        max_iter: iteration cap; exceeding it raises FitDivergenceError.
        step_tol: relative parameter-step tolerance.
        residual_tol: relative cost-reduction tolerance.
        damping: initial LM damping factor.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if normal_equations is None:
        def normal_equations(p, r):
            jac = finite_difference_jacobian(residual_fn, p)
            return jac.T @ jac, jac.T @ r

    r = np.asarray(residual_fn(x), dtype=np.float64).ravel()
    cost = float(r @ r)
    lam = float(damping)

    for iteration in range(1, max_iter + 1):
        jtj, jtr = normal_equations(x, r)
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0  # keep the damping matrix positive definite

        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_try = x + step
            r_try = np.asarray(residual_fn(x_try), dtype=np.float64).ravel()
            cost_try = float(r_try @ r_try)
            if np.isfinite(cost_try) and cost_try <= cost:
                improvement = cost - cost_try
                x, r, cost = x_try, r_try, cost_try
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # Damping saturated: the quadratic model cannot improve the cost,
            # which is the fixed-point condition for a (local) minimum.
            return LeastSquaresResult(x, float(np.sqrt(cost)), iteration, "damping")

        rel_step = np.linalg.norm(step) / max(np.linalg.norm(x), 1e-300)
        rel_improvement = improvement / max(cost + improvement, 1e-300)
        for stop, met in (("exact", cost == 0.0), ("step", rel_step < step_tol),
                          ("cost", rel_improvement < residual_tol)):
            if met:
                return LeastSquaresResult(x, float(np.sqrt(cost)), iteration, stop)

    raise FitDivergenceError(
        f"no convergence within {max_iter} iterations (residual norm {np.sqrt(cost):.3e})"
    )
