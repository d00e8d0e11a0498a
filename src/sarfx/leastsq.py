"""Damped Gauss-Newton (Levenberg-Marquardt) solver for nonlinear least squares.

Minimizes ``sum(residual_fn(x)**2)`` with multiplicative damping adaptation,
from normal equations (JᵀJ, Jᵀr) that the caller builds, so the m x n
Jacobian need never exist. Convergence is declared on a small relative step or
a small relative residual reduction, and the result names the rule that
stopped it; hitting the iteration cap without either raises
:class:`FitDivergenceError` so callers can surface an explicit
non-convergence instead of silently returning garbage parameters.
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


STEP_TOL = 1e-8  # relative parameter step
RESIDUAL_TOL = 1e-10  # relative cost reduction
INITIAL_DAMPING = 1e-3


def least_squares(residual_fn, x0, normal_equations, max_iter: int = 200) -> LeastSquaresResult:
    """Levenberg-Marquardt minimization of ``sum(residual_fn(x)**2)``.

    Args:
        residual_fn: maps a parameter vector to a 1D residual vector.
        x0: initial parameter vector.
        normal_equations: callable ``(x, r) -> (JᵀJ, Jᵀr)`` at the parameters
            ``x`` with residual ``r``.
        max_iter: iteration cap; exceeding it raises FitDivergenceError.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    r = np.asarray(residual_fn(x), dtype=np.float64).ravel()
    # costs by an unthreaded einsum: BLAS ddot (r @ r) rounds by its thread count
    cost = float(np.einsum("i,i->", r, r))
    lam = INITIAL_DAMPING

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
            cost_try = float(np.einsum("i,i->", r_try, r_try))
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
        for stop, met in (("exact", cost == 0.0), ("step", rel_step < STEP_TOL),
                          ("cost", rel_improvement < RESIDUAL_TOL)):
            if met:
                return LeastSquaresResult(x, float(np.sqrt(cost)), iteration, stop)

    raise FitDivergenceError(
        f"no convergence within {max_iter} iterations (residual norm {np.sqrt(cost):.3e})"
    )
