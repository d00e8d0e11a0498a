"""Damped Gauss-Newton (Levenberg-Marquardt) solver for nonlinear least squares.

Minimizes a sum of squares with multiplicative damping adaptation, from a cost
and normal equations (JᵀJ, Jᵀr) that the caller builds, so neither the m x n
Jacobian nor the residual vector need exist. The caller's cost comes with an
absolute error bound against an exact cost. Wherever that bound leaves a
decision open (accept a step, a stop test, a zero cost), the solver evaluates
the exact cost and decides on it, so every decision is the one the exact cost
takes. Convergence is declared on a small relative step or a small relative
cost reduction, and the result names the rule that stopped it; hitting the
iteration cap without either raises :class:`FitDivergenceError` so callers can
surface an explicit non-convergence instead of silently returning garbage
parameters.
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
_EPS = np.finfo(np.float64).eps


class _Cost:
    """The cost at one point: the fast value within its bound, made exact on demand."""

    def __init__(self, x, cost, exact_cost):
        self.x, self._exact_cost = x, exact_cost
        self.value, self.bound = (float(c) for c in cost(x))

    def exact(self) -> float:
        if self.bound != 0.0:
            self.value, self.bound = float(self._exact_cost(self.x)), 0.0
        return self.value


def _decide(a: _Cost, b: _Cost, gap: float, slack: float = 0.0) -> None:
    """Make a and b exact unless ``gap``, a difference of their fast values,
    clears both bounds (and ``slack``); NaN and infinite values never clear."""
    if not (np.isfinite(a.value) and np.isfinite(b.value) and abs(gap) > 2.0 * (a.bound + b.bound) + slack):
        a.exact()
        b.exact()


def _is_zero(c: _Cost) -> bool:
    if c.value <= 2.0 * c.bound:
        c.exact()
    return c.value == 0.0


def _improvement_below(previous: _Cost, here: _Cost, tol: float) -> bool:
    """Whether the step from ``previous`` to ``here`` cut the cost by less than
    ``tol`` of its old value, decided as on exact costs."""
    improvement = previous.value - here.value
    total = here.value + improvement
    _decide(previous, here, improvement - tol * total,
            slack=16.0 * _EPS * (abs(improvement) + tol * abs(total)))
    improvement = previous.value - here.value
    return improvement / max(here.value + improvement, 1e-300) < tol


def least_squares(cost, x0, normal_equations, exact_cost, max_iter: int = 200) -> LeastSquaresResult:
    """Levenberg-Marquardt minimization of a sum of squares.

    Args:
        cost: maps a parameter vector ``x`` to ``(value, bound)``: the sum of
            squares and an absolute bound on its distance from ``exact_cost(x)``.
        x0: initial parameter vector.
        normal_equations: callable ``x -> (JᵀJ, Jᵀr)``.
        exact_cost: maps ``x`` to the sum of squares every decision is taken on;
            called only where ``cost``'s bound leaves a decision open, and once
            at the solution for ``residual_norm``.
        max_iter: iteration cap; exceeding it raises FitDivergenceError.
    """
    here = _Cost(np.asarray(x0, dtype=np.float64).copy(), cost, exact_cost)
    lam = INITIAL_DAMPING

    for iteration in range(1, max_iter + 1):
        jtj, jtr = normal_equations(here.x)
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0  # keep the damping matrix positive definite

        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = _Cost(here.x + step, cost, exact_cost)
            _decide(trial, here, trial.value - here.value)
            if np.isfinite(trial.value) and trial.value <= here.value:
                previous, here = here, trial
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # Damping saturated: the quadratic model cannot improve the cost,
            # which is the fixed-point condition for a (local) minimum.
            return LeastSquaresResult(here.x, float(np.sqrt(here.exact())), iteration, "damping")

        rel_step = np.linalg.norm(step) / max(np.linalg.norm(here.x), 1e-300)
        for stop, met in (("exact", lambda: _is_zero(here)), ("step", lambda: rel_step < STEP_TOL),
                          ("cost", lambda: _improvement_below(previous, here, RESIDUAL_TOL))):
            if met():
                return LeastSquaresResult(here.x, float(np.sqrt(here.exact())), iteration, stop)

    raise FitDivergenceError(
        f"no convergence within {max_iter} iterations (residual norm {np.sqrt(here.exact()):.3e})"
    )
