"""Double-precision matrix norms for offline scale computation.

Everything here runs in float64 on plain ndarrays; reduced precision
exists only in the simulated inference data path.  The spectral norm is
a deterministic power iteration so that scale factors reproduce
bit-for-bit across runs (dense SVD stays out of the public API and is
used only as a test oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Fixed default start seed: scale factors must be reproducible, so the
# power iteration re-seeds its own generator on every call.
POWER_ITERATION_SEED = 1729
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class SpectralNormEstimate:
    """Power-iteration result: the estimate and how many steps it took."""

    value: float
    iterations: int

    def __float__(self) -> float:
        return self.value


class ConvergenceError(Exception):
    """Power iteration ran out of iterations; carries the best estimate."""

    def __init__(self, best_estimate: float, iterations: int, tol: float):
        self.best_estimate = best_estimate
        self.iterations = iterations
        super().__init__(
            f"power iteration did not converge in {iterations} iterations "
            f"(tol={tol:g}, best estimate {best_estimate:.9g})"
        )


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries, in double precision."""
    return math.sqrt(float(np.sum(a * a)))


def spectral_norm(
    a: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = POWER_ITERATION_SEED,
) -> SpectralNormEstimate:
    """Largest singular value via power iteration on aᵀa.

    The start vector comes from a generator seeded fresh on every call,
    so repeat calls give identical results.  Stops once the relative
    change of the estimate drops below tol; a zero matrix short-circuits
    to 0 because the iteration is undefined there.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if not a.any():
        return SpectralNormEstimate(value=0.0, iterations=0)
    gram = a.T @ a
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=a.shape[1])
    x /= np.linalg.norm(x)
    estimate = 0.0
    previous: float | None = None
    for iteration in range(1, max_iter + 1):
        y = gram @ x
        growth = float(np.linalg.norm(y))
        if growth == 0.0:  # start vector fell in the kernel
            return SpectralNormEstimate(value=0.0, iterations=iteration)
        estimate = math.sqrt(growth)
        x = y / growth
        if previous is not None and abs(estimate - previous) <= tol * estimate:
            return SpectralNormEstimate(value=estimate, iterations=iteration)
        previous = estimate
    raise ConvergenceError(best_estimate=estimate, iterations=max_iter, tol=tol)
