"""Central-difference gradients: the oracle every analytic gradient in the
package is checked against."""
from typing import Callable

import numpy as np

DEFAULT_FD_EPS = 1e-5


def finite_diff_grad(f: Callable[[np.ndarray], float], x, eps: float = DEFAULT_FD_EPS) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    ``f`` must be deterministic and evaluable in an eps-ball around x.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.array(x, dtype=np.float64)
    grad = np.empty_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = float(f(x))
        x[idx] = orig - eps
        f_minus = float(f(x))
        x[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite function value near coordinate {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad
