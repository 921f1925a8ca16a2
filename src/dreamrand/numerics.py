"""Low-level numerics: seeded random streams, log-domain helpers, and a
finite-difference gradient oracle.

Everything runs in float64. Randomness is built on numpy's counter-based
Philox generator so that any (seed, stream-id, ...) tuple maps to the same
draw sequence on every run, and disjoint id tuples give independent streams.
"""
from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_FD_EPS",
    "LOG_2PI",
    "rng_stream",
    "sigmoid",
    "log_sum_exp",
    "gaussian_logpdf",
    "finite_diff_grad",
    "pack_arrays",
    "unpack_arrays",
    "global_norm",
]

DEFAULT_FD_EPS = 1e-5
LOG_2PI = float(np.log(2.0 * np.pi))


def _stream_word(part) -> int:
    """Map a stream-id component (int or str) to a non-negative integer."""
    if isinstance(part, (bool, float)):
        raise TypeError(f"stream ids must be int or str, got {part!r}")
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream ids must be non-negative, got {part}")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream ids must be int or str, got {type(part).__name__}")


def rng_stream(seed: int, *ids) -> np.random.Generator:
    """Derive a reproducible generator for (seed, *ids).

    Philox is counter-based: equal arguments give bit-identical streams
    across runs and platforms, while distinct id tuples give independent
    streams. String ids are hashed, so stages can be named rather than
    numbered.
    """
    key = tuple(_stream_word(p) for p in ids)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sigmoid(x):
    """Numerically stable logistic function, vectorized:
    exp(min(x, 0)) / (1 + exp(-|x|)), so no exp argument is positive."""
    x = np.asarray(x, dtype=np.float64)
    out = np.exp(np.minimum(x, 0.0))
    out /= 1.0 + np.exp(-np.abs(x))
    return float(out) if out.ndim == 0 else out


def log_sum_exp(v, axis=None):
    """log(sum(exp(v))) with the usual max-shift so finite input stays finite.

    Raises ValueError on empty input. With ``axis`` given, reduces along that
    axis only.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("log_sum_exp of empty input")
    if axis is None:
        m = np.max(v)
        return float(np.log(np.sum(np.exp(v - m))) + m)
    # A running maximum over the axis' slices gives the same values as
    # v.max(axis=axis, keepdims=True), much faster over a short axis such as
    # the mixture components.
    s = v.swapaxes(axis, -1)
    m = s[..., :1]
    for j in range(1, s.shape[-1]):
        m = np.maximum(m, s[..., j : j + 1])
    m = m.swapaxes(axis, -1)
    out = np.log(np.exp(v - m).sum(axis=axis, keepdims=True)) + m
    return out.squeeze(axis=axis)


def gaussian_logpdf(x, mu, sigma):
    """Log-density of N(mu, sigma^2) at x; sigma must be positive."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ValueError("gaussian_logpdf requires sigma > 0")
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    out = -0.5 * LOG_2PI - np.log(sigma) - (x - mu) ** 2 / (2.0 * sigma**2)
    return float(out) if out.ndim == 0 else out


def finite_diff_grad(f: Callable[[np.ndarray], float], x, eps: float = DEFAULT_FD_EPS) -> np.ndarray:
    """Central-difference gradient of a scalar function, the oracle used to
    check every analytic gradient in this package.

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


def pack_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate arrays into one flat float64 vector."""
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unpack_arrays(vec: np.ndarray, templates: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Split a flat vector back into arrays shaped like ``templates``."""
    out = []
    offset = 0
    for t in templates:
        size = int(np.prod(t.shape, dtype=int))
        out.append(np.asarray(vec[offset : offset + size], dtype=np.float64).reshape(t.shape))
        offset += size
    if offset != len(vec):
        raise ValueError(f"vector length {len(vec)} does not match templates ({offset})")
    return out


def global_norm(arrays: Iterable[np.ndarray]) -> float:
    """Euclidean norm over all entries of all arrays."""
    total = 0.0
    for a in arrays:
        total += float(np.sum(np.square(a)))
    return float(np.sqrt(total))
