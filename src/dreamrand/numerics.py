"""Low-level numerics: seeded random streams, the logistic function,
log-domain helpers and a global norm.

Everything runs in float64. Randomness is built on numpy's counter-based
Philox generator so that any (seed, stream-id, ...) tuple maps to the same
draw sequence on every run, and disjoint id tuples give independent streams.
"""
from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = [
    "LOG_2PI",
    "rng_stream",
    "sigmoid",
    "log_sum_exp",
    "gaussian_logpdf",
    "global_norm",
]

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


def global_norm(arrays: Iterable[np.ndarray]) -> float:
    """Euclidean norm over all entries of all arrays."""
    total = 0.0
    for a in arrays:
        total += float(np.sum(np.square(a)))
    return float(np.sqrt(total))
