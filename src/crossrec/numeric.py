"""Dense/sparse numeric kernels shared by every model in the package.

Everything runs in 64-bit floats with fixed summation orders, so repeated
runs on the same machine produce bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

Array = np.ndarray


def check_finite(a: Array, name: str = "array") -> Array:
    """Reject NaN/Inf entries; returns the array unchanged."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_matrix(a, name: str = "matrix") -> Array:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def relu(x) -> Array:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(x, upstream) -> Array:
    """Upstream gradient gated by x > 0; the subgradient at x == 0 is 0."""
    x = np.asarray(x)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape != upstream.shape:
        raise ValueError(f"relu_backward shape mismatch: {x.shape} vs {upstream.shape}")
    return np.where(x > 0.0, upstream, 0.0)


def _validate_csr(offsets: Array, indices: Array, num_sources: int) -> None:
    if offsets.ndim != 1 or len(offsets) < 1:
        raise ValueError("offsets must be a non-empty 1-D array")
    if offsets[0] != 0:
        raise ValueError("offsets must start at 0")
    if np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be nondecreasing")
    if offsets[-1] != len(indices):
        raise ValueError(f"last offset {offsets[-1]} does not match {len(indices)} indices")
    if len(indices) and (indices.min() < 0 or indices.max() >= num_sources):
        raise ValueError(f"neighbor index out of range [0, {num_sources})")


class CsrAggregator:
    """Neighbor-sum operator for one (target <- source) relation.

    Wraps a CSR adjacency. ``apply`` sums source rows into each target
    slot, walking each segment in stored index order; ``apply_transpose``
    scatters target rows back to sources (the exact adjoint, used by the
    backward passes). ``weights`` attaches one coefficient per edge, e.g.
    1/degree for mean aggregation.
    """

    def __init__(self, offsets, indices, num_sources: int, weights=None):
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        _validate_csr(offsets, indices, num_sources)
        if weights is None:
            data = np.ones(len(indices), dtype=np.float64)
        else:
            data = np.ascontiguousarray(weights, dtype=np.float64)
            if data.shape != indices.shape:
                raise ValueError("weights must have one entry per edge")
        shape = (len(offsets) - 1, num_sources)
        self._mat = sp.csr_matrix((data, indices, offsets), shape=shape)
        self._mat_t = self._mat.T.tocsr()

    @property
    def num_targets(self) -> int:
        return self._mat.shape[0]

    @property
    def num_sources(self) -> int:
        return self._mat.shape[1]

    def apply(self, rows) -> Array:
        rows = as_matrix(rows, "rows")
        if rows.shape[0] != self.num_sources:
            raise ValueError(f"expected {self.num_sources} source rows, got {rows.shape[0]}")
        return self._mat @ rows

    def apply_transpose(self, rows) -> Array:
        rows = as_matrix(rows, "rows")
        if rows.shape[0] != self.num_targets:
            raise ValueError(f"expected {self.num_targets} target rows, got {rows.shape[0]}")
        return self._mat_t @ rows


def scatter_rows(index, rows, num_rows: int) -> Array:
    """out[index[k]] += rows[k] into zeros, in k order: bitwise equal to
    ``np.add.at``. One CSC column per row, each holding a 1.0, so the
    sparse matmul walks the columns in order and multiplies exactly."""
    index = np.asarray(index, dtype=np.int64)
    rows = as_matrix(rows, "rows")
    n = len(index)
    if index.ndim != 1 or rows.shape[0] != n:
        raise ValueError(f"need one index per row, got {index.shape} for {rows.shape[0]} rows")
    if n and (index.min() < 0 or index.max() >= num_rows):
        raise ValueError(f"row index out of range [0, {num_rows})")
    incidence = sp.csc_matrix((np.ones(n), index, np.arange(n + 1)), shape=(num_rows, n))
    return incidence @ rows


@dataclass
class AdamState:
    """Adam optimizer state for a single parameter matrix."""

    m: Array
    v: Array
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param, lr: float = 1e-3, beta1: float = 0.9,
                  beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros_like(param, dtype=np.float64),
                   v=np.zeros_like(param, dtype=np.float64),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(param, grad, state: AdamState) -> Array:
    """One Adam update; returns the new parameter value, mutates ``state``."""
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape:
        raise ValueError(f"grad shape {grad.shape} does not match param {param.shape}")
    if state.m.shape != param.shape:
        raise ValueError("optimizer state shape does not match parameter")
    check_finite(grad, "grad")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * (grad * grad)
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def finite_diff_grad(f, param, h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function w.r.t. ``param``.

    Perturbs the array in place entry by entry and restores it, so ``f``
    may close over the very same array object it receives.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    param = np.asarray(param, dtype=np.float64)
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + h
        f_plus = float(f(param))
        param[idx] = orig - h
        f_minus = float(f(param))
        param[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("objective returned a non-finite value during differencing")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad
