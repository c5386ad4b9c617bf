"""Dense/sparse numeric kernels shared by every model in the package.

Everything runs in 64-bit floats with fixed summation orders, so repeated
runs on the same machine produce bitwise-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

Array = np.ndarray


def check_finite(a: Array, name: str = "array") -> Array:
    """Reject NaN/Inf entries; returns the array unchanged."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_seed(seed: int) -> int:
    """Seeds key 64-bit hashes and numpy's seed sequences, so they must
    be nonnegative and fit in 64 bits; returns the seed unchanged."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2**64)")
    return seed


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
    """Neighbor-mean operator for one (target <- source) relation.

    Wraps a CSR adjacency whose edges each weigh 1/degree of their
    target, so ``apply`` averages source rows into each target slot
    (zero rows for isolated ones), walking each segment in stored index
    order; ``apply_transpose`` is its exact adjoint, for the backward.

    The structure is checked once, here, so no bad index reaches scipy's
    C loops; a product with the wrong number of rows is refused by scipy
    itself. The transposed copy is kept in CSR, so the adjoint also sums
    each segment in index order and its bits are fixed. Both scipy
    matrices are public as ``matrix`` and ``matrix_t``: ``apply(x)`` is
    ``matrix @ x`` and ``apply_transpose(x)`` is ``matrix_t @ x``.
    """

    def __init__(self, offsets, indices, num_sources: int):
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        _validate_csr(offsets, indices, num_sources)
        degrees = np.diff(offsets)
        data = np.repeat(1.0 / np.maximum(degrees, 1), degrees)
        shape = (len(offsets) - 1, num_sources)
        self.matrix = sp.csr_matrix((data, indices, offsets), shape=shape)
        self.matrix_t = self.matrix.T.tocsr()

    def apply(self, rows) -> Array:
        return self.matrix @ rows

    def apply_transpose(self, rows) -> Array:
        return self.matrix_t @ rows


def packed_views(data: Array, shapes) -> list:
    """Views of the 1-D ``data`` with the given shapes, packed from its
    start in order."""
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(data[pos:pos + size].reshape(shape))
        pos += size
    return views


class FlatArrays:
    """Named float64 arrays packed into one contiguous zeroed vector.

    ``views[name]`` is a view of ``data`` with the given shape, laid out
    in the order of ``shapes``, so one call on ``data`` acts on every
    array at once. ``views`` is read-only: an entry replaced by another
    array would no longer be part of ``data``.
    """

    def __init__(self, shapes):
        self.data = np.zeros(sum(math.prod(shape) for _, shape in shapes))
        self.views = MappingProxyType(dict(zip(
            [name for name, _ in shapes], packed_views(self.data, [shape for _, shape in shapes]))))


class Scratch:
    """A float64 buffer lent out as packed arrays.

    Every ``take`` packs its arrays from the start of the buffer, which
    it grows when too small, so they overlap what earlier takes
    returned: a caller may use what it took only until the next take.
    A model's backward takes its deltas from one, so repeated steps
    reuse one block of memory. The buffer starts empty.
    """

    def __init__(self):
        self.data = np.empty(0)

    def take(self, *shapes) -> list:
        size = sum(math.prod(shape) for shape in shapes)
        if size > self.data.size:
            self.data = np.empty(size)
        return packed_views(self.data, shapes)


# entries per pass of adam_step: its two scratch rows stay in cache
ADAM_CHUNK = 16384
# Adam's decay rates and denominator floor, the values of Kingma & Ba
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam optimizer state for one parameter array (a matrix, or a
    flat vector holding many): both moments, the step count and the
    learning rate. Every state shares ADAM_BETA1, ADAM_BETA2 and ADAM_EPS."""

    m: Array
    v: Array
    t: int = 0
    lr: float = 1e-3
    scratch: Array = None  # adam_step's two chunk rows, made on first use

    @classmethod
    def for_param(cls, param, lr: float = 1e-3) -> "AdamState":
        shape = np.shape(param)
        return cls(m=np.zeros(shape), v=np.zeros(shape), lr=lr)


def adam_step(param, grad, state: AdamState) -> Array:
    """One Adam update of ``param`` in place; mutates ``state`` and
    returns ``param``, which must be a C-contiguous float64 array.

    The moments update in place, chunk by chunk through the state's one
    scratch block, so a step allocates nothing of the parameter's size.
    Each entry gets the operations of m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*(g*g), param - lr*(m/c1) / (sqrt(v/c2) + eps) in
    that order, so results do not depend on the chunking. A non-finite
    gradient is refused before anything moves.
    """
    if not (isinstance(param, np.ndarray) and param.dtype == np.float64
            and param.flags.c_contiguous):
        raise ValueError("param must be a C-contiguous float64 array")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape:
        raise ValueError(f"grad shape {grad.shape} does not match param {param.shape}")
    if state.m.shape != param.shape:
        raise ValueError("optimizer state shape does not match parameter")
    # a finite sum proves every entry finite, without a boolean temporary
    if not math.isfinite(grad.sum()):
        check_finite(grad, "grad")
    state.t += 1
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.lr, ADAM_EPS
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    p, g = param.reshape(-1), grad.reshape(-1)
    m, v = state.m.reshape(-1), state.v.reshape(-1)
    if state.scratch is None:
        state.scratch = np.empty((2, min(ADAM_CHUNK, p.size)))
    for lo in range(0, p.size, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, p.size)
        a, b = state.scratch[0, :hi - lo], state.scratch[1, :hi - lo]
        gc, mc, vc = g[lo:hi], m[lo:hi], v[lo:hi]
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=a)
        mc += a
        vc *= b2
        np.multiply(gc, gc, out=a)
        a *= 1.0 - b2
        vc += a
        np.divide(vc, c2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(mc, c1, out=b)
        b *= lr
        b /= a
        p[lo:hi] -= b
    return param


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
