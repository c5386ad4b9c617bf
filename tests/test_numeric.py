"""Tests for the dense/sparse kernels against independent reference
implementations (plain python loops, hand-coded update rules)."""

import numpy as np
import pytest

from crossrec.numeric import (
    ADAM_CHUNK,
    AdamState,
    CsrAggregator,
    FlatArrays,
    Scratch,
    adam_step,
    check_finite,
    finite_diff_grad,
)


def loop_segment_mean(rows, offsets, indices):
    """Each segment's rows, each weighed by 1/length of the segment,
    summed; an empty segment gives a zero row."""
    out = np.zeros((len(offsets) - 1, rows.shape[1]))
    for t in range(len(offsets) - 1):
        for j in range(offsets[t], offsets[t + 1]):
            out[t] += rows[indices[j]] / (offsets[t + 1] - offsets[t])
    return out


class ReferenceAdam:
    """Adam re-derived from the update equations, kept deliberately
    separate from the implementation under test."""

    def __init__(self, shape, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps

    def step(self, param, grad):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad ** 2
        mh = self.m / (1 - self.b1 ** self.t)
        vh = self.v / (1 - self.b2 ** self.t)
        return param - self.lr * mh / (np.sqrt(vh) + self.eps)


def test_segment_sum_matches_loop_reference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        num_src = int(rng.integers(1, 9))
        num_tgt = int(rng.integers(1, 7))
        counts = rng.integers(0, 4, size=num_tgt)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        indices = rng.integers(0, num_src, size=offsets[-1])
        rows = rng.standard_normal((num_src, 5))
        got = CsrAggregator(offsets, indices, num_src).apply(rows)
        want = loop_segment_mean(rows, offsets, indices)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_segment_sum_empty_segments_are_zero():
    rows = np.ones((3, 2))
    offsets = np.array([0, 0, 2, 2])
    indices = np.array([0, 2])
    out = CsrAggregator(offsets, indices, num_sources=len(rows)).apply(rows)
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.array_equal(out[1], [1.0, 1.0])
    assert np.array_equal(out[2], [0.0, 0.0])


def test_segment_sum_repeated_index_counts_twice():
    # row 0 three times and row 1 once: each weighs 1/4, so the mean is
    # (3 * row 0 + row 1) / 4, not the mean of the two distinct rows
    rows = np.array([[1.0, -2.0], [5.0, 2.0]])
    offsets = np.array([0, 4])
    indices = np.array([0, 0, 0, 1])
    out = CsrAggregator(offsets, indices, num_sources=len(rows)).apply(rows)
    assert np.array_equal(out, [[2.0, -1.0]])


def test_csr_aggregator_validates_structure():
    with pytest.raises(ValueError):
        CsrAggregator(np.array([1, 2]), np.array([0]), num_sources=3)
    with pytest.raises(ValueError):
        CsrAggregator(np.array([0, 2]), np.array([0]), num_sources=3)
    with pytest.raises(ValueError):
        CsrAggregator(np.array([0, 1]), np.array([5]), num_sources=3)
    # a product with the wrong number of rows is refused by scipy itself
    agg = CsrAggregator(np.array([0, 1]), np.array([2]), num_sources=3)
    with pytest.raises(ValueError):
        agg.apply(np.ones((2, 4)))
    with pytest.raises(ValueError):
        agg.apply_transpose(np.ones((2, 4)))


def test_csr_aggregator_transpose_is_adjoint():
    # <A x, y> == <x, A^T y> for the scatter to be the exact adjoint
    rng = np.random.default_rng(5)
    for _ in range(10):
        num_src = int(rng.integers(1, 8))
        num_tgt = int(rng.integers(1, 8))
        counts = rng.integers(0, 4, size=num_tgt)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        indices = rng.integers(0, num_src, size=offsets[-1])
        agg = CsrAggregator(offsets, indices, num_src)
        x = rng.standard_normal((num_src, 3))
        y = rng.standard_normal((num_tgt, 3))
        lhs = np.sum(agg.apply(x) * y)
        rhs = np.sum(x * agg.apply_transpose(y))
        assert abs(lhs - rhs) < 1e-10


def test_csr_aggregator_weights():
    # each of two neighbors weighs 0.5
    rows = np.array([[2.0], [4.0]])
    offsets = np.array([0, 2])
    indices = np.array([0, 1])
    agg = CsrAggregator(offsets, indices, 2)
    assert np.array_equal(agg.apply(rows), [[3.0]])


def test_adam_matches_reference_trajectory():
    rng = np.random.default_rng(6)
    param = rng.standard_normal((3, 4))
    ref_param = param.copy()
    state = AdamState.for_param(param, lr=0.01)
    ref = ReferenceAdam(param.shape, lr=0.01)
    for _ in range(50):
        grad = rng.standard_normal(param.shape)
        param = adam_step(param, grad, state)
        ref_param = ref.step(ref_param, grad)
        assert np.allclose(param, ref_param, rtol=0, atol=1e-15)


def test_adam_first_step_is_signed_lr():
    # bias correction makes m_hat == grad and v_hat == grad^2 on step one,
    # so the update is -lr * g / (|g| + eps) which is about -lr * sign(g)
    param = np.zeros((2, 2))
    grad = np.array([[1.0, -2.0], [0.5, -0.25]])
    state = AdamState.for_param(param, lr=0.1)
    new = adam_step(param, grad, state)
    assert np.allclose(new, -0.1 * np.sign(grad), atol=1e-8)


def test_adam_zero_grad_keeps_param():
    param = np.array([[1.0, 2.0]])
    before = param.copy()
    state = AdamState.for_param(param)
    new = adam_step(param, np.zeros_like(param), state)
    assert np.array_equal(new, before)


def test_adam_rejects_shape_mismatch_and_nonfinite():
    param = np.zeros((2, 2))
    state = AdamState.for_param(param)
    with pytest.raises(ValueError):
        adam_step(param, np.zeros((2, 3)), state)
    with pytest.raises(ValueError):
        adam_step(param, np.full((2, 2), np.nan), state)


def test_adam_in_place_over_chunks_is_bitwise_the_allocating_form():
    # several chunks plus a partial one, updated in place through one
    # flat vector, against the expression form on a copy
    rng = np.random.default_rng(8)
    param = rng.standard_normal(2 * ADAM_CHUNK + 123)
    want = param.copy()
    state = AdamState.for_param(param, lr=0.01)
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    for t in range(1, 4):
        grad = rng.standard_normal(param.shape)
        assert adam_step(param, grad, state) is param
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * (grad * grad)
        want = want - 0.01 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        assert np.array_equal(param, want)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    # a non-finite entry in the last chunk is refused before anything moves
    grad[-1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(param, grad, state)
    assert state.t == 3 and np.array_equal(param, want) and np.array_equal(state.m, m)
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(param.astype(np.float32), grad, state)
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(param[::2], grad[::2], state)


def test_flat_arrays_are_views_in_order():
    flat = FlatArrays([("a", (2, 3)), ("b", (4,)), ("c", (1, 2))])
    assert flat.data.shape == (12,) and not flat.data.any()
    flat.views["b"][:] = 7.0
    flat.views["c"][0, 1] = 9.0
    assert list(flat.data) == [0.0] * 6 + [7.0] * 4 + [0.0, 9.0]
    assert all(np.shares_memory(v, flat.data) for v in flat.views.values())


def test_scratch_takes_overlap_and_grow():
    scratch = Scratch()
    assert scratch.data.size == 0
    a, b = scratch.take((2, 2), (2,))
    assert scratch.data.size == 6
    assert np.shares_memory(a, scratch.data) and np.shares_memory(b, scratch.data)
    assert not np.shares_memory(a, b)
    (c,) = scratch.take((3,))
    assert np.shares_memory(c, a)  # a later take reuses the same memory
    (d,) = scratch.take((5, 2))
    assert scratch.data.size == 10 and d.shape == (5, 2)
    assert not np.shares_memory(d, a)


def test_finite_diff_on_quadratic():
    # f(x) = sum(x^2) has exact central difference gradient 2x
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 2))
    grad = finite_diff_grad(lambda p: float(np.sum(p * p)), x.copy(), h=1e-5)
    assert np.allclose(grad, 2 * x, atol=1e-9)


def test_finite_diff_restores_param():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    before = x.copy()
    finite_diff_grad(lambda p: float(np.sum(p)), x)
    assert np.array_equal(x, before)


def test_finite_diff_sees_inplace_closure():
    # the objective must observe the perturbed entries through the same
    # array object, mirroring how the model closes over its params
    x = np.array([[2.0]])

    def f(_ignored):
        return float(x[0, 0] ** 3)

    grad = finite_diff_grad(f, x, h=1e-5)
    assert abs(grad[0, 0] - 12.0) < 1e-6


def test_check_finite():
    check_finite(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        check_finite(np.array([1.0, np.inf]))
