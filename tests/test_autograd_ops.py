"""Tests for the structural ops (gather/scatter/segment softmax/...),
which implement all message passing in the GNN encoders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    check_gradients,
    concat,
    gather,
    rows_dot,
    scatter_add,
    scatter_max_data,
    scatter_mean,
    segment_softmax,
    stack,
    where,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def randt(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


class TestGatherScatter:
    def test_gather_values(self, rng):
        src = randt(rng, 5, 3)
        idx = np.array([4, 0, 0])
        out = gather(src, idx)
        np.testing.assert_allclose(out.data, src.data[idx])

    def test_gather_gradient(self, rng):
        src = randt(rng, 5, 3)
        idx = np.array([4, 0, 0, 2])
        check_gradients(lambda s: (gather(s, idx) ** 2).sum(), [src])

    def test_gather_rejects_float_index(self, rng):
        with pytest.raises(TypeError):
            gather(randt(rng, 3, 2), np.array([0.5]))

    def test_scatter_add_values(self, rng):
        vals = Tensor(np.ones((4, 2)))
        out = scatter_add(vals, np.array([0, 0, 2, 2]), 3)
        np.testing.assert_allclose(out.data, [[2, 2], [0, 0], [2, 2]])

    def test_scatter_add_gradient(self, rng):
        vals = randt(rng, 6, 2)
        idx = np.array([0, 1, 1, 3, 3, 3])
        check_gradients(lambda v: (scatter_add(v, idx, 4) ** 2).sum(), [vals])

    def test_scatter_gather_roundtrip(self, rng):
        """scatter_add of gathered one-hot rows reconstructs the source."""
        src = randt(rng, 4, 3)
        idx = np.arange(4)
        out = scatter_add(gather(src, idx), idx, 4)
        np.testing.assert_allclose(out.data, src.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(300,), (300, 5), (300, 2, 3)])
    def test_scatter_add_bits_equal_add_at(self, rng, dtype, shape):
        """Each bucket sums its rows in index order, as np.add.at does: a
        hub bucket, empty buckets, -0.0 rows, int32 ids, strided rows."""
        vals = (rng.standard_normal(shape) * 1e3).astype(dtype)
        vals[::7] = -0.0
        idx = rng.integers(0, 40, shape[0]).astype(np.int32)
        idx[::3] = 5
        for values in (vals, vals[::-1]):
            expected = np.zeros((50,) + shape[1:], dtype=dtype)
            np.add.at(expected, idx, values)
            out = scatter_add(Tensor(values, dtype=dtype), idx, 50).data
            assert out.dtype == dtype and out.tobytes() == expected.tobytes()

    def test_scatter_add_out_of_range_raises(self):
        with pytest.raises(IndexError):
            scatter_add(Tensor(np.ones((2, 2))), np.array([0, 5]), 3)

    def test_scatter_mean_empty_segment_zero(self, rng):
        vals = Tensor(np.ones((2, 2)))
        out = scatter_mean(vals, np.array([0, 0]), 3)
        np.testing.assert_allclose(out.data[1], 0.0)
        np.testing.assert_allclose(out.data[0], 1.0)

    def test_scatter_max_data(self):
        vals = np.array([[1.0], [5.0], [3.0]])
        out = scatter_max_data(vals, np.array([0, 0, 1]), 3)
        assert out[0, 0] == 5.0
        assert out[1, 0] == 3.0
        assert out[2, 0] == 0.0  # empty segment defaults to 0


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self, rng):
        scores = randt(rng, 7)
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        out = segment_softmax(scores, seg, 3)
        for s in range(3):
            assert out.data[seg == s].sum() == pytest.approx(1.0, abs=1e-6)

    def test_multidim_scores(self, rng):
        scores = randt(rng, 6, 2)  # two attention heads
        seg = np.array([0, 0, 0, 1, 1, 1])
        out = segment_softmax(scores, seg, 2)
        np.testing.assert_allclose(out.data[:3].sum(axis=0), [1.0, 1.0], atol=1e-6)

    def test_gradient(self, rng):
        scores = randt(rng, 7)
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        weights = rng.standard_normal(7)
        check_gradients(
            lambda s: (segment_softmax(s, seg, 3) * Tensor(weights)).sum(), [scores]
        )

    def test_large_scores_stable(self):
        scores = Tensor(np.array([1000.0, 1000.0, -1000.0]))
        out = segment_softmax(scores, np.array([0, 0, 0]), 1)
        assert np.all(np.isfinite(out.data))
        assert out.data.sum() == pytest.approx(1.0, abs=1e-6)


class TestConcatStack:
    def test_concat_values_and_gradient(self, rng):
        a, b = randt(rng, 2, 3), randt(rng, 4, 3)
        out = concat([a, b], axis=0)
        assert out.shape == (6, 3)
        check_gradients(lambda a, b: (concat([a, b], axis=0) ** 2).sum(), [a, b])

    def test_concat_axis1(self, rng):
        a, b = randt(rng, 2, 3), randt(rng, 2, 5)
        check_gradients(lambda a, b: (concat([a, b], axis=1) ** 3).sum(), [a, b])

    def test_stack_new_axis(self, rng):
        a, b = randt(rng, 2, 3), randt(rng, 2, 3)
        out = stack([a, b], axis=1)
        assert out.shape == (2, 2, 3)
        check_gradients(lambda a, b: (stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack_scalars(self, rng):
        scalars = [randt(rng) for _ in range(3)]
        out = stack(scalars, axis=0)
        assert out.shape == (3,)


class TestWhereRowsDot:
    def test_where_selects(self, rng):
        cond = np.array([True, False, True])
        a, b = randt(rng, 3), randt(rng, 3)
        out = where(cond, a, b)
        np.testing.assert_allclose(out.data, np.where(cond, a.data, b.data))

    def test_where_gradient_flows_to_selected(self, rng):
        cond = np.array([True, False])
        a, b = randt(rng, 2), randt(rng, 2)
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_rows_dot(self, rng):
        a, b = randt(rng, 4, 3), randt(rng, 4, 3)
        out = rows_dot(a, b)
        np.testing.assert_allclose(out.data, np.einsum("ij,ij->i", a.data, b.data))
        check_gradients(lambda a, b: rows_dot(a, b).sum(), [a, b])


@settings(max_examples=25, deadline=None)
@given(
    n_values=st.integers(1, 20),
    n_segments=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_property_scatter_add_preserves_total(n_values, n_segments, seed):
    rng = np.random.default_rng(seed)
    vals = Tensor(rng.standard_normal((n_values, 2)))
    idx = rng.integers(0, n_segments, size=n_values)
    out = scatter_add(vals, idx, n_segments)
    np.testing.assert_allclose(out.data.sum(axis=0), vals.data.sum(axis=0), atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 2**16))
def test_property_segment_softmax_in_simplex(n, seed):
    rng = np.random.default_rng(seed)
    scores = Tensor(rng.standard_normal(n) * 5)
    seg = np.sort(rng.integers(0, 3, size=n))
    out = segment_softmax(scores, seg, 3).data
    assert np.all(out >= 0) and np.all(out <= 1 + 1e-9)
