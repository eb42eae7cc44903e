"""Structural differentiable operations: indexing, concatenation, and the
gather/scatter primitives that implement message passing on graphs.

All functions return :class:`~repro.autograd.tensor.Tensor` objects wired
into the autodiff tape.  ``gather`` and ``scatter_add`` are the backbone of
every GNN layer in :mod:`repro.gnn`: a message-passing step is
``gather(h, src) -> transform -> scatter_add(msg, dst, n_nodes)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, _as_array


def _index_array(index) -> np.ndarray:
    idx = index.data if isinstance(index, Tensor) else np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"index must be integer, got {idx.dtype}")
    return idx


def gather(source: Tensor, index) -> Tensor:
    """Select rows ``source[index]`` along axis 0 (differentiable w.r.t. source)."""
    idx = _index_array(index)
    out_data = source.data[idx]

    def backward(grad: np.ndarray) -> None:
        if source.requires_grad:
            # One row of grad per index, in the index's C order, as np.add.at
            # would visit them.
            rows = grad.reshape((idx.size,) + source.data.shape[1:])
            source._accumulate(_segment_sum(rows, idx.reshape(-1), len(source.data)))

    return Tensor._make(out_data, (source,), backward)


def _segment_sum(values: np.ndarray, idx: np.ndarray, num_segments: int) -> np.ndarray:
    """``np.add.at`` of ``values`` rows onto zeros, bit for bit.

    Float rows go through one CSR product whose rows list their inputs in
    index order, so every bucket is summed in the same order as
    ``np.add.at``, without its per-row dispatch: the two sums of a
    GraphSAGE forward over the MDX KB (191,046 bidirected edges) take
    0.13 s instead of 0.83 s on a 2-vCPU host.  Other dtypes and
    out-of-range indices keep ``np.add.at``.
    """
    out_shape = (num_segments,) + values.shape[1:]
    if (
        idx.ndim != 1
        or idx.dtype.kind != "i"
        or values.shape[:1] != idx.shape
        or values.size == 0
        or values.dtype.char not in "fd"
        or idx.min() < 0
        or idx.max() >= num_segments
    ):
        out = np.zeros(out_shape, dtype=values.dtype)
        np.add.at(out, idx, values)
        return out
    # Imported on first use, so importing the package does not load scipy.
    from scipy.sparse import csr_matrix

    n = len(idx)
    indptr = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=num_segments), out=indptr[1:])
    rows = csr_matrix(
        (np.ones(n, dtype=values.dtype), np.argsort(idx, kind="stable"), indptr),
        shape=(num_segments, n),
    )
    return (rows @ values.reshape(n, -1)).reshape(out_shape)


def scatter_add(values: Tensor, index, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets given by ``index``.

    The inverse of :func:`gather`; rows of the output with no incoming index
    are zero.  This is the aggregation half of message passing.
    """
    idx = _index_array(index)
    out_data = _segment_sum(values.data, idx, num_segments)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[idx])

    return Tensor._make(out_data, (values,), backward)


def scatter_mean(values: Tensor, index, num_segments: int) -> Tensor:
    """Mean-pool ``values`` rows per segment; empty segments stay zero."""
    idx = _index_array(index)
    counts = np.bincount(idx, minlength=num_segments).astype(values.data.dtype)
    counts = np.maximum(counts, 1.0)
    summed = scatter_add(values, idx, num_segments)
    denom = counts.reshape((num_segments,) + (1,) * (values.data.ndim - 1))
    return summed / Tensor(denom)


def scatter_max_data(values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
    """Non-differentiable per-segment max (used as a constant shift in
    segment softmax).  Empty segments get 0."""
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=values.dtype)
    np.maximum.at(out, index, values)
    out[~np.isfinite(out)] = 0.0
    return out


def segment_softmax(scores: Tensor, index, num_segments: int) -> Tensor:
    """Softmax over variable-sized segments (attention over neighbours).

    ``scores`` has shape ``[n_edges, ...]``; entries sharing the same
    ``index`` value form one softmax group.  Used by MAGNN's intra-metapath
    attention and by the GAT extension.
    """
    idx = _index_array(index)
    # Constant max-shift for numerical stability (no gradient through it).
    shift = scatter_max_data(scores.data, idx, num_segments)[idx]
    exp = (scores - Tensor(shift)).exp()
    denom = scatter_add(exp, idx, num_segments)
    denom = denom + Tensor(np.full((), 1e-12, dtype=exp.data.dtype))
    return exp / gather(denom, idx)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable w.r.t. each input)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(_as_array(t)) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(_as_array(t)) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.moveaxis(grad, axis, 0)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(out_data, tensors, backward)


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; gradient flows to the selected branch only."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a = a if isinstance(a, Tensor) else Tensor(_as_array(a))
    b = b if isinstance(b, Tensor) else Tensor(_as_array(b))
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        from .tensor import _unbroadcast

        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~cond if cond.dtype == bool else 1 - cond), b.shape))

    return Tensor._make(out_data, (a, b), backward)


def rows_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot product of two ``[n, d]`` tensors -> ``[n]``.

    The matching-module "dot product" scorer of ED-GNN (Section 2.2).
    """
    out_data = np.einsum("ij,ij->i", a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        g = grad[:, None]
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return Tensor._make(out_data, (a, b), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Alias of :func:`gather` with embedding-table semantics."""
    return gather(table, ids)
