"""Matching modules (Section 2.2): the scorer that turns a (query node,
KB node) embedding pair into a matching logit.

The paper lists three options — "a multi-layer perceptron with one hidden
layer, a log-bilinear model, or simply a dot product" — and trains with
the dot product inside Eq. 5.  All three are provided; the trainer
defaults to the dot product and the ablation bench sweeps the others.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..autograd import (  # noqa: F401
    MLP,
    Activation,
    Bilinear,
    Linear,
    Module,
    Tensor,
    concat,
    rows_dot,
)


class Matcher(Module):
    """Common interface of the three matching modules.

    ``forward`` is the trainable row-aligned pair scorer that training
    and the explainer use (``EDGNN.score_pairs``).  ``one_vs_many`` is the
    closed form of each matcher for one query embedding against ``[n, d]``
    candidate embeddings, in plain numpy matrix algebra instead of tiling
    the query row ``n`` times; inference ranks through it
    (``EDGNN.score_one_vs_many``).
    """

    def one_vs_many(self, h_query_row: np.ndarray, h_candidates: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DotProductMatcher(Matcher):
    """``score(u, v) = s * (h_u . h_v) + b`` — the paper's dot-product
    scorer with a learnable affine calibration.

    With L2-normalised embeddings a raw dot product is confined to
    [-1, 1], which caps the sigmoid at ~0.73 and starves Eq. 5 of
    gradient; the scalar scale/bias (2 parameters) restores calibration
    without changing the geometry the paper describes.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.scale = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)

    def forward(self, h_query: Tensor, h_candidate: Tensor) -> Tensor:
        return rows_dot(h_query, h_candidate) * self.scale + self.bias

    def one_vs_many(self, h_query_row: np.ndarray, h_candidates: np.ndarray) -> np.ndarray:
        return h_candidates @ h_query_row * self.scale.data[0] + self.bias.data[0]


class MLPMatcher(Matcher):
    """One-hidden-layer MLP over concatenated pair embeddings."""

    def __init__(self, dim: int, rng: np.random.Generator, hidden: int = 0):
        super().__init__()
        self.dim = dim
        self.mlp = MLP(2 * dim, [hidden or dim], 1, rng)

    def forward(self, h_query: Tensor, h_candidate: Tensor) -> Tensor:
        return self.mlp(concat([h_query, h_candidate], axis=1)).reshape(-1)

    def one_vs_many(self, h_query_row: np.ndarray, h_candidates: np.ndarray) -> np.ndarray:
        # The first Linear sees concat([q, c]); split its weight so the
        # query half is computed once instead of per candidate.
        first, *rest = list(self.mlp.net.layers)
        w, b = first.weight.data, first.bias.data
        hidden = h_query_row @ w[:, : self.dim].T + h_candidates @ w[:, self.dim :].T + b
        for layer in rest:
            if isinstance(layer, Activation):
                hidden = np.maximum(hidden, 0.0)
            elif isinstance(layer, Linear):
                hidden = hidden @ layer.weight.data.T
                if layer.bias is not None:
                    hidden = hidden + layer.bias.data
            # Dropout layers are identity in eval mode.
        return hidden.reshape(-1)


class BilinearMatcher(Matcher):
    """Log-bilinear pair scorer ``h_u^T W h_v + b``."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.bilinear = Bilinear(dim, dim, rng)

    def forward(self, h_query: Tensor, h_candidate: Tensor) -> Tensor:
        return self.bilinear(h_query, h_candidate)

    def one_vs_many(self, h_query_row: np.ndarray, h_candidates: np.ndarray) -> np.ndarray:
        projected = h_query_row @ self.bilinear.weight.data
        return h_candidates @ projected + self.bilinear.bias.data[0]


_MATCHERS: Dict[str, Callable[..., Module]] = {
    "dot": lambda dim, rng: DotProductMatcher(dim),
    "mlp": lambda dim, rng: MLPMatcher(dim, rng),
    "bilinear": lambda dim, rng: BilinearMatcher(dim, rng),
}


def make_matcher(name: str, dim: int, rng: np.random.Generator) -> Module:
    """Factory over the three matching modules of Section 2.2."""
    try:
        factory = _MATCHERS[name]
    except KeyError:
        raise ValueError(f"unknown matcher {name!r}; options: {sorted(_MATCHERS)}") from None
    return factory(dim, rng)
