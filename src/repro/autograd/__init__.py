"""Numpy-backed reverse-mode autodiff — the training substrate that stands
in for PyTorch in this reproduction (see DESIGN.md §2).
"""

from . import functional  # noqa: F401
from .gradcheck import check_gradients, numerical_gradient  # noqa: F401
from .init import (  # noqa: F401
    kaiming_uniform,
    normal_init,
    xavier_normal,
    xavier_uniform,
    zeros_init,
)
from .layers import (  # noqa: F401
    MLP,
    Activation,
    Bilinear,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Sequential,
)
from .module import Module, ModuleDict, ModuleList  # noqa: F401
from .ops import (  # noqa: F401
    concat,
    embedding_lookup,
    gather,
    rows_dot,
    scatter_add,
    scatter_max_data,
    scatter_mean,
    segment_softmax,
    stack,
    where,
)
from .optim import SGD, Adam, Optimizer, clip_grad_norm  # noqa: F401
from .rnn import GRU, GRUCell, SequenceEncoder  # noqa: F401
from .serialization import load_state, save_state, state_allclose  # noqa: F401
from .tensor import (  # noqa: F401
    Tensor,
    is_grad_enabled,
    no_grad,
    ones,
    tensor,
    zeros,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "ModuleList",
    "ModuleDict",
    "Linear",
    "Embedding",
    "Sequential",
    "Activation",
    "Dropout",
    "MLP",
    "Bilinear",
    "LayerNorm",
    "GRU",
    "GRUCell",
    "SequenceEncoder",
    "Adam",
    "SGD",
    "Optimizer",
    "clip_grad_norm",
    "gather",
    "scatter_add",
    "scatter_mean",
    "scatter_max_data",
    "segment_softmax",
    "concat",
    "stack",
    "where",
    "rows_dot",
    "embedding_lookup",
    "xavier_uniform",
    "xavier_normal",
    "kaiming_uniform",
    "normal_init",
    "zeros_init",
    "save_state",
    "load_state",
    "state_allclose",
    "check_gradients",
    "numerical_gradient",
]
