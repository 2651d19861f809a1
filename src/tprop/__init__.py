"""Training recurrent networks with target propagation through regularized
linearized inverses, next to a plain backpropagation-through-time baseline.

The public surface mirrors how the pieces are used: build params with
`init_params` or `init_gru_params`, run `forward`/`gru_forward`, get update
directions from `bptt` (negated) or `tp_direction`, or hand everything to
`trainer.train` via an `ExperimentConfig`.
"""

from .activations import ACTIVATIONS, get_activation
from .gru import GruParams, gru_bptt, gru_forward, gru_tp_backward, init_gru_params
from .linalg import SingularSystem, factorization_count, orthogonal_init, ridge_pinv
from .rnn import MSE, SOFTMAX_CE, ForwardCache, RnnParams, bptt, forward, init_params, loss
from .targetprop import TpHyper, backward_targets, tp_direction
from .trainer import ExperimentConfig, MetricsLog, TrainResult, grid_search, train

__version__ = "0.1.0"

__all__ = [
    "ACTIVATIONS",
    "ExperimentConfig",
    "ForwardCache",
    "GruParams",
    "MSE",
    "MetricsLog",
    "RnnParams",
    "SOFTMAX_CE",
    "SingularSystem",
    "TpHyper",
    "TrainResult",
    "backward_targets",
    "bptt",
    "factorization_count",
    "forward",
    "get_activation",
    "grid_search",
    "gru_bptt",
    "gru_forward",
    "gru_tp_backward",
    "init_gru_params",
    "init_params",
    "loss",
    "orthogonal_init",
    "ridge_pinv",
    "tp_direction",
    "train",
    "__version__",
]
