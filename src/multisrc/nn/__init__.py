from . import tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .layers import LSTM, AdditiveAttention, Affine, BiLSTM, Embedding, ParamSet
from .optim import Optimizer, TrainerConfig, fit
from .tensor import Parameter, Tensor

__all__ = [
    "tensor",
    "Tensor",
    "Parameter",
    "ParamSet",
    "Embedding",
    "Affine",
    "LSTM",
    "BiLSTM",
    "AdditiveAttention",
    "Optimizer",
    "TrainerConfig",
    "fit",
    "save_checkpoint",
    "load_checkpoint",
]
