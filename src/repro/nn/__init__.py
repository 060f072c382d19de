"""From-scratch neural network substrate (pyBrain substitute).

This subpackage provides the MLP used as the functional model of the NPU
accelerator: topology parsing (Table 1 notation), forward evaluation,
RProp training and feature scaling.
"""

from repro.nn.activations import (
    Activation,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
    get_activation,
)
from repro.nn.mlp import MLP, Topology
from repro.nn.scaler import MinMaxScaler, StandardScaler
from repro.nn.trainer import RPropTrainer, TrainingResult

__all__ = [
    "Activation",
    "Sigmoid",
    "Tanh",
    "ReLU",
    "Linear",
    "get_activation",
    "MLP",
    "Topology",
    "MinMaxScaler",
    "StandardScaler",
    "RPropTrainer",
    "TrainingResult",
]
