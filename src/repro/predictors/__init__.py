"""Light-weight error predictors (paper Sec. 3.2) and baseline schemes.

``linearErrors`` and ``treeErrors`` are the paper's input-based EEP
checkers; ``EMA`` is the output-based checker; ``Ideal``/``Random``/
``Uniform`` are the comparison schemes of Sec. 5.  ``linearValues`` (EVP)
exists for the Sec. 3.2 ablation.
"""

from repro.predictors.base import ErrorPredictor
from repro.predictors.ema import EMAPredictor
from repro.predictors.linear import LinearErrorPredictor, LinearValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.sampling import (
    RandomPredictor,
    UniformPredictor,
    radical_inverse,
)
from repro.predictors.training import (
    SCHEME_NAMES,
    PredictorTrainingData,
    collect_training_data,
    make_predictor,
    train_predictor,
)
from repro.predictors.tree import DecisionTreeErrorPredictor, TreeNode

__all__ = [
    "ErrorPredictor",
    "LinearErrorPredictor",
    "LinearValuePredictor",
    "DecisionTreeErrorPredictor",
    "TreeNode",
    "EMAPredictor",
    "OraclePredictor",
    "RandomPredictor",
    "UniformPredictor",
    "radical_inverse",
    "SCHEME_NAMES",
    "PredictorTrainingData",
    "collect_training_data",
    "train_predictor",
    "make_predictor",
]
