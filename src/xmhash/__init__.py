"""Direction-specific cross-modal hashing.

Learns separate hash functions for image-to-text and text-to-image
retrieval by alternating mini-batch encoder updates, exact discrete code
updates, and closed-form ridge updates of a label projection, then ranks
with bit-packed Hamming distances.
"""

from .data import (
    MultiModalDataset, PairwiseSimilarity, SplitSpec,
    load_dataset, load_split, make_split, save_dataset, save_split, synth,
)
from .errors import ContractError, LoadError, NumericalError
from .evaluation import EvalReport, emit_csv, evaluate
from .gradcheck import run_suite
from .hamming import (
    CodeMatrix, RetrievalIndex, encode_database, encode_queries,
    pack_signs, read_codes, unpack_codes, write_codes,
)
from .mlp import Layer, MlpEncoder, backward, forward, glorot_mlp, sgd_step
from .objective import (
    HyperParams, ObjectiveState, image_feature_grad, objective_value,
    pairwise_nll, text_feature_grad,
)
from .training import (
    TaskModel, TrainConfig, load_model, save_model, train_task,
    update_codes, update_projection,
)

__version__ = "0.1.0"
