"""erpcoder: convolutional autoencoders and word-feature encoding models for ERP epochs.

The package is organized around the stages of the modeling pipeline:

- ``erpcoder.nn``: differentiable numeric kernels (1D conv, transposed conv,
  max pooling, dense, tanh, MSE) with an Adam optimizer and finite-difference
  gradient checking. Pure numpy, 64-bit floats throughout.
- ``erpcoder.data``: dataset and table I/O (ERP binary format, metadata TSV,
  embedding text files, token feature tables), artifact filtering, fold splits.
- ``erpcoder.features``: per-trial word-level feature matrices (frequency,
  surprisal, semantic distance, static and contextual embeddings) and
  train-fold standardization.
- ``erpcoder.autoencoder``: the two named convolutional autoencoder
  architectures, pre-training, and cross-validated architecture selection.
- ``erpcoder.encoding``: frozen-decoder encoding models driven by word
  features through a per-latent-channel interface map, with an embedding
  tuner when the sources include an embedding; weight-decay search and the
  model-comparison suite.
- ``erpcoder.metrics``: normalized variance explained, per-timepoint
  correlation-increase curves, bootstrap confidence intervals, per-word
  correlation tables.
- ``erpcoder.synth``: synthetic ERP generators with known ground truth and
  closed-form performance oracles.
- ``erpcoder.cli``: the ``erpcoder`` command-line entry point.
"""

__version__ = "0.1.0"

from .autoencoder import (AutoencoderParams, AutoencoderSpec, build_layer_plan,  # noqa: E402
                          decode, encode, load_autoencoder, pretrain, reconstruct,
                          save_autoencoder, select_architecture)
from .data import (EmbeddingTable, ErpDataset, FoldAssignment, TokenFeatureTable,  # noqa: E402
                   TrialMeta, filter_artifacts, kfold_split, load_erp, save_erp,
                   train_dev_split)
from .encoding import (EncodingModel, FrozenDecoder, freeze, load_encoding_model,  # noqa: E402
                       predict_erp, run_model_suite, save_encoding_model, standard_roster,
                       train, weight_decay_search)
from .features import (FeatureMatrix, FeatureSpec, apply_standardizer, assemble,  # noqa: E402
                       fit_standardizer)
from .metrics import (EvalReport, TimecourseSeries, WordLevelTable, bootstrap_ci,  # noqa: E402
                      content_function_summary, moving_average_smooth, r2_mod,
                      timepoint_correlation_increase, trial_correlations, word_level_table)
from .synth import GroundTruth, SynthConfig, calibrate_noise, generate, oracle_bounds  # noqa: E402

__all__ = [
    "AutoencoderParams", "AutoencoderSpec", "build_layer_plan", "decode", "encode",
    "load_autoencoder", "pretrain", "reconstruct", "save_autoencoder",
    "select_architecture",
    "EmbeddingTable", "ErpDataset", "FoldAssignment", "TokenFeatureTable",
    "TrialMeta", "filter_artifacts", "kfold_split", "load_erp", "save_erp",
    "train_dev_split",
    "EncodingModel", "FrozenDecoder", "freeze", "load_encoding_model", "predict_erp",
    "run_model_suite", "save_encoding_model", "standard_roster", "train",
    "weight_decay_search",
    "FeatureMatrix", "FeatureSpec", "apply_standardizer", "assemble",
    "fit_standardizer",
    "EvalReport", "TimecourseSeries", "WordLevelTable", "bootstrap_ci",
    "content_function_summary", "moving_average_smooth", "r2_mod",
    "timepoint_correlation_increase", "trial_correlations", "word_level_table",
    "GroundTruth", "SynthConfig", "calibrate_noise", "generate", "oracle_bounds",
]
