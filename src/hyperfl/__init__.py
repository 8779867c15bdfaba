"""Desk-scale federated learning with hypernetwork parameter sharing.

Library layout:

- ``autodiff``    reverse-mode tape; only ``network.loss_and_grad_params`` uses it
- ``network``     dense feature extractor + classifier, losses, optimizers
- ``hypernet``    client hypernetworks that generate extractor weights
- ``datakit``     synthetic data, IDX files, non-IID partitioning
- ``fedsim``      federated protocols (local / fedavg / dp_fedavg / hyperfl / pfedhn)
- ``attack``      gradient-inversion harness and analytic baselines
- ``metrics``     psnr / accuracy / convergence summaries
- ``checkpoint``  byte-exact tensor container
- ``config``      schema-validated experiment configs
- ``cli``         train / attack / partition / report entry points
"""

__version__ = "0.1.0"

from .attack import (
    AttackConfig,
    Transcript,
    TranscriptView,
    analytic_hyperfl_recovery,
    analytic_input_recovery,
    attack_transcript,
    hyperfl_bilevel_attack,
    ig_attack,
    recover_embedding,
    score_reconstruction,
    total_variation,
)
from .checkpoint import read_checkpoint, write_checkpoint
from .config import ExperimentConfig, build_bundle, build_dataset, build_shards, load_config
from .datakit import (
    Dataset,
    PartitionSpec,
    consecutive_groups,
    load_idx,
    partition,
    pattern_dataset,
    synth_dataset,
    train_test_split,
)
from .errors import (
    CapabilityError,
    CapacityError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    FormatError,
    HyperflError,
    NumericError,
    PrivacyError,
)
from .fedsim import (
    DPConfig,
    ModelBundle,
    RoundConfig,
    aggregate,
    dp_sanitize,
    init_experiment,
    run_experiment,
    run_round,
    sample_clients,
)
from .hypernet import HypernetSpec, hypernet_forward, init_hypernet
from .metrics import RoundRecord, convergence_stats, psnr
from .network import NetSpec, OptimConfig, dense_net, init_params

__all__ = [
    "AttackConfig",
    "CapabilityError",
    "CapacityError",
    "ConfigError",
    "ConsistencyError",
    "DPConfig",
    "Dataset",
    "DimensionError",
    "ExperimentConfig",
    "FormatError",
    "HyperflError",
    "HypernetSpec",
    "ModelBundle",
    "NetSpec",
    "NumericError",
    "OptimConfig",
    "PartitionSpec",
    "PrivacyError",
    "RoundConfig",
    "RoundRecord",
    "Transcript",
    "TranscriptView",
    "aggregate",
    "analytic_hyperfl_recovery",
    "analytic_input_recovery",
    "attack_transcript",
    "build_bundle",
    "build_dataset",
    "build_shards",
    "consecutive_groups",
    "convergence_stats",
    "dense_net",
    "dp_sanitize",
    "hyperfl_bilevel_attack",
    "hypernet_forward",
    "ig_attack",
    "init_experiment",
    "init_hypernet",
    "init_params",
    "load_config",
    "load_idx",
    "partition",
    "pattern_dataset",
    "psnr",
    "read_checkpoint",
    "recover_embedding",
    "run_experiment",
    "run_round",
    "sample_clients",
    "score_reconstruction",
    "synth_dataset",
    "total_variation",
    "train_test_split",
    "write_checkpoint",
]
