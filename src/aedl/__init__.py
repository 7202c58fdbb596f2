"""Active ensemble deep learning for patch classification.

Small convolutional networks trained from scratch on labeled patches, with
near-convergence parameter snapshots acting as a committee that both scores
unlabeled candidates for active learning and votes on test predictions.

Submodules are imported lazily so the CLI can configure threading before
numpy loads; ``from aedl import build_wcrn`` works as usual.
"""

_EXPORTS = {
    # ops
    "LayerGradients": "ops",
    "ShapeError": "ops",
    # optim
    "AdamState": "optim",
    "adam_step": "optim",
    "init_adam": "optim",
    # networks
    "FormatError": "networks",
    "NetworkGraph": "networks",
    "ParameterSet": "networks",
    "build_dccnn": "networks",
    "build_hresnet": "networks",
    "build_wcrn": "networks",
    "forward_batch": "networks",
    "init_params": "networks",
    "load_params": "networks",
    "parameter_count": "networks",
    "save_params": "networks",
    "trace_shapes": "networks",
    "train_step": "networks",
    # data
    "ChannelStats": "data",
    "PatchDataset": "data",
    "Split": "data",
    "SyntheticSpec": "data",
    "augment_mirror": "data",
    "generate_synthetic": "data",
    "load_dataset": "data",
    "move_to_labeled": "data",
    "normalize_channels": "data",
    "save_dataset": "data",
    "seed_split": "data",
    # selection
    "AgreementHistogram": "selection",
    "ProbabilityMatrix": "selection",
    "SelectionResult": "selection",
    "STRATEGIES": "selection",
    "agreement_histogram": "selection",
    "score_bt_margin": "selection",
    "score_entropy": "selection",
    "select": "selection",
    # experiment
    "ConfigError": "experiment",
    "CurvePoints": "experiment",
    "ExperimentConfig": "experiment",
    "LearningCurve": "experiment",
    "MonteCarloResult": "experiment",
    "export_results": "experiment",
    "overall_accuracy": "experiment",
    "predict_probabilities": "experiment",
    "run_monte_carlo": "experiment",
    "run_single": "experiment",
    "samples_to_target": "experiment",
    "sensitivity_sweep": "experiment",
}

__version__ = "0.1.0"
__all__ = sorted(_EXPORTS)

# The BLAS thread caps: `aedl.cli` sets them from AEDL_THREADS, and
# `run_monte_carlo` sizes its worker pool by them.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'aedl' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
