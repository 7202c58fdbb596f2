"""Key-value config files for the CLI.

The format is flat ``key = value`` lines; ``#`` starts a comment and blank
lines are ignored. Experiment files mirror ExperimentConfig field names, with
synthetic dataset fields carried under a ``synthetic.`` prefix. Unknown keys
are rejected with their line number.
"""

from __future__ import annotations

from pathlib import Path

from .data import SyntheticSpec
from .experiment import ConfigError, ExperimentConfig


def parse_kv_file(path) -> dict[str, tuple[str, int]]:
    """-> {key: (raw value, line number)}."""
    entries: dict[str, tuple[str, int]] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (value.strip(), lineno)
    return entries


def _int(raw: str, key: str, lineno: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be an integer, got {raw!r}") from None


def _float(raw: str, key: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be a number, got {raw!r}") from None


def _int_list(raw: str, key: str, lineno: int) -> tuple[int, ...]:
    return tuple(_int(part.strip(), key, lineno) for part in raw.split(",") if part.strip())


def _class_means(raw: str, key: str, lineno: int):
    # Rows separated by ';', channel values by ','.
    rows = []
    for row in raw.split(";"):
        rows.append(tuple(_float(v.strip(), key, lineno) for v in row.split(",")))
    return tuple(rows)


_SYNTHETIC_FIELDS = {
    "class_count": _int,
    "patch_size": _int,
    "channels": _int,
    "instances_per_class": _int,
    "covariance_scale": _float,
    "speckle_intensity": _float,
    "class_separation": _float,
    "seed": _int,
    "class_means": _class_means,
}

_EXPERIMENT_FIELDS = {
    "network": lambda raw, key, lineno: raw,
    "strategy": lambda raw, key, lineno: raw,
    "dataset": lambda raw, key, lineno: raw,
    "per_class_seed": _int,
    "batch_per_round": _int,
    "round_count": _int,
    "candidate_size": _int,
    "test_size": _int,
    "initial_epochs": _int,
    "finetune_epochs": _int,
    "snapshot_interval_epochs": _int,
    "committee_size": _int,
    "monte_carlo_runs": _int,
    "seed": _int,
    "seeds": _int_list,
    "learning_rate": _float,
    "train_batch_size": _int,
    "output_dir": lambda raw, key, lineno: raw,
}


def _build_synthetic(values: dict) -> SyntheticSpec | None:
    if not values:
        return None
    if "class_count" not in values:
        raise ConfigError("synthetic dataset needs synthetic.class_count")
    try:
        return SyntheticSpec(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synthetic spec: {exc}") from None


def synthetic_spec_from_file(path) -> SyntheticSpec:
    """Read a synthetic dataset recipe (bare field names, no prefix)."""
    values = {}
    for key, (raw, lineno) in parse_kv_file(path).items():
        converter = _SYNTHETIC_FIELDS.get(key)
        if converter is None:
            raise ConfigError(f"{path}:{lineno}: unknown synthetic field {key!r}")
        values[key] = converter(raw, key, lineno)
    spec = _build_synthetic(values)
    if spec is None:
        raise ConfigError(f"{path}: empty synthetic spec")
    return spec


def experiment_config_from_file(path) -> ExperimentConfig:
    """Read an experiment config; validates field names, types, and invariants."""
    plain: dict = {}
    synthetic_values: dict = {}
    for key, (raw, lineno) in parse_kv_file(path).items():
        if key.startswith("synthetic."):
            field = key.removeprefix("synthetic.")
            converter = _SYNTHETIC_FIELDS.get(field)
            if converter is None:
                raise ConfigError(f"{path}:{lineno}: unknown synthetic field {field!r}")
            synthetic_values[field] = converter(raw, key, lineno)
        else:
            converter = _EXPERIMENT_FIELDS.get(key)
            if converter is None:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            plain[key] = converter(raw, key, lineno)
    if "dataset" in plain:
        plain["dataset_path"] = plain.pop("dataset")
    config = ExperimentConfig(synthetic=_build_synthetic(synthetic_values), **plain)
    config.validate()
    return config
