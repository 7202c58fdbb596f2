"""Key-value config files for the CLI.

The format is flat ``key = value`` lines; ``#`` starts a comment and blank
lines are ignored. The keys are field names of ExperimentConfig and
SyntheticSpec (see _EXPERIMENT_KEYS). Unknown keys and values of the wrong
type are rejected with their ``path:line``.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from .data import SyntheticSpec
from .experiment import ConfigError, ExperimentConfig


def parse_kv_file(path) -> dict[str, tuple[str, str]]:
    """-> {key: (raw value, "path:line")}."""
    entries: dict[str, tuple[str, str]] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{path}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in entries:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        entries[key] = (value.strip(), where)
    return entries


def _scalar(parse, noun: str):
    def convert(raw: str, key: str, where: str):
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be {noun}, got {raw!r}") from None
    return convert


_int = _scalar(int, "an integer")
_float = _scalar(float, "a number")
_str = _scalar(str, "text")


def _int_list(raw: str, key: str, where: str) -> tuple[int, ...]:
    return tuple(_int(part.strip(), key, where) for part in raw.split(",") if part.strip())


def _class_means(raw: str, key: str, where: str):
    # Rows separated by ';', channel values by ','.
    return tuple(
        tuple(_float(v.strip(), key, where) for v in row.split(",")) for row in raw.split(";")
    )


# One converter per field annotation. The annotations are postponed, so
# dataclasses.fields reports them as the strings written in the source.
_CONVERTERS = {
    "int": _int,
    "float": _float,
    "str": _str,
    "str | None": _str,
    "tuple[int, ...] | None": _int_list,
    "tuple[tuple[float, ...], ...] | None": _class_means,
}

# Config keys are the dataclass field names, with two exceptions:
# ExperimentConfig.dataset_path is read from the key "dataset", and
# ExperimentConfig.synthetic is a prefix on SyntheticSpec's names.
_SYNTHETIC_PREFIX = "synthetic."
_SYNTHETIC_KEYS = {f.name: (f.name, _CONVERTERS[f.type]) for f in fields(SyntheticSpec)}
_EXPERIMENT_KEYS = {
    {"dataset_path": "dataset"}.get(f.name, f.name): (f.name, _CONVERTERS[f.type])
    for f in fields(ExperimentConfig)
    if f.name != "synthetic"
}


def _read_fields(entries: dict, table: dict, kind: str, prefix: str = "") -> dict:
    """Convert parse_kv_file entries into {field name: value} through a key table."""
    values = {}
    for key, (raw, where) in entries.items():
        name = key.removeprefix(prefix)
        if name not in table:
            raise ConfigError(f"{where}: unknown {kind} {name!r}")
        field, convert = table[name]
        values[field] = convert(raw, key, where)
    return values


def _build_synthetic(values: dict, path) -> SyntheticSpec:
    try:
        return SyntheticSpec(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid synthetic spec: {exc}") from None


def synthetic_spec_from_file(path) -> SyntheticSpec:
    """Read a synthetic dataset recipe (bare field names, no prefix)."""
    return _build_synthetic(_read_fields(parse_kv_file(path), _SYNTHETIC_KEYS, "synthetic field"), path)


def experiment_config_from_file(path) -> ExperimentConfig:
    """Read an experiment config; validates field names, types, and invariants."""
    entries = parse_kv_file(path)
    prefixed = {key: entry for key, entry in entries.items() if key.startswith(_SYNTHETIC_PREFIX)}
    plain = {key: entry for key, entry in entries.items() if key not in prefixed}
    synthetic = _read_fields(prefixed, _SYNTHETIC_KEYS, "synthetic field", _SYNTHETIC_PREFIX)
    config = ExperimentConfig(
        synthetic=_build_synthetic(synthetic, path) if synthetic else None,
        **_read_fields(plain, _EXPERIMENT_KEYS, "config key"),
    )
    config.validate()
    return config
