"""Patch datasets: file format, synthetic generation, mirroring, pool splits.

Datasets are immutable snapshots; split changes return a new value, so
concurrent reads are always safe. Patches live in memory as float64 but the
on-disk format stores float32, and the synthetic generator quantizes to
float32 on creation so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .networks import FormatError

DATASET_MAGIC = b"PSAR"
DATASET_VERSION = 1


@dataclass(frozen=True)
class Split:
    """Disjoint labeled / candidate / test index pools over one dataset."""

    labeled: np.ndarray
    candidate: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class PatchDataset:
    """Labelled (N, H, W, C) patches with an optional pool split."""

    patches: np.ndarray
    labels: np.ndarray
    class_count: int
    split: Split | None = None

    def __post_init__(self):
        if self.patches.ndim != 4:
            raise ValueError(f"patches must be (N, H, W, C), got ndim={self.patches.ndim}")
        if len(self.labels) != len(self.patches):
            raise ValueError(
                f"{len(self.labels)} labels for {len(self.patches)} patches"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError(f"labels must lie in [0, {self.class_count})")
        finite = np.isfinite(self.patches)
        if not finite.all():
            bad = int(np.argmin(finite.all(axis=(1, 2, 3))))
            raise ValueError(f"instance {bad} holds a non-finite patch value")
        if self.split is not None:
            pools = [self.split.labeled, self.split.candidate, self.split.test]
            joined = np.concatenate(pools)
            if len(np.unique(joined)) != len(joined):
                raise ValueError("labeled/candidate/test pools overlap")
            if len(joined) and (joined.min() < 0 or joined.max() >= len(self.patches)):
                raise ValueError("split indices out of range")

    def __len__(self) -> int:
        return len(self.patches)


# ---------------------------------------------------------------------------
# File format


def save_dataset(dataset: PatchDataset, path) -> None:
    """Write magic, version u16, N u32, H/W/C/K u16, f32 patches, u16 labels."""
    n, h, w, c = dataset.patches.shape
    if dataset.class_count > 0xFFFF:
        raise ValueError("class_count exceeds u16 range")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<HIHHHH", DATASET_VERSION, n, h, w, c, dataset.class_count))
        fh.write(dataset.patches.astype("<f4").tobytes())
        fh.write(dataset.labels.astype("<u2").tobytes())


def load_dataset(path) -> PatchDataset:
    """Read and validate the dataset format; split starts empty."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != DATASET_MAGIC:
        raise FormatError("bad magic; not a patch dataset file")
    header_end = 4 + struct.calcsize("<HIHHHH")
    if len(blob) < header_end:
        raise FormatError(f"truncated header: {len(blob)} bytes")
    version, n, h, w, c, k = struct.unpack("<HIHHHH", blob[4:header_end])
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported format version {version}")
    patch_bytes = n * h * w * c * 4
    expected = header_end + patch_bytes + n * 2
    if len(blob) != expected:
        raise FormatError(
            f"payload is {len(blob)} bytes, expected {expected} for N={n} {h}x{w}x{c}"
        )
    patches = (
        np.frombuffer(blob, dtype="<f4", count=n * h * w * c, offset=header_end)
        .reshape(n, h, w, c)
        .astype(np.float64)
    )
    labels = np.frombuffer(blob, dtype="<u2", count=n, offset=header_end + patch_bytes).astype(
        np.int64
    )
    bad = np.nonzero(labels >= k)[0]
    if len(bad):
        raise FormatError(f"label {labels[bad[0]]} >= class_count {k} at instance {bad[0]}")
    return PatchDataset(patches, labels, class_count=k)


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible speckled multi-channel patch dataset.

    Each class is a smooth Gaussian texture around its per-class channel mean,
    degraded by mean-one multiplicative speckle, which mimics the statistics of
    single-look radar intensity data well enough for desk-scale experiments.
    """

    class_count: int
    patch_size: int = 5
    channels: int = 6
    instances_per_class: int = 200
    covariance_scale: float = 1.0
    speckle_intensity: float = 0.3
    class_separation: float = 2.0
    seed: int = 0
    class_means: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.covariance_scale < 0:
            raise ValueError("covariance_scale must be >= 0")
        if self.speckle_intensity < 0:
            raise ValueError("speckle_intensity must be >= 0")
        if self.class_means is not None and len(self.class_means) != self.class_count:
            raise ValueError(
                f"{len(self.class_means)} class means for {self.class_count} classes"
            )


def _class_means(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.class_means is not None:
        means = np.asarray(spec.class_means, dtype=np.float64)
        if means.shape != (spec.class_count, spec.channels):
            raise ValueError(
                f"class_means shape {means.shape} != "
                f"{(spec.class_count, spec.channels)}"
            )
        return means
    directions = rng.standard_normal((spec.class_count, spec.channels))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return spec.class_separation * directions


def _box3(a: np.ndarray, axis: int) -> np.ndarray:
    """Mean over 3 neighbours along `axis`, the edges mirrored (d c b a | a b c d).

    A running sum in the order of scipy's `uniform_filter1d(size=3,
    mode="reflect")`, so the bits match it; a direct `(a + b + c) / 3` does not.
    """
    a = np.moveaxis(a, axis, 0)
    ext = np.concatenate([a[:1], a, a[-1:]])
    out = np.empty_like(a)
    total = (ext[0] + ext[1]) + ext[2]
    out[0] = total / 3
    for i in range(1, len(a)):
        total += ext[i + 2] - ext[i - 1]
        out[i] = total / 3
    return np.moveaxis(out, 0, axis)


def generate_synthetic(spec: SyntheticSpec) -> PatchDataset:
    """Seeded dataset of class-blocked patches; same spec -> bit-identical data."""
    rng = np.random.default_rng(spec.seed)
    means = _class_means(spec, rng)
    size, c, n_per = spec.patch_size, spec.channels, spec.instances_per_class
    patches = np.empty((spec.class_count * n_per, size, size, c), dtype=np.float32)
    for k in range(spec.class_count):
        white = rng.standard_normal((n_per, size, size, c))
        field = _box3(_box3(white, 1), 2)
        field *= spec.covariance_scale
        field += means[k]
        if spec.speckle_intensity > 0:
            s = spec.speckle_intensity
            z = rng.standard_normal((n_per, size, size, 1))
            field *= np.exp(s * z - 0.5 * s * s)
        patches[k * n_per : (k + 1) * n_per] = field
    labels = np.repeat(np.arange(spec.class_count, dtype=np.int64), n_per)
    return PatchDataset(patches.astype(np.float64), labels, class_count=spec.class_count)


# ---------------------------------------------------------------------------
# Augmentation


def augment_mirror(patches: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadruple square patches: original, horizontal and vertical mirrors,
    main-diagonal transpose; labels replicated in the same block order."""
    patches = np.asarray(patches)
    if patches.shape[1] != patches.shape[2]:
        raise ValueError(
            f"diagonal mirror needs square patches, got {patches.shape[1]}x{patches.shape[2]}"
        )
    out = np.concatenate(
        [
            patches,
            patches[:, :, ::-1, :],
            patches[:, ::-1, :, :],
            patches.swapaxes(1, 2),
        ]
    )
    return out, np.tile(np.asarray(labels), 4)


# ---------------------------------------------------------------------------
# Pool management


def seed_split(
    dataset: PatchDataset,
    per_class: int,
    candidate_size: int,
    test_size: int,
    seed: int,
) -> PatchDataset:
    """Stratified labeled seed plus uniformly drawn candidate and test pools."""
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    k = dataset.class_count
    need = per_class * k + candidate_size + test_size
    if need > len(dataset):
        raise ValueError(f"split needs {need} instances but dataset has {len(dataset)}")
    rng = np.random.default_rng(seed)
    labeled_parts = []
    for cls in range(k):
        members = np.nonzero(dataset.labels == cls)[0]
        if len(members) < per_class:
            raise ValueError(f"class {cls} has {len(members)} instances, need {per_class}")
        labeled_parts.append(rng.choice(members, size=per_class, replace=False))
    labeled = np.sort(np.concatenate(labeled_parts))
    remainder = np.setdiff1d(np.arange(len(dataset)), labeled)
    drawn = rng.permutation(remainder)
    candidate = np.sort(drawn[:candidate_size])
    test = np.sort(drawn[candidate_size : candidate_size + test_size])
    return replace(dataset, split=Split(labeled, candidate, test))


def move_to_labeled(dataset: PatchDataset, indices) -> PatchDataset:
    """Promote candidate indices into the labeled pool; |L| + |U| is conserved."""
    if dataset.split is None:
        raise ValueError("dataset has no split")
    indices = np.asarray(indices, dtype=np.int64)
    if len(np.unique(indices)) != len(indices):
        raise ValueError("duplicate indices in move request")
    outside = np.setdiff1d(indices, dataset.split.candidate)
    if len(outside):
        raise ValueError(f"index {outside[0]} is not in the candidate pool")
    new_split = Split(
        labeled=np.sort(np.concatenate([dataset.split.labeled, indices])),
        candidate=np.setdiff1d(dataset.split.candidate, indices),
        test=dataset.split.test,
    )
    return replace(dataset, split=new_split)


# ---------------------------------------------------------------------------
# Normalization


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean and (clamped) standard deviation used to normalize."""

    mean: np.ndarray
    std: np.ndarray


def normalize_channels(dataset: PatchDataset) -> tuple[PatchDataset, ChannelStats]:
    """Zero-mean/unit-variance per channel, fitted on labeled+candidate pools only.

    The test pool never contributes to the statistics. A zero-variance channel
    is centered and its divisor clamped to 1.
    """
    if len(dataset) == 0:
        raise ValueError("cannot normalize an empty dataset")
    if dataset.split is not None:
        pool = np.concatenate([dataset.split.labeled, dataset.split.candidate])
        source = dataset.patches[pool]
    else:
        source = dataset.patches
    mean = source.mean(axis=(0, 1, 2))
    std = source.std(axis=(0, 1, 2))
    std = np.where(std < 1e-12, 1.0, std)
    stats = ChannelStats(mean, std)
    normalized = (dataset.patches - stats.mean) / stats.std
    return replace(dataset, patches=normalized), stats
