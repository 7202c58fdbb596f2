"""The three patch-classification networks: builders, execution, serialization.

A NetworkGraph is an ordered, topologically sorted list of primitive layer
descriptors with named producer->consumer edges, so branch/merge topologies
(parallel conv branches, concatenations, residual adds) are explicit. Graphs
and ParameterSets are immutable values; training returns fresh ParameterSets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import ops
from .ops import LayerGradients, ShapeError
from .optim import AdamState, adam_step


@dataclass(frozen=True)
class LayerSpec:
    """One primitive layer: kind, producers, and kind-specific geometry."""

    name: str
    kind: str
    inputs: tuple[str, ...]
    row: str
    out_channels: int | None = None
    kernel: tuple[int, int] | None = None
    padding: str = "valid"
    window: tuple[int, int] | None = None
    rate: float = 0.0


# Parameter entries carried by each layer kind, in entry order.
PARAM_PARTS = {
    "conv": ("weights", "bias"),
    "dense": ("weights", "bias"),
    "bn": ("gamma", "beta", "run_mean", "run_var"),
}


@dataclass(frozen=True)
class NetworkGraph:
    """Ordered layer list plus input geometry; validated on construction.

    Construction runs each layer once on one all-zero row, through the ops the
    forward pass uses, and stores every layer's output shape (batch axis
    omitted) and every parameter entry's shape. The ops' own checks are the
    shape rules. It also records which layers need an input gradient: those fed
    by an activation with a parameterized layer at or above it. Convs outside
    that set, such as those fed by the patches alone, skip it in the backward
    pass. And it records the last consumer of each activation, after which an
    inference pass drops it.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]
    class_count: int
    output_shapes: MappingProxyType = field(init=False, repr=False, compare=False)
    param_shapes: MappingProxyType = field(init=False, repr=False, compare=False)
    input_grad_layers: frozenset = field(init=False, repr=False, compare=False)
    last_consumer: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.layers[-1].kind != "softmax":
            raise ValueError(f"terminal layer {self.layers[-1].name!r} must be softmax")
        fc = self.layers[-2]
        if fc.kind != "dense" or fc.out_channels != self.class_count:
            raise ValueError("softmax must be fed by a dense layer of class_count width")
        acts: dict[str, np.ndarray] = {"input": np.zeros((1, *self.input_shape))}
        params: dict[str, tuple[int, ...]] = {}
        graded: set[str] = set()  # activations whose gradient some parameter needs
        for layer in self.layers:
            if layer.name in acts:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            for src in layer.inputs:
                if src not in acts:
                    raise ValueError(f"layer {layer.name!r} consumes unknown input {src!r}")
            if layer.kind in PARAM_PARTS or graded.intersection(layer.inputs):
                graded.add(layer.name)
            # Weights are (*kernel, c_in, c_out); bias and BN vectors have one entry per
            # output channel, and BN keeps its input width.
            c_in = acts[layer.inputs[0]].shape[-1]
            c_out = layer.out_channels or c_in
            p: dict[str, np.ndarray] = {}
            for part in PARAM_PARTS.get(layer.kind, ()):
                shape = (*(layer.kernel or ()), c_in, c_out) if part == "weights" else (c_out,)
                params[f"{layer.name}.{part}"] = shape
                p[part] = np.zeros(shape)
            try:
                _layer_forward(layer, acts, p, "infer", None, {}, {})
            except ShapeError as exc:
                raise ShapeError(f"{layer.name}: {exc}") from None
        shapes = {name: act.shape[1:] for name, act in acts.items()}
        object.__setattr__(self, "output_shapes", MappingProxyType(shapes))
        object.__setattr__(self, "param_shapes", MappingProxyType(params))
        needed = frozenset(layer.name for layer in self.layers if graded.intersection(layer.inputs))
        object.__setattr__(self, "input_grad_layers", needed)
        last = {src: layer.name for layer in self.layers for src in layer.inputs}
        object.__setattr__(self, "last_consumer", MappingProxyType(last))


@dataclass
class ParameterSet:
    """Named parameter tensors for one network state (one snapshot)."""

    entries: dict[str, np.ndarray]
    epoch_tag: int = 0

    def copy(self) -> "ParameterSet":
        return ParameterSet({k: v.copy() for k, v in self.entries.items()}, self.epoch_tag)


def trace_shapes(graph: NetworkGraph) -> dict[str, tuple[int, ...]]:
    """Output shape per row tag (the last primitive layer of each row)."""
    trace: dict[str, tuple[int, ...]] = {}
    for layer in graph.layers:
        trace[layer.row] = graph.output_shapes[layer.name]
    return trace


# ---------------------------------------------------------------------------
# Builders


def build_wcrn(input_channels: int, class_count: int) -> NetworkGraph:
    """Wide contextual residual network on 5x5 patches.

    Two parallel conv branches (1x1 and 3x3, 64 maps each) are max-pooled to
    1x1, concatenated to 128 channels, refined by two BN+ReLU+Conv 1x1x128
    stages, and merged back through a residual add before the classifier head.
    """
    layers = (
        LayerSpec("conv1a", "conv", ("input",), "1a", out_channels=64, kernel=(1, 1)),
        LayerSpec("conv1b", "conv", ("input",), "1b", out_channels=64, kernel=(3, 3)),
        LayerSpec("pool2a", "maxpool", ("conv1a",), "2a", window=(5, 5)),
        LayerSpec("pool2b", "maxpool", ("conv1b",), "2b", window=(3, 3)),
        LayerSpec("cat3", "concat", ("pool2a", "pool2b"), "3"),
        LayerSpec("bn4", "bn", ("cat3",), "4"),
        LayerSpec("relu4", "relu", ("bn4",), "4"),
        LayerSpec("conv4", "conv", ("relu4",), "4", out_channels=128, kernel=(1, 1)),
        LayerSpec("bn5", "bn", ("conv4",), "5"),
        LayerSpec("relu5", "relu", ("bn5",), "5"),
        LayerSpec("conv5", "conv", ("relu5",), "5", out_channels=128, kernel=(1, 1)),
        LayerSpec("add6", "add", ("cat3", "conv5"), "6"),
        LayerSpec("flat7", "flatten", ("add6",), "7"),
        LayerSpec("fc7", "dense", ("flat7",), "7", out_channels=class_count),
        LayerSpec("prob7", "softmax", ("fc7",), "7"),
    )
    return NetworkGraph("wcrn", layers, (5, 5, input_channels), class_count)


def build_dccnn(input_channels: int, class_count: int) -> NetworkGraph:
    """Deep contextual CNN on 5x5 patches.

    Three parallel convs (1x1, 3x3, 5x5; 128 maps each) pool/concatenate to
    1x1x384, followed by a 1x1x128 residual stack with two adds and two
    dropout(0.5) stages before the classifier head.
    """
    layers = (
        LayerSpec("conv1a", "conv", ("input",), "1a", out_channels=128, kernel=(1, 1)),
        LayerSpec("conv1b", "conv", ("input",), "1b", out_channels=128, kernel=(3, 3)),
        LayerSpec("conv1c", "conv", ("input",), "1c", out_channels=128, kernel=(5, 5)),
        LayerSpec("pool2a", "maxpool", ("conv1a",), "2a", window=(5, 5)),
        LayerSpec("pool2b", "maxpool", ("conv1b",), "2b", window=(3, 3)),
        LayerSpec("cat3", "concat", ("pool2a", "pool2b", "conv1c"), "3"),
        LayerSpec("relu4", "relu", ("cat3",), "4"),
        LayerSpec("bn4", "bn", ("relu4",), "4"),
        LayerSpec("conv4", "conv", ("bn4",), "4", out_channels=128, kernel=(1, 1)),
        LayerSpec("relu5", "relu", ("conv4",), "5"),
        LayerSpec("bn5", "bn", ("relu5",), "5"),
        LayerSpec("conv5", "conv", ("bn5",), "5", out_channels=128, kernel=(1, 1)),
        LayerSpec("relu6", "relu", ("conv5",), "6"),
        LayerSpec("conv6", "conv", ("relu6",), "6", out_channels=128, kernel=(1, 1)),
        LayerSpec("add7", "add", ("conv4", "conv6"), "7"),
        LayerSpec("relu8", "relu", ("add7",), "8"),
        LayerSpec("conv8", "conv", ("relu8",), "8", out_channels=128, kernel=(1, 1)),
        LayerSpec("relu9", "relu", ("conv8",), "9"),
        LayerSpec("conv9", "conv", ("relu9",), "9", out_channels=128, kernel=(1, 1)),
        LayerSpec("add10", "add", ("add7", "conv9"), "10"),
        LayerSpec("relu11a", "relu", ("add10",), "11"),
        LayerSpec("conv11", "conv", ("relu11a",), "11", out_channels=128, kernel=(1, 1)),
        LayerSpec("relu11b", "relu", ("conv11",), "11"),
        LayerSpec("drop11", "dropout", ("relu11b",), "11", rate=0.5),
        LayerSpec("conv12a", "conv", ("drop11",), "12", out_channels=128, kernel=(1, 1)),
        LayerSpec("relu12", "relu", ("conv12a",), "12"),
        LayerSpec("drop12", "dropout", ("relu12",), "12", rate=0.5),
        LayerSpec("conv12b", "conv", ("drop12",), "12", out_channels=128, kernel=(1, 1)),
        LayerSpec("flat13", "flatten", ("conv12b",), "13"),
        LayerSpec("fc13", "dense", ("flat13",), "13", out_channels=class_count),
        LayerSpec("prob13", "softmax", ("fc13",), "13"),
    )
    return NetworkGraph("dccnn", layers, (5, 5, input_channels), class_count)


def build_hresnet(input_channels: int, class_count: int) -> NetworkGraph:
    """Residual 3x3 network on 7x7 patches with a global-average-pooled head."""
    layers = (
        LayerSpec("conv1", "conv", ("input",), "1", out_channels=64, kernel=(3, 3), padding="same"),
        LayerSpec("bn2", "bn", ("conv1",), "2"),
        LayerSpec("relu2", "relu", ("bn2",), "2"),
        LayerSpec("conv2", "conv", ("relu2",), "2", out_channels=64, kernel=(3, 3), padding="same"),
        LayerSpec("relu3", "relu", ("conv2",), "3"),
        LayerSpec("conv3", "conv", ("relu3",), "3", out_channels=64, kernel=(3, 3), padding="same"),
        LayerSpec("add4", "add", ("conv1", "conv3"), "4"),
        LayerSpec("gap5", "gap", ("add4",), "5"),
        LayerSpec("fc6", "dense", ("gap5",), "6", out_channels=class_count),
        LayerSpec("prob6", "softmax", ("fc6",), "6"),
    )
    return NetworkGraph("hresnet", layers, (7, 7, input_channels), class_count)


BUILDERS = {"wcrn": build_wcrn, "dccnn": build_dccnn, "hresnet": build_hresnet}


# ---------------------------------------------------------------------------
# Parameters


def expected_param_shapes(graph: NetworkGraph) -> dict[str, tuple[int, ...]]:
    """Every entry name a ParameterSet for this graph must carry, with shapes."""
    return dict(graph.param_shapes)


def trainable_names(graph: NetworkGraph) -> list[str]:
    """Entries updated by the optimizer (running stats are state, not trainable)."""
    return [
        name
        for name in graph.param_shapes
        if not name.endswith((".run_mean", ".run_var"))
    ]


def init_params(graph: NetworkGraph, rng: np.random.Generator) -> ParameterSet:
    """Fan-in-scaled uniform weights, zero biases, identity batch-norm."""
    entries: dict[str, np.ndarray] = {}
    for name, shape in graph.param_shapes.items():
        if name.endswith(".weights"):
            fan_in = int(np.prod(shape[:-1]))
            bound = 1.0 / np.sqrt(fan_in)
            entries[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith((".bias", ".beta", ".run_mean")):
            entries[name] = np.zeros(shape)
        else:  # gamma, run_var
            entries[name] = np.ones(shape)
    return ParameterSet(entries)


def check_params(graph: NetworkGraph, params: ParameterSet) -> None:
    """Raise ShapeError unless the entries match the graph's parameter shapes exactly."""
    expected = graph.param_shapes
    for name, shape in expected.items():
        arr = params.entries.get(name)
        if arr is None:
            raise ShapeError(f"parameter set is missing entry {name!r}")
        if arr.shape != shape:
            raise ShapeError(f"entry {name!r} has shape {arr.shape}, expected {shape}")
    for name in params.entries:
        if name not in expected:
            raise ShapeError(f"parameter set has unexpected entry {name!r}")


def parameter_count(graph: NetworkGraph) -> int:
    return sum(int(np.prod(graph.param_shapes[n])) for n in trainable_names(graph))


# ---------------------------------------------------------------------------
# Execution


def _layer_params(params: ParameterSet, layer: LayerSpec) -> dict[str, np.ndarray]:
    return {part: params.entries[f"{layer.name}.{part}"] for part in PARAM_PARTS.get(layer.kind, ())}


def _layer_forward(layer, acts, p, mode, rng, caches, stats_updates):
    """Run one layer on acts[layer.inputs], storing its output in acts[layer.name]."""
    name, kind = layer.name, layer.kind
    x = acts[layer.inputs[0]]
    if kind == "conv":
        out = ops.conv2d_forward(x, p["weights"], p["bias"], layer.padding)
    elif kind == "bn":
        out, (mean, var), cache = ops.batchnorm_forward(
            x, p["gamma"], p["beta"], p["run_mean"], p["run_var"], mode
        )
        if mode == "train":
            stats_updates.update({f"{name}.run_mean": mean, f"{name}.run_var": var})
            caches[name] = cache
    elif kind == "relu":
        out = ops.relu(x)
    elif kind == "maxpool":
        out = ops.maxpool2d(x, layer.window)
    elif kind == "gap":
        out = ops.global_avg_pool(x)
    elif kind == "concat":
        out = ops.concatenate([acts[i] for i in layer.inputs])
    elif kind == "add":
        out = ops.residual_add(x, acts[layer.inputs[1]])
    elif kind == "dropout":
        if mode == "train":
            if rng is None:
                raise ValueError("train-mode forward through dropout requires an rng")
            out, caches[name] = ops.dropout_forward(x, layer.rate, rng)
        else:
            out = x
    elif kind == "flatten":
        out = x.reshape(x.shape[0], -1)
    elif kind == "dense":
        out = ops.dense(x, p["weights"], p["bias"])
    elif kind == "softmax":
        out = ops.softmax(x)
    else:
        raise ValueError(f"layer {name!r} has unknown kind {kind!r}")
    acts[name] = out


def _layer_backward(layer, acts, p, cache, g, input_grad):
    """Back-propagate g through one layer: (parameter grads, one grad per layer.inputs).

    A conv with input_grad False returns its parameter grads and no input grads.
    """
    kind = layer.kind
    x = acts[layer.inputs[0]]
    if kind == "conv":
        if not input_grad:
            return ops.conv2d_param_grads(x, p["weights"], g, layer.padding), ()
        grad = ops.conv2d_backward(x, p["weights"], g, layer.padding)
    elif kind == "bn":
        grad = ops.batchnorm_backward(p["gamma"], cache, g)
    elif kind == "dense":
        grad = ops.dense_backward(x, p["weights"], g)
    elif kind == "relu":
        grad = ops.relu_backward(x, g)
    elif kind == "maxpool":
        grad = ops.maxpool2d_backward(x, layer.window, g)
    elif kind == "gap":
        grad = ops.global_avg_pool_backward(x, g)
    elif kind == "concat":
        return {}, ops.concatenate_backward(g, [acts[i].shape[-1] for i in layer.inputs])
    elif kind == "add":
        return {}, (g, g)
    elif kind == "dropout":
        grad = ops.dropout_backward(cache, layer.rate, g)
    else:  # flatten
        grad = g.reshape(x.shape)
    if isinstance(grad, LayerGradients):
        return grad.parameter_grads, (grad.input_grad,)
    return {}, (grad,)


def _forward(graph, params, batch, mode, rng):
    acts: dict[str, np.ndarray] = {"input": batch}
    caches: dict[str, object] = {}
    stats_updates: dict[str, np.ndarray] = {}
    for layer in graph.layers:
        _layer_forward(layer, acts, _layer_params(params, layer), mode, rng, caches, stats_updates)
    return acts, caches, stats_updates


def _backward(graph, params, acts, caches, labels):
    softmax = graph.layers[-1]
    # The softmax gradient is fused with the mean cross-entropy loss.
    grad_acts = {softmax.inputs[0]: ops.mean_loss_logit_grad(acts[softmax.name], labels)}
    param_grads: dict[str, np.ndarray] = {}
    for layer in reversed(graph.layers[:-1]):
        g = grad_acts.pop(layer.name, None)
        if g is None:
            continue  # not on the loss path
        p = _layer_params(params, layer)
        grads, input_grads = _layer_backward(layer, acts, p, caches.get(layer.name), g,
                                             layer.name in graph.input_grad_layers)
        param_grads.update({f"{layer.name}.{part}": value for part, value in grads.items()})
        # An activation feeding several layers gets the sum of their gradients.
        for src, part in zip(layer.inputs, input_grads):
            grad_acts[src] = grad_acts[src] + part if src in grad_acts else part
    return param_grads


def _checked_batch(graph: NetworkGraph, params: ParameterSet, batch) -> np.ndarray:
    """Check params against the graph; return the patches as float64 (N, *input_shape)."""
    check_params(graph, params)
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 4 or batch.shape[1:] != graph.input_shape:
        raise ShapeError(f"batch shape {batch.shape} does not match input {('N', *graph.input_shape)}")
    if len(batch) == 0:
        raise ShapeError(f"empty batch of shape {batch.shape}: N must be at least 1")
    return batch


def forward_batch(graph: NetworkGraph, params: ParameterSet, batch: np.ndarray) -> np.ndarray:
    """Run the network in infer mode on (N, H, W, C) patches; returns row-stochastic (N, K).

    Unlike the training pass, it keeps an activation only until its last
    consumer has run.
    """
    batch = _checked_batch(graph, params, batch)
    acts = {"input": batch}
    for layer in graph.layers:
        _layer_forward(layer, acts, _layer_params(params, layer), "infer", None, {}, {})
        for src in set(layer.inputs):
            if graph.last_consumer[src] == layer.name:
                del acts[src]
    return acts[graph.layers[-1].name]


def train_step(
    graph: NetworkGraph,
    params: ParameterSet,
    batch: np.ndarray,
    labels: np.ndarray,
    adam_state: AdamState,
    rng: np.random.Generator | None = None,
) -> tuple[ParameterSet, AdamState, float]:
    """One forward/backward/Adam update over a batch; returns mean cross entropy.

    Raises FloatingPointError, before any update, when the loss is not finite.
    """
    batch = _checked_batch(graph, params, batch)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (len(batch),):
        raise ValueError(f"labels of shape {labels.shape} do not match a batch of {len(batch)}")
    if labels.min() < 0 or labels.max() >= graph.class_count:
        raise ValueError(f"labels must lie in [0, {graph.class_count})")
    acts, caches, stats_updates = _forward(graph, params, batch, "train", rng)
    loss = float(np.mean(ops.cross_entropy(acts[graph.layers[-1].name], labels)))
    if not np.isfinite(loss):
        raise FloatingPointError(f"training loss is {loss} on a batch of {len(batch)}")
    param_grads = _backward(graph, params, acts, caches, labels)
    trainable = {n: params.entries[n] for n in trainable_names(graph)}
    updated, new_state = adam_step(trainable, param_grads, adam_state)
    entries = {**params.entries, **updated, **stats_updates}
    return ParameterSet(entries, params.epoch_tag), new_state, loss


# ---------------------------------------------------------------------------
# Snapshot serialization

PARAMS_MAGIC = b"AEDL"
PARAMS_VERSION = 1
_EPOCH_TAG_ENTRY = "__epoch_tag__"


class FormatError(ValueError):
    """Malformed parameter or dataset file."""


def params_to_bytes(params: ParameterSet) -> bytes:
    """Encode: magic, version u16, count u32, then per entry
    name-length u16 + UTF-8 name, rank u8, dims u32 each, little-endian f64 data.
    The epoch tag rides along as a reserved rank-0 entry."""
    chunks = [PARAMS_MAGIC, struct.pack("<HI", PARAMS_VERSION, len(params.entries) + 1)]
    items = list(params.entries.items())
    items.append((_EPOCH_TAG_ENTRY, np.float64(params.epoch_tag)))
    for name, arr in items:
        encoded = name.encode("utf-8")
        arr = np.asarray(arr, dtype=np.float64)
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


def params_from_bytes(blob: bytes) -> ParameterSet:
    view = memoryview(blob)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise FormatError(f"truncated at byte {pos}: expected {n} bytes for {what}")
        out = view[pos : pos + n]
        pos += n
        return out

    if bytes(take(4, "magic")) != PARAMS_MAGIC:
        raise FormatError("bad magic; not a parameter file")
    version, count = struct.unpack("<HI", take(6, "header"))
    if version != PARAMS_VERSION:
        raise FormatError(f"unsupported format version {version}")
    entries: dict[str, np.ndarray] = {}
    epoch_tag = 0
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = bytes(take(name_len, "name")).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        size = int(np.prod(dims)) if rank else 1
        data = np.frombuffer(take(8 * size, f"data of {name!r}"), dtype="<f8")
        if name == _EPOCH_TAG_ENTRY:
            epoch_tag = int(data[0])
        else:
            entries[name] = data.reshape(dims).astype(np.float64)
    if pos != len(view):
        raise FormatError(f"{len(view) - pos} trailing bytes after entry {count}")
    return ParameterSet(entries, epoch_tag)


def save_params(params: ParameterSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_params(path) -> ParameterSet:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
