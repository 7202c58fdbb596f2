"""Spans recorded from outside the library.

A Tracer replaces a public function at the name its caller looks it up
(`aedl.experiment.train_step`, `aedl.networks.adam_step`, `aedl.ops.conv2d_forward`)
with a wrapper that records one span per call: name, start, end, the index of
the enclosing span, and an optional work count taken from the arguments.
Spans stay in memory; `layer_metrics` folds them into per-layer numbers.
"""

from __future__ import annotations

import time
from collections import defaultdict

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "work")


def _conv_forward_flop(args, result):
    p, q, m, _ = args[1].shape
    return 2 * result.size * p * q * m  # 2·N·Ho·Wo·K·P·Q·M


def _conv_backward_flop(args, result):
    p, q, m, _ = args[1].shape
    return 4 * args[2].size * p * q * m  # weight and input gradients, each as costly as the forward


def _rows(args, result):
    return len(args[2])


def _member_rows(args, result):
    return len(args[2]) * len(args[1])


# (module, attribute where the caller looks it up, span name, work count)
TRACE_POINTS = [
    ("experiment", "run_monte_carlo", "experiment.run_monte_carlo", None),
    ("experiment", "run_single", "experiment.run_single", None),
    ("experiment", "predict_probabilities", "experiment.predict_probabilities", _member_rows),
    ("experiment", "export_results", "experiment.export_results", None),
    ("experiment", "generate_synthetic", "data.generate_synthetic", None),
    ("experiment", "load_dataset", "data.load_dataset", None),
    ("experiment", "seed_split", "data.seed_split", None),
    ("experiment", "normalize_channels", "data.normalize_channels", None),
    ("experiment", "augment_mirror", "data.augment_mirror", None),
    ("experiment", "move_to_labeled", "data.move_to_labeled", None),
    ("experiment", "init_params", "networks.init_params", None),
    ("experiment", "trainable_names", "networks.trainable_names", None),
    ("experiment", "train_step", "networks.train_step", _rows),
    ("experiment", "forward_batch", "networks.forward_batch", _rows),
    ("experiment", "init_adam", "optim.init_adam", None),
    ("experiment", "select", "selection.select", None),
    ("experiment", "agreement_histogram", "selection.agreement_histogram", None),
    ("networks", "check_params", "networks.check_params", None),
    ("networks", "expected_param_shapes", "networks.expected_param_shapes", None),
    ("networks", "trainable_names", "networks.trainable_names", None),
    ("networks", "adam_step", "optim.adam_step", None),
] + [
    ("ops", fn, f"ops.{fn}", work)
    for fn, work in [
        ("conv2d_forward", _conv_forward_flop),
        ("conv2d_backward", _conv_backward_flop),
        ("batchnorm_forward", None),
        ("batchnorm_backward", None),
        ("relu", None),
        ("relu_backward", None),
        ("maxpool2d", None),
        ("maxpool2d_backward", None),
        ("global_avg_pool", None),
        ("global_avg_pool_backward", None),
        ("dense", None),
        ("dense_backward", None),
        ("concatenate", None),
        ("concatenate_backward", None),
        ("residual_add", None),
        ("dropout_forward", None),
        ("dropout_backward", None),
        ("softmax", None),
        ("cross_entropy", None),
        ("mean_loss_logit_grad", None),
    ]
]


class Tracer:
    """Installs span-recording wrappers on enter and restores the originals on exit."""

    def __init__(self, modules):
        self.modules = modules  # {"experiment": aedl.experiment, ...}
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, original, name, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, 0)
            if work is not None:
                spans[index] = (name, start, end, parent, work(args, result))
            return result

        return traced

    def __enter__(self):
        self.spans.clear()
        for module_name, attr, name, work in TRACE_POINTS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def layer_metrics(spans) -> dict[str, float]:
    """Calls, total seconds and work per span name, plus self seconds per layer.

    A span's self time is its duration minus the durations of its direct
    children; a layer's `self_s` sums that over the layer's spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    seconds = defaultdict(float)
    work = defaultdict(int)
    self_s = defaultdict(float)
    for index, (name, start, end, parent, amount) in enumerate(spans):
        calls[name] += 1
        seconds[name] += end - start
        work[name] += amount
        self_s[name.split(".")[0]] += end - start - child_time[index]

    def rate(amount, name):
        return amount / seconds[name] if seconds[name] > 0 else 0.0

    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = seconds[name]
    metrics["experiment.predict_probabilities.member_rows"] = work["experiment.predict_probabilities"]
    metrics["networks.train_step.samples_per_s"] = rate(work["networks.train_step"], "networks.train_step")
    metrics["networks.forward_batch.rows_per_s"] = rate(work["networks.forward_batch"], "networks.forward_batch")
    for fn in ("conv2d_forward", "conv2d_backward"):
        flop = work[f"ops.{fn}"]
        metrics[f"ops.{fn}.gflop"] = flop / 1e9
        metrics[f"ops.{fn}.gflops"] = rate(flop / 1e9, f"ops.{fn}")
    return metrics
