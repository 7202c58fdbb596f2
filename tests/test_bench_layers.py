"""Smoke test of the per-layer timing harness on a tiny graph."""

import importlib.util
from pathlib import Path

import numpy as np

from aedl.networks import LayerSpec, NetworkGraph

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_graph():
    layers = (
        LayerSpec("c1", "conv", ("input",), "1", out_channels=3, kernel=(3, 3), padding="same"),
        LayerSpec("bn", "bn", ("c1",), "2"),
        LayerSpec("r", "relu", ("bn",), "2"),
        LayerSpec("pool", "maxpool", ("r",), "3", window=(4, 4)),
        LayerSpec("flat", "flatten", ("pool",), "4"),
        LayerSpec("fc", "dense", ("flat",), "4", out_channels=2),
        LayerSpec("prob", "softmax", ("fc",), "4"),
    )
    return NetworkGraph("tiny", layers, (4, 4, 2), 2)


def test_layer_tables_time_every_layer():
    tool = _tool()
    graph = _tiny_graph()
    tables = tool.layer_tables(graph, np.random.default_rng(0), infer_rows=(3, 5), train_rows=4,
                               repeats=2)
    names = [layer.name for layer in graph.layers]
    assert sorted(tables) == ["backward_4", "forward_infer_3", "forward_infer_5", "forward_train_4"]
    for table in ("forward_infer_3", "forward_infer_5", "forward_train_4"):
        assert list(tables[table]["layers_s"]) == names
    # The walk back starts below the fused softmax/cross-entropy gradient.
    assert list(tables["backward_4"]["layers_s"]) == names[-2::-1]
    for table in tables.values():
        assert all(t >= 0.0 for t in table["layers_s"].values())
        assert table["total_s"] == sum(table["layers_s"].values())


def test_per_layer_seconds_restores_the_body():
    tool = _tool()
    original = tool.networks._layer_forward
    graph = _tiny_graph()
    params = tool.make_members(graph, np.random.default_rng(1), 1)[0]
    batch = np.zeros((2, 4, 4, 2))
    tool.per_layer_seconds("_layer_forward",
                           lambda: tool.networks._forward(graph, params, batch, "infer", None), 1)
    assert tool.networks._layer_forward is original


def test_chunk_sweep_and_machine_record():
    tool = _tool()
    graph = _tiny_graph()
    rng = np.random.default_rng(2)
    members = tuple(tool.make_members(graph, rng, 2))
    patches = rng.standard_normal((7, 4, 4, 2))
    sweep = tool.chunk_sweep(graph, members, patches, chunks=(1, 3, 7), repeats=1)
    assert sweep["bit_identical"] is True
    assert sorted(sweep["chunks"]) == ["1", "3", "7"]
    for entry in sweep["chunks"].values():
        assert entry["median_s"] > 0.0 and entry["peak_alloc_mb"] > 0.0
    assert {"cpu", "cpu_count", "blas_threads", "inference_threads", "numpy", "blas"} <= set(
        tool.machine())
