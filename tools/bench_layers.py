"""Per-layer forward/backward times and the committee-inference chunk sweep.

Run from the repository root; the sources under src/ are used:

    python3 tools/bench_layers.py --label after

For wcrn, dccnn and hresnet (6 channels, 3 classes) it records the median time
of each layer's body as the graph walk runs it: `networks._layer_forward` in
infer mode at `experiment.PREDICT_CHUNK` rows and at 512 rows, and in train
mode at 32 rows, and `networks._layer_backward` at 32 rows. It then times
`experiment.predict_probabilities` for wcrn and hresnet committees of 5 members
on 3000 rows at each chunk size in CHUNKS, with the peak bytes numpy allocated
during one call, and checks that every chunk size gives the same bits. A chunk
is the number of rows in flight, shared by the inference threads (one per CPU
at one BLAS thread). Everything goes to BENCH_layers_<label>.json with the BLAS
and inference thread counts, CPU, numpy and BLAS versions. BLAS runs on one
thread, as in perfbench.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    # One BLAS thread, as perfbench runs; set before numpy loads.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from aedl import experiment, networks  # noqa: E402

CHANNELS, CLASSES = 6, 3
TRAIN_ROWS = 32
WIDE_ROWS = 512
LAYER_REPEATS = 7
CHUNKS = (32, 64, 128, 256, 512)
SWEEP_NETWORKS = ("wcrn", "hresnet")
SWEEP_MEMBERS, SWEEP_ROWS, SWEEP_REPEATS = 5, 3000, 3


def make_members(graph, rng, count):
    """The benchmark oracle's members: seeded init_params with non-default BN
    affine and running stats."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ROOT / "perfbench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle.make_members(networks, graph, rng, count)


def per_layer_seconds(body, walk, repeats):
    """Median seconds per layer of `networks.<body>` over `repeats` calls of walk().

    The body is replaced, for the timed calls only, by a wrapper that times each
    call; walk() runs once untimed first, so caches are warm.
    """
    walk()
    original = getattr(networks, body)
    samples = defaultdict(list)

    def timed(layer, *args):
        started = time.perf_counter()
        result = original(layer, *args)
        samples[layer.name].append(time.perf_counter() - started)
        return result

    setattr(networks, body, timed)
    try:
        for _ in range(repeats):
            walk()
    finally:
        setattr(networks, body, original)
    return {name: statistics.median(values) for name, values in samples.items()}


def layer_tables(graph, rng, infer_rows, train_rows=TRAIN_ROWS, repeats=LAYER_REPEATS):
    """Per-layer median seconds: infer-mode forward at each of infer_rows, and
    train-mode forward and backward at train_rows."""
    params = make_members(graph, rng, 1)[0]
    tables = {}
    for rows in sorted(set(infer_rows)):
        batch = rng.standard_normal((rows, *graph.input_shape))
        tables[f"forward_infer_{rows}"] = per_layer_seconds(
            "_layer_forward", lambda: networks._forward(graph, params, batch, "infer", None), repeats)
    batch = rng.standard_normal((train_rows, *graph.input_shape))
    labels = rng.integers(0, graph.class_count, size=train_rows)
    tables[f"forward_train_{train_rows}"] = per_layer_seconds(
        "_layer_forward",
        lambda: networks._forward(graph, params, batch, "train", np.random.default_rng(0)),
        repeats,
    )
    acts, caches, _ = networks._forward(graph, params, batch, "train", np.random.default_rng(0))
    tables[f"backward_{train_rows}"] = per_layer_seconds(
        "_layer_backward", lambda: networks._backward(graph, params, acts, caches, labels), repeats)
    return {name: {"total_s": sum(table.values()), "layers_s": table} for name, table in tables.items()}


def chunk_sweep(graph, members, patches, chunks=CHUNKS, repeats=SWEEP_REPEATS):
    """Median seconds and peak numpy allocation of predict_probabilities per chunk,
    and whether every chunk gives the same probabilities and member labels."""
    results, outputs = {}, []
    for chunk in chunks:
        tracemalloc.start()
        try:
            outputs.append(experiment.predict_probabilities(graph, members, patches, chunk=chunk))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            experiment.predict_probabilities(graph, members, patches, chunk=chunk)
            times.append(time.perf_counter() - started)
        results[str(chunk)] = {"median_s": statistics.median(times), "peak_alloc_mb": peak / 2**20}
    identical = all(
        np.array_equal(probs, outputs[0][0]) and np.array_equal(preds, outputs[0][1])
        for probs, preds in outputs
    )
    return {"chunks": results, "bit_identical": identical}


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "inference_threads": experiment._threads_per_seed(1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_layers_<label>.json")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    report = {
        "machine": machine(),
        "predict_chunk": experiment.PREDICT_CHUNK,
        "networks": {},
        "chunk_sweep": {},
    }
    for name, build in networks.BUILDERS.items():
        graph = build(CHANNELS, CLASSES)
        report["networks"][name] = layer_tables(graph, rng, (experiment.PREDICT_CHUNK, WIDE_ROWS))
        print(f"{name}: " + ", ".join(f"{table} {v['total_s'] * 1e3:.2f} ms"
                                      for table, v in report["networks"][name].items()))
    for name in SWEEP_NETWORKS:
        graph = networks.BUILDERS[name](CHANNELS, CLASSES)
        members = tuple(make_members(graph, rng, SWEEP_MEMBERS))
        patches = rng.standard_normal((SWEEP_ROWS, *graph.input_shape))
        sweep = chunk_sweep(graph, members, patches)
        report["chunk_sweep"][name] = sweep
        print(f"{name} sweep: " + ", ".join(f"{chunk} rows {v['median_s']:.3f} s {v['peak_alloc_mb']:.1f} MB"
                                            for chunk, v in sweep["chunks"].items())
              + f"; bit-identical {sweep['bit_identical']}")
    out = ROOT / f"BENCH_layers_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
