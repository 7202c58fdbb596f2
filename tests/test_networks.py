"""Architecture builders, execution, training, and snapshot serialization."""

import numpy as np
import pytest

from aedl import networks
from aedl.networks import (
    FormatError,
    LayerSpec,
    NetworkGraph,
    ParameterSet,
    build_dccnn,
    build_hresnet,
    build_wcrn,
    forward_batch,
    init_params,
    load_params,
    parameter_count,
    params_from_bytes,
    params_to_bytes,
    save_params,
    trace_shapes,
    train_step,
    trainable_names,
)
from aedl.ops import ShapeError
from aedl.optim import init_adam

from tables import (
    dccnn_expected,
    dccnn_param_tally,
    hresnet_expected,
    hresnet_param_tally,
    wcrn_expected,
    wcrn_param_tally,
)


@pytest.mark.parametrize("c,k", [(6, 11), (9, 16)])
class TestShapeTraces:
    def test_wcrn(self, c, k):
        assert trace_shapes(build_wcrn(c, k)) == wcrn_expected(c, k)

    def test_dccnn(self, c, k):
        assert trace_shapes(build_dccnn(c, k)) == dccnn_expected(c, k)

    def test_hresnet(self, c, k):
        assert trace_shapes(build_hresnet(c, k)) == hresnet_expected(c, k)


def _graph(*body):
    """A small graph: the given layers, then a flatten/dense/softmax head."""
    head = (
        LayerSpec("flat", "flatten", (body[-1].name,), "h"),
        LayerSpec("fc", "dense", ("flat",), "h", out_channels=3),
        LayerSpec("prob", "softmax", ("fc",), "h"),
    )
    return NetworkGraph("toy", (*body, *head), (5, 5, 2), 3)


class TestGraphConstructionErrors:
    """Each malformed graph is rejected when built, naming the offending layer.

    The wording of the messages is not part of the contract.
    """

    def test_valid_kernel_larger_than_input(self):
        with pytest.raises(ShapeError, match="wide"):
            _graph(
                LayerSpec("c1", "conv", ("input",), "1", out_channels=4, kernel=(3, 3)),
                LayerSpec("wide", "conv", ("c1",), "2", out_channels=4, kernel=(5, 5)),
            )

    def test_pool_window_that_does_not_tile(self):
        with pytest.raises(ShapeError, match="tiler"):
            _graph(LayerSpec("tiler", "maxpool", ("input",), "1", window=(2, 2)))

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError, match="joiner"):
            _graph(
                LayerSpec("c1", "conv", ("input",), "1", out_channels=4, kernel=(3, 3)),
                LayerSpec("joiner", "concat", ("input", "c1"), "2"),
            )

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError, match="merger"):
            _graph(
                LayerSpec("c1", "conv", ("input",), "1", out_channels=2, kernel=(3, 3)),
                LayerSpec("merger", "add", ("input", "c1"), "2"),
            )

    def test_duplicate_layer_name(self):
        with pytest.raises(ValueError, match="twin"):
            _graph(
                LayerSpec("twin", "relu", ("input",), "1"),
                LayerSpec("twin", "relu", ("input",), "2"),
            )

    def test_unknown_input(self):
        with pytest.raises(ValueError, match="orphan"):
            _graph(LayerSpec("orphan", "relu", ("nowhere",), "1"))

    def test_unknown_layer_kind(self):
        with pytest.raises(ValueError, match="'odd' has unknown kind 'warp'"):
            _graph(LayerSpec("odd", "warp", ("input",), "1"))

    def test_terminal_layer_not_softmax(self):
        layers = (
            LayerSpec("flat", "flatten", ("input",), "1"),
            LayerSpec("fc", "dense", ("flat",), "1", out_channels=3),
        )
        with pytest.raises(ValueError, match="'fc' must be softmax"):
            NetworkGraph("toy", layers, (5, 5, 2), 3)


@pytest.mark.parametrize("build,fed_by_patches", [
    (build_wcrn, {"conv1a", "conv1b"}),
    (build_dccnn, {"conv1a", "conv1b", "conv1c"}),
    (build_hresnet, {"conv1"}),
])
def test_only_layers_fed_by_the_patches_skip_the_input_gradient(build, fed_by_patches):
    graph = build(6, 3)
    assert {layer.name for layer in graph.layers} - graph.input_grad_layers == fed_by_patches


def test_layers_below_parameter_free_layers_skip_the_input_gradient():
    graph = _graph(
        LayerSpec("r", "relu", ("input",), "1"),
        LayerSpec("c", "conv", ("r",), "2", out_channels=2, kernel=(1, 1)),
        LayerSpec("d", "conv", ("c",), "3", out_channels=2, kernel=(1, 1)),
    )
    assert {"r", "c"}.isdisjoint(graph.input_grad_layers)
    assert {"d", "flat", "fc", "prob"} <= graph.input_grad_layers


def test_last_consumer_of_each_activation():
    wcrn = build_wcrn(6, 3).last_consumer
    assert wcrn["pool2a"] == wcrn["pool2b"] == "cat3"
    assert wcrn["cat3"] == "add6"  # the residual branch keeps cat3 alive past conv5
    hresnet = build_hresnet(6, 3).last_consumer
    assert hresnet["conv1"] == hresnet["conv3"] == "add4"
    assert hresnet["input"] == "conv1"
    assert "prob6" not in hresnet  # the output has no consumer


def test_forward_batch_drops_activations_after_their_last_consumer(monkeypatch):
    graph = build_hresnet(2, 3)
    params = init_params(graph, np.random.default_rng(0))
    live = {}
    original = networks._layer_forward

    def spy(layer, acts, *args):
        live[layer.name] = set(acts)
        original(layer, acts, *args)

    monkeypatch.setattr(networks, "_layer_forward", spy)
    forward_batch(graph, params, np.zeros((2, 7, 7, 2)))
    assert live["conv3"] == {"conv1", "relu3"}
    assert live["add4"] == {"conv1", "conv3"}
    assert live["prob6"] == {"fc6"}


class TestParameterCounts:
    def test_wcrn_hand_tally(self):
        assert parameter_count(build_wcrn(6, 11)) == wcrn_param_tally(6, 11) == 38923

    def test_dccnn_hand_tally(self):
        assert parameter_count(build_dccnn(6, 11)) == dccnn_param_tally(6, 11)

    def test_hresnet_hand_tally(self):
        assert parameter_count(build_hresnet(6, 11)) == hresnet_param_tally(6, 11) == 78219

    def test_init_matches_expected_shapes(self):
        graph = build_wcrn(6, 11)
        params = init_params(graph, np.random.default_rng(0))
        assert {n: p.shape for n, p in params.entries.items()} == networks.expected_param_shapes(
            graph
        )

    def test_init_is_seed_deterministic(self):
        graph = build_hresnet(3, 4)
        a = init_params(graph, np.random.default_rng(42))
        b = init_params(graph, np.random.default_rng(42))
        for name in a.entries:
            np.testing.assert_array_equal(a.entries[name], b.entries[name])


class TestForward:
    def test_output_is_row_stochastic(self):
        rng = np.random.default_rng(1)
        for build, size in [(build_wcrn, 5), (build_dccnn, 5), (build_hresnet, 7)]:
            graph = build(4, 7)
            params = init_params(graph, rng)
            batch = rng.standard_normal((6, size, size, 4))
            probs = forward_batch(graph, params, batch)
            assert probs.shape == (6, 7)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
            assert probs.min() >= 0.0

    @pytest.mark.parametrize("build,size", [(build_wcrn, 5), (build_dccnn, 5), (build_hresnet, 7)])
    def test_forward_batch_gives_the_bytes_of_the_full_infer_pass(self, build, size):
        rng = np.random.default_rng(6)
        graph = build(4, 3)
        params = init_params(graph, rng)
        batch = rng.standard_normal((9, size, size, 4))
        acts, _, _ = networks._forward(graph, params, batch, "infer", None)
        assert forward_batch(graph, params, batch).tobytes() == acts[graph.layers[-1].name].tobytes()

    def test_batch_rows_are_independent_in_infer(self):
        rng = np.random.default_rng(2)
        graph = build_wcrn(3, 5)
        params = init_params(graph, rng)
        batch = rng.standard_normal((8, 5, 5, 3))
        probs = forward_batch(graph, params, batch)
        perm = rng.permutation(8)
        np.testing.assert_array_equal(forward_batch(graph, params, batch[perm]), probs[perm])

    def test_single_row_batch_matches_full_batch_row(self):
        rng = np.random.default_rng(3)
        graph = build_hresnet(2, 3)
        params = init_params(graph, rng)
        batch = rng.standard_normal((4, 7, 7, 2))
        probs = forward_batch(graph, params, batch)
        np.testing.assert_array_equal(forward_batch(graph, params, batch[2:3])[0], probs[2])

    def test_infer_is_deterministic_with_dropout_disabled(self):
        rng = np.random.default_rng(4)
        graph = build_dccnn(6, 11)
        params = init_params(graph, rng)
        batch = rng.standard_normal((5, 5, 5, 6))
        a = forward_batch(graph, params, batch)
        b = forward_batch(graph, params, batch)
        assert a.tobytes() == b.tobytes()

    def test_dropout_zeroes_about_half_in_train_mode(self):
        rng = np.random.default_rng(5)
        graph = build_dccnn(6, 11)
        params = init_params(graph, rng)
        batch = rng.standard_normal((79, 5, 5, 6))
        _, caches, _ = networks._forward(graph, params, batch, "train", np.random.default_rng(6))
        mask = caches["drop11"]
        dropped = int((~mask).sum())
        # Binomial(79*128, 0.5): 3 sigma is ~151.
        assert abs(dropped - mask.size // 2) < 151

    def test_gap_head_passes_constant_channels(self):
        graph = build_hresnet(2, 3)
        assert graph.output_shapes["gap5"] == (64,)

    def test_batch_shape_mismatch_rejected(self):
        graph = build_wcrn(6, 11)
        params = init_params(graph, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="does not match input"):
            forward_batch(graph, params, np.zeros((2, 7, 7, 6)))

    def test_empty_batch_rejected(self):
        graph = build_wcrn(2, 2)
        params = init_params(graph, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="empty batch"):
            forward_batch(graph, params, np.zeros((0, 5, 5, 2)))

    def test_foreign_params_rejected(self):
        graph = build_wcrn(6, 11)
        other = init_params(build_wcrn(9, 11), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward_batch(graph, other, np.zeros((1, 5, 5, 6)))


class TestTrainStep:
    @staticmethod
    def _toy_problem(seed, n_per_class=10, channels=2):
        rng = np.random.default_rng(seed)
        base = np.zeros((n_per_class, 5, 5, channels))
        x = np.concatenate([base + 1.0, base - 1.0])
        x += 0.05 * rng.standard_normal(x.shape)
        y = np.repeat([0, 1], n_per_class)
        return x, y

    def test_separable_toy_set_converges(self):
        graph = build_wcrn(2, 2)
        rng = np.random.default_rng(7)
        params = init_params(graph, rng)
        state = init_adam({n: params.entries[n] for n in trainable_names(graph)})
        x, y = self._toy_problem(8)
        loss = None
        for step in range(200):
            params, state, loss = train_step(graph, params, x, y, state)
            if loss < 0.05:
                break
        assert loss < 0.05, f"loss stuck at {loss:.4f}"

    def test_zero_learning_rate_freezes_trainables(self):
        graph = build_wcrn(2, 2)
        params = init_params(graph, np.random.default_rng(9))
        state = init_adam(
            {n: params.entries[n] for n in trainable_names(graph)}, learning_rate=0.0
        )
        x, y = self._toy_problem(10)
        after, state, loss1 = train_step(graph, params, x, y, state)
        for name in trainable_names(graph):
            np.testing.assert_array_equal(after.entries[name], params.entries[name])
        _, _, loss2 = train_step(graph, after, x, y, state)
        assert loss1 == loss2

    def test_small_step_descends_on_same_batch(self):
        graph = build_wcrn(2, 2)
        descents = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            params = init_params(graph, rng)
            state = init_adam(
                {n: params.entries[n] for n in trainable_names(graph)}, learning_rate=1e-4
            )
            x = rng.standard_normal((8, 5, 5, 2))
            y = rng.integers(0, 2, size=8)
            new_params, _, loss_before = train_step(graph, params, x, y, state)
            acts, _, _ = networks._forward(graph, new_params, x, "train", None)
            probs = acts[graph.layers[-1].name]
            loss_after = float(np.mean(-np.log(probs[np.arange(8), y])))
            descents += loss_after <= loss_before
        assert descents >= 95, f"descended in only {descents}/{trials} trials"

    def test_batch_of_wrong_patch_shape_rejected(self):
        graph = build_hresnet(6, 3)
        params = init_params(graph, np.random.default_rng(0))
        state = init_adam({n: params.entries[n] for n in trainable_names(graph)})
        with pytest.raises(ShapeError, match="does not match input"):
            train_step(graph, params, np.zeros((4, 9, 9, 6)), np.zeros(4), state)

    def test_label_count_must_match_batch(self):
        graph = build_wcrn(2, 2)
        params = init_params(graph, np.random.default_rng(0))
        state = init_adam({n: params.entries[n] for n in trainable_names(graph)})
        with pytest.raises(ValueError, match=r"labels of shape \(3,\).*batch of 4"):
            train_step(graph, params, np.zeros((4, 5, 5, 2)), np.zeros(3), state)

    def test_empty_batch_rejected(self):
        graph = build_wcrn(2, 2)
        params = init_params(graph, np.random.default_rng(0))
        state = init_adam({n: params.entries[n] for n in trainable_names(graph)})
        with pytest.raises(ShapeError, match="empty batch"):
            train_step(graph, params, np.zeros((0, 5, 5, 2)), np.zeros(0), state)

    def test_non_finite_loss_raises_before_the_update(self):
        graph = build_wcrn(2, 2)
        params = init_params(graph, np.random.default_rng(0))
        state = init_adam({n: params.entries[n] for n in trainable_names(graph)})
        with pytest.raises(FloatingPointError, match="training loss is nan"):
            train_step(graph, params, np.full((2, 5, 5, 2), np.nan), np.array([0, 1]), state)

    def test_out_of_range_labels_rejected(self):
        graph = build_wcrn(2, 2)
        params = init_params(graph, np.random.default_rng(0))
        state = init_adam({n: params.entries[n] for n in trainable_names(graph)})
        with pytest.raises(ValueError, match="labels"):
            train_step(graph, params, np.zeros((1, 5, 5, 2)), np.array([2]), state)


@pytest.mark.parametrize("build,size", [(build_wcrn, 5), (build_dccnn, 5), (build_hresnet, 7)])
def test_forward_and_train_step_leave_their_inputs_unchanged(build, size):
    graph = build(3, 3)
    rng = np.random.default_rng(13)
    params = init_params(graph, rng)
    for name, arr in params.entries.items():
        if name.endswith((".run_mean", ".beta")):
            params.entries[name] = rng.normal(0.0, 0.2, arr.shape)
    batch = rng.standard_normal((9, size, size, 3))
    labels = rng.integers(0, 3, size=9)
    state = init_adam({n: params.entries[n] for n in trainable_names(graph)})
    entries = {name: arr.copy() for name, arr in params.entries.items()}
    patches = batch.copy()
    forward_batch(graph, params, batch)
    train_step(graph, params, batch, labels, state, rng)
    assert batch.tobytes() == patches.tobytes()
    assert sorted(params.entries) == sorted(entries)
    for name, arr in entries.items():
        assert params.entries[name].tobytes() == arr.tobytes(), name


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        graph = build_wcrn(6, 11)
        params = init_params(graph, np.random.default_rng(11))
        params.epoch_tag = 42
        back = params_from_bytes(params_to_bytes(params))
        assert back.epoch_tag == 42
        assert set(back.entries) == set(params.entries)
        for name in params.entries:
            assert back.entries[name].tobytes() == params.entries[name].tobytes()

    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        graph = build_hresnet(3, 5)
        params = init_params(graph, np.random.default_rng(12))
        path = tmp_path / "snapshot.aedl"
        save_params(params, path)
        loaded = load_params(path)
        batch = np.random.default_rng(13).standard_normal((4, 7, 7, 3))
        assert (
            forward_batch(graph, params, batch).tobytes()
            == forward_batch(graph, loaded, batch).tobytes()
        )

    def test_magic_and_layout(self):
        blob = params_to_bytes(ParameterSet({"a.weights": np.zeros((2, 3))}))
        assert blob[:4] == b"AEDL"
        assert int.from_bytes(blob[4:6], "little") == 1

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            params_from_bytes(b"XXXX" + b"\x00" * 16)

    def test_truncated_payload_names_position(self):
        blob = params_to_bytes(ParameterSet({"w": np.ones(4)}))
        with pytest.raises(FormatError, match="truncated"):
            params_from_bytes(blob[:-8])

    def test_trailing_garbage_rejected(self):
        blob = params_to_bytes(ParameterSet({"w": np.ones(2)}))
        with pytest.raises(FormatError, match="trailing"):
            params_from_bytes(blob + b"\x00")
