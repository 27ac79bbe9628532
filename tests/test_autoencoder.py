import struct
import tracemalloc
import weakref
from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from dfcm_topics import autoencoder as ae
from dfcm_topics.errors import DimensionMismatchError, MalformedLineError, NonFiniteLossError

from conftest import csr, dense, reconstruction_loss

def backprop_gradients(model, batch):
    """Exact MSE-loss gradients for every weight and bias, encoder first."""
    batch = np.asarray(batch, dtype=np.float64)
    Y, caches = ae._forward(model.layers, batch)
    _, dOut = ae._mse_and_grad(Y, batch)
    grads = [(np.empty_like(layer.weights), np.empty_like(layer.bias)) for layer in model.layers]
    list(ae._backward(model.layers, caches, dOut, grads))
    return grads


def finite_difference_check(model, batch, rng, samples_per_layer=10, step=1e-5):
    """Central finite differences vs analytic gradients; returns max rel err."""
    grads = backprop_gradients(model, batch)
    worst = 0.0
    for li, layer in enumerate(model.layers):
        for _ in range(samples_per_layer):
            i = rng.integers(layer.weights.shape[0])
            j = rng.integers(layer.weights.shape[1])
            orig = layer.weights[i, j]
            layer.weights[i, j] = orig + step
            lp = reconstruction_loss(model, batch)
            layer.weights[i, j] = orig - step
            lm = reconstruction_loss(model, batch)
            layer.weights[i, j] = orig
            fd = (lp - lm) / (2 * step)
            analytic = grads[li][0][i, j]
            denom = max(abs(fd), abs(analytic), 1e-8)
            worst = max(worst, abs(fd - analytic) / denom)
    return worst


def reference_step(params, grads, moments, cfg, t):
    """Per-array Adam update, the oracle for _Optimizer.step; moments[k] is (m, v) of params[k]."""
    for param, grad, (m, v) in zip(params, grads, moments):
        m *= ae.BETA1
        m += (1.0 - ae.BETA1) * grad
        v *= ae.BETA2
        v += (1.0 - ae.BETA2) * grad**2
        mhat = m / (1.0 - ae.BETA1**t)
        vhat = v / (1.0 - ae.BETA2**t)
        param -= cfg.learning_rate * mhat / (np.sqrt(vhat) + ae.EPSILON)


def reference_train(layers, X, cfg, rng, rate):
    """_train's oracle, in the unfused order: backprop each minibatch into separate
    per-layer arrays with the old weights, then apply reference_step to every array.
    Leaves the layers TRAIN_DTYPE; returns the per-epoch mean loss trace."""
    for layer in layers:
        layer.weights, layer.bias = (a.astype(ae.TRAIN_DTYPE) for a in (layer.weights, layer.bias))
    params = [a for layer in layers for a in (layer.weights, layer.bias)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    trace, t, X = [], 0, dense(X)
    for _ in range(cfg.epochs):
        order, losses = rng.permutation(X.shape[0]), []
        for start in range(0, X.shape[0], cfg.batch_size):
            batch = X[order[start : start + cfg.batch_size]].astype(ae.TRAIN_DTYPE)
            masks = ae._pair_masks(batch, layers, rate, rng)
            Y, caches = reference_forward(layers, batch, masks)
            loss, dOut = ae._mse_and_grad(Y, batch)
            grads = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in layers]
            list(ae._backward(layers, caches, dOut, grads, masks))
            t += 1
            reference_step(params, list(chain.from_iterable(grads)), moments, cfg, t)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return trace


def reference_forward(layers, X, drop_masks=None):
    """Forward pass keeping z and relu(z) as separate arrays, the oracle for _forward."""
    caches = []
    A = X
    for i, layer in enumerate(layers):
        if drop_masks is not None and drop_masks[i] is not None:
            A = A * drop_masks[i]
        Z = A @ layer.weights.T
        Z += layer.bias
        caches.append((A, Z))
        A = np.maximum(Z, 0.0) if layer.activation == "relu" else Z
    return A, caches


def reference_infer(layers, X, dtype=np.float64):
    """Whole-array dropout-free pass, the oracle for the blocked one."""
    return reference_forward(layers, dense(X))[0].astype(dtype)


def check_pair_inputs(monkeypatch, model, X, same):
    """Wrap pretrain_layer: pair 0 must get X itself, and pair i >= 1, once pairs 0..i-1
    have trained, the float32 cast of reference_infer through them, compared with same.
    Returns the list of pairs checked, filled as they train."""
    index = {id(layer): i for i, layer in enumerate(model.encoder_layers)}
    real_pretrain, checked = ae.pretrain_layer, []

    def pretrain_layer(H, enc, dec, cfg, rng):
        i = index[id(enc)]
        if i == 0:
            assert H is X
        else:
            want = reference_infer(model.encoder_layers[:i], X).astype(ae.TRAIN_DTYPE)
            assert H.dtype == ae.TRAIN_DTYPE and same(H, want)
        checked.append(i)
        return real_pretrain(H, enc, dec, cfg, rng)

    monkeypatch.setattr(ae, "pretrain_layer", pretrain_layer)
    return checked


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestBuild:
    def test_default_architecture(self):
        model = ae.build_autoencoder(100, 5, seed=0)
        enc_dims = [(l.in_dim, l.out_dim) for l in model.encoder_layers]
        dec_dims = [(l.in_dim, l.out_dim) for l in model.decoder_layers]
        assert enc_dims == [(100, 500), (500, 500), (500, 2000), (2000, 5)]
        assert dec_dims == [(5, 2000), (2000, 500), (500, 500), (500, 100)]

    def test_tiny_input_still_full_stack(self):
        model = ae.build_autoencoder(1, 1, seed=0)
        assert [l.out_dim for l in model.encoder_layers] == [500, 500, 2000, 1]

    def test_activations(self):
        model = ae.build_autoencoder(10, 2, seed=0)
        assert [l.activation for l in model.encoder_layers] == [
            "relu", "relu", "relu", "linear",
        ]
        assert [l.activation for l in model.decoder_layers] == [
            "relu", "relu", "relu", "linear",
        ]

    def test_seed_determinism(self):
        a = ae.build_autoencoder(20, 3, seed=42, hidden_dims=(8,))
        b = ae.build_autoencoder(20, 3, seed=42, hidden_dims=(8,))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_init_range(self):
        model = ae.build_autoencoder(40, 4, seed=0, hidden_dims=(10,))
        layer = model.encoder_layers[0]
        limit = np.sqrt(6.0 / (40 + 10))
        assert np.all(np.abs(layer.weights) <= limit)
        assert np.all(layer.bias == 0.0)

    def test_mirror_invariant_after_training(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 12))
        model = ae.build_autoencoder(12, 2, seed=1, hidden_dims=(6, 4))
        cfg = ae.TrainConfig(epochs=2, batch_size=8, seed=2)
        ae.greedy_pretrain(X, model, cfg)
        ae.fine_tune(X, model, cfg)
        enc = [(l.in_dim, l.out_dim) for l in model.encoder_layers]
        dec = [(l.out_dim, l.in_dim) for l in reversed(model.decoder_layers)]
        assert enc == dec


class _FixedRng:
    """Stand-in rng emitting a preset uniform draw for dropout masks."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, shape):
        return np.broadcast_to(np.asarray(self.draws.pop(0)), shape).copy()


class TestDenoisingForward:
    def _identity_pair(self, d):
        eye = np.eye(d)
        return (
            ae.DenseLayer(eye.copy(), np.zeros(d), "linear"),
            ae.DenseLayer(eye.copy(), np.zeros(d), "linear"),
        )

    def test_no_corruption_at_rate_zero(self):
        pair = self._identity_pair(3)
        x = np.array([[1.0, -2.0, 3.0]])
        y, caches = ae._forward(pair, x, ae._pair_masks(x, pair, 0.0, np.random.default_rng(0)))
        np.testing.assert_array_equal(caches[0][1], x)
        np.testing.assert_array_equal(y, x)

    def test_inverted_scaling_with_fixed_mask(self):
        # Mask drops coordinate 0 and keeps coordinate 1 scaled by 1/(1-r).
        pair = self._identity_pair(2)
        x = np.ones((1, 2))
        rng = _FixedRng([[0.1, 0.9], [0.9, 0.9]])
        _, caches = ae._forward(pair, x, ae._pair_masks(x, pair, 0.5, rng))
        np.testing.assert_array_equal(caches[0][1][0], [0.0, 2.0])

    def test_zero_weights_give_bias(self):
        pair = (
            ae.DenseLayer(np.zeros((2, 2)), np.zeros(2), "linear"),
            ae.DenseLayer(np.zeros((2, 2)), np.array([3.0, -1.0]), "linear"),
        )
        x = np.ones((1, 2))
        y, _ = ae._forward(pair, x, ae._pair_masks(x, pair, 0.0, np.random.default_rng(0)))
        np.testing.assert_array_equal(y[0], [3.0, -1.0])


class TestDropout:
    def test_expectation_preserved(self):
        rng = np.random.default_rng(0)
        x = np.array([1.0, 2.0, -3.0])
        total = np.zeros(3)
        n = 100_000
        for _ in range(n):
            mask = ae._dropout_mask(x.shape, 0.2, rng)
            total += x * mask
        np.testing.assert_allclose(total / n, x, rtol=0.01)


class TestGradients:
    def test_finite_difference_small_net(self):
        rng = np.random.default_rng(7)
        model = ae.build_autoencoder(7, 3, seed=0, hidden_dims=(5,))
        batch = rng.standard_normal((6, 7))
        assert finite_difference_check(model, batch, rng) <= 1e-4

    def test_gradient_zero_at_minimum(self):
        # A model memorizing one repeated point: identity on its span.
        x = np.ones((8, 2))
        model = ae.AutoencoderModel(
            [ae.DenseLayer(np.eye(2), np.zeros(2), "linear")],
            [ae.DenseLayer(np.eye(2), np.zeros(2), "linear")],
        )
        grads = backprop_gradients(model, x)
        for gW, gb in grads:
            assert np.linalg.norm(gW) < 1e-8
            assert np.linalg.norm(gb) < 1e-8

    def test_closed_form_linear_layer(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(4, 4))
        X = rng.normal(size=(10, 4))
        model = ae.AutoencoderModel(
            [ae.DenseLayer(W.copy(), np.zeros(4), "linear")], []
        )
        (gW, _), = backprop_gradients(model, X)
        expected = 2.0 * (X @ W.T - X).T @ X / X.shape[0]
        np.testing.assert_allclose(gW, expected, rtol=1e-12)


class TestOptimizer:
    # 58 parameters fit in one step block; the 150 x 300 weights span two
    # blocks, the second one partial.
    @pytest.mark.parametrize("dims", [(7, 5, 3), (300, 150, 90)])
    def test_flat_step_matches_per_array_update(self, dims):
        rng = np.random.default_rng(0)
        layers = [
            ae.DenseLayer(rng.normal(size=(o, i)), rng.normal(size=o), "relu")
            for i, o in zip(dims, dims[1:])
        ]
        params = [a.astype(ae.TRAIN_DTYPE) for layer in layers for a in (layer.weights, layer.bias)]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        cfg = ae.TrainConfig(learning_rate=1e-2)
        opt = ae._Optimizer(layers, cfg)
        assert all(a.size % opt.BLOCK for a in chain.from_iterable(opt.params))
        for t in range(1, 5):
            grads = [rng.normal(size=p.shape).astype(ae.TRAIN_DTYPE) for p in params]
            opt.t += 1
            for i in reversed(range(len(layers))):  # _backward's order, last layer first
                for view, grad in zip(opt.grads[i], grads[2 * i : 2 * i + 2]):
                    view[...] = grad
                opt.step(i)
            reference_step(params, grads, moments, cfg, t)
        state = zip(*(chain.from_iterable(s) for s in (opt.params, opt.m, opt.v)))
        for (p, m, v), param, moment in zip(state, params, moments, strict=True):
            assert np.array_equal(p, param)
            assert np.array_equal(m, moment[0]) and np.array_equal(v, moment[1])
        assert np.array_equal(_flat(a for l in layers for a in (l.weights, l.bias)), _flat(params))


class TestFusedStep:
    # Input and first hidden width 180 and 200: the outer layers hold over
    # 36,000 parameters each, so their updates span two step blocks.
    @pytest.mark.parametrize("stage", ["pretrain", "fine_tune"])
    def test_matches_backprop_then_step(self, stage):
        """Stepping each layer as soon as backprop has passed it changes no bit."""
        X = csr(sp.random(24, 180, density=0.3, random_state=0, format="csr"))
        cfg = ae.TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2, dropout_rate=0.2, seed=4)
        fused, unfused = (ae.build_autoencoder(180, 3, seed=1, hidden_dims=(200, 8))
                          for _ in range(2))
        if stage == "pretrain":
            pick, rate = lambda m: [m.encoder_layers[0], m.decoder_layers[-1]], cfg.dropout_rate
        else:
            pick, rate = lambda m: m.layers, 0.0
        assert max(l.weights.size for l in pick(fused)) > ae._Optimizer.BLOCK
        trace = ae._train(pick(fused), X, cfg, np.random.default_rng(4), rate)
        trace_ref = reference_train(pick(unfused), X, cfg, np.random.default_rng(4), rate)
        assert trace == trace_ref
        for layer, ref in zip(pick(fused), pick(unfused)):
            assert np.array_equal(layer.weights, ref.weights)
            assert np.array_equal(layer.bias, ref.bias)


class TestTrainingMemory:
    def test_fine_tune_peak_is_about_twelve_bytes_per_parameter(self, monkeypatch):
        """Training holds float32 params, m and v plus one layer's gradient (about 13.3
        bytes per parameter here) and frees all but params when it returns; a
        whole-model gradient would make the peak 16."""
        model = ae.build_autoencoder(600, 3, seed=0, hidden_dims=(400, 400, 800))
        n_params = sum(l.weights.size + l.bias.size for l in model.layers)
        X = np.random.default_rng(0).normal(size=(8, 600))
        real_init, held = ae._Optimizer.__init__, []

        def init(opt, layers, cfg):
            real_init(opt, layers, cfg)
            state = chain.from_iterable(opt.m + opt.v)
            held.extend(weakref.ref(a) for a in (opt.grad, opt._scratch, *state))

        monkeypatch.setattr(ae._Optimizer, "__init__", init)
        tracemalloc.start()
        try:
            ae.fine_tune(X, model, ae.TrainConfig(epochs=1, batch_size=8, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [ref() is not None for ref in held] == [False] * (2 + 4 * len(model.layers))
        assert peak < 14 * n_params

    def test_trained_model_costs_four_bytes_per_parameter(self):
        """Traced from before greedy_pretrain: the pretrained layers stay float32, so
        fine-tuning adds m, v and one layer's gradient to 4 bytes per parameter, and
        the model at rest keeps 4 (float64 layers between the stages made it 21 and 8)."""
        model = ae.build_autoencoder(600, 3, seed=0, hidden_dims=(400, 400, 800))
        n_params = sum(l.weights.size + l.bias.size for l in model.layers)
        X = np.random.default_rng(0).normal(size=(8, 600))
        cfg = ae.TrainConfig(epochs=1, batch_size=8, seed=0)
        tracemalloc.start()
        try:
            ae.greedy_pretrain(X, model, cfg)
            tracemalloc.reset_peak()
            ae.fine_tune(X, model, cfg)
            at_rest, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 * n_params
        assert 4 * n_params <= at_rest < 4.1 * n_params

    def test_greedy_pretrain_holds_one_pair_input(self):
        """Each pair's input is inferred from X once the previous one is freed and is
        stored in float32, so the peak stays under two float32 copies of the widest
        hidden layer's activations."""
        n = 8 * ae.INFER_BATCH
        X = np.random.default_rng(0).normal(size=(n, 32))
        model = ae.build_autoencoder(32, 2, seed=0, hidden_dims=(32, 256, 256))
        cfg = ae.TrainConfig(epochs=1, batch_size=256, seed=0)
        tracemalloc.start()
        try:
            ae.greedy_pretrain(X, model, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * 256 * 4


class TestTrainDtype:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_training_and_trained_layers_use_train_dtype(self, monkeypatch, sparse):
        """Every training array and every trained layer is TRAIN_DTYPE. Inference runs in
        float64 and stores its result in float64, except the pretraining pairs' inputs,
        which only training reads: those are stored in TRAIN_DTYPE."""
        X = np.random.default_rng(0).normal(size=(20, 12))
        if sparse:
            X = csr(sp.random(20, 12, density=0.5, random_state=0, format="csr"))
        real_forward, real_backward, real_infer = ae._forward, ae._backward, ae._infer
        real_step = ae._Optimizer.step
        seen = {"train": [], "infer": [], "stored": [], "masks": 0}
        inferring = []

        def forward(layers, batch, drop_masks=None):
            Y, caches = real_forward(layers, batch, drop_masks)
            seen["infer" if inferring else "train"].extend([batch, Y, *chain.from_iterable(caches)])
            seen["train"].extend(a for layer in layers for a in (layer.weights, layer.bias))
            if drop_masks is not None:
                seen["train"].extend(drop_masks)
                seen["masks"] += len(drop_masks)
            return Y, caches

        def backward(layers, caches, dOut, grads, drop_masks=None):
            seen["train"].append(dOut)
            yield from real_backward(layers, caches, dOut, grads, drop_masks)
            seen["train"].extend(chain.from_iterable(grads))

        def step(opt, i):
            seen["train"].extend([opt.grad, opt._scratch])
            seen["train"].extend(chain.from_iterable(opt.params + opt.m + opt.v))
            real_step(opt, i)

        def infer(layers, H, dtype=np.float64):
            inferring.append(True)
            try:
                seen["stored"].append(real_infer(layers, H, dtype))
                return seen["stored"][-1]
            finally:
                inferring.pop()

        monkeypatch.setattr(ae, "_forward", forward)
        monkeypatch.setattr(ae, "_backward", backward)
        monkeypatch.setattr(ae, "_infer", infer)
        monkeypatch.setattr(ae._Optimizer, "step", step)
        model = ae.build_autoencoder(12, 3, seed=1, hidden_dims=(8, 6))
        cfg = ae.TrainConfig(epochs=2, batch_size=8, dropout_rate=0.2, seed=4)
        ae.greedy_pretrain(X, model, cfg)
        ae.fine_tune(X, model, cfg)
        ae.encode(model, X)
        assert seen["masks"] == 3 * 2 * 2 * 3  # 3 pairs, 2 epochs, 3 batches, 2 masks a batch
        assert seen["infer"] and all(a.dtype == np.float64 for a in seen["infer"])
        assert all(a.dtype == ae.TRAIN_DTYPE for a in seen["train"])
        # H1 and H2, the inputs of pairs 1 and 2, then the codes
        assert [a.dtype for a in seen["stored"]] == [ae.TRAIN_DTYPE, ae.TRAIN_DTYPE, np.float64]
        for a in (a for layer in model.layers for a in (layer.weights, layer.bias)):
            assert a.dtype == ae.TRAIN_DTYPE

    def test_inference_on_trained_layers_matches_their_float64_copies(self, tmp_path):
        """float64 activations times float32 weights run in float64 on the same values, so
        encode and decode give the bits of the float64 model the checkpoint loads."""
        X = csr(sp.random(40, 12, density=0.5, random_state=0, format="csr"))
        model = ae.build_autoencoder(12, 3, seed=1, hidden_dims=(8, 6))
        cfg = ae.TrainConfig(epochs=2, batch_size=8, seed=4)
        ae.greedy_pretrain(X, model, cfg)
        ae.fine_tune(X, model, cfg)
        ae.save_checkpoint(model, tmp_path / "model.bin", cfg, 0.0)
        wide = ae.load_checkpoint(tmp_path / "model.bin")
        assert all(l.weights.dtype == np.float64 for l in wide.layers)
        codes = ae.encode(model, X)
        assert np.array_equal(codes, ae.encode(wide, X))
        assert np.array_equal(ae.decode(model, codes), ae.decode(wide, codes))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value, named", [
    ("learning_rate", NAN, "learning_rate"), ("learning_rate", INF, "learning_rate"),
    ("learning_rate", 0.0, "learning_rate"), ("learning_rate", -1.0, "learning_rate"),
    ("dropout_rate", NAN, "dropout_rate"), ("dropout_rate", 1.0, "dropout_rate"),
])
def test_train_config_rejects_values_outside_their_domain(field, value, named):
    with pytest.raises(ValueError, match=f"^{named} must be "):
        ae.TrainConfig(**{field: value})


class TestTraining:
    def test_pretrain_layer_memorizes_constant(self):
        rng = np.random.default_rng(0)
        H = np.tile(rng.normal(size=(1, 10)), (32, 1))
        model = ae.build_autoencoder(10, 2, seed=1, hidden_dims=(8,))
        cfg = ae.TrainConfig(
            epochs=400, batch_size=32, dropout_rate=0.0, learning_rate=5e-3, seed=2
        )
        enc, dec = model.encoder_layers[0], model.decoder_layers[-1]
        assert ae.pretrain_layer(H, enc, dec, cfg, np.random.default_rng(2)) is None
        pair = ae.AutoencoderModel([enc], [dec])
        assert reconstruction_loss(pair, H) < 1e-4

    def test_greedy_pretrain_uses_clean_activations(self, monkeypatch):
        """Pair i trains on X itself for i = 0, else on the float32 cast of the clean
        float64 pass of X through the trained encoder layers below it, bit for bit."""
        X = np.random.default_rng(0).normal(size=(16, 6))
        model = ae.build_autoencoder(6, 2, seed=1, hidden_dims=(5, 4))
        checked = check_pair_inputs(monkeypatch, model, X, lambda a, b: a.tobytes() == b.tobytes())
        ae.greedy_pretrain(X, model, ae.TrainConfig(epochs=3, batch_size=8, seed=3))
        assert checked == [0, 1, 2]

    def test_greedy_pretrain_infers_no_codes(self, monkeypatch):
        """Four pairs train, and each later pair's input is inferred from X through the
        trained layers below it, never through the code layer."""
        X = np.random.default_rng(0).normal(size=(16, 6))
        model = ae.build_autoencoder(6, 2, seed=1, hidden_dims=(5, 4, 7))
        real_pretrain, real_infer = ae.pretrain_layer, ae._infer
        index = {id(layer): i for i, layer in enumerate(model.encoder_layers)}
        pretrained, inferred = [], []

        def pretrain_layer(H, enc, dec, cfg, rng, *args):
            pretrained.append(index[id(enc)])
            return real_pretrain(H, enc, dec, cfg, rng, *args)

        def infer(layers, H, *args):
            inferred.append([index[id(layer)] for layer in layers])
            return real_infer(layers, H, *args)

        monkeypatch.setattr(ae, "pretrain_layer", pretrain_layer)
        monkeypatch.setattr(ae, "_infer", infer)
        ae.greedy_pretrain(X, model, ae.TrainConfig(epochs=1, batch_size=8, seed=3))
        assert pretrained == [0, 1, 2, 3]
        assert inferred == [[0], [0, 1], [0, 1, 2]]

    def test_greedy_pretrain_trains_model_layers_in_place(self):
        X = np.random.default_rng(0).normal(size=(16, 6))
        model = ae.build_autoencoder(6, 2, seed=1, hidden_dims=(5, 4))
        encoder, decoder = list(model.encoder_layers), list(model.decoder_layers)
        initial = [layer.weights.copy() for layer in encoder + decoder]
        ae.greedy_pretrain(X, model, ae.TrainConfig(epochs=2, batch_size=8, seed=3))
        for i in range(len(encoder)):
            assert model.encoder_layers[i] is encoder[i]
            assert model.decoder_layers[i] is decoder[i]
        for layer, w0 in zip(model.layers, initial):
            assert not np.array_equal(layer.weights, w0)

    def test_trained_weights_are_contiguous_and_round_trip(self, tmp_path):
        X = np.random.default_rng(0).normal(size=(16, 6))
        model = ae.build_autoencoder(6, 2, seed=1, hidden_dims=(5, 4))
        layers = list(model.layers)
        cfg = ae.TrainConfig(epochs=2, batch_size=8, seed=3)
        ae.greedy_pretrain(X, model, cfg)
        ae.fine_tune(X, model, cfg)
        for layer, before in zip(model.layers, layers):
            assert layer is before
            assert layer.weights.flags.c_contiguous and layer.bias.flags.c_contiguous
        params = [a for layer in model.layers for a in (layer.weights, layer.bias)]
        assert all(a.dtype == ae.TRAIN_DTYPE for a in params)  # and C-contiguous, as checked above
        ae.save_checkpoint(model, tmp_path / "model.bin", cfg, 0.0)
        for la, lb in zip(model.layers, ae.load_checkpoint(tmp_path / "model.bin").layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
        first, second = (
            list(chain.from_iterable(backprop_gradients(model, X))) for _ in range(2)
        )
        for i, grad in enumerate(first + second):
            for other in (first + second)[i + 1 :] + params:
                assert not np.shares_memory(grad, other)

    def test_fine_tune_of_a_pretrained_model_keeps_its_arrays(self):
        X = np.random.default_rng(0).normal(size=(16, 6))
        model = ae.build_autoencoder(6, 2, seed=1, hidden_dims=(5, 4))
        cfg = ae.TrainConfig(epochs=2, batch_size=8, seed=3)
        ae.greedy_pretrain(X, model, cfg)
        arrays = [(layer.weights, layer.bias) for layer in model.layers]
        initial = [W.copy() for W, _ in arrays]
        ae.fine_tune(X, model, cfg)
        for layer, (W, b), w0 in zip(model.layers, arrays, initial):
            assert layer.weights is W and layer.bias is b
            assert not np.array_equal(W, w0)

    def test_fortran_ordered_weights_train_like_their_c_ordered_copy(self):
        """A float32 layer that is not C-contiguous is trained on a C-contiguous copy,
        not through a reshape copy that step would update and drop."""
        X = np.random.default_rng(0).normal(size=(16, 6))
        fortran, c_order = (ae.build_autoencoder(6, 2, seed=1, hidden_dims=(5, 4))
                            for _ in range(2))
        for lf, lc in zip(fortran.layers, c_order.layers):
            lf.weights = np.asfortranarray(lf.weights, dtype=ae.TRAIN_DTYPE)
            lc.weights = np.ascontiguousarray(lc.weights, dtype=ae.TRAIN_DTYPE)
        assert not fortran.layers[0].weights.flags.c_contiguous
        cfg = ae.TrainConfig(epochs=2, batch_size=8, seed=3)
        assert ae.fine_tune(X, fortran, cfg) == ae.fine_tune(X, c_order, cfg)
        for lf, lc in zip(fortran.layers, c_order.layers):
            assert np.array_equal(lf.weights, lc.weights)
            assert np.array_equal(lf.bias, lc.bias)

    def test_smoke_full_pretrain_tiny(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 20))
        model = ae.build_autoencoder(20, 2, seed=0, hidden_dims=(8, 6))
        cfg = ae.TrainConfig(epochs=2, batch_size=8, seed=0)
        ae.greedy_pretrain(X, model, cfg)
        for layer in model.layers:
            assert np.all(np.isfinite(layer.weights))
            assert np.all(np.isfinite(layer.bias))

    def test_fine_tune_overfits_small_batch(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(32, 20))
        model = ae.build_autoencoder(20, 4, seed=1, hidden_dims=(32, 16))
        loss0 = reconstruction_loss(model, X)
        cfg = ae.TrainConfig(epochs=500, batch_size=32, learning_rate=3e-3, seed=2)
        trace = ae.fine_tune(X, model, cfg)
        assert reconstruction_loss(model, X) <= 0.1 * loss0
        assert len(trace) == 500

    def test_training_determinism(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(24, 8))

        def run():
            model = ae.build_autoencoder(8, 2, seed=3, hidden_dims=(5,))
            cfg = ae.TrainConfig(epochs=5, batch_size=8, seed=9)
            ae.greedy_pretrain(X, model, cfg)
            trace = ae.fine_tune(X, model, cfg)
            return model, trace

        m1, t1 = run()
        m2, t2 = run()
        assert t1 == t2
        for la, lb in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_nonfinite_loss_raised(self):
        X = np.full((8, 4), 1e200)
        model = ae.build_autoencoder(4, 2, seed=0, hidden_dims=(3,))
        cfg = ae.TrainConfig(epochs=5, batch_size=8, learning_rate=1e10, seed=0)
        with pytest.raises(NonFiniteLossError):
            ae.fine_tune(X, model, cfg)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ae.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            ae.TrainConfig(epochs=1, dropout_rate=1.0)


class TestMatchesReferenceForward:
    """The in-place, row-blocked passes against reference_forward and reference_infer."""

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_forward(self, rate):
        rng = np.random.default_rng(0)
        model = ae.build_autoencoder(12, 3, seed=1, hidden_dims=(8, 6))
        X = rng.normal(size=(20, 12))
        masks = [ae._dropout_mask((20, layer.in_dim), rate, rng) for layer in model.layers]
        Y, caches = ae._forward(model.layers, X, masks)
        Y_ref, caches_ref = reference_forward(model.layers, X, masks)
        assert np.array_equal(Y, Y_ref)
        for (A, _), (A_ref, _) in zip(caches, caches_ref):
            assert np.array_equal(A, A_ref)

    def test_backprop_gradients(self):
        model = ae.build_autoencoder(12, 3, seed=1, hidden_dims=(8, 6))
        X = np.random.default_rng(0).normal(size=(20, 12))
        Y, caches = reference_forward(model.layers, X)
        _, dOut = ae._mse_and_grad(Y, X)
        expected = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in model.layers]
        list(ae._backward(model.layers, caches, dOut, expected))
        for got, want in zip(chain.from_iterable(backprop_gradients(model, X)),
                             chain.from_iterable(expected)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_pretrain_and_fine_tune(self, monkeypatch, rate):
        X = csr(sp.random(40, 12, density=0.5, random_state=0, format="csr"))
        real_train = ae._train

        def run():
            traces = []

            def recording_train(*args, **kwargs):
                traces.append(real_train(*args, **kwargs))
                return traces[-1]

            monkeypatch.setattr(ae, "_train", recording_train)
            model = ae.build_autoencoder(12, 3, seed=1, hidden_dims=(8, 6))
            cfg = ae.TrainConfig(epochs=3, batch_size=16, dropout_rate=rate, seed=4)
            ae.greedy_pretrain(X, model, cfg)
            ae.fine_tune(X, model, cfg)
            return traces, _flat(a for l in model.layers for a in (l.weights, l.bias))

        traces, params = run()
        monkeypatch.setattr(ae, "_forward", reference_forward)
        monkeypatch.setattr(ae, "_infer", reference_infer)
        traces_ref, params_ref = run()
        assert len(traces) == 4 and traces == traces_ref
        assert np.array_equal(params, params_ref)

    @pytest.mark.parametrize("n", [ae.INFER_BATCH, 2 * ae.INFER_BATCH + 5])
    def test_h_next_encode_and_decode(self, monkeypatch, n):
        # Past one block, BLAS may round some elements differently than in
        # the whole product, so only n <= INFER_BATCH is bit for bit.
        def same(a, b):
            return np.array_equal(a, b) if n <= ae.INFER_BATCH else np.allclose(a, b, atol=1e-12)

        X = csr(sp.random(n, 12, density=0.5, random_state=0, format="csr"))
        model = ae.build_autoencoder(12, 3, seed=1, hidden_dims=(8, 6))
        cfg = ae.TrainConfig(epochs=1, batch_size=256, seed=4)
        checked = check_pair_inputs(monkeypatch, model, X, same)
        ae.greedy_pretrain(X, model, cfg)
        assert checked == [0, 1, 2]
        codes = ae.encode(model, X)
        assert same(codes, reference_infer(model.encoder_layers, X))
        assert same(ae.decode(model, codes), reference_infer(model.decoder_layers, codes))

    def test_pretrain_layer_never_densifies_whole_input(self):
        n, d = 3 * ae.INFER_BATCH, 1000
        X = csr(sp.random(n, d, density=0.01, random_state=0, format="csr"))
        model = ae.build_autoencoder(d, 2, seed=0, hidden_dims=(4,))
        cfg = ae.TrainConfig(epochs=1, batch_size=256, seed=0)
        tracemalloc.start()
        try:
            ae.pretrain_layer(
                X, model.encoder_layers[0], model.decoder_layers[-1], cfg,
                np.random.default_rng(0),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8


class TestEncodeDecode:
    def test_inference_holds_one_layer_at_a_time(self):
        # Only a layer's input and output need to coexist: at most the 500-
        # and 2,000-wide activations of one block.
        n = ae.INFER_BATCH
        X = csr(sp.random(n, 700, density=0.01, random_state=0, format="csr"))
        model = ae.build_autoencoder(700, 5, seed=0)
        tracemalloc.start()
        try:
            ae.encode(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * n * (500 + 2000) * 8

    def test_shapes(self):
        model = ae.build_autoencoder(30, 4, seed=0, hidden_dims=(8,))
        X = np.random.default_rng(0).normal(size=(11, 30))
        codes = ae.encode(model, X)
        assert codes.shape == (11, 4)
        out = ae.decode(model, codes)
        assert out.shape == (11, 30)

    def test_sparse_input(self):
        model = ae.build_autoencoder(30, 4, seed=0, hidden_dims=(8,))
        X = sp.random(11, 30, density=0.2, random_state=0, format="csr")
        dense = ae.encode(model, X.toarray())
        sparse = ae.encode(model, csr(X))
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_single_row_matches_batch(self):
        model = ae.build_autoencoder(12, 3, seed=5, hidden_dims=(6,))
        X = np.random.default_rng(1).normal(size=(7, 12))
        batch = ae.encode(model, X)
        single = ae.encode(model, X[2:3])
        np.testing.assert_allclose(single[0], batch[2], atol=1e-12)

    def test_zero_weight_encoder_gives_zero_codes(self):
        model = ae.build_autoencoder(6, 2, seed=0, hidden_dims=(4,))
        for layer in model.encoder_layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        codes = ae.encode(model, np.ones((3, 6)))
        np.testing.assert_array_equal(codes, np.zeros((3, 2)))

    def test_zero_weight_decoder_gives_bias(self):
        model = ae.build_autoencoder(6, 2, seed=0, hidden_dims=(4,))
        for layer in model.decoder_layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        model.decoder_layers[-1].bias[:] = np.arange(6.0)
        out = ae.decode(model, np.ones((3, 2)))
        np.testing.assert_array_equal(out, np.tile(np.arange(6.0), (3, 1)))

    def test_dimension_mismatch(self):
        model = ae.build_autoencoder(6, 2, seed=0, hidden_dims=(4,))
        with pytest.raises(DimensionMismatchError):
            ae.encode(model, np.ones((3, 7)))
        with pytest.raises(DimensionMismatchError):
            ae.decode(model, np.ones((3, 3)))


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        model = ae.build_autoencoder(9, 3, seed=11, hidden_dims=(7, 5))
        cfg = ae.TrainConfig(epochs=1, seed=11)
        path = tmp_path / "model.bin"
        ae.save_checkpoint(model, path, cfg, final_loss=0.5)
        loaded = ae.load_checkpoint(path)
        assert loaded.code_dim == model.code_dim
        assert len(loaded.encoder_layers) == len(model.encoder_layers)
        for la, lb in zip(model.layers, loaded.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
        assert (tmp_path / "model.bin.json").exists()


def _corrupt(data, offset, fmt, value):
    return data[:offset] + struct.pack(fmt, value) + data[offset + struct.calcsize(fmt) :]


def _packed(input_dim, code_dim, widths):
    """A checkpoint whose header claims input_dim and code_dim, over zero-weight
    linear layers of the given (in_dim, out_dim) widths."""
    data = ae._MAGIC + struct.pack("<IIII", 1, input_dim, code_dim, len(widths))
    for in_dim, out_dim in widths:
        data += struct.pack("<IIB", in_dim, out_dim, 1) + bytes(8 * out_dim * (in_dim + 1))
    return data


_CHAIN = [(6, 4), (4, 2), (2, 4), (4, 6)]


# Checkpoint layout: 8-byte magic, then version, input_dim, code_dim and
# n_layers as <IIII, then per layer <IIB (in_dim, out_dim, activation code)
# and the float64 weights and bias.
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda d: b"NOTMODEL" + d[8:], "not a model checkpoint"),
        (lambda d: _corrupt(d, 8, "<I", 2), "unsupported checkpoint version 2"),
        (lambda d: d[:20], "truncated header"),
        (lambda d: d[:-4], "truncated layer 3"),
        (lambda d: _corrupt(d, 32, "<B", 7), "layer 0: unknown activation code 7"),
        (lambda d: _corrupt(d, 20, "<I", 3), "odd layer count 3"),
        (lambda d: d + b"\0", "trailing bytes after the last layer"),
        (lambda d: _packed(6, 2, []), "no layers"),
        (lambda d: _packed(9, 3, _CHAIN), "layer 0: widths 6 -> 4, expected 9 -> 4"),
        (lambda d: _packed(6, 3, _CHAIN), "layer 1: widths 4 -> 2, expected 4 -> 3"),
        (lambda d: _packed(6, 2, [(6, 4), (4, 2), (3, 4), (4, 6)]),
         "layer 2: widths 3 -> 4, expected 2 -> 4"),
        (lambda d: _packed(6, 2, [(6, 4), (4, 2), (2, 4), (4, 5)]),
         "layer 3: widths 4 -> 5, expected 4 -> 6"),
    ],
    ids=["magic", "version", "short-header", "short-layer", "activation", "odd-layers",
         "trailing", "no-layers", "header-input-dim", "header-code-dim", "broken-chain",
         "output-not-input"],
)
def test_malformed_checkpoint_is_rejected(tmp_path, corrupt, message):
    path = tmp_path / "model.bin"
    ae.save_checkpoint(ae.build_autoencoder(3, 2, seed=0, hidden_dims=(4,)), path,
                       ae.TrainConfig(), 0.0)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(MalformedLineError) as err:
        ae.load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
       keep=st.floats(0.0, 1.0) | st.just(1.0))
def test_checkpoint_loader_returns_usable_model_or_names_the_file(tmp_path, edits, keep):
    """A valid checkpoint with up to 4 bytes changed and its tail cut at a random point."""
    path = tmp_path / "model.bin"
    ae.save_checkpoint(ae.build_autoencoder(3, 2, seed=0, hidden_dims=(4,)), path,
                       ae.TrainConfig(), 0.0)
    data = bytearray(path.read_bytes())
    for at, byte in edits:
        data[at % len(data)] = byte
    path.write_bytes(bytes(data[: round(keep * len(data))]))
    try:
        model = ae.load_checkpoint(path)
    except MalformedLineError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    with np.errstate(over="ignore", invalid="ignore"):  # an edited weight may be ~1e308
        assert ae.encode(model, np.ones((2, model.input_dim))).shape == (2, model.code_dim)
        assert ae.decode(model, np.ones((2, model.code_dim))).shape == (2, model.input_dim)
