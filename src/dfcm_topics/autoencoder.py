"""Deep autoencoder with denoising greedy layer-wise pretraining.

Mirrored dense encoder/decoder stack trained on reconstruction MSE.
Hidden layers are relu; the code layer and the reconstruction output are
linear. Pretraining fits each encoder layer as a two-layer denoising
autoencoder (dropout-corrupted input and hidden activations), then the
whole stack is fine-tuned end to end without dropout.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, MalformedLineError, NonFiniteLossError
from .textprep import CsrMatrix, save_json

DEFAULT_HIDDEN_DIMS = (500, 500, 2000)

_ACT_CODES = {"relu": 0, "linear": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_MAGIC = b"DAEMODL1"
# The checkpoint after _MAGIC: a _HEADER, then per layer a _LAYER, its weights and its bias.
_HEADER = struct.Struct("<IIII")  # version, input_dim, code_dim, layer count
_LAYER = struct.Struct("<IIB")  # in_dim, out_dim, activation code
_VALUE = np.dtype("<f8")  # every weight and bias value
INFER_BATCH = 1024  # rows per block of every dropout-free pass


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str  # "relu" | "linear"

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class AutoencoderModel:
    encoder_layers: list[DenseLayer]
    decoder_layers: list[DenseLayer]

    @property
    def input_dim(self) -> int:
        return self.encoder_layers[0].in_dim

    @property
    def code_dim(self) -> int:
        return self.encoder_layers[-1].out_dim

    @property
    def layers(self) -> list[DenseLayer]:
        return self.encoder_layers + self.decoder_layers


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-3
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < float("inf"):  # written so that NaN fails
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


def _glorot_uniform(out_dim, in_dim, rng):
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def build_autoencoder(
    input_dim: int,
    code_dim: int,
    seed: int = 0,
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS,
) -> AutoencoderModel:
    """Mirrored dense stack input_dim -> hidden_dims -> code_dim -> reversed.

    Weights are fan-balanced uniform, biases zero; hidden layers relu,
    code and reconstruction output linear. Deterministic per seed.
    """
    enc_dims = [input_dim, *hidden_dims, code_dim]
    dec_dims = list(reversed(enc_dims))
    rng = np.random.default_rng(seed)

    def make(dims):
        layers = []
        for i in range(len(dims) - 1):
            act = "linear" if i == len(dims) - 2 else "relu"
            layers.append(
                DenseLayer(
                    _glorot_uniform(dims[i + 1], dims[i], rng),
                    np.zeros(dims[i + 1]),
                    act,
                )
            )
        return layers

    return AutoencoderModel(make(enc_dims), make(dec_dims))


def _forward(layers, X, drop_masks=None):
    """Forward pass; returns output and per-layer (input, activation) caches.

    drop_masks, when given, holds each layer's inverted-dropout mask, applied
    to its input. Relu runs in place, so each layer keeps one array.
    """
    caches = []
    A = X
    for i, layer in enumerate(layers):
        if drop_masks is not None:
            A = A * drop_masks[i]
        Z = A @ layer.weights.T
        Z += layer.bias
        if layer.activation == "relu":
            np.maximum(Z, 0.0, out=Z)
        caches.append((A, Z))
        A = Z
    return A, caches


def _infer(layers, X, dtype=np.float64):
    """Dropout-free _forward over the rows of X (see _rows), INFER_BATCH rows and
    one layer at a time, so only the current layer's input and output are alive. Each
    block runs in float64, also on TRAIN_DTYPE layers, and is stored in dtype."""
    if X.shape[1] != layers[0].in_dim:
        raise DimensionMismatchError(f"expected {layers[0].in_dim} columns, got {X.shape[1]}")
    out = np.empty((X.shape[0], layers[-1].out_dim), dtype=dtype)
    for start in range(0, X.shape[0], INFER_BATCH):
        rows = slice(start, start + INFER_BATCH)
        A = _rows(X, rows)
        for layer in layers:
            A = _forward([layer], A)[0]
        out[rows] = A
    return out


def _backward(layers, caches, dOut, grads, drop_masks=None):
    """Backpropagate dOut (overwritten) through the stack into grads' per-layer (dW, db),
    last layer first. Yields i once layer i's (dW, db) and the gradient below it, which
    reads layer i's weights, are computed, so the caller may then update layer i."""
    dA = dOut
    for i in range(len(layers) - 1, -1, -1):
        A, Z = caches[i]
        if layers[i].activation == "relu":  # Z holds relu(z), which is > 0 exactly where z > 0
            dA *= Z > 0.0
        dW, db = grads[i]
        np.matmul(dA.T, A, out=dW)
        dA.sum(axis=0, out=db)
        if i > 0:  # nothing reads the gradient with respect to the input
            dA = dA @ layers[i].weights
            if drop_masks is not None:
                dA *= drop_masks[i]
        yield i


def _mse_and_grad(Y, target):
    """Mean over samples of the squared reconstruction error norm."""
    diff = Y - target
    n = Y.shape[0]
    return float(np.sum(diff**2) / n), 2.0 * diff / n


# Adam's published constants (Kingma & Ba, arXiv:1412.6980). Training runs in
# TRAIN_DTYPE, and the trained layers keep its values.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
TRAIN_DTYPE = np.float32


class _Optimizer:
    """Adam, in place, one layer at a time.

    Casts each layer's weights and bias in place to C-contiguous TRAIN_DTYPE
    arrays, which the layers keep after training; params, m and v hold each
    layer's (weights, bias) pair. grad is one block sized to the largest
    layer, and grads holds each layer's (dW, db) views of its head, which
    _backward fills and step(i) reads.
    """

    BLOCK = 1 << 15  # elements per step block: the two scratch blocks stay in a 2 MB L2

    def __init__(self, layers, cfg: TrainConfig):
        self.learning_rate = cfg.learning_rate
        self.t = 0
        for layer in layers:
            layer.weights, layer.bias = (np.ascontiguousarray(a, dtype=TRAIN_DTYPE)
                                         for a in (layer.weights, layer.bias))
        self.params = [(layer.weights, layer.bias) for layer in layers]
        self.m = [tuple(np.zeros_like(a) for a in pair) for pair in self.params]
        self.v = [tuple(np.zeros_like(a) for a in pair) for pair in self.params]
        size = max(W.size + b.size for W, b in self.params)
        self.grad = np.zeros(size, dtype=TRAIN_DTYPE)
        self.grads = [(self.grad[: W.size].reshape(W.shape), self.grad[W.size : W.size + b.size])
                      for W, b in self.params]
        self._scratch = np.empty((2, min(size, self.BLOCK)), dtype=TRAIN_DTYPE)

    def step(self, i):
        """Update layer i from grads[i], block by block; bit-identical to a per-array update."""
        for arrays in zip(self.params[i], self.grads[i], self.m[i], self.v[i]):
            flat = [a.reshape(-1) for a in arrays]
            for start in range(0, flat[0].size, self.BLOCK):
                p, g, m, v = (a[start : start + self.BLOCK] for a in flat)
                s1, s2 = self._scratch[:, : p.size]
                m *= BETA1
                np.multiply(g, 1.0 - BETA1, out=s1)
                m += s1
                v *= BETA2
                np.multiply(g, g, out=s1)
                s1 *= 1.0 - BETA2
                v += s1
                np.divide(v, 1.0 - BETA2**self.t, out=s1)
                np.sqrt(s1, out=s1)
                s1 += EPSILON
                np.divide(m, 1.0 - BETA1**self.t, out=s2)
                s2 *= self.learning_rate
                s2 /= s1
                p -= s2


def _rows(X, index, dtype=np.float64):
    """The rows index picks of X as a dense dtype block. X is an array or a CsrMatrix;
    another library's sparse matrix is read through its toarray."""
    block = X.rows(index) if isinstance(X, CsrMatrix) else X[index]
    return np.asarray(block.toarray() if hasattr(block, "toarray") else block, dtype)


def _dropout_mask(shape, rate, rng):
    mask = (rng.random(shape) >= rate).astype(TRAIN_DTYPE)
    mask /= 1.0 - rate  # in place, so the Python float cannot widen the mask
    return mask


def _pair_masks(x, pair, rate, rng):
    """Dropout masks of a denoising pair (its input x, then its hidden units); None at rate 0."""
    if rate <= 0.0:
        return None
    hidden = (x.shape[0], pair[0].out_dim)
    return [_dropout_mask(x.shape, rate, rng), _dropout_mask(hidden, rate, rng)]


def _train(layers, X, cfg, rng, rate):
    """Minibatch training loop shared by pretraining and fine-tuning.

    Above rate 0, layers is a denoising pair and every batch is corrupted
    by _pair_masks. Trains in TRAIN_DTYPE and leaves each layer's arrays C-contiguous
    TRAIN_DTYPE. Returns the per-epoch mean minibatch loss trace.
    """
    n = X.shape[0]
    opt = _Optimizer(layers, cfg)
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises NonFiniteLossError
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, cfg.batch_size):
                batch = _rows(X, order[start : start + cfg.batch_size], TRAIN_DTYPE)
                masks = _pair_masks(batch, layers, rate, rng)
                Y, caches = _forward(layers, batch, masks)
                loss, dOut = _mse_and_grad(Y, batch)
                if not np.isfinite(loss):
                    raise NonFiniteLossError(f"training loss became {loss}")
                opt.t += 1  # once per minibatch; each layer steps as soon as backprop passes it
                for i in _backward(layers, caches, dOut, opt.grads, masks):
                    opt.step(i)
                epoch_losses.append(loss)
            trace.append(float(np.mean(epoch_losses)))
    return trace


def pretrain_layer(H_prev, enc_layer: DenseLayer, dec_layer: DenseLayer, cfg, rng) -> None:
    """Fit one denoising autoencoder pair, in place, on the previous clean activations."""
    _train([enc_layer, dec_layer], H_prev, cfg, rng, cfg.dropout_rate)


def greedy_pretrain(X, model: AutoencoderModel, cfg: TrainConfig) -> None:
    """Pretrain each encoder layer in order as a denoising autoencoder.

    Layer i, paired with its mirrored decoder layer, trains on the clean activations
    of the trained layers below it: X itself for i = 0, else X inferred through
    layers 0..i-1 and stored in TRAIN_DTYPE, the dtype _train reads it in. Only one
    pair's input is alive at a time. Both layers are trained in place in the model.
    """
    rng = np.random.default_rng(cfg.seed)
    H = X
    for i, (enc, dec) in enumerate(zip(model.encoder_layers, reversed(model.decoder_layers))):
        if i:
            del H  # free the previous pair's input before the next one is inferred
            H = _infer(model.encoder_layers[:i], X, TRAIN_DTYPE)
        pretrain_layer(H, enc, dec, cfg, rng)


def fine_tune(X, model: AutoencoderModel, cfg: TrainConfig) -> list[float]:
    """End-to-end reconstruction training of the full stack in place, no dropout.

    Returns the per-epoch loss trace."""
    return _train(model.layers, X, cfg, np.random.default_rng(cfg.seed + 1), 0.0)


def encode(model: AutoencoderModel, X) -> np.ndarray:
    """Apply the encoder half (dropout off); rows become code vectors."""
    return _infer(model.encoder_layers, X)


def decode(model: AutoencoderModel, C) -> np.ndarray:
    """Apply the decoder half (dropout off); output may contain negatives."""
    return _infer(model.decoder_layers, np.asarray(C, dtype=np.float64))


def save_checkpoint(model: AutoencoderModel, path, train_config: TrainConfig, final_loss: float):
    """Binary checkpoint: header, then per-layer float64 weights and bias.

    A JSON sidecar (<path>.json) records the train config and final loss.
    Round-trips bit-exactly.
    """
    layers = model.layers
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(1, model.input_dim, model.code_dim, len(layers)))
        for layer in layers:
            fh.write(_LAYER.pack(layer.in_dim, layer.out_dim, _ACT_CODES[layer.activation]))
            fh.write(np.ascontiguousarray(layer.weights, dtype=_VALUE).tobytes())
            fh.write(np.ascontiguousarray(layer.bias, dtype=_VALUE).tobytes())
    save_json(f"{path}.json", {"train_config": vars(train_config), "final_loss": final_loss})


def load_checkpoint(path) -> AutoencoderModel:
    """Read a save_checkpoint file; malformed content raises MalformedLineError.

    The widths must chain from the header's input_dim through its code_dim back."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n, what):
            if n > size - fh.tell():
                raise MalformedLineError.at(path, f"truncated {what}")
            return fh.read(n)

        if read(len(_MAGIC), "header") != _MAGIC:
            raise MalformedLineError.at(path, "not a model checkpoint")
        version, input_dim, code_dim, n_layers = _HEADER.unpack(read(_HEADER.size, "header"))
        if version != 1:
            raise MalformedLineError.at(path, f"unsupported checkpoint version {version}")
        if not n_layers:
            raise MalformedLineError.at(path, "no layers")
        if n_layers % 2:
            raise MalformedLineError.at(path, f"odd layer count {n_layers}")
        half, layers = n_layers // 2, []
        for i in range(n_layers):
            in_dim, out_dim, act = _LAYER.unpack(read(_LAYER.size, f"layer {i}"))
            if act not in _ACT_NAMES:
                raise MalformedLineError.at(path, f"layer {i}: unknown activation code {act}")
            want_in = layers[-1].out_dim if layers else input_dim
            want_out = {half - 1: code_dim, n_layers - 1: input_dim}.get(i, out_dim)
            if (in_dim, out_dim) != (want_in, want_out):
                what = f"layer {i}: widths {in_dim} -> {out_dim}, expected {want_in} -> {want_out}"
                raise MalformedLineError.at(path, what)
            W = np.frombuffer(read(_VALUE.itemsize * in_dim * out_dim, f"layer {i}"), _VALUE)
            b = np.frombuffer(read(_VALUE.itemsize * out_dim, f"layer {i}"), _VALUE)
            layers.append(DenseLayer(W.reshape(out_dim, in_dim).copy(), b.copy(), _ACT_NAMES[act]))
        if fh.tell() != size:
            raise MalformedLineError.at(path, "trailing bytes after the last layer")
    return AutoencoderModel(layers[:half], layers[half:])
