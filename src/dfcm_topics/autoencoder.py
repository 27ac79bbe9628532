"""Deep autoencoder with denoising greedy layer-wise pretraining.

Mirrored dense encoder/decoder stack trained on reconstruction MSE.
Hidden layers are relu; the code layer and the reconstruction output are
linear. Pretraining fits each encoder layer as a two-layer denoising
autoencoder (dropout-corrupted input and hidden activations), then the
whole stack is fine-tuned end to end without dropout.
"""

import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, NonFiniteLossError
from .textprep import save_json

DEFAULT_HIDDEN_DIMS = (500, 500, 2000)

_ACT_CODES = {"relu": 0, "linear": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_MAGIC = b"DAEMODL1"


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
    code_dim: int

    @property
    def input_dim(self) -> int:
        return self.encoder_layers[0].in_dim

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
    optimizer: str = "adaptive_moments"  # or "sgd_momentum"
    beta1: float = 0.9
    beta2: float = 0.999
    stabilizer: float = 1e-8
    momentum: float = 0.9

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.optimizer not in ("adaptive_moments", "sgd_momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


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

    def make(dims, final_act):
        layers = []
        for i in range(len(dims) - 1):
            act = final_act if i == len(dims) - 2 else "relu"
            layers.append(
                DenseLayer(
                    _glorot_uniform(dims[i + 1], dims[i], rng),
                    np.zeros(dims[i + 1]),
                    act,
                )
            )
        return layers

    return AutoencoderModel(make(enc_dims, "linear"), make(dec_dims, "linear"), code_dim)


def _activate(z, activation):
    return np.maximum(z, 0.0) if activation == "relu" else z


def _forward(layers, X, drop_masks=None):
    """Forward pass; returns output and per-layer (input, preact) caches.

    drop_masks[i], when given, is an inverted-dropout mask applied to
    layer i's input.
    """
    caches = []
    A = X
    for i, layer in enumerate(layers):
        if drop_masks is not None and drop_masks[i] is not None:
            A = A * drop_masks[i]
        Z = A @ layer.weights.T + layer.bias
        caches.append((A, Z))
        A = _activate(Z, layer.activation)
    return A, caches


def _backward(layers, caches, dOut, drop_masks=None):
    """Backpropagate dOut through the stack; returns per-layer (dW, db)."""
    grads = [None] * len(layers)
    dA = dOut
    for i in range(len(layers) - 1, -1, -1):
        A, Z = caches[i]
        if layers[i].activation == "relu":
            dZ = dA * (Z > 0.0)
        else:
            dZ = dA
        grads[i] = (dZ.T @ A, dZ.sum(axis=0))
        if i == 0:  # nothing reads the gradient with respect to the input
            break
        dA = dZ @ layers[i].weights
        if drop_masks is not None and drop_masks[i] is not None:
            dA = dA * drop_masks[i]
    return grads


def _mse_and_grad(Y, target):
    """Mean over samples of the squared reconstruction error norm."""
    diff = Y - target
    n = Y.shape[0]
    return float(np.sum(diff**2) / n), 2.0 * diff / n


def backprop_gradients(model: AutoencoderModel, batch: np.ndarray):
    """Exact MSE-loss gradients for every weight and bias, encoder first."""
    batch = np.asarray(batch, dtype=np.float64)
    Y, caches = _forward(model.layers, batch)
    _, dOut = _mse_and_grad(Y, batch)
    return _backward(model.layers, caches, dOut)


def reconstruction_loss(model: AutoencoderModel, X) -> float:
    """Full-data reconstruction MSE (dropout off)."""
    X = _densify(X)
    Y, _ = _forward(model.layers, X)
    loss, _ = _mse_and_grad(Y, X)
    return loss


class _Optimizer:
    """Adam-style adaptive moments or classical momentum SGD, in place.

    moments[k] is (m, v) of params[k]; v is None for momentum SGD.
    """

    def __init__(self, layers, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.params = [p for layer in layers for p in (layer.weights, layer.bias)]
        adaptive = cfg.optimizer == "adaptive_moments"
        self.moments = [
            (np.zeros_like(p), np.zeros_like(p) if adaptive else None) for p in self.params
        ]

    def step(self, grads):
        """One update from the per-layer (dW, db) gradients."""
        cfg = self.cfg
        self.t += 1
        for param, grad, (m, v) in zip(self.params, chain.from_iterable(grads), self.moments):
            if v is None:
                m *= cfg.momentum
                m -= cfg.learning_rate * grad
                param += m
                continue
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * grad
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * grad**2
            mhat = m / (1.0 - cfg.beta1**self.t)
            vhat = v / (1.0 - cfg.beta2**self.t)
            param -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.stabilizer)


def _densify(X):
    if sp.issparse(X):
        return np.asarray(X.toarray(), dtype=np.float64)
    return np.asarray(X, dtype=np.float64)


def _dropout_mask(shape, rate, rng):
    if rate <= 0.0:
        return None
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def _pair_masks(x, pair, rate, rng):
    """Dropout masks of a denoising pair: for its input x, then its hidden units."""
    hidden = (x.shape[0], pair[0].out_dim)
    return [_dropout_mask(x.shape, rate, rng), _dropout_mask(hidden, rate, rng)]


def _train(layers, X, cfg, rng, dropout):
    """Minibatch training loop shared by pretraining and fine-tuning.

    With dropout, layers is a denoising pair and every batch is corrupted
    by _pair_masks. Returns the per-epoch mean minibatch loss trace.
    """
    n = X.shape[0]
    opt = _Optimizer(layers, cfg)
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            batch = _densify(X[order[start : start + cfg.batch_size]])
            masks = _pair_masks(batch, layers, cfg.dropout_rate, rng) if dropout else None
            Y, caches = _forward(layers, batch, masks)
            loss, dOut = _mse_and_grad(Y, batch)
            if not np.isfinite(loss):
                raise NonFiniteLossError(f"training loss became {loss}")
            # Keep the gradients until the next step replaces them: freed here,
            # malloc returns their pages, and re-faulting them cost ~25% speed.
            grads = _backward(layers, caches, dOut, masks)
            opt.step(grads)
            epoch_losses.append(loss)
        trace.append(float(np.mean(epoch_losses)))
    return trace


def denoising_forward(x, layer_in: DenseLayer, layer_out: DenseLayer, r, rng):
    """One corrupted pass through a two-layer denoising autoencoder.

    The pass pretraining trains on: inverted-dropout masks corrupt the
    input and the hidden activations, retained units scaled by 1/(1-r).
    Returns (h, y), h unmasked. With r = 0 this is a plain autoencoder pass.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    pair = [layer_in, layer_out]
    y, caches = _forward(pair, x, _pair_masks(x, pair, r, rng))
    return _activate(caches[0][1], layer_in.activation), y


def pretrain_layer(H_prev, enc_layer: DenseLayer, dec_layer: DenseLayer, cfg, rng):
    """Fit one denoising autoencoder pair on the previous clean activations.

    Trains the given layers in place and returns them with the next clean
    representation H_next = g(W1 H_prev + b1), computed without dropout.
    """
    _train([enc_layer, dec_layer], H_prev, cfg, rng, dropout=True)
    H_next = _activate(
        _densify(H_prev) @ enc_layer.weights.T + enc_layer.bias, enc_layer.activation
    )
    return enc_layer, dec_layer, H_next


def greedy_pretrain(X, model: AutoencoderModel, cfg: TrainConfig) -> AutoencoderModel:
    """Pretrain each encoder layer in order as a denoising autoencoder.

    Layer i trains on the clean activations of layer i-1 (the raw data for
    i = 0), paired with its mirrored decoder layer; both are trained in
    place in the model.
    """
    rng = np.random.default_rng(cfg.seed)
    H = X
    for enc, dec in zip(model.encoder_layers, reversed(model.decoder_layers)):
        _, _, H = pretrain_layer(H, enc, dec, cfg, rng)
    return model


def fine_tune(X, model: AutoencoderModel, cfg: TrainConfig) -> tuple[AutoencoderModel, list[float]]:
    """End-to-end reconstruction training of the full stack, no dropout."""
    rng = np.random.default_rng(cfg.seed + 1)
    trace = _train(model.layers, X, cfg, rng, dropout=False)
    return model, trace


def encode(model: AutoencoderModel, X, batch_size: int = 1024) -> np.ndarray:
    """Apply the encoder half (dropout off); rows become code vectors."""
    if X.shape[1] != model.input_dim:
        raise DimensionMismatchError(
            f"expected {model.input_dim} columns, got {X.shape[1]}"
        )
    out = np.empty((X.shape[0], model.code_dim))
    for start in range(0, X.shape[0], batch_size):
        batch = _densify(X[start : start + batch_size])
        Y, _ = _forward(model.encoder_layers, batch)
        out[start : start + batch_size] = Y
    return out


def decode(model: AutoencoderModel, C) -> np.ndarray:
    """Apply the decoder half (dropout off); output may contain negatives."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape[1] != model.code_dim:
        raise DimensionMismatchError(
            f"expected {model.code_dim} columns, got {C.shape[1]}"
        )
    Y, _ = _forward(model.decoder_layers, C)
    return Y


def save_checkpoint(model: AutoencoderModel, path, train_config=None, final_loss=None):
    """Binary checkpoint: header, then per-layer float64 weights and bias.

    A JSON sidecar (<path>.json) records the train config and final loss.
    Round-trips bit-exactly.
    """
    layers = model.layers
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<IIII", 1, model.input_dim, model.code_dim, len(layers)
            )
        )
        for layer in layers:
            fh.write(
                struct.pack(
                    "<IIB", layer.in_dim, layer.out_dim, _ACT_CODES[layer.activation]
                )
            )
            fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    sidecar = {
        "train_config": None if train_config is None else vars(train_config),
        "final_loss": final_loss,
    }
    save_json(f"{path}.json", sidecar)


def load_checkpoint(path) -> AutoencoderModel:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path} is not a model checkpoint")
        version, input_dim, code_dim, n_layers = struct.unpack("<IIII", fh.read(16))
        if version != 1:
            raise ValueError(f"unsupported checkpoint version {version}")
        layers = []
        for _ in range(n_layers):
            in_dim, out_dim, act = struct.unpack("<IIB", fh.read(9))
            W = np.frombuffer(fh.read(8 * in_dim * out_dim), dtype="<f8").reshape(
                out_dim, in_dim
            )
            b = np.frombuffer(fh.read(8 * out_dim), dtype="<f8")
            layers.append(DenseLayer(W.copy(), b.copy(), _ACT_NAMES[act]))
    half = n_layers // 2
    return AutoencoderModel(layers[:half], layers[half:], code_dim)
