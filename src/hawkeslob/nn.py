"""Dense feed-forward networks with exact reverse-mode gradients and Adam.

Small batched numpy networks sized for the policy heads (binary decision
logit, 4-way action logits) and the value head. Gradients returned by
``backward`` are exact sums over the batch of the upstream-weighted
Jacobians; loss-level scaling (1/B etc.) belongs to the caller.

A loss runs each net's forward pass once: ``forward`` can keep the input
of every layer, and ``backward`` takes those in place of running the
forward pass again. The activation's derivative is read off the kept
activation (relu: a > 0, which is z > 0; tanh: 1 - a**2), so both routes
give the same bits. Initial weights are one block of uniforms from the
stream (``RandomStream.uniforms``), in row-major order.

The policy step runs each net on one row at a time. ``forward`` takes a
1-d float64 row as it is, with no conversion or reshape per call and one
width check, and each layer's activation is computed into that layer's
fresh output, so a row gives the same bits as the batch path.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rng import RandomStream, draw_count

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

HEAD_SIZES = {"scalar": 1, "binary-logit": 1, "4-way-logits": 4}

Gradients = List[Tuple[np.ndarray, np.ndarray]]


def _xavier_uniform(rng: RandomStream, fan_in: int, fan_out: int
                    ) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniforms(fan_in * fan_out).reshape(fan_in, fan_out)
    return (2.0 * u - 1.0) * limit


class DenseNet:
    """Fully-connected net: hidden activations + linear (logit) head."""

    def __init__(self, layer_sizes: Sequence[int], *,
                 activation: str = "relu", head: str = "scalar",
                 learning_rate: float = 3e-4,
                 rng: Optional[RandomStream] = None):
        self._configure(layer_sizes, activation, head, learning_rate)
        rng = rng or RandomStream(0)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1],
                                   self.layer_sizes[1:]):
            self.weights.append(_xavier_uniform(rng, fan_in, fan_out))
            self.biases.append(np.zeros(fan_out))
        self.adam_m = [(np.zeros_like(w), np.zeros_like(b))
                       for w, b in zip(self.weights, self.biases)]
        self.adam_v = [(np.zeros_like(w), np.zeros_like(b))
                       for w, b in zip(self.weights, self.biases)]
        self.adam_t = 0

    def _configure(self, layer_sizes, activation, head, learning_rate):
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        if head not in HEAD_SIZES:
            raise ValueError(f"unknown head {head!r}")
        if layer_sizes[-1] != HEAD_SIZES[head]:
            raise ValueError(
                f"head {head!r} requires output width {HEAD_SIZES[head]}, "
                f"got {layer_sizes[-1]}")
        self.layer_sizes = layer_sizes
        self.activation = activation
        self.head = head
        learning_rate = float(learning_rate)
        if not 0.0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got "
                             f"{learning_rate}")
        self.learning_rate = learning_rate

    # -- forward/backward -----------------------------------------------------

    def _act(self, z: np.ndarray) -> np.ndarray:
        """The activation, computed into ``z``."""
        if self.activation == "relu":
            return np.maximum(z, 0.0, out=z)
        return np.tanh(z, out=z)

    def _act_grad(self, a: np.ndarray) -> np.ndarray:
        """Derivative of the activation where it output ``a``."""
        if self.activation == "relu":
            return (a > 0.0).astype(np.float64)
        return 1.0 - a * a

    def forward(self, x: np.ndarray, keep: Optional[list] = None
                ) -> np.ndarray:
        """Forward pass; accepts (features,) or (batch, features).

        A list passed as ``keep`` receives the input of every layer: the
        rows of ``x``, then each hidden activation. ``backward`` takes it
        as ``acts``. A single row given as a 1-d float64 array, with no
        ``keep``, runs as it is, without conversion or reshape.
        """
        if (keep is None and type(x) is np.ndarray and x.ndim == 1
                and x.dtype == np.float64):
            h = x  # one row, 1-d through every layer
            as_row = False
            width = x.shape[0]
        else:
            x = np.asarray(x, dtype=np.float64)
            as_row = x.ndim == 1
            h = x.reshape(1, -1) if as_row else x
            width = h.shape[1]
        if width != self.layer_sizes[0]:
            raise ValueError(
                f"expected {self.layer_sizes[0]} features, got {width}")
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            if keep is not None:
                keep.append(h)
            h = h @ w
            h += b
            self._act(h)
        if keep is not None:
            keep.append(h)
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out[0] if as_row else out

    def backward(self, x: np.ndarray, grad_out: np.ndarray,
                 acts: Optional[list] = None) -> Gradients:
        """Exact reverse-mode parameter gradients for the given upstream.

        ``grad_out`` has the output's shape; the returned gradients are
        sums over the batch. ``acts`` is the list that ``forward(x, keep)``
        filled with the current weights; without it the forward pass runs
        again.
        """
        if acts is None:
            acts = []
            self.forward(x, acts)
        g = np.asarray(grad_out, dtype=np.float64).reshape(
            acts[0].shape[0], self.layer_sizes[-1])
        grads: Gradients = [None] * len(self.weights)
        grads[-1] = (acts[-1].T @ g, g.sum(axis=0))
        for layer in range(len(self.weights) - 2, -1, -1):
            g = g @ self.weights[layer + 1].T
            g = g * self._act_grad(acts[layer + 1])
            grads[layer] = (acts[layer].T @ g, g.sum(axis=0))
        return grads

    # -- optimisation ----------------------------------------------------------

    def adam_step(self, grads: Gradients) -> None:
        """One Adam update with bias correction; rejects non-finite grads."""
        for dw, db in grads:
            if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
                raise ValueError("non-finite gradient passed to adam_step")
        self.adam_t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.adam_t
        c2 = 1.0 - ADAM_BETA2 ** self.adam_t
        for layer, (dw, db) in enumerate(grads):
            mw, mb = self.adam_m[layer]
            vw, vb = self.adam_v[layer]
            mw *= ADAM_BETA1
            mw += (1.0 - ADAM_BETA1) * dw
            mb *= ADAM_BETA1
            mb += (1.0 - ADAM_BETA1) * db
            vw *= ADAM_BETA2
            vw += (1.0 - ADAM_BETA2) * dw * dw
            vb *= ADAM_BETA2
            vb += (1.0 - ADAM_BETA2) * db * db
            self.weights[layer] -= self.learning_rate * (mw / c1) / (
                np.sqrt(vw / c2) + ADAM_EPS)
            self.biases[layer] -= self.learning_rate * (mb / c1) / (
                np.sqrt(vb / c2) + ADAM_EPS)

    def zero_grads(self) -> Gradients:
        return [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(self.weights, self.biases)]

    # -- parameter plumbing ------------------------------------------------------

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise ValueError("flat parameter size mismatch")
        pos = 0
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[layer] = flat[pos:pos + w.size].reshape(w.shape)
            pos += w.size
            self.biases[layer] = flat[pos:pos + b.size].copy()
            pos += b.size

    @staticmethod
    def flatten_grads(grads: Gradients) -> np.ndarray:
        parts = []
        for dw, db in grads:
            parts.append(dw.ravel())
            parts.append(db.ravel())
        return np.concatenate(parts)

    # -- checkpointing ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "layer_sizes": self.layer_sizes,
            "activation": self.activation,
            "head": self.head,
            "learning_rate": self.learning_rate,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "adam_m": [[mw.tolist(), mb.tolist()]
                       for mw, mb in self.adam_m],
            "adam_v": [[vw.tolist(), vb.tolist()]
                       for vw, vb in self.adam_v],
            "adam_t": self.adam_t,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DenseNet":
        """Rebuild from ``to_dict`` output; ValueError when a weight or
        bias shape does not match ``layer_sizes``, an Adam moment's shape
        does not match its weight or bias, or ``adam_t`` is not a
        non-negative integer."""
        net = cls.__new__(cls)
        net._configure(doc["layer_sizes"], doc["activation"], doc["head"],
                       doc["learning_rate"])
        net.weights = [np.asarray(w, dtype=np.float64)
                       for w in doc["weights"]]
        net.biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
        sizes = net.layer_sizes
        shapes = ([w.shape for w in net.weights],
                  [b.shape for b in net.biases])
        if shapes != (list(zip(sizes[:-1], sizes[1:])),
                      [(n,) for n in sizes[1:]]):
            raise ValueError(f"weight and bias shapes {shapes} do not fit "
                             f"layer_sizes {sizes}")
        for name in ("adam_m", "adam_v"):
            moments = [(np.asarray(mw, dtype=np.float64),
                        np.asarray(mb, dtype=np.float64))
                       for mw, mb in doc[name]]
            got = [(mw.shape, mb.shape) for mw, mb in moments]
            if got != list(zip(*shapes)):
                raise ValueError(f"{name} shapes {got} do not match the "
                                 f"weight and bias shapes {shapes}")
            setattr(net, name, moments)
        net.adam_t = draw_count(doc["adam_t"], "adam_t")
        return net

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "DenseNet":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
