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

Every parameter lives in one float64 block, ``param_block``, in the order
of ``get_flat``: W0, b0, W1, b1, ... Each of ``weights[i]`` and
``biases[i]`` is a contiguous view into it, so an in-place edit of a
layer reaches the block and the block reaches every layer. The Adam
moments live in two blocks of the same layout, with ``adam_m`` and
``adam_v`` the per-layer view pairs that checkpoints store. One
``adam_step`` runs one finiteness check and one elementwise Adam pass
over the whole block, the formula of a per-layer pass in its order, so
it gives the same bits.

The policy step runs each net on one row at a time. ``forward`` takes a
1-d float64 row as it is, with no conversion or reshape per call and one
width check, and loops over (weight, bias) view pairs built once by
``_allocate``, computing each activation into its layer's fresh output.
A row gives the bits of the same row as a (1, F) batch. A batch of
several rows does not give the bits of its rows run one at a time: the
matrix product sums in another order, so outputs differ in the last bits,
within 1e-12 relative (or 1e-12 of the batch's largest output, where an
output cancels to near zero).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rng import RandomStream, draw_count

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

HEAD_SIZES = {"scalar": 1, "binary-logit": 1, "4-way-logits": 4}

Gradients = List[Tuple[np.ndarray, np.ndarray]]


def _layer_views(block: np.ndarray, shapes: Sequence[Tuple[int, int]]
                 ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into ``block``, laid out W0, b0, W1, b1, ..."""
    views = []
    pos = 0
    for fan_in, fan_out in shapes:
        w = block[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        views.append((w, block[pos:pos + fan_out]))
        pos += fan_out
    return views


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
        self._allocate()
        for w in self.weights:
            w[:] = _xavier_uniform(rng, *w.shape)
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

    def _allocate(self) -> None:
        """Zeroed parameter and moment blocks, and the layer views into
        them."""
        shapes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
        self.param_block = np.zeros(size)
        self.adam_m_block = np.zeros(size)
        self.adam_v_block = np.zeros(size)
        pairs = _layer_views(self.param_block, shapes)
        self.weights = [w for w, _ in pairs]
        self.biases = [b for _, b in pairs]
        # The forward pass's layers; they stay valid because every
        # parameter write is in place or comes through here.
        self._hidden = tuple(pairs[:-1])
        self._last = pairs[-1]
        self.adam_m = _layer_views(self.adam_m_block, shapes)
        self.adam_v = _layer_views(self.adam_v_block, shapes)

    # -- forward/backward -----------------------------------------------------

    def forward(self, x: np.ndarray, keep: Optional[list] = None
                ) -> np.ndarray:
        """Forward pass; accepts (features,) or (batch, features).

        A list passed as ``keep`` receives the input of every layer: the
        rows of ``x``, then each hidden activation. ``backward`` takes it
        as ``acts``. A single row given as a 1-d float64 array, with no
        ``keep``, runs as it is, without conversion or reshape; it gives
        the bits of the (1, F) batch, and matches a row of a larger batch
        only to the last bits. Every pass loops over the prebuilt layer
        pairs, with each activation computed into its layer's output.
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
        relu = self.activation == "relu"
        for w, b in self._hidden:
            if keep is not None:
                keep.append(h)
            h = h @ w
            h += b
            if relu:
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
        if keep is not None:
            keep.append(h)
        w, b = self._last
        out = h @ w
        out += b
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
            a = acts[layer + 1]
            if self.activation == "relu":
                np.multiply(g, a > 0.0, out=g)
            else:
                g = g * (1.0 - a * a)
            grads[layer] = (acts[layer].T @ g, g.sum(axis=0))
        return grads

    # -- optimisation ----------------------------------------------------------

    def adam_step(self, grads: Gradients) -> None:
        """One Adam update with bias correction, over the whole block.

        ValueError, and the net unchanged, when ``grads`` does not hold one
        (weight, bias) pair per layer in the parameters' shapes (the
        message names the layer) or holds a non-finite value.
        """
        if len(grads) != len(self.weights):
            raise ValueError(f"adam_step got {len(grads)} gradient pairs "
                             f"for a net of {len(self.weights)} layers")
        for layer, ((dw, db), w, b) in enumerate(
                zip(grads, self.weights, self.biases)):
            if np.shape(dw) != w.shape or np.shape(db) != b.shape:
                raise ValueError(
                    f"layer {layer} gradient shapes {np.shape(dw)} and "
                    f"{np.shape(db)} do not match its weight {w.shape} "
                    f"and bias {b.shape}")
        g = self.flatten_grads(grads)
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient passed to adam_step")
        self.adam_t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.adam_t
        c2 = 1.0 - ADAM_BETA2 ** self.adam_t
        m, v = self.adam_m_block, self.adam_v_block
        # lr * (m / c1) / (sqrt(v / c2) + eps), each operation in the
        # order of that formula, through one scratch array and ``g``.
        s = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += s
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        s *= g
        v *= ADAM_BETA2
        v += s
        np.divide(m, c1, out=s)
        s *= self.learning_rate
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        s /= g
        self.param_block -= s

    def zero_grads(self) -> Gradients:
        return [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(self.weights, self.biases)]

    # -- parameter plumbing ------------------------------------------------------

    @property
    def n_params(self) -> int:
        return self.param_block.size

    def get_flat(self) -> np.ndarray:
        """A copy of the parameter block."""
        return self.param_block.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        """Copy ``flat`` into the parameter block; the net keeps no
        reference to it."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.n_params:
            raise ValueError("flat parameter size mismatch")
        self.param_block[:] = flat.ravel()

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
        does not match its weight or bias, a weight, bias or moment is not
        finite, an ``adam_v`` entry is negative, or ``adam_t`` is not a
        non-negative integer."""
        net = cls.__new__(cls)
        net._configure(doc["layer_sizes"], doc["activation"], doc["head"],
                       doc["learning_rate"])
        weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
        sizes = net.layer_sizes
        shapes = ([w.shape for w in weights], [b.shape for b in biases])
        if shapes != (list(zip(sizes[:-1], sizes[1:])),
                      [(n,) for n in sizes[1:]]):
            raise ValueError(f"weight and bias shapes {shapes} do not fit "
                             f"layer_sizes {sizes}")
        moments = {}
        for name in ("adam_m", "adam_v"):
            moments[name] = [(np.asarray(mw, dtype=np.float64),
                              np.asarray(mb, dtype=np.float64))
                             for mw, mb in doc[name]]
            got = [(mw.shape, mb.shape) for mw, mb in moments[name]]
            if got != list(zip(*shapes)):
                raise ValueError(f"{name} shapes {got} do not match the "
                                 f"weight and bias shapes {shapes}")
        net.adam_t = draw_count(doc["adam_t"], "adam_t")
        net._allocate()
        pairs = [*zip(net.weights, net.biases), *net.adam_m, *net.adam_v]
        loaded = [*zip(weights, biases), *moments["adam_m"],
                  *moments["adam_v"]]
        for (w, b), (w_doc, b_doc) in zip(pairs, loaded):
            w[:] = w_doc
            b[:] = b_doc
        for name, arrays in (("weights", net.weights), ("biases", net.biases),
                             ("adam_m", [net.adam_m_block]),
                             ("adam_v", [net.adam_v_block])):
            if not all(np.isfinite(a).all() for a in arrays):
                raise ValueError(f"checkpoint {name} has a non-finite entry")
        if (net.adam_v_block < 0.0).any():
            raise ValueError("checkpoint adam_v has a negative entry")
        return net
