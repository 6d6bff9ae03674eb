"""Neural-network modules: parameter containers over the autograd tensor."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ModelError
from .tensor import Tensor


class Module:
    """Base class: parameter discovery, state dicts, gradient zeroing."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Tensor):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self) -> list[Tensor]:
        return [p for p in self.parameters() if p.requires_grad]

    def n_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def freeze(self) -> None:
        """Stop gradients through every parameter (LoRA base freezing)."""
        for p in self.parameters():
            p.requires_grad = False

    def unfreeze(self) -> None:
        for p in self.parameters():
            p.requires_grad = True

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch: missing={sorted(missing)[:3]} "
                f"unexpected={sorted(unexpected)[:3]}"
            )
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ModelError(
                    f"shape mismatch for {name}: "
                    f"{p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].astype(np.float32).copy()


class ContiguousTranspose:
    """A weight's C-contiguous transpose, kept for the inference GEMMs.

    Calling it with a weight tensor returns ``ascontiguousarray(W.T)``,
    rebuilt only when ``weight.data`` is not the array the cached copy
    was made from.  Weights here change only by rebinding ``.data``
    (optimiser steps, state-dict loads, LoRA merges), never in place.
    """

    __slots__ = ("_cached",)

    def __init__(self):
        self._cached = None  # (source array, its contiguous transpose)

    def __call__(self, weight: Tensor) -> np.ndarray:
        # Read ``weight.data`` once and swap source and copy in as one
        # pair, so a rebind from another thread can never leave a copy
        # cached under a source it was not built from.
        data = weight.data
        cached = self._cached
        if cached is None or cached[0] is not data:
            cached = self._cached = (data, np.ascontiguousarray(data.T))
        return cached[1]


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` with W of shape (out, in)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Tensor(
            rng.uniform(-scale, scale, size=(out_features, in_features)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        self.in_features = in_features
        self.out_features = out_features
        self._weight_t = ContiguousTranspose()

    def __call__(self, x: Tensor) -> Tensor:
        # Flatten batch dims so the matmul is a single 2-D BLAS gemm
        # (numpy's batched 3-D matmul is ~3x slower on this path).
        batch_shape = x.shape[:-1]
        if len(batch_shape) > 1:
            x = x.reshape(-1, self.in_features)
        out = x.matmul(self.weight.transpose())
        if self.bias is not None:
            out = out + self.bias
        if len(batch_shape) > 1:
            out = out.reshape(*batch_shape, self.out_features)
        return out

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Fast inference path bypassing the tape.

        The GEMM reads a C-contiguous ``(in, out)`` copy of the weight
        instead of the F-contiguous view ``W.T``: at this repo's small
        shapes OpenBLAS takes a much slower kernel on the transposed
        layout (3-4x for an 8-row ``64 → 192`` projection).  The copy is
        rebuilt whenever ``weight.data`` is a different array object —
        every weight update here (``Adam.step``, ``load_state_dict``,
        LoRA merging) rebinds ``.data`` rather than writing into it.
        """
        batch_shape = x.shape[:-1]
        out = x.reshape(-1, self.in_features) @ self._weight_t(self.weight)
        if self.bias is not None:
            out += self.bias.data
        return out.reshape(*batch_shape, self.out_features)


class Embedding(Module):
    """Token-id → vector lookup table."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        self.weight = Tensor(
            rng.normal(0.0, 0.02, size=(num_embeddings, dim)), requires_grad=True
        )
        self.num_embeddings = num_embeddings
        self.dim = dim

    def __call__(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise ModelError(
                f"embedding index out of range [0, {self.num_embeddings})"
            )
        return self.weight.embedding(indices)

    def forward_numpy(self, indices: np.ndarray) -> np.ndarray:
        return self.weight.data[np.asarray(indices)]


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return x.layer_norm(self.gamma, self.beta, eps=self.eps)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Single-pass inference LayerNorm.

        Runs the exact ufunc sequence ``x.mean`` and ``x.var`` run
        internally (sum, divide by an ``intp`` count, centre, square,
        sum, divide) without their Python wrappers, computing the mean
        once and normalising the centred temporary in place.  The result
        is bitwise equal to ``(x - mean) / sqrt(var + eps) * gamma +
        beta`` for float32 and float64 input alike.
        """
        count = np.intp(x.shape[-1])
        mu = np.add.reduce(x, axis=-1, keepdims=True)
        np.true_divide(mu, count, out=mu, casting="unsafe")
        xc = x - mu
        var = np.add.reduce(np.square(xc), axis=-1, keepdims=True)
        np.true_divide(var, count, out=var, casting="unsafe")
        var += self.eps
        xc /= np.sqrt(var, out=var)
        xc *= self.gamma.data
        xc += self.beta.data
        return xc
