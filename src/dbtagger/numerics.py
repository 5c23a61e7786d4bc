"""Rank-2 float64 tensors, the tape of reverse-mode differentiation, and
the blocked product ``gemm``.

Everything is a rank-2 array (scalars are 1x1, vectors are rows or
columns).  A computation optionally records onto an explicit tape; a tape
is an execution-ordered list of records, so reversing it is already a
valid topological order for accumulating vector-Jacobian products.  A tape
is single-threaded; independent tapes can run concurrently.

The records are fused ones with hand-written VJPs, all in ``tagger``: one
per GRU layer, emission map and CRF loss, and one for the weighted sum of
the losses.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    """A 2-D float64 value with an optional gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are rank <= 2, got shape {arr.shape}")
        self.data = arr
        self.grad = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = None

    def add_grad(self, g: np.ndarray):
        """Add ``g`` into the gradient slot.  The first gradient is kept
        without a copy: nothing writes a ``grad`` in place, so sharing the
        array is safe."""
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != value shape {self.data.shape}")
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Execution-ordered record of primitive applications."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._output_ids: set[int] = set()

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
        """Register ``out = f(inputs)`` with ``vjp(grad_out) -> input grads``.

        ``vjp`` returns one array (or None) per input.
        """
        self._records.append((out, inputs, vjp))
        self._output_ids.add(id(out))

    def __len__(self) -> int:
        return len(self._records)

    def produced(self, t: Tensor) -> bool:
        return id(t) in self._output_ids


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into the grad slot of every tensor the
    loss depends on that the tape did not produce (the leaves: parameters
    and inputs); intermediate values get no grad.

    The seed gradient is 1.0; results are *added* into existing .grad so a
    caller can sum gradients over several tapes.  The pass consumes the
    tape: each record is dropped once its gradient has been passed on, so
    the activations it holds are freed as the pass goes.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be scalar (1x1), got {loss.shape}")
    if not tape.produced(loss):
        raise ValueError("loss tensor was not produced on this tape")
    flowing: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    records = tape._records
    while records:
        out, inputs, vjp = records.pop()
        # every consumer of ``out`` was recorded after it, so its gradient is complete
        grad_out = flowing.pop(id(out), None)
        if grad_out is None:
            continue
        for tensor, grad in zip(inputs, vjp(grad_out)):
            if grad is None:
                continue
            if not tape.produced(tensor):
                tensor.add_grad(grad)
            elif id(tensor) in flowing:
                flowing[id(tensor)] = flowing[id(tensor)] + grad
            else:
                flowing[id(tensor)] = grad
    tape._output_ids.clear()


# ---------------------------------------------------------------------------
# products


# OpenBLAS 0.3.31 with 2 threads on a 2-core machine handed a product of
# more multiply-adds than this to its thread pool (measured: 4.8e5 stayed
# on the calling thread, 5.4e5 did not, whatever the transposes), and a
# woken pool spins through later work at about twice the CPU time.
_GEMM_WORK = 480_000


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D arrays as BLAS calls of at most _GEMM_WORK
    multiply-adds each: blocks of rows of ``a``, or, when one row is
    already too much, summed blocks of the inner dimension."""
    m, k = a.shape
    n = b.shape[1]
    if m * n * k <= _GEMM_WORK:
        return a @ b
    rows = _GEMM_WORK // (n * k)
    if rows >= 1:
        out = np.empty((m, n))
        for i in range(0, m, rows):
            np.matmul(a[i : i + rows], b, out=out[i : i + rows])
        return out
    inner = max(1, _GEMM_WORK // (m * n))
    out = a[:, :inner] @ b[:inner]
    for j in range(inner, k, inner):
        out += a[:, j : j + inner] @ b[j : j + inner]
    return out
