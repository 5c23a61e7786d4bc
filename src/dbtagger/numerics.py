"""Dense float64 matrix primitives with reverse-mode differentiation.

Everything is a rank-2 array (scalars are 1x1, vectors are rows or
columns).  Primitives optionally record onto an explicit tape; a tape is
an execution-ordered list of records, so reversing it is already a valid
topological order for accumulating vector-Jacobian products.  A tape is
single-threaded; independent tapes can run concurrently.
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


def scalar(value: float) -> Tensor:
    return Tensor(np.array([[float(value)]]))


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
GEMM_WORK = 480_000


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D arrays as BLAS calls of at most GEMM_WORK
    multiply-adds each: blocks of rows of ``a``, or, when one row is
    already too much, summed blocks of the inner dimension."""
    m, k = a.shape
    n = b.shape[1]
    if m * n * k <= GEMM_WORK:
        return a @ b
    rows = GEMM_WORK // (n * k)
    if rows >= 1:
        out = np.empty((m, n))
        for i in range(0, m, rows):
            np.matmul(a[i : i + rows], b, out=out[i : i + rows])
        return out
    inner = max(1, GEMM_WORK // (m * n))
    out = a[:, :inner] @ b[:inner]
    for j in range(inner, k, inner):
        out += a[:, j : j + inner] @ b[j : j + inner]
    return out


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise sum; ``b`` may also be a broadcastable row (1 x n) or
    column (m x 1) vector."""
    if a.shape == b.shape:
        mode = "full"
    elif b.shape == (1, a.shape[1]):
        mode = "row"
    elif b.shape == (a.shape[0], 1):
        mode = "col"
    else:
        raise ShapeError(f"add: cannot broadcast {b.shape} onto {a.shape}")
    out = Tensor(a.data + b.data)
    if tape is not None:
        def vjp(g, mode=mode):
            if mode == "full":
                return g, g
            if mode == "row":
                return g, g.sum(axis=0, keepdims=True)
            return g, g.sum(axis=1, keepdims=True)
        tape.record(out, (a, b), vjp)
    return out


def concat(parts: list[Tensor], axis: int, tape: Tape | None = None) -> Tensor:
    if not parts:
        raise ShapeError("concat: no parts")
    if axis not in (0, 1):
        raise ShapeError(f"concat: axis must be 0 or 1, got {axis}")
    fixed = 1 - axis
    first = parts[0].shape[fixed]
    for p in parts[1:]:
        if p.shape[fixed] != first:
            raise ShapeError(
                f"concat: mismatched shapes {[p.shape for p in parts]} along axis {axis}"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if tape is not None:
        sizes = [p.shape[axis] for p in parts]
        def vjp(g):
            grads, offset = [], 0
            for size in sizes:
                grads.append(g[offset : offset + size] if axis == 0 else g[:, offset : offset + size])
                offset += size
            return tuple(grads)
        tape.record(out, tuple(parts), vjp)
    return out


def scale(t: Tensor, factor: float, tape: Tape | None = None) -> Tensor:
    out = Tensor(t.data * factor)
    if tape is not None:
        tape.record(out, (t,), lambda g: (g * factor,))
    return out


def sum_all(t: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.array([[t.data.sum()]]))
    if tape is not None:
        shape = t.data.shape
        tape.record(out, (t,), lambda g: (np.full(shape, g[0, 0]),))
    return out


def dropout(t: Tensor, mask: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Apply a precomputed (inverted-scale) dropout mask elementwise."""
    if mask.shape != t.data.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != value shape {t.shape}")
    out = Tensor(t.data * mask)
    if tape is not None:
        tape.record(out, (t,), lambda g: (g * mask,))
    return out


# ---------------------------------------------------------------------------
# finite-difference verification


def finite_diff_check(
    make_loss,
    params: list[Tensor],
    h: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max deviation of analytic gradients from central finite differences.

    ``make_loss`` rebuilds the computation and returns ``(loss, tape)``;
    it must be deterministic (dropout disabled).  Errors are normalized by
    max(|analytic|, |numeric|, 1) so near-zero gradients do not blow up
    the ratio.  For large parameter sets a random coordinate subset of
    size ``max_coords`` is checked.
    """
    for p in params:
        p.zero_grad()
    loss, tape = make_loss()
    if not np.isfinite(loss.item()):
        raise ValueError(f"non-finite loss {loss.item()}")
    backward(tape, loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros(p.shape) for p in params]

    coords = [
        (pi, i, j)
        for pi, p in enumerate(params)
        for i in range(p.shape[0])
        for j in range(p.shape[1])
    ]
    if max_coords is not None and len(coords) > max_coords:
        rng = rng or np.random.default_rng(0)
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picks]

    worst = 0.0
    for pi, i, j in coords:
        p = params[pi]
        saved = p.data[i, j]
        p.data[i, j] = saved + h
        f_plus = make_loss()[0].item()
        p.data[i, j] = saved - h
        f_minus = make_loss()[0].item()
        p.data[i, j] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("non-finite loss during finite differencing")
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic[pi][i, j]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
        worst = max(worst, err)
    return worst
