"""Elementwise and structural tape primitives that only tests build
losses from; the package itself never calls them.  Each records onto a
``dbtagger.numerics.Tape`` like the package's own primitives."""

import numpy as np

from dbtagger import tagger
from dbtagger.numerics import ShapeError, Tape, Tensor


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions {a.shape} x {b.shape} do not match")
    out = Tensor(a.data @ b.data)
    if tape is not None:
        a_data, b_data = a.data, b.data
        tape.record(out, (a, b), lambda g: (g @ b_data.T, a_data.T @ g))
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise sum; ``b`` may also be a broadcastable row (1 x n) or
    column (m x 1) vector."""
    if a.shape == b.shape:
        reduce = None
    elif b.shape == (1, a.shape[1]):
        reduce = 0
    elif b.shape == (a.shape[0], 1):
        reduce = 1
    else:
        raise ShapeError(f"add: cannot broadcast {b.shape} onto {a.shape}")
    out = Tensor(a.data + b.data)
    if tape is not None:
        def vjp(g):
            return g, (g if reduce is None else g.sum(axis=reduce, keepdims=True))
        tape.record(out, (a, b), vjp)
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


def concat_rows(parts: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Stack tensors of the same width top to bottom."""
    if len({p.shape[1] for p in parts}) != 1:
        raise ShapeError(f"concat_rows: mismatched widths {[p.shape for p in parts]}")
    out = Tensor(np.vstack([p.data for p in parts]))
    if tape is not None:
        ends = np.cumsum([p.shape[0] for p in parts])
        tape.record(out, tuple(parts), lambda g: tuple(np.vsplit(g, ends[:-1])))
    return out


def hadamard(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _check_same_shape(a, b, "hadamard")
    out = Tensor(a.data * b.data)
    if tape is not None:
        a_data, b_data = a.data, b.data
        tape.record(out, (a, b), lambda g: (g * b_data, g * a_data))
    return out


def slice_(t: Tensor, rows: tuple[int, int], cols: tuple[int, int], tape: Tape | None = None) -> Tensor:
    r0, r1 = rows
    c0, c1 = cols
    m, n = t.shape
    if not (0 <= r0 < r1 <= m and 0 <= c0 < c1 <= n):
        raise ShapeError(f"slice: window rows={rows} cols={cols} outside shape {t.shape}")
    out = Tensor(t.data[r0:r1, c0:c1].copy())
    if tape is not None:
        def vjp(g):
            full = np.zeros((m, n))
            full[r0:r1, c0:c1] = g
            return (full,)
        tape.record(out, (t,), vjp)
    return out


def transpose(t: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(t.data.T.copy())
    if tape is not None:
        tape.record(out, (t,), lambda g: (g.T,))
    return out


def sigmoid(t: Tensor, tape: Tape | None = None) -> Tensor:
    # stable both tails
    x = t.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(out_data)
    if tape is not None:
        tape.record(out, (t,), lambda g: (g * out_data * (1.0 - out_data),))
    return out


def tanh(t: Tensor, tape: Tape | None = None) -> Tensor:
    out_data = np.tanh(t.data)
    out = Tensor(out_data)
    if tape is not None:
        tape.record(out, (t,), lambda g: (g * (1.0 - out_data * out_data),))
    return out


def exp(t: Tensor, tape: Tape | None = None) -> Tensor:
    out_data = np.exp(t.data)
    out = Tensor(out_data)
    if tape is not None:
        tape.record(out, (t,), lambda g: (g * out_data,))
    return out


def log(t: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.log(t.data))
    if tape is not None:
        t_data = t.data
        tape.record(out, (t,), lambda g: (g / t_data,))
    return out


def logsumexp_rows(t: Tensor, tape: Tape | None = None) -> Tensor:
    """Row-wise log-sum-exp with the max-shift trick, (m x n) -> (m x 1)."""
    x = t.data
    row_max = x.max(axis=1, keepdims=True)
    shifted = np.exp(x - row_max)
    sums = shifted.sum(axis=1, keepdims=True)
    out = Tensor(row_max + np.log(sums))
    if tape is not None:
        softmax = shifted / sums
        tape.record(out, (t,), lambda g: (g * softmax,))
    return out


def concat(parts: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Join tensors of the same height side by side, column blocks in order."""
    if not parts:
        raise ShapeError("concat: no parts")
    if len({p.shape[0] for p in parts}) != 1:
        raise ShapeError(f"concat: mismatched heights {[p.shape for p in parts]}")
    out = Tensor(np.hstack([p.data for p in parts]))
    if tape is not None:
        ends = np.cumsum([p.shape[1] for p in parts])
        tape.record(out, tuple(parts), lambda g: tuple(np.hsplit(g, ends[:-1])))
    return out


def dropout(t: Tensor, mask: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Apply a precomputed (inverted-scale) dropout mask elementwise."""
    if mask.shape != t.data.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != value shape {t.shape}")
    out = Tensor(t.data * mask)
    if tape is not None:
        tape.record(out, (t,), lambda g: (g * mask,))
    return out


def gru_direction(cell, X, tape: Tape | None = None, rec_mask=None, reverse=False, lengths=None):
    """One cell's walk over a packed input, forward or ``reverse``, as a
    record of its own over ``tagger``'s kernel; arguments as in
    ``tagger.gru_layer``."""
    x_const = not isinstance(X, Tensor)
    Xd = np.asarray(X, dtype=np.float64) if x_const else X.data
    layout = tagger._layout(Xd.shape[0], lengths)
    states, vjp = tagger._gru_kernel(cell, Xd, layout, rec_mask, reverse, not x_const)
    out = Tensor(states)
    if tape is not None:
        params = (cell.input, cell.recurrent, cell.bias)
        tape.record(out, params if x_const else (X, *params), vjp)
    return out
