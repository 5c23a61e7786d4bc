import ast
from pathlib import Path

import numpy as np
import pytest

import tape_ops as ops
from dbtagger import numerics as nm
from dbtagger.numerics import ShapeError, Tape, Tensor, backward
from oracles import finite_diff_check


def test_matmul_identity():
    m = Tensor(np.arange(9.0).reshape(3, 3))
    out = ops.matmul(Tensor(np.eye(3)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\) x \(2, 3\)"):
        ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_closed_forms():
    assert ops.sigmoid(Tensor(0.0)).item() == 0.5
    assert ops.tanh(Tensor(0.0)).item() == 0.0
    assert ops.logsumexp_rows(Tensor([[0.0, 0.0]])).item() == pytest.approx(np.log(2), abs=1e-12)


def test_logsumexp_stable_at_large_magnitude():
    big = Tensor([[1e3, -1e3, 999.0]])
    out = ops.logsumexp_rows(big)
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(1e3 + np.log(1 + np.exp(-1) + np.exp(-2e3)), rel=1e-12)


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
    tape = Tape()
    loss = ops.sum_all(x, tape)
    backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_product_rule():
    x, y = Tensor(3.0), Tensor(-2.0)
    tape = Tape()
    loss = ops.hadamard(x, y, tape)
    backward(tape, loss)
    assert x.grad[0, 0] == -2.0 and y.grad[0, 0] == 3.0


def test_backward_requires_scalar_loss_on_tape():
    x = Tensor(np.zeros((2, 2)))
    tape = Tape()
    out = ops.add(x, x, tape)
    with pytest.raises(ShapeError):
        backward(tape, out)
    with pytest.raises(ValueError, match="not produced"):
        backward(tape, Tensor(1.0))


def test_backward_accumulates_across_tapes():
    x = Tensor(2.0)
    for _ in range(2):
        tape = Tape()
        loss = ops.hadamard(x, x, tape)
        backward(tape, loss)
    # d(x^2)/dx = 4 per pass, summed over two passes
    assert x.grad[0, 0] == 8.0


def _fd_for_op(build, params, seed=0):
    return finite_diff_check(build, params, h=1e-6, rng=np.random.default_rng(seed))


def test_vjp_matmul():
    rng = np.random.default_rng(1)
    a, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((4, 2)))
    w = rng.standard_normal((3, 2))

    def build():
        tape = Tape()
        out = ops.matmul(a, b, tape)
        return ops.sum_all(ops.hadamard(out, Tensor(w), tape), tape), tape

    assert _fd_for_op(build, [a, b]) < 1e-8


def test_vjp_add_broadcasts():
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((3, 4)))
    row = Tensor(rng.standard_normal((1, 4)))
    col = Tensor(rng.standard_normal((3, 1)))
    w = rng.standard_normal((3, 4))

    def build():
        tape = Tape()
        out = ops.add(ops.add(a, row, tape), col, tape)
        return ops.sum_all(ops.hadamard(out, Tensor(w), tape), tape), tape

    assert _fd_for_op(build, [a, row, col]) < 1e-8


def test_add_rejects_bad_broadcast():
    with pytest.raises(ShapeError):
        ops.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))


def test_vjp_elementwise_and_structural():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((2, 3)))
    b = Tensor(rng.standard_normal((2, 3)))
    mask = (rng.random((3, 5)) > 0.4).astype(float) * 2.0
    w = rng.standard_normal((3, 5))

    def build():
        tape = Tape()
        joined = ops.concat_rows([ops.sigmoid(a, tape), ops.tanh(b, tape)], tape)        # 4x3
        cut = ops.slice_(joined, (1, 4), (0, 3), tape)                                   # 3x3
        lifted = ops.matmul(ops.transpose(cut, tape), Tensor(w), tape)                    # 3x5
        dropped = ops.dropout(ops.scale(lifted, 0.7, tape), mask, tape)
        return ops.sum_all(dropped, tape), tape

    assert _fd_for_op(build, [a, b]) < 1e-8


def test_vjp_exp_log_logsumexp():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((3, 4)))
    pos = Tensor(rng.random((3, 4)) + 0.5)

    def build():
        tape = Tape()
        lse = ops.logsumexp_rows(ops.exp(a, tape), tape)          # 3x1
        logs = ops.log(pos, tape)                                 # 3x4
        mixed = ops.add(logs, lse, tape)                         # column broadcast
        return ops.sum_all(mixed, tape), tape

    assert _fd_for_op(build, [a, pos]) < 1e-8


def test_three_layer_composition_matches_fd():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((4, 1)))
    w1 = Tensor(rng.standard_normal((5, 4)) * 0.5)
    w2 = Tensor(rng.standard_normal((5, 5)) * 0.5)
    w3 = Tensor(rng.standard_normal((1, 5)) * 0.5)

    def build():
        tape = Tape()
        h1 = ops.tanh(ops.matmul(w1, x, tape), tape)
        h2 = ops.sigmoid(ops.matmul(w2, h1, tape), tape)
        return ops.sum_all(ops.matmul(w3, h2, tape), tape), tape

    err = finite_diff_check(build, [x, w1, w2, w3], h=1e-5)
    assert err < 1e-6


def test_fd_check_quadratic_is_nearly_exact():
    p = Tensor(np.array([[0.7, -1.2, 0.4]]))

    def build():
        tape = Tape()
        return ops.sum_all(ops.hadamard(p, p, tape), tape), tape

    assert finite_diff_check(build, [p], h=1e-5) < 1e-9


def test_fd_check_constant_function():
    p = Tensor(np.ones((2, 2)))

    def build():
        tape = Tape()
        out = ops.scale(p, 0.0, tape)
        return ops.sum_all(out, tape), tape

    assert finite_diff_check(build, [p], h=1e-5) == 0.0


def test_fd_check_rejects_non_finite():
    p = Tensor(np.array([[0.0]]))

    def build():
        tape = Tape()
        return ops.log(p, tape), tape

    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_check(build, [p], h=1e-5)


def test_fd_check_coordinate_sampling_deterministic():
    rng = np.random.default_rng(6)
    p = Tensor(rng.standard_normal((6, 6)))

    def build():
        tape = Tape()
        return ops.sum_all(ops.hadamard(p, p, tape), tape), tape

    a = finite_diff_check(build, [p], h=1e-5, max_coords=10, rng=np.random.default_rng(1))
    b = finite_diff_check(build, [p], h=1e-5, max_coords=10, rng=np.random.default_rng(1))
    assert a == b


def test_forward_deterministic():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((3, 3)))
    one = ops.tanh(ops.matmul(a, a)).data
    two = ops.tanh(ops.matmul(a, a)).data
    assert np.array_equal(one, two)


def test_tensor_rank_limits():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0]).shape == (1, 2)


def test_backward_writes_grad_on_leaves_only():
    rng = np.random.default_rng(3)
    x, w = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((3, 1)))
    tape = Tape()
    hidden = ops.matmul(x, w, tape)
    scaled = ops.scale(hidden, 2.0, tape)
    loss = ops.sum_all(scaled, tape)
    backward(tape, loss)
    assert hidden.grad is None and scaled.grad is None and loss.grad is None
    assert np.allclose(x.grad, np.tile(2.0 * w.data.T, (2, 1)), rtol=0, atol=1e-15)
    assert np.allclose(w.grad, 2.0 * x.data.sum(axis=0)[:, None], rtol=0, atol=1e-15)


def test_add_grad_keeps_the_first_gradient_without_a_copy():
    t = Tensor(np.zeros((1, 2)))
    g = np.array([[1.0, 2.0]])
    t.add_grad(g)
    assert t.grad is g
    t.add_grad(g)
    assert t.grad is not g and np.array_equal(t.grad, [[2.0, 4.0]])
    assert np.array_equal(g, [[1.0, 2.0]])


@pytest.mark.parametrize("shape", [(3, 4, 5), (40, 200, 300), (300, 160, 200), (3, 1000, 600)])
def test_gemm_matches_matmul(shape):
    m, k, n = shape
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    assert np.abs(nm.gemm(a, b) - a @ b).max() <= 1e-12 * k
    assert np.abs(nm.gemm(a.T.copy().T, b.T.copy().T) - a @ b).max() <= 1e-12 * k


def _public_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def _names_used_from_numerics(tree: ast.Module) -> set[str]:
    """Names a module imports from ``numerics`` or reads off it."""
    used, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("numerics", "dbtagger.numerics"):
                used |= {a.name for a in node.names}
            elif node.module in (None, "dbtagger"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "numerics"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add(node.attr)
    return used


def test_every_public_numerics_name_is_used_elsewhere_in_the_package():
    package = Path(nm.__file__).parent
    public = _public_names(ast.parse((package / "numerics.py").read_text()))
    used = set()
    for path in package.glob("*.py"):
        if path.name != "numerics.py":
            used |= _names_used_from_numerics(ast.parse(path.read_text()))
    assert public - used == set()
    assert public == {"ShapeError", "Tensor", "Tape", "backward", "gemm"}
