import inspect
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from conftest import (concat_gather_rows, fd_grad, masked_smooth_l1_chain, params_of,
                      pooled_smooth_l1_chain, rel_err, scatter_rows, tape_sum)

from featmim import tensor as tn
from featmim.errors import ConfigError, DataError, NumericError
from featmim.tensor import Tape, Tensor, backward


def bind(**arrays):
    """Float64 parameters from keyword arrays, and a new tape that holds them."""
    params = params_of({k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()})
    return Tape(params), params


def test_matmul_identity():
    # matmul is the dense layer tn.linear, x @ w + b, here with a zero bias
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(tn.linear(a, b, Tensor(np.zeros(2))).data, b.data)


def test_matmul_hand():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(tn.linear(a, b, Tensor(np.array([0.5]))).data, [[11.5]])


def test_matmul_shape_mismatch():
    with pytest.raises(ConfigError, match="linear needs"):
        tn.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(ConfigError, match="linear needs"):  # the bias must match the output width
        tn.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ConfigError, match="linear needs"):  # 2-d inputs only
        tn.linear(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))


def test_matmul_grad_matches_finite_differences():
    # the x, w and b gradients of one linear node
    rng = np.random.default_rng(0)
    x0, w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
    c = rng.normal(size=(4, 2))

    def loss(x, w, b):
        return float(((x @ w + b) ** 2 * c).sum())

    tape, params = bind(x=x0, w=w0, b=b0)
    y = tn.linear(params["x"], params["w"], params["b"])
    backward(tape, tape_sum(tn.mul(tn.mul(y, y), Tensor(c))))
    grads = params.grads
    assert rel_err(grads["x"], fd_grad(lambda v: loss(v, w0, b0), x0)) < 1e-4
    assert rel_err(grads["w"], fd_grad(lambda v: loss(x0, v, b0), w0)) < 1e-4
    assert rel_err(grads["b"], fd_grad(lambda v: loss(x0, w0, v), b0)) < 1e-4


def test_elementwise_ops_reject_broadcasting_a_taped_operand():
    tape, params = bind(row=np.ones((1, 5)))
    row = params["row"]
    for op in (tn.add, tn.mul):
        with pytest.raises(ConfigError, match="taped operand must have the result shape"):
            op(row, Tensor(np.ones((3, 5))))
        with pytest.raises(ConfigError, match="taped operand must have the result shape"):
            op(Tensor(np.ones((3, 5))), row)
    # a constant may still broadcast against a taped operand of the result shape
    out = tn.mul(row, 0.5)
    assert out.data.shape == (1, 5) and out.data.dtype == np.float64
    np.testing.assert_array_equal(tn.add(row, Tensor(np.ones(5))).data, np.full((1, 5), 2.0))
    backward(tape, tape_sum(tn.add(tn.mul(row, 3.0), Tensor(np.ones(5)))))
    np.testing.assert_array_equal(params.grads["row"], np.full((1, 5), 3.0))


def attention_reference(q, k, v, heads):
    """Per-head loops over plain numpy: softmax(q k^T / sqrt(dh)) v, for
    any number of query rows over any number of key rows."""
    d = q.shape[1]
    dh = d // heads
    out = np.zeros_like(q)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        for i in range(len(q)):
            scores = np.array([q[i, cols] @ k[j, cols] for j in range(len(k))]) / np.sqrt(dh)
            w = np.exp(scores - scores.max())
            w /= w.sum()
            out[i, cols] = sum(w[j] * v[j, cols] for j in range(len(k)))
    return out


def smooth_l1_reference(x, beta):
    return np.array([0.5 * u * u / beta if abs(u) < beta else abs(u) - 0.5 * beta
                     for u in np.ravel(x)]).reshape(np.shape(x))


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_matches_numpy_reference(heads):
    rng = np.random.default_rng(heads)
    q, k, v = (rng.normal(size=(5, 4)) for _ in range(3))
    out = tn.attention(Tensor(q), Tensor(k), Tensor(v), heads).data
    np.testing.assert_allclose(out, attention_reference(q, k, v, heads), rtol=0, atol=1e-12)


def test_attention_takes_fewer_queries_than_keys():
    # float64: two sequences of two queries each over three keys each, as
    # the last decoder block's masked rows attend over the full grid
    rng = np.random.default_rng(8)
    q = rng.normal(size=(4, 4))
    k, v = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    out = tn.attention(Tensor(q), Tensor(k), Tensor(v), 2, batch=2).data
    assert out.shape == (4, 4)
    for qs, ks in ((slice(0, 2), slice(0, 3)), (slice(2, 4), slice(3, 6))):
        np.testing.assert_allclose(out[qs], attention_reference(q[qs], k[ks], v[ks], 2),
                                   rtol=0, atol=1e-12)


def test_attention_keeps_batch_sequences_apart():
    # each of the two sequences attends only to itself: perturbing sample 0
    # leaves sample 1's output bitwise unchanged, and each equals its own
    # one-sequence reference
    rng = np.random.default_rng(6)
    q, k, v = (rng.normal(size=(6, 4)) for _ in range(3))
    out = tn.attention(Tensor(q), Tensor(k), Tensor(v), 2, batch=2).data
    for half in (slice(0, 3), slice(3, 6)):
        np.testing.assert_allclose(out[half], attention_reference(q[half], k[half], v[half], 2),
                                   rtol=0, atol=1e-12)
    q2, k2, v2 = (x.copy() for x in (q, k, v))
    for x in (q2, k2, v2):
        x[:3] += rng.normal(size=(3, 4))
    out2 = tn.attention(Tensor(q2), Tensor(k2), Tensor(v2), 2, batch=2).data
    assert out2[3:].tobytes() == out[3:].tobytes()
    assert not np.allclose(out2[:3], out[:3])


def test_smooth_l1_matches_numpy_reference():
    # the elementwise arrays of both loss nodes, with residual x
    rng = np.random.default_rng(4)
    for beta in (0.5, 1.0, 2.0):
        x = rng.normal(size=(6, 3)) * 2
        _, masked = tn.smooth_l1(Tensor(np.zeros((6, 3))), x, beta)
        _, pooled = tn.pooled_smooth_l1(Tensor(np.zeros((6, 3))), x, beta)
        for elem in (masked, pooled):
            np.testing.assert_allclose(elem, smooth_l1_reference(x, beta), rtol=0, atol=1e-12)


# the softmax over keys inside attention: symmetric on equal scores, saturating
# without overflow, rows summing to one, non-finite scores rejected

def test_softmax_symmetry_and_saturation():
    v = np.arange(6.0).reshape(3, 2)
    # equal scores weigh every value row alike
    out = tn.attention(Tensor(np.zeros((3, 2))), Tensor(np.ones((3, 2))), Tensor(v), 1).data
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)
    # one dominant key takes all the weight despite the huge score
    k = np.array([[1000.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    out = tn.attention(Tensor(np.full((3, 2), 1.0)), Tensor(k), Tensor(v), 1).data
    np.testing.assert_allclose(out, np.tile(v[0], (3, 1)), atol=1e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    q, k = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    out = tn.attention(Tensor(q), Tensor(k), Tensor(np.ones((5, 4))), 2).data
    np.testing.assert_allclose(out, np.ones((5, 4)), atol=1e-6)


def test_softmax_rejects_non_finite():
    q = np.ones((2, 2))
    q[0, 1] = np.nan
    with pytest.raises(NumericError):
        tn.attention(Tensor(q), Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), 1)


def test_attention_rejects_bad_shapes():
    x = Tensor(np.ones((3, 4)))
    with pytest.raises(ConfigError, match="attention width 4 does not split into 3 heads"):
        tn.attention(x, x, x, 3)
    with pytest.raises(ConfigError, match="attention needs"):
        tn.attention(x, Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))), 2)  # k narrower than q
    with pytest.raises(ConfigError, match="attention needs"):
        tn.attention(x, x, Tensor(np.ones((2, 4))), 2)  # v rows differ from k rows
    with pytest.raises(ConfigError, match="attention rows 3, 3 do not split into 2 sequences"):
        tn.attention(x, x, x, 2, batch=2)  # 3 rows do not split into 2 sequences
    with pytest.raises(ConfigError, match="attention rows 2, 3 do not split into 2 sequences"):
        tn.attention(Tensor(np.ones((2, 4))), x, x, 2, batch=2)  # nor do 3 keys
    # fewer queries than keys is the masked-row decoder's case
    assert tn.attention(Tensor(np.ones((2, 4))), x, x, 2).data.shape == (2, 4)


def test_fused_ops_record_one_node():
    tape, params = bind(x=np.ones((3, 4)))
    x = params["x"]
    tn.attention(x, x, x, 2)
    tn.smooth_l1(x, np.zeros((3, 4)), 1.0)
    tn.pooled_smooth_l1(x, np.zeros((3, 4)), 1.0)
    assert len(tape._ops) == 3


def test_each_record_holds_one_grad_fn():
    # a constant input keeps its slot in the record, as None; linear skips
    # the gradient of a constant input, as patch_embed's patch rows are
    tape, params = bind(w=np.ones((4, 2)), b=np.zeros(2))
    w, b = params["w"], params["b"]
    out = tn.linear(Tensor(np.ones((3, 4))), w, b)
    (out_idx, in_idxs, grad_fn), = tape._ops
    assert (out_idx, in_idxs) == (out.idx, [None, w.idx, b.idx])
    gx, gw, gb = grad_fn(np.ones((3, 2)))
    assert gx is None and (gw.shape, gb.shape) == ((4, 2), (2,))


def test_layer_norm_constant_row():
    out = tn.layer_norm(Tensor(np.array([5.0, 5.0, 5.0])), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-12)


def test_layer_norm_standardises():
    out = tn.layer_norm(Tensor(np.array([1.0, 2.0, 3.0])), Tensor(np.ones(3)), Tensor(np.zeros(3))).data
    assert abs(out.mean()) < 1e-5
    assert abs(out.var() - 1.0) < 1e-5


def test_backward_sum_gives_ones():
    tape, params = bind(w=np.arange(6, dtype=np.float64).reshape(2, 3))
    backward(tape, tape_sum(params["w"]))
    np.testing.assert_array_equal(params.grads["w"], np.ones((2, 3)))


def test_backward_sum_of_squares():
    tape, params = bind(w=[1.0, 2.0])
    w = params["w"]
    backward(tape, tape_sum(tn.mul(w, w)))
    np.testing.assert_allclose(params.grads["w"], [2.0, 4.0])


def test_backward_rejects_non_scalar_loss():
    tape, params = bind(w=[1.0, 2.0])
    w = params["w"]
    with pytest.raises(ConfigError, match="loss must be scalar"):
        backward(tape, tn.mul(w, w))


def test_backward_consumes_the_tape():
    tape, params = bind(w=np.ones(3))
    w = params["w"]
    loss = tape_sum(tn.mul(w, w))
    backward(tape, loss)
    with pytest.raises(RuntimeError, match="already replayed"):
        backward(tape, loss)


def test_backward_unused_parameter_gets_zeros():
    # backward writes the flat buffer whole: an unreached parameter's slice
    # comes back as exact +0.0 whatever the buffer held before
    tape, params = bind(w=[1.0, 2.0], u=[3.0])
    params.grad[...] = np.nan
    flat = backward(tape, tape_sum(params["w"]))
    assert flat is params.grad
    assert params.grads["u"].tobytes() == np.zeros(1).tobytes()
    assert params.grads["u"].shape == params["u"].data.shape
    np.testing.assert_array_equal(flat, [1.0, 1.0, 0.0])


def test_gradient_accumulation_matches_separate_passes():
    # backward of f(x) + g(x) equals the sum of separate backward passes
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(4,))

    def run(build):
        tape, params = bind(x=x0)
        backward(tape, build(params["x"]))
        return params.grads["x"]

    joint = run(lambda x: tn.add(tape_sum(tn.mul(x, x)), tape_sum(tn.gelu(x))))
    sep = run(lambda x: tape_sum(tn.mul(x, x))) + run(lambda x: tape_sum(tn.gelu(x)))
    np.testing.assert_allclose(joint, sep, rtol=1e-12)


def test_operands_from_two_tapes_are_rejected():
    a = bind(a=np.ones(2))[1]["a"]
    b = bind(b=np.ones(2))[1]["b"]
    with pytest.raises(RuntimeError, match="different tapes"):
        tn.add(a, b)


def test_a_tensor_from_an_earlier_step_fails_loudly():
    # the parameters are bound once and held by each step's new tape; an op
    # tensor of the earlier step mixed into the next raises, and so does
    # recording on the earlier, replayed tape
    tape, params = bind(x=np.ones(3))
    x = params["x"]
    stale = tn.gelu(x)
    backward(tape, tape_sum(stale))
    assert x.tape is None  # handed back: a constant between steps
    np.testing.assert_array_equal(tn.mul(x, x).data, np.ones(3))
    Tape(params)
    with pytest.raises(RuntimeError, match="different tapes"):
        tn.add(stale, x)
    with pytest.raises(RuntimeError, match="already replayed"):
        tn.relu(stale)


def test_gather_rows_with_row_matches_concat_oracle_bitwise():
    # float32, each row of a read once and the row read many times, as
    # decode reads the mask token
    rng = np.random.default_rng(4)
    a0 = rng.normal(size=(6, 8)).astype(np.float32)
    row0 = rng.normal(size=8).astype(np.float32)
    idx = rng.permutation(np.r_[0:6, np.full(42, 6)])
    g = rng.normal(size=(len(idx), 8)).astype(np.float32)
    params = params_of({"a": a0, "row": row0})
    tape = Tape(params)
    out = tn.gather_rows(params["a"], idx, params["row"])
    assert len(tape._ops) == 1  # the row costs no extra op
    backward(tape, tape_sum(tn.mul(out, Tensor(g))))
    want, want_grads = concat_gather_rows(a0, idx, row0)
    assert out.data.tobytes() == want.tobytes()
    for got, ref in zip((params.grads["a"], params.grads["row"]), want_grads(g)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    with pytest.raises(ConfigError, match="gather_rows row has shape"):
        tn.gather_rows(params["a"], idx, Tensor(np.zeros(7, np.float32)))


def _signed_zeros(rng, g):
    """g with about a third of its entries set to -0.0 and a sixth to +0.0,
    and its first row all -0.0."""
    pick = rng.random(g.shape)
    g = np.where(pick < 1 / 3, -0.0, np.where(pick < 0.5, 0.0, g)).astype(g.dtype)
    g[0] = -0.0
    return g


def _record_grad_fn(tape):
    (_, _, grad_fn), = tape._ops
    return grad_fn


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
def test_gather_backward_matches_the_scatter_oracle_bitwise(dtype, batch):
    # the gathers a step records: CLS ahead of each image's visible rows (the
    # row read B times), the restore index (the mask token read B x masked
    # times, each row of h once) and the patch rows (unique, no row); then
    # one-channel rows, where a pairwise np.sum over the row's 64 reads
    # would differ from the scatter's running sum
    rng = np.random.default_rng(batch)
    n, d, n_vis = 16, 5, 6
    vis = np.stack([np.sort(rng.choice(n, n_vis, replace=False)) for _ in range(batch)])
    vis_rows = vis + n * np.arange(batch)[:, None]
    restore = np.full(batch * n, batch * n_vis)
    restore[vis_rows.reshape(-1)] = np.arange(batch * n_vis)
    seq = n_vis + 1
    cases = [
        (batch * n, np.concatenate([np.full((batch, 1), batch * n), vis_rows], axis=1), True, d),
        (batch * n_vis, restore, True, d),
        (batch * seq, (seq * np.arange(batch)[:, None] + np.arange(1, seq)), False, d),
        (3, rng.permutation(np.r_[0:3, np.full(64, 3)]), True, 1),
    ]
    for rows_a, idx, with_row, d in cases:
        idx = idx.reshape(-1)
        arrays = {"a": rng.normal(size=(rows_a, d)).astype(dtype)}
        if with_row:
            arrays["row"] = rng.normal(size=d).astype(dtype)
        params = params_of(arrays)
        tape = Tape(params)
        tn.gather_rows(params["a"], idx, params["row"] if with_row else None)
        g = _signed_zeros(rng, rng.normal(size=(len(idx), d)).astype(dtype))
        got = _record_grad_fn(tape)(g)
        want = scatter_rows((rows_a + with_row, d), idx, g)
        want = (want[:rows_a], want[rows_a]) if with_row else (want,)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.dtype == dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("upstream", [1.0, -0.3])
def test_masked_loss_backward_matches_the_scatter_oracle_bitwise(dtype, upstream):
    # the predictions at rows masked in three images; zero residuals in both
    # branches give elementwise gradients of +0.0 and, under a negative
    # upstream, -0.0. The node's gradient is the masked rows of
    # np.subtract.at into zeros of the full grid, so both come out +0.0
    rng = np.random.default_rng(int(upstream < 0))
    n, d, beta = 8, 3, 2.0
    rows = np.concatenate([b * n + np.sort(rng.choice(n, 3, replace=False)) for b in range(3)])
    grid = (rng.normal(size=(3 * n, d)) * 3).astype(dtype)
    z0 = grid[rows]
    target = (rng.normal(size=(len(rows), d)) * 3).astype(dtype)
    target[:2] = z0[:2]
    params = params_of({"z": z0})
    tape = Tape(params)
    tn.smooth_l1(params["z"], target, beta)
    g = np.asarray(upstream, dtype=dtype)
    (got,) = _record_grad_fn(tape)(g)
    grad_d = tn._smooth_l1(target - z0, beta)[2](g)
    assert (np.signbit(grad_d) & (grad_d == 0)).any() == (upstream < 0)
    want = scatter_rows(grid.shape, rows, grad_d, np.subtract)[rows]
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_parameter_registered_once():
    # a parameter is one tensor over its slice of the flat buffer for the
    # whole run: every step's tape takes that tensor, at the same position,
    # and no tape makes a new one
    w0 = np.zeros(2)
    params = params_of({"v": np.ones(3), "w": w0})
    w = params["w"]
    assert np.shares_memory(w.data, params.flat) and not np.shares_memory(w.data, w0)
    for _ in range(2):
        tape = Tape(params)
        assert params["w"] is w and (w.tape, w.idx) == (tape, 1)
        assert tape._n_nodes == 2
        backward(tape, tape_sum(tn.mul(w, w)))


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4)).astype(np.float32)
    w = rng.normal(size=(4, 4)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)

    def run():
        t = tn.gelu(tn.linear(Tensor(x), Tensor(w), Tensor(b)))
        return tn.attention(t, t, t, 2).data.tobytes()

    assert run() == run()


# every op that records a tape node: analytic vs central finite
# differences, 100 random instances each, in float64. relu and the smooth-L1
# residuals are sampled away from their kinks. each factory freezes its
# constants so the oracle sees a fixed function.

def _normal(rng, shape=5):
    return rng.normal(size=shape)


def _away_from_zero(rng, shape=5):
    v = rng.normal(size=shape)
    return np.sign(v) * (np.abs(v) + 0.5)


def _away_from_kink(rng, beta, shape=6):
    # half the entries inside |x| < beta, half outside, none within 0.2 of it
    n = int(np.prod(shape))
    mag = np.concatenate([rng.uniform(0.0, 0.8, n // 2),
                          rng.uniform(1.2, 3.0, n - n // 2)]) * beta
    return np.where(rng.integers(0, 2, n).astype(bool), mag, -mag).reshape(shape)


def _sq(t):
    return tn.mul(t, t)


def _op_factories():
    def add_(rng):
        c = _normal(rng)
        return _normal(rng), lambda x: tape_sum(tn.add(x, Tensor(c)))

    def mul_(rng):
        c = _normal(rng)
        return _normal(rng), lambda x: tape_sum(tn.mul(x, Tensor(c)))

    def relu_(rng):
        return _away_from_zero(rng), lambda x: tape_sum(tn.relu(x))

    def gelu_(rng):
        return _normal(rng), lambda x: tape_sum(tn.gelu(x))

    def square_(rng):
        # one tensor in both operand slots: the gradient accumulates from each
        return _normal(rng), lambda x: tape_sum(tn.mul(x, x))

    def matmul2d(rng):
        # x as the input rows of a linear node
        c, bias = _normal(rng, (5, 2)), _normal(rng, (2,))
        return (_normal(rng, (3, 5)),
                lambda x: tape_sum(_sq(tn.linear(x, Tensor(c), Tensor(bias)))))

    def linear_w(rng):
        # constant input rows and a taped weight, as in patch_embed
        rows, bias = _normal(rng, (3, 5)), _normal(rng, (2,))
        return (_normal(rng, (5, 2)),
                lambda x: tape_sum(_sq(tn.linear(Tensor(rows), x, Tensor(bias)))))

    def gather_(rng):
        return _normal(rng), lambda x: tape_sum(_sq(tn.gather_rows(x, [4, 0, 2])))

    def scatter_(rng):
        # rows placed at 1, 3, 5, 7, 9 of 10 by one gather, index 5 reading the
        # filler row, as decode places visible tokens among mask tokens
        c = _normal(rng, (10, 1))
        restore = [5, 0, 5, 1, 5, 2, 5, 3, 5, 4]
        return (_normal(rng, (5, 1)),
                lambda x: tape_sum(tn.mul(tn.gather_rows(x, restore, Tensor(np.zeros(1))),
                                          Tensor(c))))

    def gather_row(rng):
        # x is the taped row, read at index 3 = len(a) beside the rows of a,
        # which place x too: both backward paths reach the gradient of x
        a, c = _normal(rng, (2, 2)), _normal(rng, (5, 2))
        return (_normal(rng, (2,)),
                lambda x: tape_sum(tn.mul(
                    tn.gather_rows(_sq(tn.gather_rows(Tensor(a), [2, 0, 2], x)),
                                   [3, 0, 2, 3, 1], x),
                    Tensor(c))))

    def gather_const_rows(rng):
        # constant rows with a taped row read at index 3 = len(a)
        a, c = _normal(rng, (3, 2)), _normal(rng, (6, 2))
        return (_normal(rng, (2,)),
                lambda x: tape_sum(tn.mul(tn.gather_rows(Tensor(a), [3, 0, 3, 2, 3, 1], x),
                                          Tensor(c))))

    def softmax_(rng):
        # with k = sqrt(4) I and v = I, attention returns the row softmax of q
        c = _normal(rng, (4, 4))
        return (_normal(rng, (4, 4)),
                lambda x: tape_sum(tn.mul(tn.attention(x, Tensor(2.0 * np.eye(4)),
                                                       Tensor(np.eye(4)), 1),
                                          Tensor(c))))

    def attention_1head(rng):
        # x feeds q, k and v, so all three input gradients are checked
        ck, cv, c = _normal(rng, (3, 4)), _normal(rng, (3, 4)), _normal(rng, (3, 4))
        return (_normal(rng, (3, 4)),
                lambda x: tape_sum(tn.mul(tn.attention(x, tn.mul(x, Tensor(ck)),
                                                       tn.add(x, Tensor(cv)), 1),
                                          Tensor(c))))

    def attention_2heads(rng):
        # constant q: the k and v gradients alone
        cq, cv, c = _normal(rng, (3, 4)), _normal(rng, (3, 4)), _normal(rng, (3, 4))
        return (_normal(rng, (3, 4)),
                lambda x: tape_sum(tn.mul(tn.attention(Tensor(cq), x, tn.mul(x, Tensor(cv)), 2),
                                          Tensor(c))))

    def attention_fewer_queries(rng):
        # two sequences of four rows, queries from two rows of each through a
        # gather, as in the last decoder block; x feeds q, k and v
        rows, ck, cv = [1, 2, 4, 7], _normal(rng, (8, 4)), _normal(rng, (8, 4))
        c = _normal(rng, (4, 4))
        return (_normal(rng, (8, 4)),
                lambda x: tape_sum(tn.mul(tn.attention(tn.gather_rows(x, rows), tn.mul(x, Tensor(ck)),
                                                       tn.add(x, Tensor(cv)), 2, batch=2),
                                          Tensor(c))))

    def attention_batched(rng):
        # two sequences of three tokens each, x feeding q, k and v
        ck, cv, c = _normal(rng, (6, 4)), _normal(rng, (6, 4)), _normal(rng, (6, 4))
        return (_normal(rng, (6, 4)),
                lambda x: tape_sum(tn.mul(tn.attention(x, tn.mul(x, Tensor(ck)),
                                                       tn.add(x, Tensor(cv)), 2, batch=2),
                                          Tensor(c))))

    def masked_smooth_l1_(rng):
        # one image: the predictions at its three masked rows
        beta, target = float(rng.choice([0.5, 2.0])), _normal(rng, (3, 3))
        x = target - _away_from_kink(rng, beta, (3, 3))
        return x, lambda x: tn.smooth_l1(x, target, beta)[0]

    def masked_smooth_l1_batched(rng):
        # three images, two masked rows each, and an upstream gradient of
        # 0.7 as the global loss gets lam
        beta, target = float(rng.choice([0.5, 2.0])), _normal(rng, (6, 2))
        x = target - _away_from_kink(rng, beta, (6, 2))
        return x, lambda x: tn.mul(tn.smooth_l1(x, target, beta)[0], 0.7)

    def pooled_smooth_l1_(rng):
        # one image of four rows
        beta, x = float(rng.choice([0.5, 2.0])), _normal(rng, (4, 3))
        target = x.mean(axis=0, keepdims=True) + _away_from_kink(rng, beta, (1, 3))
        return x, lambda x: tn.pooled_smooth_l1(x, target, beta)[0]

    def pooled_smooth_l1_batched(rng):
        # three images of three rows, upstream gradient 0.7
        beta, x = float(rng.choice([0.5, 2.0])), _normal(rng, (9, 2))
        target = x.reshape(3, 3, 2).mean(axis=1) + _away_from_kink(rng, beta, (3, 2))
        return x, lambda x: tn.mul(tn.pooled_smooth_l1(x, target, beta)[0], 0.7)

    def layer_norm_x(rng):
        c = _normal(rng)
        g = _normal(rng) + 2.0
        b = _normal(rng)
        return (_normal(rng),
                lambda x: tape_sum(tn.mul(tn.layer_norm(x, Tensor(g), Tensor(b)), Tensor(c))))

    def layer_norm_gain(rng):
        # constant x and a taped gain
        xs, c, b = _normal(rng, (3, 5)), _normal(rng, (3, 5)), _normal(rng)
        return (_normal(rng) + 2.0,
                lambda x: tape_sum(tn.mul(tn.layer_norm(Tensor(xs), x, Tensor(b)), Tensor(c))))

    # (the op a case checks, its factory)
    cases = [(tn.add, add_), (tn.mul, mul_), (tn.mul, square_), (tn.relu, relu_),
             (tn.gelu, gelu_), (tn.linear, matmul2d), (tn.linear, linear_w),
             (tn.gather_rows, gather_), (tn.gather_rows, scatter_),
             (tn.gather_rows, gather_row), (tn.gather_rows, gather_const_rows),
             (tn.attention, softmax_), (tn.attention, attention_1head),
             (tn.attention, attention_2heads), (tn.attention, attention_fewer_queries),
             (tn.attention, attention_batched), (tn.smooth_l1, masked_smooth_l1_),
             (tn.smooth_l1, masked_smooth_l1_batched),
             (tn.pooled_smooth_l1, pooled_smooth_l1_),
             (tn.pooled_smooth_l1, pooled_smooth_l1_batched),
             (tn.layer_norm, layer_norm_x), (tn.layer_norm, layer_norm_gain)]
    return [(f.__name__.rstrip("_"), op, f) for op, f in cases]


OP_CASES = _op_factories()


@pytest.mark.parametrize("name,factory", [(n, f) for n, _, f in OP_CASES],
                         ids=[n for n, _, _ in OP_CASES])
def test_op_gradients_match_finite_differences(name, factory):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(100):
        x0, build = factory(rng)

        def f(x):
            return float(build(Tensor(x)).data)

        tape, params = bind(x=x0)
        backward(tape, build(params["x"]))
        worst = max(worst, rel_err(params.grads["x"], fd_grad(f, x0)))
    assert worst < 1e-4, f"{name}: max rel err {worst}"


def test_every_tape_op_has_a_finite_difference_case():
    # a public featmim.tensor function whose source calls _emit records a
    # tape node; each has a case above, and each case names such a function
    tape_ops = {name for name, fn in inspect.getmembers(tn, inspect.isfunction)
                if fn.__module__ == tn.__name__ and not name.startswith("_")
                and "_emit(" in inspect.getsource(fn)}
    assert tape_ops == {op.__name__ for _, op, _ in OP_CASES}
    for name, op, factory in OP_CASES:
        assert f"tn.{op.__name__}(" in inspect.getsource(factory), name


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("upstream", [1.0, 0.3])
def test_loss_nodes_match_the_op_chain_bitwise(batch, upstream):
    # float32, residuals on both sides of beta and some exactly zero, whose
    # zero gradient must come out as +0.0 like the chain's scatter-add; the
    # upstream gradient 0.3 is what a lam-weighted global loss receives
    rng = np.random.default_rng(batch)
    beta, n, dim, n_masked, n_vis = 2.0, 6, 4, 3, 3
    f32 = np.float32

    def check(node, oracle, x0, target):
        params = params_of({"x": x0})
        tape = Tape(params)
        loss, elem = node(params["x"], target, beta)
        # the node's mean is the chain's sum times 1 / (element count)
        want_loss, want_elem, want_grads = oracle(x0, target, beta, 1.0 / target.size)
        inside = np.abs(want_elem) < 0.5 * beta  # |d| < beta
        assert inside.any() and not inside.all()
        assert loss.data.tobytes() == want_loss.tobytes()
        assert elem.dtype == f32 and elem.tobytes() == want_elem.tobytes()
        backward(tape, tn.mul(loss, upstream) if upstream != 1.0 else loss)
        grad = params.grads["x"]
        want = want_grads(np.ones((), f32) * np.asarray(upstream, dtype=f32))
        assert grad.dtype == f32 and grad.tobytes() == want.tobytes()

    rows = np.concatenate([b * n + np.sort(rng.choice(n, n_masked, replace=False))
                           for b in range(batch)])
    z = (rng.normal(size=(batch * n, dim)) * 3).astype(f32)
    target = (rng.normal(size=(len(rows), dim)) * 3).astype(f32)
    target[0, :2] = z[rows[0], :2]  # zero residuals
    def masked_chain(zm, target, beta, scale):  # the chain over the grid z, read at rows
        loss, elem, grads = masked_smooth_l1_chain(z, rows, target, beta, scale)
        return loss, elem, lambda g: grads(g)[rows]

    check(tn.smooth_l1, masked_chain, z[rows], target)

    p = (rng.normal(size=(batch * n_vis, dim)) * 3).astype(f32)
    means = (rng.normal(size=(batch, dim)) * 3).astype(f32)
    means[0, :2] = (p.reshape(batch, n_vis, dim).sum(axis=1) * f32(1 / n_vis))[0, :2]
    check(tn.pooled_smooth_l1, pooled_smooth_l1_chain, p, means)


def test_layer_norm_gain_bias_gradients():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(3, 4))
    g0 = rng.normal(size=4)
    b0 = rng.normal(size=4)
    wts = rng.normal(size=(3, 4))

    tape, params = bind(g=g0, b=b0)
    loss = tape_sum(tn.mul(tn.layer_norm(Tensor(x0), params["g"], params["b"]), Tensor(wts)))
    backward(tape, loss)
    grads = params.grads

    def fg(gv):
        out = tn.layer_norm(Tensor(x0), Tensor(gv), Tensor(b0)).data
        return float((out * wts).sum())

    def fb(bv):
        out = tn.layer_norm(Tensor(x0), Tensor(g0), Tensor(bv)).data
        return float((out * wts).sum())

    assert rel_err(grads["g"], fd_grad(fg, g0)) < 1e-4
    assert rel_err(grads["b"], fd_grad(fb, b0)) < 1e-4


def test_tvec_round_trip(tmp_path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    p = tmp_path / "a.tvec"
    tn.write_tvec(p, arr)
    back = tn.read_tvec(p)
    np.testing.assert_array_equal(back, arr)
    assert back.dtype == np.float32


def test_tvec_write_is_deterministic(tmp_path):
    arr = np.linspace(0, 1, 10, dtype=np.float32)
    pa, pb = tmp_path / "a.tvec", tmp_path / "b.tvec"
    tn.write_tvec(pa, arr)
    tn.write_tvec(pb, arr)
    assert pa.read_bytes() == pb.read_bytes()


def test_tvec_read_holds_the_file_at_most_twice(tmp_path):
    # the file's bytes and the array's one copy of its payload, which it
    # reads through a view of those bytes
    arr = np.arange(256 * 1024, dtype=np.float32).reshape(1024, 256)  # 1 MiB
    p = tmp_path / "a.tvec"
    tn.write_tvec(p, arr)
    tracemalloc.start()
    try:
        back = tn.read_tvec(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == arr.tobytes() and back.flags.writeable
    assert peak < 2.2 * arr.nbytes, peak / arr.nbytes


@pytest.mark.parametrize("into", [False, True], ids=["new_array", "slice_given"])
def test_tvec_read_holds_the_payload_once(tmp_path, into):
    # the header is parsed from the open file and the payload read into its
    # array: the payload plus the header and the file's 8 KiB read buffer.
    # Into a slice the caller hands it, nothing of the payload's size
    arr = np.arange(256 * 1024, dtype=np.float32).reshape(1024, 256)  # 1 MiB
    p = tmp_path / "a.tvec"
    tn.write_tvec(p, arr)
    corpus = np.zeros((2048, 256), dtype=np.float32)
    out = corpus[512:1536] if into else None
    tracemalloc.start()
    try:
        back = tn.read_tvec(p, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == arr.tobytes() and back.flags.writeable
    assert (back is out) == into
    assert peak < (0 if into else arr.nbytes) + len(tvec_header(arr.shape)) + 8 * 1024, peak


def test_tvec_read_into_a_mismatched_slice_makes_a_new_array(tmp_path):
    # a slice of another shape, dtype or layout is left alone
    p = tmp_path / "a.tvec"
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    tn.write_tvec(p, arr)
    for out in (np.zeros((3, 2), np.float32), np.zeros((2, 3)), np.zeros((3, 2), np.float32).T):
        before = out.tobytes()
        back = tn.read_tvec(p, out)
        assert back is not out and back.tobytes() == arr.tobytes()
        assert out.tobytes() == before


def test_tvec_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.tvec"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        tn.read_tvec(p)


def tvec_header(shape):
    """A tvec record's header alone, for any extents: no payload follows."""
    return (tn.TVEC_MAGIC + struct.pack("<BBB", tn.TVEC_VERSION, 0, len(shape))
            + b"".join(struct.pack("<Q", e) for e in shape))


# (2**62, 4) wraps to a count of 0 in int64; an empty record's extents
# can still be more than numpy can hold
@pytest.mark.parametrize("shape", [(2**62, 4), (2**32, 2**32), (0, 2**63), (0, 2**62)])
def test_tvec_rejects_extents_past_the_payload(tmp_path, shape):
    p = tmp_path / "huge.tvec"
    p.write_bytes(tvec_header(shape))
    with pytest.raises(DataError, match="huge.tvec"):
        tn.read_tvec(p)


def test_tvec_rejects_truncated_payload(tmp_path):
    p = tmp_path / "short.tvec"
    tn.write_tvec(p, np.zeros(4, dtype=np.float32))
    blob = p.read_bytes()
    p.write_bytes(blob[:-4])
    with pytest.raises(DataError):
        tn.read_tvec(p)
