"""Dense tensors with reverse-mode automatic differentiation.

Numpy storage and kernels; an explicit tape rebuilt every step, whose first
positions are the Parameters (one flat buffer, bound once per run; backward
writes their gradients in its layout); other untaped tensors are constants.
float32 is the training dtype; every op is dtype-preserving, so the same
graph runs in float64 for gradient checks.

The op vocabulary is what the student and its losses use: elementwise add,
mul, relu, gelu; gather_rows of distinct rows (which can also place one
learned row, such as a mask token, any number of times); and the fused
linear (x @ w + b), layer_norm, attention and the two smooth-L1 losses,
smooth_l1 and pooled_smooth_l1, each one tape node with an analytic
backward. Ops take tensors; add and mul also take a Python scalar factor,
only ever as the second operand, and operands of equal shape, except that
a constant may broadcast against a taped operand.

Single-threaded: one tape must not be shared across threads during a step.
"""

import io
import math
import os
import struct

import numpy as np

from .errors import ConfigError, DataError, NumericError

GELU_C = float(np.sqrt(2.0 / np.pi))
GELU_A = 0.044715


class Tensor:
    """A dense n-d array: taped, with its tape and position, when a Tape
    created it; a constant otherwise."""

    __slots__ = ("data", "tape", "idx")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.tape = None
        self.idx = None

    def __repr__(self):
        tag = "taped" if self.tape is not None else "const"
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, {tag})"


class Parameters(dict):
    """name -> tensor over that name's view of `flat`, a 1-d C-contiguous
    buffer laid out as `shapes` ({name: shape}) lists them, adopted as given,
    not copied; constant except while a Tape holds it. `grad`, the buffer
    backward writes, has the same layout, viewed shaped like each parameter
    as grads[name]; the first Tape allocates it, so weights that are never
    trained are held once. Write weights in place."""

    def __init__(self, flat, shapes):
        self.flat, self.grad, self.grads = flat, None, {}
        self.ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        for idx, ((name, shape), end) in enumerate(zip(shapes.items(), self.ends)):
            self[name] = Tensor(flat[end - math.prod(shape):end].reshape(shape))
            self[name].idx = idx  # its position on every tape that holds it

    def name_at(self, offset):  # the parameter at this offset of `flat` or `grad`
        return list(self)[np.searchsorted(self.ends, offset, side="right")]


class Tape:
    """Ordered record of one step's operations, whose first positions are the
    Parameters given: it holds them until backward hands them back, so a
    tensor of an earlier step's tape cannot be mixed into this one. backward()
    replays the records, one grad fn each (see _emit), in exact reverse order,
    releasing each as it goes; gradients for shared inputs accumulate."""

    def __init__(self, params):
        self._ops = []  # (out_idx, in_idxs, grad_fn) in recording order
        self.params = params
        if params.grad is None:
            params.grad = np.empty_like(params.flat)
            params.grads = {name: params.grad[end - t.data.size:end].reshape(t.data.shape)
                            for (name, t), end in zip(params.items(), params.ends)}
        for t in params.values():
            t.tape = self
        self._n_nodes = len(params)


def backward(tape, loss):
    """Gradients of a scalar `loss` for every parameter of `tape`, written
    into the parameters' flat buffer and returned in it; a parameter the
    loss does not reach gets exact zeros. The replay consumes the tape's
    records, so a tape supports one backward."""
    if loss.tape is not tape:
        raise ConfigError("loss is not a tensor recorded on this tape")
    if loss.data.shape != ():
        raise ConfigError(f"loss must be scalar, got shape {loss.data.shape}")
    if tape._ops is None:
        raise RuntimeError("tape already replayed by backward; record a new tape per step")
    grads = [None] * tape._n_nodes
    grads[loss.idx] = np.ones((), dtype=loss.data.dtype)
    # pop each record as it is replayed: its grad fns, and the activations
    # they hold, are freed by reference counting, not left to the cyclic GC
    ops, tape._ops = tape._ops, None
    while ops:
        out_idx, in_idxs, grad_fn = ops.pop()
        g = grads[out_idx]
        grads[out_idx] = None  # op outputs are never parameters
        if g is None:
            continue
        for in_idx, contrib in zip(in_idxs, grad_fn(g)):
            if in_idx is not None:  # a constant input's gradient is dropped
                grads[in_idx] = contrib if grads[in_idx] is None else grads[in_idx] + contrib
    for t, view, g in zip(tape.params.values(), tape.params.grads.values(), grads):
        t.tape = None  # handed back: a constant until the next Tape
        view[...] = 0.0 if g is None else g
    return tape.params.grad


# --- op plumbing ---


def _emit(out_data, inputs, grad_fn):
    """Create the output tensor and record (out position, input positions,
    grad_fn) on the one tape the taped inputs share. grad_fn(g) returns a
    gradient for every input, constants included (or None for one); a
    constant's position is None, so backward drops its gradient."""
    tapes = {t.tape for t in inputs if t.tape is not None}
    if not tapes:
        return Tensor(out_data)
    if len(tapes) > 1:
        raise RuntimeError("operands recorded on different tapes")
    tape = tapes.pop()
    if tape._ops is None:
        raise RuntimeError("operand recorded on a tape already replayed by backward")
    out = Tensor(out_data)
    out.tape, out.idx = tape, tape._n_nodes
    tape._n_nodes += 1
    tape._ops.append((out.idx, [t.idx if t.tape is not None else None for t in inputs], grad_fn))
    return out


# --- elementwise ops ---


def _operands(a, b):
    """Both operands of an elementwise op as tensors; b may be a Python
    scalar. Only a constant may broadcast: a taped operand has the result's
    shape, so its gradient needs no reduction."""
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    if a.data.shape != b.data.shape:
        shape = np.broadcast_shapes(a.data.shape, b.data.shape)
        if any(t.tape is not None and t.data.shape != shape for t in (a, b)):
            raise ConfigError(f"a taped operand must have the result shape {shape}, "
                              f"got {a.data.shape} and {b.data.shape}")
    return a, b


def add(a, b):
    a, b = _operands(a, b)
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a, b):
    a, b = _operands(a, b)
    x, y = a.data, b.data
    return _emit(x * y, (a, b), lambda g: (g * y, g * x))


def relu(a):
    mask = a.data > 0
    return _emit(np.where(mask, a.data, 0.0), (a,), lambda g: (np.where(mask, g, 0.0),))


def gelu_grad(x, t):
    """Derivative of the tanh-approximated GELU at x, given the forward
    pass's t = tanh(sqrt(2/pi)*(x + 0.044715*x^3)) (module-level for
    testability)."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x)


def gelu(a):
    """GELU, tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    x^3 is x*x*x: numpy's generic float32 pow is about 100x slower.
    """
    x = a.data
    t = np.tanh(GELU_C * (x + GELU_A * (x * x * x)))
    return _emit(0.5 * x * (1.0 + t), (a,), lambda g: (gelu_grad(x, t) * g,))


# --- linear algebra and structure ops ---


def linear(x, w, b):
    """Dense layer x @ w + b over 2-d x [R, i], w [i, o] and b [o]; one tape
    node. A constant x, such as the patch rows, gets no input gradient."""
    xd, wd, bd, x_taped = x.data, w.data, b.data, x.tape is not None
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise ConfigError(f"linear needs x [R, i], w [i, o], b [o], "
                          f"got {xd.shape}, {wd.shape}, {bd.shape}")
    return _emit(xd @ wd + bd, (x, w, b),
                 lambda g: (g @ wd.T if x_taped else None, xd.T @ g, np.add.reduce(g, axis=0)))


def gather_rows(a, idx, row=None):
    """Rows idx (each >= 0) of a, no row of a read twice, as the model's
    visible, patch and restore indices are; with `row`, a 1-d tensor, index
    len(a) selects it any number of times, as a gather over [a; row] would.
    Backward is bitwise np.add.at into zeros: a row of a gets g + 0.0 (+0.0
    for -0.0, as 0.0 + g), and `row` the sum of its reads, in order by cumsum."""
    idx = np.asarray(idx, dtype=np.int64)
    if row is not None and row.data.shape != a.data.shape[1:]:
        raise ConfigError(f"gather_rows row has shape {row.data.shape}, rows of a {a.data.shape[1:]}")
    src = a.data if row is None else np.concatenate([a.data, row.data[None]])
    own = ... if row is None else idx != len(a.data)  # the reads of rows of a

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[idx[own]] = g[own] + 0.0
        if row is None:
            return (ga,)
        g_row = g[~own]
        return ga, (np.cumsum(g_row, axis=0)[-1] + 0.0 if len(g_row) else np.zeros_like(row.data))

    return _emit(src[idx], (a,) if row is None else (a, row), grad_fn)


# --- fused ops with analytic backward ---


def attention(q, k, v, heads, batch=1):
    """Multi-head scaled dot-product attention of [B*Tq, d] queries q over
    [B*Tk, d] keys k and values v.

    Rows are `batch` sequences, of Tq queries and Tk keys each, and no token
    attends across sequences. d splits into `heads` heads of dh = d // heads
    channels. Each head takes the max-shifted softmax P of q k^T / sqrt(dh)
    over keys and returns P v; the heads are concatenated back to [B*Tq, d].
    Backward uses the analytic softmax gradient dS = P * (dP - rowsum(dP * P))
    and keeps only P.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 2 or kd.ndim != 2 or kd.shape[1] != qd.shape[1] or vd.shape != kd.shape:
        raise ConfigError(f"attention needs q [B*Tq, d] and k, v [B*Tk, d], got {qd.shape}, {kd.shape}, {vd.shape}")
    d = qd.shape[1]
    if batch < 1 or len(qd) % batch or len(kd) % batch:
        raise ConfigError(f"attention rows {len(qd)}, {len(kd)} do not split into {batch} sequences")
    if heads < 1 or d % heads:
        raise ConfigError(f"attention width {d} does not split into {heads} heads")
    dh = d // heads
    scale = qd.dtype.type(1.0 / np.sqrt(dh))

    def split(x):  # [B*T, d] -> [B, heads, T, dh]
        return x.reshape(batch, len(x) // batch, heads, dh).transpose(0, 2, 1, 3)

    def merge(x):  # [B, heads, T, dh] -> [B*T, d]
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    def swap(x):  # transpose the last two axes
        return x.transpose(0, 1, 3, 2)

    qh, kh, vh = split(qd), split(kd), split(vd)
    s = (qh @ swap(kh)) * scale
    if not np.isfinite(s).all():
        raise NumericError("attention scores contain non-finite values")
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)

    def grad_fn(g):
        gh = split(g)
        gp = gh @ swap(vh)
        gs = (gp - np.add.reduce(gp * p, axis=-1, keepdims=True)) * p * scale
        return merge(gs @ kh), merge(swap(gs) @ qh), merge(swap(p) @ gh)

    return _emit(merge(p @ vh), (q, k, v), grad_fn)


def layer_norm(x, gain, bias):
    """Normalise the last axis to mean 0 / variance 1 (eps 1e-6), then apply affine."""
    # np.add.reduce / d: what ndarray.mean computes, without its Python wrappers
    d = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    istd = 1.0 / np.sqrt(var + 1e-6)
    xhat = xc * istd
    out = xhat * gain.data + bias.data

    lead = tuple(range(x.data.ndim - 1))

    def grad_fn(g):
        dxhat = g * gain.data
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        return (istd * (dxhat - m1 - xhat * m2),
                np.add.reduce(g * xhat, axis=lead).reshape(gain.data.shape),
                np.add.reduce(g, axis=lead).reshape(bias.data.shape))

    return _emit(out, (x, gain, bias), grad_fn)


# --- losses: one tape node each, from prediction to mean scalar ---


def _smooth_l1(d, beta):
    """mean(smooth_l1(d)) as the sum times 1 / d.size in d's dtype, smooth_l1(d) =
    0.5*d^2/beta for |d| < beta and |d| - 0.5*beta otherwise (C1 at |d| = beta).
    Returns (that scalar, smooth_l1(d), grad_d: the scalar's gradient to d's)."""
    inside = np.abs(d) < beta
    c = 0.5 / beta
    elem = np.where(inside, d * d * c, np.abs(d) - 0.5 * beta)
    scale = d.dtype.type(1.0 / d.size)

    def grad_d(g):
        ge = np.broadcast_to(g * scale, d.shape).astype(d.dtype, copy=True)
        return np.where(inside, 2.0 * d * (ge * c), np.sign(d) * ge)

    return elem.sum() * scale, elem, grad_d


def smooth_l1(z, target, beta):
    """_smooth_l1 of target - z as one tape node, target a constant array of
    z's shape. Returns (the taped scalar, the elementwise smooth-L1 array)."""
    loss, elem, grad_d = _smooth_l1(target - z.data, beta)
    # 0.0 - grad, not -grad: a zero gradient stays +0.0, never -0.0
    return _emit(loss, (z,), lambda g: (0.0 - grad_d(g),)), elem


def pooled_smooth_l1(p_h, target_means, beta):
    """_smooth_l1 of target_means - m as one tape node, m [B, D] the mean of each
    of the B blocks of V rows of p_h [B*V, D], target_means a constant
    [B, D]. Returns (the taped scalar, the elementwise smooth-L1 array)."""
    batch = len(target_means)
    v = len(p_h.data) // batch
    s = p_h.data.reshape(batch, v, -1).sum(axis=1)
    ratio = p_h.data.dtype.type(s.size / p_h.data.size)  # exactly 1 / V, so rounded as 1.0 / V
    loss, elem, grad_d = _smooth_l1(target_means - s * ratio, beta)
    return _emit(loss, (p_h,), lambda g: (np.repeat(-grad_d(g) * ratio, v, axis=0),)), elem


# --- binary tensor file format ---
#
# magic "TVEC" | u8 version=1 | u8 dtype (0 = f32) | u8 rank |
# rank * u64 little-endian extents | row-major little-endian payload.

TVEC_MAGIC = b"TVEC"
TVEC_VERSION = 1


def tvec_bytes(array):
    """Encode an array in the tvec format (stored as f32, code 0)."""
    arr = np.ascontiguousarray(np.asarray(array), dtype="<f4")
    parts = [TVEC_MAGIC, struct.pack("<BBB", TVEC_VERSION, 0, arr.ndim)]
    for extent in arr.shape:
        parts.append(struct.pack("<Q", extent))
    parts.append(arr)  # a C-contiguous buffer: the join makes the payload's only copy
    return b"".join(parts)


def read_tvec_record(f, size, label, out=None):
    """Read one tvec record from the binary file f at its position, in a file
    of `size` bytes. The header is parsed and its extents are checked against
    the bytes left before anything is allocated; the payload is then read
    with readinto, into `out` when it is a float32 array of the record's
    shape, else into a new array. Returns the array: held once."""
    head = f.read(7)
    if head[:4] != TVEC_MAGIC:
        raise DataError(f"{label}: bad magic, not a tvec record")
    if len(head) < 7:
        raise DataError(f"{label}: truncated header")
    version, dtype, rank = head[4:7]
    if version != TVEC_VERSION:
        raise DataError(f"{label}: unsupported tvec version {version}")
    if dtype != 0:
        raise DataError(f"{label}: unsupported dtype code {dtype}")
    extents = f.read(8 * rank)
    if len(extents) < 8 * rank:
        raise DataError(f"{label}: truncated extents")
    shape = struct.unpack(f"<{rank}Q", extents)
    n = math.prod(shape)  # Python ints: huge extents cannot wrap the count
    left = size - f.tell()
    if left < 4 * n:
        raise DataError(f"{label}: payload holds {left} bytes, expected {4 * n}")
    if (out is None or out.shape != shape or out.dtype != np.dtype("<f4")
            or not out.flags.c_contiguous):
        try:  # an empty record can still name extents numpy cannot hold
            out = np.empty(shape, dtype="<f4")
        except ValueError as e:
            raise DataError(f"{label}: extents {shape} do not form an array: {e}") from None
    if f.readinto(out) != 4 * n:  # the file shrank since its size was read
        raise DataError(f"{label}: payload ends before {4 * n} bytes")
    return out


def tvec_from_bytes(blob, label="<bytes>", offset=0):
    """Decode one tvec record starting at `offset`; returns (array, end offset)."""
    f = io.BytesIO(blob)  # shares the bytes: the payload is copied once, into the array
    f.seek(offset)
    return read_tvec_record(f, len(blob), label), f.tell()


def write_atomic(path, data):
    """Write bytes (or str, as UTF-8) to `<path>.tmp` and rename it onto
    `path`, so a failed or interrupted write never leaves a partial file.
    An OSError becomes a DataError "cannot write <path>: <reason>"."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def make_dirs(path):
    """os.makedirs(path, exist_ok=True); an OSError becomes a DataError
    "cannot create output directory <path>: <reason>"."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {path}: {e.strerror or e}") from None


def open_input(path, what):
    """The file at `path` opened for binary reading, or a DataError
    "cannot read <what> <path>: ..."."""
    try:
        return open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from None


def read_bytes(path, what):
    """The bytes of the file at `path`; see open_input."""
    with open_input(path, what) as f:
        return f.read()


def write_tvec(path, array):
    """Write an array as a tvec file, atomically."""
    write_atomic(path, tvec_bytes(array))


def read_tvec(path, out=None):
    """Read a tvec file back as a float32 array: into `out` when it is a
    float32 array of the record's shape, else into a new one (see
    read_tvec_record). The payload is held once."""
    with open_input(path, "tensor file") as f:
        size = os.fstat(f.fileno()).st_size
        arr = read_tvec_record(f, size, str(path), out)
        if f.tell() != size:
            raise DataError(f"{path}: {size - f.tell()} trailing bytes after payload")
    return arr
