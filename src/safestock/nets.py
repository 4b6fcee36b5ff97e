"""Dense feedforward networks with hand-rolled reverse-mode gradients.

Everything operates on single float64 input vectors (no batching of
inputs): a multilayer perceptron with ReLU hidden layers and a linear
output, a bias-corrected Adam optimizer, and a fixed-std Gaussian policy
head whose log-probability gradient feeds policy updates.  Adam's
constants are fixed, ``ADAM_*``: the step size and decays of its paper
(Kingma and Ba, arXiv:1412.6980) and a denominator floor of 1e-7.  The
compiled Adam has the same values compiled in.

An ``Mlp`` stacks ``members`` same-shaped networks on a leading member axis:
each layer is one (members, fan_out, fan_in) weight block, and member ``k``
maps its own input row ``x[k]`` to its own output row.  ``np.matmul`` over
the stack gives, member by member, the same bits as evaluating each network
on its own (one matrix-vector product per member), and so does the
back-propagated ``W.T @ dz``; the weight gradient is a broadcast elementwise
product.  A one-member net (the default) may drop the member axis from its
inputs and outputs.  Never put several inputs through one weight matrix as
columns of a matrix: that matrix-matrix product rounds differently.

Parameters live in one flat vector per network (``theta``); the per-layer
weight and bias blocks are views into it.  Gradients come back in the same
flat layout, so one fused Adam step can update a whole network, or several
networks sharing a buffer.  Adam is elementwise, which makes the fused step
identical to per-layer updates.

Adam flushes its first moment to zero once it falls below the smallest
normal float64 (``TINY``).  The first moment of a parameter whose gradient
stays zero (a dead ReLU unit) decays by 0.9 each step, and after about
6k steps it reaches the subnormal range.  There it stops decaying: for small
``k``, round-to-nearest maps ``k * 5e-324 * 0.9`` back to ``k * 5e-324``, so
the value is a fixed point that never reaches zero, and every later
arithmetic pass over a subnormal runs several times slower.  The flush
changes no parameter: a subnormal first moment moves a parameter by about
1e-304, far below one ulp at its working scale.  The second moment is left
alone: none of the training runs measured so far drives it subnormal, and
in the numpy passes each flush pass costs a warm step as much as any other.

``forward_cached`` fills a ``ForwardCache``: one caller-owned float64
buffer per net that holds the input, every layer's pre-activations and
activations, and the scratch the compiled backward pass propagates the
upstream gradient in.  A training loop keeps one cache per network and
passes it to every call, so a compiled step allocates no forward or
backward temporaries, and the buffer's addresses are resolved once, when
the cache is made.  The output ``forward_cached`` returns is a view of
its cache's buffer: the next
``forward_cached`` on the same cache overwrites it.  ``forward`` runs in a
scratch cache its net keeps for itself and returns a copy of the output.

Python enters compiled C (``_kernels.c``) at two places: the forward
pass (``_run_forward``, under ``forward`` and ``forward_cached``) and
``a2c_update``, a whole online actor-critic step (the critic's two forward
passes, the TD error, the Gaussian score, both backward passes and Adam).
The compiled backward pass and Adam step run only inside ``a2c_update``;
``backward`` and ``adam_step`` are the numpy passes.
Each C function makes, per element, the same IEEE operations in the same
order as the numpy passes it replaces (``_adam_passes``,
``_forward_passes``, ``_backward_passes`` and ``_a2c_passes``, the update's
steps as public calls), so its results are bit-identical to theirs.
(Where two NaNs meet, IEEE 754 leaves open whose sign and payload the
result carries; it is a NaN either way.)
Adam walks 32-element blocks and skips the parameters of an idle block,
one whose gradients are all +-0, first moments all +0 and updated second
moments all >= 0: under Adam's constants and the bias corrections it
checks per call, the full update provably leaves such a block's
parameters and first moments as they are, so only its second moments are
written (a signalling-NaN parameter there stays signalling, where the
numpy passes' ``p - 0`` would quiet it).
The matrix-vector products are made from C by numpy's own BLAS functions
(``BLAS_SYMBOLS``), called as numpy's ``matmul`` calls them, member by
member: ``W @ a`` as a transposed column-major ``cblas_dgemv`` and
``W.T @ dz`` as a transposed row-major one; a product with one output
value as ``0.0 + cblas_ddot``, and one with a single input column as
numpy's own loop.  The ReLU is ``np.maximum(z, 0.0)``: it keeps a NaN and
maps -0.0 to +0.0.  The library is compiled with the ``cc`` on PATH at the
first ``a2c_update`` of a process (never at import, and never in a forward
pass, which takes the numpy passes until then), into a private temporary
directory, and handed numpy's BLAS functions; then each of its four
functions is checked against its numpy reference (``KERNELS`` in probe
order).  It is on or off as a whole: a failed compile, unreachable BLAS
functions or any disagreeing function leaves the process on the numpy
passes, with one reason.  It is built for the host's own vector width
(``HOST_FLAGS``: every loop is elementwise, so wider vectors round each
element as the scalar code does), and a compiler that rejects those flags
gets one more try without them (``BASELINE_FLAGS``).  ``kernel_backend()``
says which path this process chose.

The arrays the compiled passes read and write are checked, and their
addresses resolved, once: when the ``Mlp`` or ``A2cUpdate`` that holds
them is made, which raises ValueError for an array the passes cannot take.
``Mlp.theta``, ``AdamState.m`` and ``AdamState.v`` cannot be rebound.  So
a call checks only what it is handed: input shapes, and the reward.
"""

import ctypes
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

TINY = np.finfo(float).tiny
# Adam's step size, moment decays and denominator floor; _kernels.c
# defines the last three again, as ADAM_BETA1, ADAM_BETA2 and ADAM_EPS
ADAM_ALPHA, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.001, 0.9, 0.999, 1e-7


def parameter_count(layer_sizes):
    """Parameters of one member network with these layer sizes."""
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))


class Mlp:
    """``members`` same-shaped networks stacked on a leading member axis.

    Weights ``W[i]`` are (members, fan_out, fan_in) and biases ``b[i]`` are
    (members, fan_out); hidden layers apply ReLU.  ``theta`` holds, layer by
    layer, one weight block then one bias block, so a one-member net has the
    plain [W0, b0, W1, b1, ...] layout.  Member ``k``'s parameters are not
    contiguous when ``members > 1``; ``member_parameters(k)`` views them.

    ``theta`` may be supplied to place the parameters inside an external
    buffer (a slice of a shared optimizer vector): an aligned, C-contiguous,
    native float64 vector of the net's size, else ValueError.  A fresh or
    seeded generator draws a Glorot-uniform initialisation with zero
    biases, member by member, except that a provided ``theta`` with no
    generator is kept as-is.  ``theta`` is the net's for life: its weight
    views and the compiled forward's address point into it.
    """

    def __init__(self, layer_sizes, rng=None, theta=None, members=1):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ValueError(f"need at least two positive layer sizes, got {sizes}")
        if int(members) < 1:
            raise ValueError(f"members={members} must be >= 1")
        self.layer_sizes = sizes
        self.members = k = int(members)
        self._key = (k, sizes)   # what a ForwardCache must match
        self._scratch = None     # forward's own ForwardCache, made at its first call
        total = k * parameter_count(sizes)
        keep = theta is not None and rng is None
        if theta is None:
            theta = np.empty(total)
        else:
            _check_vector("theta", theta, total)
        self._theta = theta
        self._address = theta.ctypes.data   # what the compiled forward reads
        self.weights = []
        self.biases = []
        self._layout = []
        offset = 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            w_shape = (k, fan_out, fan_in)
            n_w = k * fan_out * fan_in
            self._layout.append((offset, w_shape, offset + n_w, k * fan_out))
            self.weights.append(theta[offset:offset + n_w].reshape(w_shape))
            offset += n_w
            self.biases.append(theta[offset:offset + k * fan_out].reshape(k, fan_out))
            offset += k * fan_out
        # the matmul passes work on (k, n, 1) columns: (weights, bias column)
        # per layer, transposed weights for back-propagation
        self._layers = [(w, b[:, :, None]) for w, b in zip(self.weights, self.biases)]
        self._weights_t = [w.transpose(0, 2, 1) for w in self.weights]
        # accepted input shapes, each mapped to its output shape
        self._output_shape = dict(zip(_member_shapes(k, sizes[0]),
                                      _member_shapes(k, sizes[-1])))
        if not keep:
            if rng is None or isinstance(rng, (int, np.integer)):
                rng = np.random.default_rng(rng)
            for m in range(k):
                for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
                    limit = math.sqrt(6.0 / (fan_in + fan_out))
                    self.weights[i][m] = rng.uniform(-limit, limit,
                                                     size=(fan_out, fan_in))
                    self.biases[i][m] = 0.0

    def __reduce__(self):
        # a copy is rebuilt around its own theta, so that its weights stay
        # views of it and its forward scratch is its own
        return Mlp, (self.layer_sizes, None, self.theta, self.members)

    @property
    def theta(self):
        """The flat parameter vector; read-only as an attribute."""
        return self._theta

    def member_parameters(self, k):
        """Member ``k``'s live parameters, ordered [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w[k])
            out.append(b[k])
        return out

    @property
    def n_parameters(self):
        return self.theta.size


def _check_vector(name, a, size, writeable=False):
    """Refuse, with a ValueError naming ``name``, an array ``a`` the
    compiled passes cannot take as ``size`` float64s: they need an aligned,
    C-contiguous, native float64 vector, and a writeable one where they
    write it."""
    if a.shape != (size,):
        why = f"has shape {a.shape}, not ({size},)"
    elif a.dtype != _F64:
        why = f"is {a.dtype}, not float64"
    elif not a.flags.c_contiguous:
        why = "is strided"
    elif not a.flags.aligned:
        why = "is misaligned"
    elif writeable and not a.flags.writeable:
        why = "is read-only"
    else:
        return
    raise ValueError(f"{name} {why}: need an aligned, C-contiguous, native "
                     f"float64 vector{' the kernel can write' if writeable else ''}")


def _member_shapes(members, *shape):
    """Shapes of one ``shape`` array per member: (members, *shape), or plain
    ``shape`` for a one-member net, which may omit the member axis."""
    return ((members, *shape), shape) if members == 1 else ((members, *shape),)


def _shape_error(what, shape, accepted):
    return ValueError(f"{what} shape {shape} incompatible with "
                      + " or ".join(str(s) for s in accepted))


def _checked(x, shapes, what):
    """``x`` as a float array, if its shape is one of ``shapes``."""
    x = np.asarray(x, dtype=float)
    if x.shape not in shapes:
        raise _shape_error(what, x.shape, shapes)
    return x


def forward(net, x):
    """Deterministic feedforward evaluation.

    ``x`` is (members, n_in), or (n_in,) for a one-member net; the output
    has the same leading shape with n_out in place of n_in.  The pass runs
    in a scratch ``ForwardCache`` the net keeps for itself.
    """
    x = _checked(x, net._output_shape, "input")
    # taken out while in use: a call on another thread meanwhile makes its own
    cache = net.__dict__.pop("_scratch", None) or ForwardCache(net)
    np.copyto(cache.input, x)
    _run_forward(net, cache)
    y = cache.outputs[x.shape].copy()
    net._scratch = cache
    return y


class ForwardCache:
    """A net's forward-pass values and backward scratch, in one float64 buffer.

    ``forward_cached`` fills it in place and ``backward`` reads it, for any
    net of the shape it was made for.  ``activations[i]`` is layer ``i``'s
    input (``activations[0]`` the net's input) and ``zs[i]`` its
    pre-activations, each a (members, n, 1) column view of ``buffer``;
    ``output`` is the latest output, a view of the last pre-activations.
    The scratch holds one upstream gradient per layer, for the compiled
    backward pass inside ``a2c_update``.  The layer arguments of the
    compiled passes are resolved here, once; a call passes the address of
    the net's ``theta``, which the net resolved when it was made.  Two
    caches of one net are independent.  A cache cannot be copied or
    pickled: its resolved addresses belong to its own buffer.
    """

    def __init__(self, net):
        k, sizes = self.key = net._key
        outs = sizes[1:]
        self.buffer = np.zeros(k * (sizes[0] + 2 * sum(outs) + sum(outs[:-1])))
        taken = 0

        def take(n):
            nonlocal taken
            taken += k * n
            return self.buffer[taken - k * n:taken].reshape(k, n, 1)

        self.activations = [take(sizes[0])]
        self.zs = []
        for i, n in enumerate(outs):
            self.zs.append(take(n))
            if i < len(outs) - 1:
                self.activations.append(take(n))
        dz = [take(n) for n in outs]
        self.input = self.activations[0].reshape(k, sizes[0])
        # accepted input shape -> the output view in the matching shape
        self.outputs = {shape: self.zs[-1].reshape(out)
                        for shape, out in net._output_shape.items()}
        self.output = self.zs[-1].reshape(k, outs[-1])
        self.upstream = dz[-1].reshape(k, outs[-1])
        # the compiled passes' struct net: members and layer count, then per
        # layer z, a, dz, the byte offsets of its weight and bias blocks,
        # n_out and n_in, all pointer-sized
        self._plan = np.array([k, len(outs), *(
            field for i in range(len(outs)) for field in (
                self.zs[i].ctypes.data, self.activations[i].ctypes.data,
                dz[i].ctypes.data, 8 * net._layout[i][0],
                8 * net._layout[i][2], outs[i], sizes[i]))], dtype=np.uintp)
        self.plan = self._plan.ctypes.data

    def __reduce__(self):
        raise TypeError("a ForwardCache cannot be copied or pickled; "
                        "make a new one for the net")


def forward_cached(net, x, cache=None):
    """Forward pass that also keeps the per-layer values ``backward`` needs.

    Fills ``cache`` (a ``ForwardCache`` for a net of this shape) in place,
    or a new one when none is given, and returns ``(output, cache)``.  The
    output is ``forward``'s, bit for bit, but it is a view of the cache's
    buffer: the next ``forward_cached`` on the same cache overwrites it.
    """
    x = _checked(x, net._output_shape, "input")
    if cache is None:
        cache = ForwardCache(net)
    elif cache.key != net._key:
        raise ValueError(f"cache for {cache.key} used with a net of {net._key}")
    np.copyto(cache.input, x)
    _run_forward(net, cache)
    cache.output = cache.outputs[x.shape]
    return cache.output, cache


def _run_forward(net, cache):
    """Fill ``cache`` from its input: on the compiled pass once an
    ``a2c_update`` of this process has loaded the library (a forward never
    compiles), else on the numpy passes.  Both give the same bits."""
    kernel = _library.forward if _library else None
    if kernel is None:
        _forward_passes(net, cache)
    else:
        kernel(cache.plan, net._address)


def _forward_passes(net, cache):
    """The numpy reference: each layer's product, bias add and ReLU as
    whole-array passes, from the cache's input into its layer values."""
    a = cache.activations[0]
    for (w, b), z, a_next in zip(net._layers, cache.zs, cache.activations[1:]):
        np.matmul(w, a, out=z)
        z += b
        a = np.maximum(z, 0.0, out=a_next)
    w, b = net._layers[-1]
    z = cache.zs[-1]
    np.matmul(w, a, out=z)
    z += b


def backward(net, x, upstream, cache=None, out=None):
    """Gradient of ``upstream . output`` w.r.t. ``net.theta``, per member.

    ``upstream`` has the output's shape.  Returns the flat gradient vector
    (written into ``out`` when supplied; a read-only ``out`` raises).
    Recomputes the forward pass of ``x`` unless a ``ForwardCache`` filled
    by ``forward_cached`` is given, whose values it only reads.

    Runs the numpy passes (``_backward_passes``).  The compiled backward
    pass, which gives the same bits, runs only inside ``a2c_update``.
    """
    if cache is None:
        _, cache = forward_cached(net, x)
    elif cache.key != net._key:
        raise ValueError(f"cache for {cache.key} used with a net of {net._key}")
    dz = _checked(upstream, net._output_shape.values(), "upstream")
    if out is None:
        out = np.empty(net.theta.size)
    elif out.shape != (net.theta.size,):
        raise ValueError(f"out shape {out.shape} != ({net.theta.size},)")
    return _backward_passes(net, cache, dz, out)


def _backward_passes(net, cache, dz, out):
    """``backward``'s layers as a few whole-array passes each, the compiled
    pass's reference.  Reads the cache's forward values and never writes
    the cache."""
    dz = dz.reshape(net.members, -1, 1)
    for i in range(len(net.weights) - 1, -1, -1):
        w_off, w_shape, b_off, n_b = net._layout[i]
        # dW[o, i] = dz[o] * a[i]: every row starts as a copy of the layer
        # input, then scales by its upstream entry in place (one rounding,
        # as in the direct broadcast product, and faster with several members)
        g_w = out[w_off:b_off].reshape(w_shape)
        np.copyto(g_w, cache.activations[i].transpose(0, 2, 1))
        g_w *= dz
        out[b_off:b_off + n_b] = dz.reshape(n_b)
        if i > 0:
            dz = net._weights_t[i] @ dz
            dz *= cache.zs[i - 1] > 0.0
    return out


class AdamState:
    """Moment accumulators plus step counter for one flat parameter vector.

    ``adam_step`` carries one float scratch buffer and a boolean mask,
    allocated at its first step, so a step allocates nothing; large temps
    would otherwise bounce through mmap on every update.  The mask marks
    the first-moment entries at or above ``TINY``; the step multiplies
    ``m`` by it, which flushes subnormals to zero without a per-element
    branch (see the module docstring).  The compiled Adam step inside
    ``a2c_update`` updates ``m`` and ``v`` in place and needs neither.
    ``m`` and ``v`` cannot be rebound, as the scratch and an update's
    addresses are made for them: write them in place.  The step size,
    decays and floor are the module's ``ADAM_*`` constants.
    """

    def __init__(self, params):
        self.step = 0
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)
        self._s1 = None
        self._keep = None

    m = property(lambda self: self._m, doc="The first moments.")
    v = property(lambda self: self._v, doc="The second moments.")


def adam_step(params, grads, state):
    """One bias-corrected Adam descent step, applied in place.

    First-moment entries below ``TINY`` in magnitude are flushed to exactly
    zero after both moments are updated.  Runs the numpy passes
    (``_adam_passes``).  The compiled Adam step, which gives the same bits,
    runs only inside ``a2c_update``.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}")
    _adam_passes(params, grads, state, *_advance(state))
    return params


def _advance(state):
    """Count one step; return its bias corrections (``_step_sizes``)."""
    state.step += 1
    return _step_sizes(state.step)


def _step_sizes(step):
    """Step ``step``'s bias corrections: the scale of sqrt(v) and the step
    size."""
    return (1.0 / math.sqrt(1.0 - ADAM_BETA2 ** step),
            ADAM_ALPHA / (1.0 - ADAM_BETA1 ** step))


def _c_adam(fn, params, grads, state, k, lr):
    """The compiled Adam step ``fn`` called directly, with ``_adam_passes``'
    arguments, as its probe checks it: ``params``, ``grads``, ``state.m``
    and ``state.v`` must be distinct C-contiguous float64 vectors of one
    size."""
    fn(params.ctypes.data, grads.ctypes.data, state.m.ctypes.data,
       state.v.ctypes.data, params.size, k, lr)


def _adam_passes(params, grads, state, k, lr):
    """The numpy reference: ``adam_step``'s update as 16 whole-array passes."""
    if state._s1 is None:
        state._s1 = np.empty_like(state.m)
        state._keep = np.empty(state.m.shape, dtype=bool)
    m, v, s1, keep = state.m, state.v, state._s1, state._keep
    m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=s1)
    m += s1
    v *= ADAM_BETA2
    np.square(grads, out=s1)
    s1 *= 1.0 - ADAM_BETA2
    v += s1
    np.abs(m, out=s1)
    np.greater_equal(s1, TINY, out=keep)
    m *= keep
    np.sqrt(v, out=s1)
    s1 *= k
    s1 += ADAM_EPS
    np.divide(m, s1, out=s1)
    s1 *= lr
    params -= s1


_F64 = np.dtype(np.float64)
KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
# a portable build, and the retry for a compiler that rejects HOST_FLAGS
BASELINE_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno",
                  "-fno-trapping-math", "-shared", "-fPIC")
# the host's own vector width (the library never leaves the host), and a
# GCC heap collected as the compile goes rather than only past 128 MB:
# the two params change no byte of the library and take about 3 MB off
# cc1's peak memory, which every process and pool worker pays
HOST_FLAGS = ("-march=native", "--param=ggc-min-heapsize=4096",
              "--param=ggc-min-expand=10")
KERNEL_FLAGS = BASELINE_FLAGS + HOST_FLAGS
# probe order: a2c_update runs the other three, so it is probed last
KERNELS = ("adam_step", "forward", "backward", "a2c_update")
# numpy's own ILP64 CBLAS functions, the ones its matmul calls
BLAS_SYMBOLS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")


class _Library(NamedTuple):
    """What this process runs: ``kernel_backend()``'s text and the compiled
    functions of ``KERNELS``, all None on the numpy passes."""
    text: str
    adam_step: object = None
    forward: object = None
    backward: object = None
    a2c_update: object = None


# set once, at the first a2c_update or kernel_backend() of a process: the
# process compiles at most once, whatever path it ends on
_library = None


def kernel_backend():
    """Which path this process runs, as text: ``"compiled kernels
    (adam_step, forward, backward, a2c_update)"`` or ``"numpy (<why>)"``.
    Loads the library (compiling it) if no update has yet."""
    return (_library or _load_library()).text


def _load_library():
    """Compile ``_kernels.c``, hand it numpy's BLAS functions and probe its
    functions against their numpy references in ``KERNELS`` order; set and
    return ``_library``.  It is compiled only when every probe agreed; else
    the numpy passes, with the first reason.  It is set only after the last
    probe, so no probe's reference makes a compiled call."""
    global _library
    lib, why = _compile_library()
    functions = None
    if lib is not None:
        functions, why = _library_functions(lib)
    if functions is not None:
        why = next((f"numpy ({name}: compiled kernel disagrees with the numpy passes)"
                    for name, agrees in zip(KERNELS, (_adam_agrees, _forward_agrees,
                                                      _backward_agrees, _a2c_update_agrees))
                    if not agrees(functions[name])), None)
    _library = (_Library(why) if why else
                _Library(f"compiled kernels ({', '.join(KERNELS)})", **functions))
    return _library


def _library_functions(lib):
    """The loaded library's functions by name, argument types set, once it
    holds the ``BLAS_SYMBOLS`` of numpy's own library; (functions, None),
    or (None, why) when they are out of reach."""
    try:
        from numpy._core import _multiarray_umath
        numpy_lib = ctypes.CDLL(_multiarray_umath.__file__)
        blas = [ctypes.cast(getattr(numpy_lib, name), ctypes.c_void_p).value
                for name in BLAS_SYMBOLS]
    except (ImportError, OSError, AttributeError) as exc:
        return None, f"numpy (numpy's BLAS is out of reach: {exc})"
    lib.set_blas.argtypes = [ctypes.c_void_p] * 2
    lib.set_blas.restype = None
    lib.set_blas(*blas)
    functions = {}
    for name, argtypes, restype in (
            ("adam_step", [ctypes.c_void_p] * 4 + [ctypes.c_size_t]
             + [ctypes.c_double] * 2, None),
            ("forward", [ctypes.c_void_p] * 2, None),
            ("backward", [ctypes.c_void_p] * 3, None),
            ("a2c_update", [ctypes.c_void_p] + [ctypes.c_double] * 3, ctypes.c_double)):
        fn = functions[name] = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return functions, None


def _compile_library():
    """Compile and load ``_kernels.c``; (library, None) or (None, why)."""
    import subprocess   # here, not at the top: only a compiling process pays for it

    cc = shutil.which("cc")
    if cc is None:
        return None, "numpy (no C compiler: cc is not on PATH)"
    if not KERNEL_SOURCE.is_file():
        return None, f"numpy (kernel source {KERNEL_SOURCE} is missing)"
    with tempfile.TemporaryDirectory(prefix="safestock-kernels-") as tmp:
        lib_path = Path(tmp) / "_kernels.so"
        # a compiler that cannot build for the host gets one more try at the
        # baseline instruction set
        for flags in (KERNEL_FLAGS, BASELINE_FLAGS):
            try:
                subprocess.run([cc, *flags, "-o", str(lib_path), str(KERNEL_SOURCE)],
                               capture_output=True, text=True, check=True, timeout=120)
                break
            except subprocess.CalledProcessError as exc:
                lines = (exc.stderr or "").strip().splitlines() or [f"exit {exc.returncode}"]
                why = f"numpy (cc failed: {lines[-1]})"
            except (OSError, subprocess.SubprocessError) as exc:
                return None, f"numpy (kernel build failed: {exc})"
        else:
            return None, why
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError as exc:
            return None, f"numpy (kernel build failed: {exc})"
    # the loaded library stays mapped after its file is removed
    return lib, None


def _adam_agrees(fn):
    """Whether ``fn`` gives the numpy passes' bits on a probe with zeros of
    both signs, moments crossing the flush, and subnormal and overflowing
    gradients.  It opens with two whole idle blocks of the kernel's 32
    (zero gradients and +0 first moments over parameters with zeros of both
    signs), then a -0 first moment whose -0 gradient keeps it -0, which
    steps its -0 parameter to +0, so that its block is never idle."""
    rng = np.random.default_rng(0)
    idle, n = 3 * 32, 3 * 32 + 67
    grads = rng.standard_normal(n) * 10.0 ** rng.uniform(-320.0, 160.0, n)
    grads[:idle] = 0.0
    grads[1:idle:2] = -0.0
    grads[64] = -0.0
    grads[idle::5] = 0.0
    grads[idle + 1::5] = -0.0
    grads[idle + 2:idle + 4] = 1e300, -1e300   # g * g overflows
    results = []
    for step in (_adam_passes, lambda *args: _c_adam(fn, *args)):
        params = np.linspace(-1e-3, 1e-3, n)   # steps of ~1e-3 stay visible
        params[:idle:3] = 0.0
        params[1:idle:3] = -0.0
        params[64] = -0.0
        state = AdamState(params)
        state.m[64] = -0.0
        state.m[idle::3] = 2.3e-308
        state.m[idle + 1::3] = -2.3e-308
        with np.errstate(over="ignore"):
            for _ in range(3):
                step(params, grads, state, *_advance(state))
        results.append(b"".join(a.tobytes() for a in (params, state.m, state.v)))
    return results[0] == results[1]


_PROBE_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan)


def _probe_nets():
    """Two-member nets, each with an input and a function that mixes special
    values into arrays.  In the first two, zeros of both signs, subnormals,
    infinities and NaN replace every other parameter and input, and layers
    of width one take every path numpy's matmul takes: gemv, a dot product,
    and its own loop.  The third has the same paths on wide layers of
    normal values only, where a sum in another order rounds differently."""
    rng = np.random.default_rng(0)
    for sizes, specials in (((3, 7, 1, 5, 2), _PROBE_SPECIALS),
                            ((1, 4, 1), _PROBE_SPECIALS),
                            ((5, 64, 64, 1, 64, 1), ())):
        def mix(*arrays, specials=specials):
            for values in arrays if specials else ():
                flat = values.reshape(-1)
                flat[::2] = rng.choice(specials, flat[::2].size)

        net = Mlp(sizes, rng=rng, members=2)
        x = rng.standard_normal((2, sizes[0]))
        mix(net.theta, x)
        yield net, x, mix


def _same_bits(a, b):
    """Whether ``a`` and ``b`` hold the same bits, NaNs compared by NaN-ness
    only (see the module docstring)."""
    return (np.where(np.isnan(a), np.nan, a).tobytes()
            == np.where(np.isnan(b), np.nan, b).tobytes())


def _forward_agrees(fn):
    """Whether ``fn`` fills a cache with ``_forward_passes``' bits on the
    probe nets."""
    for net, x, _ in _probe_nets():
        ref, mine = ForwardCache(net), ForwardCache(net)
        np.copyto(ref.input, x)
        np.copyto(mine.input, x)
        with np.errstate(all="ignore"):
            _forward_passes(net, ref)
            fn(mine.plan, net._address)
        if not _same_bits(ref.buffer, mine.buffer):
            return False
    return True


def _backward_agrees(fn):
    """Whether the compiled backward ``fn``, called directly with the
    upstream in its cache slot, gives ``_backward_passes``' bits on the
    probe nets, with their special values mixed into the pre-activations,
    layer inputs and upstream too."""
    for net, x, mix in _probe_nets():
        with np.errstate(all="ignore"):
            _, cache = forward_cached(net, x)
        upstream = np.linspace(-1.5, 2.5, 2 * net.layer_sizes[-1]).reshape(2, -1)
        mix(*cache.zs, *cache.activations, upstream)
        ref, mine = np.empty(net.theta.size), np.empty(net.theta.size)
        np.copyto(cache.upstream, upstream)
        with np.errstate(all="ignore"):
            _backward_passes(net, cache, upstream, ref)
            fn(cache.plan, net._address, mine.ctypes.data)
        if not _same_bits(ref, mine):
            return False
    return True


def _probe_updates(run):
    """Nine updates by ``run`` (``_a2c_passes``' signature) each of a
    one-member and a three-member actor-critic; per agent, its TD errors,
    its parameters, gradient and moments, and its step count.  Zeros of
    both signs and subnormals replace some parameters.  Six updates of
    normal values, where a sum in another order rounds differently, come
    first; then infinities and NaN replace some sampled actions, and last
    an infinite reward and then a NaN critic weight each give a non-finite
    TD error, having written nothing."""
    rng = np.random.default_rng(0)
    critic_sizes = (3, 9, 5, 1)
    n_critic = parameter_count(critic_sizes)
    rewards = [*rng.standard_normal(7) * 10.0 ** rng.uniform(-3.0, 3.0, 7),
               np.inf, 0.5]
    n = len(rewards)
    for members, sizes, std in ((1, (3, 9, 7, 3), 0.7), (3, (2, 9, 1), 1.3)):
        theta = np.empty(n_critic + members * parameter_count(sizes))
        Mlp(critic_sizes, rng, theta=theta[:n_critic])
        Mlp(sizes, rng, theta=theta[n_critic:], members=members)
        theta[::5] = rng.choice(_PROBE_SPECIALS[:4], theta[::5].size)
        states = rng.standard_normal((n + 1, 3))
        xs = rng.standard_normal((n, members, sizes[0]))
        actions = rng.standard_normal((n, members * sizes[-1]))
        actions[6, ::2] = rng.choice(_PROBE_SPECIALS[4:], actions[6, ::2].size)
        update = A2cUpdate(
            Mlp(critic_sizes, theta=theta[:n_critic]),
            GaussianPolicy(Mlp(sizes, theta=theta[n_critic:], members=members), std),
            theta, AdamState(theta), 0.9)
        deltas = []
        with np.errstate(all="ignore"):
            for i, r in enumerate(rewards):
                if i == n - 1:
                    theta[1] = np.nan   # a hidden pre-activation of V is NaN
                forward_cached(update.actor.mean_net, xs[i], update.actor_cache)
                update.a[...] = actions[i]
                deltas.append(run(update, states[i], float(r), states[i + 1]))
        opt = update.opt
        yield deltas, (theta, update.grad, opt.m, opt.v), opt.step


def _a2c_update_agrees(fn):
    """Whether ``fn`` gives ``_a2c_passes``' bits, TD errors and step
    counts on ``_probe_updates``."""
    for (ref_deltas, ref, ref_step), (deltas, mine, step) in zip(
            _probe_updates(_a2c_passes),
            _probe_updates(lambda *args: _a2c_kernel(fn, *args))):
        if math.isfinite(deltas[-1]) or step != ref_step:
            return False
        if not all(_same_bits(x, y) for x, y in zip(
                (np.array(ref_deltas), *ref), (np.array(deltas), *mine))):
            return False
    return True


@dataclass
class GaussianPolicy:
    """Diagonal Gaussian over actions: mean from an Mlp, one fixed std.

    ``action_std`` is one positive, finite number, the std of every action
    component, kept as a Python float; anything else raises ValueError.
    """

    mean_net: Mlp
    action_std: float

    def __post_init__(self):
        std = self.action_std
        if np.ndim(std) != 0:
            raise ValueError(f"action_std={std!r} must be one number, not an array")
        std = self.action_std = float(std)
        if not 0.0 < std < math.inf:
            raise ValueError(f"action_std={std} must be positive and finite")


def gaussian_mean_grad(mu, a, std, out=None):
    """Gradient of log N(a; mu, std^2) with respect to ``mu`` for a float
    ``std``: (a - mu) / (std * std), written into ``out`` when given."""
    diff = np.subtract(np.asarray(a, dtype=float), mu, out=out)
    return np.divide(diff, std * std, out=out)


class A2cUpdate:
    """A training loop's buffers for ``a2c_update`` on one actor-critic.

    ``critic`` is a one-member net with one output, V(s); ``actor`` is a
    ``GaussianPolicy``; ``theta`` holds the critic's parameters and then the
    actor's (the two nets' ``theta`` are views of it), ``opt`` steps it, and
    ``gamma`` is the discount.  Made once per training loop: three forward
    caches (the critic's on s and on s', and ``actor_cache``, which the loop
    fills when it samples the action), ``a``, the float64 buffer that holds
    the sampled action, the gradient vector and the upstream gradients.
    The compiled update's plan is resolved here, once: every address it
    reads or writes, the discount and the variance ``action_std *
    action_std`` (Adam's constants are compiled in).  The numpy passes
    read the same discount and std, so both paths update alike.  A critic
    that is not one net with one output, a ``theta`` the kernel cannot
    write (not an aligned, writeable, C-contiguous float64 vector of both
    nets' sizes) and moments of another shape or dtype raise ValueError.
    Making one loads no library.  It cannot be copied or pickled, as its
    caches cannot.
    """

    def __init__(self, critic, actor, theta, opt, gamma):
        net = actor.mean_net
        if critic.members != 1 or critic.layer_sizes[-1] != 1:
            raise ValueError(f"the critic must be one net with one output, not "
                             f"{critic.members} of {critic.layer_sizes}")
        n_critic = critic.theta.size
        _check_vector("theta", theta, n_critic + net.theta.size, writeable=True)
        for name in ("m", "v"):
            _check_vector(name, getattr(opt, name), theta.size, writeable=True)
        self.critic, self.actor, self.theta, self.opt = critic, actor, theta, opt
        self.gamma, self.std = float(gamma), actor.action_std
        self.critic_cache, self.next_cache = ForwardCache(critic), ForwardCache(critic)
        self.actor_cache = ForwardCache(net)
        self.a = np.zeros(net.members * net.layer_sizes[-1])
        self.grad = np.zeros_like(theta)
        self.grads = (self.grad[:n_critic], self.grad[n_critic:])
        # the critic's upstream -delta, and the actor's, flat and per member
        up_actor = np.empty((net.members, net.layer_sizes[-1]))
        self.upstream = (np.empty(1), up_actor.reshape(-1), up_actor)
        g = self.grad.ctypes.data
        # the variance std * std, as gaussian_mean_grad makes it
        self._plan = _A2cPlan(
            self.critic_cache.plan, self.next_cache.plan, self.actor_cache.plan,
            critic._address, net._address, g, g + 8 * n_critic, self.a.ctypes.data,
            theta.ctypes.data, g, opt.m.ctypes.data, opt.v.ctypes.data, theta.size,
            self.std * self.std, self.gamma)
        self.plan = ctypes.addressof(self._plan)


class _A2cPlan(ctypes.Structure):
    """``struct a2c_plan`` of ``_kernels.c``."""
    _fields_ = [*((name, ctypes.c_void_p) for name in (
        "critic", "critic_next", "actor", "critic_theta", "actor_theta",
        "critic_grad", "actor_grad", "a", "p", "g", "m", "v")),
        ("n", ctypes.c_size_t), ("var", ctypes.c_double), ("gamma", ctypes.c_double)]


def a2c_update(update, s, r, s_next):
    """One online TD actor-critic update, in place; returns the TD error.

    delta = r + gamma V(s') - V(s) moves the critic toward its bootstrapped
    target and every actor member along delta * grad log pi(a), through
    one Adam step over ``update.theta``; the discount is ``update.gamma``
    and the action ``update.a``.  ``update.actor_cache`` must hold the
    actor's forward pass of the state (from sampling time: the actor is
    unchanged in between).  A state not shaped as the critic's input
    raises ValueError, and the reward is taken as ``float(r)``.  A
    non-finite TD error (a NaN or infinite reward, or a diverged critic)
    raises FloatingPointError before any parameter, moment or step count
    moves.

    Runs as one compiled call (``a2c_update`` in ``_kernels.c``) on the
    plan ``update`` resolved.  In a process without the compiled library
    (``kernel_backend()``), the numpy reference (``_a2c_passes``) runs
    instead, on the same forward, backward and Adam steps as their own
    public calls.  Both give the same bits.
    """
    shapes = update.critic._output_shape
    s, s_next = _checked(s, shapes, "state"), _checked(s_next, shapes, "state")
    r = float(r)
    kernel = (_library or _load_library()).a2c_update
    if kernel is None:
        delta = _a2c_passes(update, s, r, s_next)
    else:
        delta = _a2c_kernel(kernel, update, s, r, s_next)
    if not math.isfinite(delta):
        raise FloatingPointError(
            f"non-finite TD error {delta} (reward {r}, "
            f"V(s) {float(update.critic_cache.output.flat[0])}, "
            f"V(s') {float(update.next_cache.output.flat[0])})")
    return delta


def _a2c_passes(update, s, r, s_next):
    """The reference: ``a2c_update`` as forward, backward and Adam calls.
    Returns the TD error; a non-finite one returns before any gradient,
    parameter or moment is written."""
    critic, net = update.critic, update.actor.mean_net
    v_s, _ = forward_cached(critic, s, update.critic_cache)
    v_next, _ = forward_cached(critic, s_next, update.next_cache)
    delta = r + update.gamma * float(v_next.flat[0]) - float(v_s.flat[0])
    if not math.isfinite(delta):
        return delta
    # ascent along delta * grad; Adam applies descent, so negate
    grad_critic, grad_actor = update.grads
    up_critic, up_mu, up_actor = update.upstream
    up_critic[0] = -delta
    backward(critic, None, up_critic, update.critic_cache, out=grad_critic)
    gaussian_mean_grad(update.actor_cache.output.ravel(), update.a, update.std,
                       out=up_mu)
    up_mu *= -delta
    backward(net, None, up_actor, update.actor_cache, out=grad_actor)
    adam_step(update.theta, update.grad, update.opt)
    return delta


def _a2c_kernel(fn, update, s, r, s_next):
    """Run the compiled update ``fn`` on ``update``'s plan; its TD error.
    The step count advances only after a finite TD error."""
    opt = update.opt
    update.critic_cache.input[...] = s
    update.next_cache.input[...] = s_next
    step = opt.step + 1
    delta = fn(update.plan, r, *_step_sizes(step))
    if math.isfinite(delta):
        opt.step = step
    return delta


def write_mlp(fh, net):
    """Write one ``mlp`` text block per member, in member order."""
    header = "mlp " + " ".join(str(s) for s in net.layer_sizes) + "\n"
    for k in range(net.members):
        fh.write(header)
        for p in net.member_parameters(k):
            fh.write(" ".join(repr(float(v)) for v in p.ravel()) + "\n")


def read_mlp(fh, members=1):
    """Read ``members`` same-shaped ``mlp`` blocks into one stacked Mlp."""
    net = None
    for k in range(members):
        header = fh.readline().split()
        if not header or header[0] != "mlp":
            raise ValueError(f"expected an mlp block, got {header!r}")
        sizes = tuple(int(s) for s in header[1:])
        if net is None:
            net = Mlp(sizes, theta=np.empty(members * parameter_count(sizes)),
                      members=members)
        elif sizes != net.layer_sizes:
            raise ValueError(f"mlp block sizes {sizes} != {net.layer_sizes}")
        for i, p in enumerate(net.member_parameters(k)):
            values = fh.readline().split()
            if len(values) != p.size:
                raise ValueError(f"mlp block {k}, parameter line {i}: "
                                 f"{len(values)} values, expected {p.size}")
            p[...] = np.array([float(v) for v in values]).reshape(p.shape)
    return net
