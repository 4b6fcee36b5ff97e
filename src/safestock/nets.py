"""Dense feedforward networks with hand-rolled reverse-mode gradients.

Everything operates on single float64 input vectors (no batching of
inputs): a multilayer perceptron with ReLU hidden layers and a linear
output, a bias-corrected Adam optimizer, and the gradient of a fixed-std
Gaussian's log-probability with respect to its mean, which feeds policy
updates.  Adam's constants are fixed, ``ADAM_*``: the step size and
decays of its paper (Kingma and Ba, arXiv:1412.6980) and a denominator
floor of 1e-7.  The compiled Adam has the same values compiled in.

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

Each ``Mlp`` owns one float64 buffer, made with it, that holds its input,
every layer's pre-activations and activations, and the scratch the
compiled backward pass propagates the upstream gradient in.  Every pass of
the net runs in it, so a compiled step allocates no forward or backward
temporaries, and the buffer's addresses are resolved once, when the net is
made.  The output ``forward_cached`` returns is a view of the buffer: the
net's next pass overwrites it.  ``forward`` returns a copy.  Two passes
that must stay apart (V(s) and V(s') in an update) run in two nets over
one ``theta``.

Python enters compiled C (``_kernels.c``) at one place, the library's one
function (``KERNELS``): ``a2c_update``, a whole online actor-critic step
(the critic's two forward passes, the TD error, the Gaussian score, both
backward passes, Adam, and the actor's forward pass of the next period's
input, which that period samples from).  The compiled forward pass,
backward pass and Adam step are helpers of ``a2c_update`` and run nowhere
else; ``forward``, ``forward_cached``, ``backward`` and ``adam_step`` are
the numpy passes.
The compiled code makes, per element, the same IEEE operations in the same
order as the numpy passes it replaces (``_forward_passes`` and
``_a2c_passes``, which runs ``_backward_passes`` and ``_adam_passes``), so
its results are bit-identical to theirs.
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
member, by one routine: a product with one output value as
``0.0 + cblas_ddot``, one with a single input value as numpy's own loop,
and any other as a transposed ``cblas_dgemv``, column-major for ``W @ a``
and row-major for ``W.T @ dz``.  The ReLU is ``np.maximum(z, 0.0)``: it
keeps a NaN and maps -0.0 to +0.0.  The library is loaded at the first
``a2c_update`` of a process (never at import, and a forward pass never
uses it) and handed numpy's BLAS functions; then ``a2c_update`` is
checked against its numpy reference on probes made to reach its forward
pass's, backward pass's and Adam's special cases (``_probe_updates``).
It is on or off as a whole: a failed compile, unreachable BLAS functions
or a disagreeing probe leaves the process on the numpy passes, with one
reason.  It is built for the host's own vector width (``HOST_FLAGS``:
every loop is elementwise, so wider vectors round each element as the
scalar code does), and a compiler that rejects those flags gets one more
try without them (``BASELINE_FLAGS``).  ``kernel_backend()`` says which
path this process chose.

The library is cached on disk, in ``$XDG_CACHE_HOME/safestock`` (else
``~/.cache/safestock``), one file per key: the SHA-256 of the source's
bytes, both flag sets, the resolved ``cc`` with its size and mtime, the
machine and the CPU's ``model name`` and ``flags`` lines.  It holds
whichever flag set the compile ended on.  Nothing removes an old key's
file (an edited source leaves one); deleting the directory is safe.  A
cached library is loaded and probed as a fresh one is; one that fails to
load or to agree is removed, and the process compiles.  A miss compiles
with the ``cc`` on PATH into a private temporary directory, and once every
probe agreed publishes the library by ``os.replace`` of a complete copy,
so concurrent processes each find a whole file or none and no cache file
is ever written in place.  The cache is used only where the compiler and
the CPU can be identified (a ``-march=native`` build must not meet another
CPU) and the directory and the entry belong to this user and no other
user can write them (loading a library runs its code).  A cache that
cannot be used or written leaves the process compiling, as without it.

The arrays the compiled passes read and write are checked, and their
addresses resolved, once: when the ``Mlp`` or ``A2cUpdate`` that holds
them is made, which raises ValueError for an array the passes cannot take.
``Mlp.theta``, ``AdamState.m`` and ``AdamState.v`` cannot be rebound.  So
a call checks only what it is handed: input shapes, and the reward.
"""

import contextlib
import ctypes
import math
import os
import shutil
import stat
import tempfile
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
    views and the compiled passes' address point into it.

    Every pass of the net runs in ``buffer``, made with it, so the net runs
    one pass at a time, on one thread.  Per layer, ``activations[i]`` is the
    input (``activations[0]`` the net's, also viewed as ``input``) and
    ``zs[i]`` the pre-activations, each a (members, n, 1) column view, all
    of them viewed as ``forward_values``; then comes the scratch the
    compiled backward pass propagates gradients in.  ``output`` views the
    (members, n_out) output, and ``outputs`` maps each accepted input shape
    to the output view of the matching shape.  ``plan`` addresses the
    compiled passes' ``struct net``, resolved here, once.
    """

    def __init__(self, layer_sizes, rng=None, theta=None, members=1):
        sizes = _layer_sizes(layer_sizes)
        if int(members) < 1:
            raise ValueError(f"members={members} must be >= 1")
        self.layer_sizes = sizes
        self.members = k = int(members)
        total = k * parameter_count(sizes)
        keep = theta is not None and rng is None
        if theta is None:
            theta = np.empty(total)
        else:
            _check_vector("theta", theta, total)
        self._theta = theta
        self._address = theta.ctypes.data   # what the compiled passes read
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
        self.forward_values = self.buffer[:taken]
        dz = [take(n) for n in outs]
        self.input = self.activations[0].reshape(k, sizes[0])
        self.outputs = {shape: self.zs[-1].reshape(out)
                        for shape, out in self._output_shape.items()}
        self.output = self.zs[-1].reshape(k, outs[-1])
        # the compiled passes' struct net: members and layer count, then per
        # layer z, a, dz, the byte offsets of its weight and bias blocks,
        # n_out and n_in, all pointer-sized
        self._plan = np.array([k, len(outs), *(
            field for i in range(len(outs)) for field in (
                self.zs[i].ctypes.data, self.activations[i].ctypes.data,
                dz[i].ctypes.data, 8 * self._layout[i][0],
                8 * self._layout[i][2], outs[i], sizes[i]))], dtype=np.uintp)
        self.plan = self._plan.ctypes.data
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
        # views of it and its plan addresses its own buffer
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


def _layer_sizes(layer_sizes):
    """``layer_sizes`` as a tuple of ints: at least two, all positive, else
    ValueError."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValueError(f"need at least two positive layer sizes, got {sizes}")
    return sizes


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
    has the same leading shape with n_out in place of n_in.  Returns a copy
    of ``forward_cached``'s output.
    """
    return forward_cached(net, x).copy()


def forward_cached(net, x):
    """Forward pass that also keeps the per-layer values ``backward`` needs.

    Fills the net's ``buffer`` in place and returns the output: ``forward``'s,
    bit for bit, but a view of the buffer, which the net's next pass
    overwrites.  Runs the numpy passes (``_forward_passes``).  The compiled
    forward pass, which gives the same bits, runs only inside
    ``a2c_update``.
    """
    x = _checked(x, net._output_shape, "input")
    np.copyto(net.input, x)
    _forward_passes(net)
    return net.outputs[x.shape]


def _forward_passes(net):
    """The numpy reference: each layer's product, bias add and ReLU as
    whole-array passes, from the net's input into its layer values."""
    a = net.activations[0]
    for (w, b), z, a_next in zip(net._layers, net.zs, net.activations[1:]):
        np.matmul(w, a, out=z)
        z += b
        a = np.maximum(z, 0.0, out=a_next)
    w, b = net._layers[-1]
    z = net.zs[-1]
    np.matmul(w, a, out=z)
    z += b


def backward(net, x, upstream, out=None):
    """Gradient of ``upstream . output`` w.r.t. ``net.theta``, per member.

    Runs the forward pass of ``x`` in the net's buffer, then back-propagates
    ``upstream``, which has the output's shape.  Returns the flat gradient
    vector (written into ``out`` when supplied; a read-only ``out`` raises).

    Runs the numpy passes (``_backward_passes``).  The compiled backward
    pass, which gives the same bits, runs only inside ``a2c_update``.
    """
    forward_cached(net, x)
    dz = _checked(upstream, net._output_shape.values(), "upstream")
    if out is None:
        out = np.empty(net.theta.size)
    elif out.shape != (net.theta.size,):
        raise ValueError(f"out shape {out.shape} != ({net.theta.size},)")
    return _backward_passes(net, dz, out)


def _backward_passes(net, dz, out):
    """``backward``'s layers as a few whole-array passes each, the compiled
    pass's reference.  Reads the net's forward values and never writes its
    buffer."""
    dz = dz.reshape(net.members, -1, 1)
    for i in range(len(net.weights) - 1, -1, -1):
        w_off, w_shape, b_off, n_b = net._layout[i]
        # dW[o, i] = dz[o] * a[i]: every row starts as a copy of the layer
        # input, then scales by its upstream entry in place (one rounding,
        # as in the direct broadcast product, and faster with several members)
        g_w = out[w_off:b_off].reshape(w_shape)
        np.copyto(g_w, net.activations[i].transpose(0, 2, 1))
        g_w *= dz
        out[b_off:b_off + n_b] = dz.reshape(n_b)
        if i > 0:
            dz = net._weights_t[i] @ dz
            dz *= net.zs[i - 1] > 0.0
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
# what the library exports besides set_blas
KERNELS = ("a2c_update",)
# numpy's own ILP64 CBLAS functions, the ones its matmul calls
BLAS_SYMBOLS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")


class _Library(NamedTuple):
    """What this process runs: ``kernel_backend()``'s text and the compiled
    ``a2c_update``, None on the numpy passes."""
    text: str
    a2c_update: object = None


# set once, at the first a2c_update or kernel_backend() of a process: the
# process loads (or compiles) at most once, whatever path it ends on
_library = None


def kernel_backend():
    """Which path this process runs, as text: ``"compiled kernels
    (a2c_update)"`` or ``"numpy (<why>)"``.
    Loads the library (from the cache, or compiling it) if no update has
    yet."""
    return (_library or _load_library()).text


def _load_library():
    """Load the library, from the cache or else by compiling it, hand it
    numpy's BLAS functions and probe ``a2c_update`` against its numpy
    reference; set and return ``_library``.  It is the compiled kernels
    only when the probe agreed; else the numpy passes, with the reason.
    It is set only after the probe, so the probe's reference makes no
    compiled call.  A freshly compiled library whose probe agreed is
    published to the cache."""
    global _library
    entry = _cache_entry()
    functions = _cached_functions(entry) if entry else None
    if functions is None:
        lib, why, data = _compile_library()
        if lib is not None:
            functions, why = _probed_functions(lib)
        if functions is not None and entry:
            _publish(entry, data)
    _library = (_Library(why) if functions is None else
                _Library(f"compiled kernels ({', '.join(KERNELS)})", **functions))
    return _library


def _probed_functions(lib):
    """``lib``'s functions, once it holds numpy's BLAS functions and
    ``a2c_update`` agrees with its numpy reference: (functions, None), or
    (None, why)."""
    functions, why = _library_functions(lib)
    if functions is not None and not _a2c_update_agrees(functions["a2c_update"]):
        return None, "numpy (a2c_update: compiled kernel disagrees with the numpy passes)"
    return functions, why


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
    update = lib.a2c_update
    update.argtypes = [ctypes.c_void_p] + [ctypes.c_double] * 3
    update.restype = ctypes.c_double
    return {"a2c_update": update}, None


def _compile_library():
    """Compile and load ``_kernels.c``: (library, None, the library's
    bytes), or (None, why, None)."""
    import subprocess   # here, not at the top: only a compiling process pays for it

    cc = shutil.which("cc")
    if cc is None:
        return None, "numpy (no C compiler: cc is not on PATH)", None
    if not KERNEL_SOURCE.is_file():
        return None, f"numpy (kernel source {KERNEL_SOURCE} is missing)", None
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
                return None, f"numpy (kernel build failed: {exc})", None
        else:
            return None, why, None
        try:
            lib = ctypes.CDLL(str(lib_path))
            data = lib_path.read_bytes()
        except OSError as exc:
            return None, f"numpy (kernel build failed: {exc})", None
    # the loaded library stays mapped after its file is removed
    return lib, None, data


def _cache_entry():
    """Where the cache keeps this host's library, built with whichever of
    ``KERNEL_FLAGS`` and ``BASELINE_FLAGS`` its compile ended on; None
    where the compiler or the CPU cannot be identified, where the cache
    directory is not private, or where the entry exists and is not."""
    host = _host_identity()
    folder = _cache_dir() if host else None
    if folder is None:
        return None
    try:
        source = KERNEL_SOURCE.read_bytes()
    except OSError:
        return None
    entry = folder / f"_kernels-{_cache_key(source, host)}.so"
    return None if entry.exists() and not _private(entry, stat.S_ISREG) else entry


def _host_identity():
    """What a library's bytes and its fitness for the CPU depend on, beside
    its source and flags: the resolved ``cc`` with its size and mtime, the
    machine, and the CPU's ``model name`` and ``flags`` lines of
    /proc/cpuinfo; None where the compiler or the CPU cannot be identified.
    Starts no process."""
    import platform

    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        cc = os.path.realpath(cc)
        st = os.stat(cc)
        with open("/proc/cpuinfo") as fh:
            cpu = sorted({line.strip() for line in fh
                          if line.startswith(("model name", "flags"))})
    except OSError:
        return None
    if {line.split()[0] for line in cpu} != {"model", "flags"}:
        return None
    return cc, st.st_size, st.st_mtime_ns, platform.machine(), tuple(cpu)


def _cache_key(source, host):
    """The SHA-256, in hex, of a library built from ``source`` (bytes) on
    ``host`` (``_host_identity()``) with ``KERNEL_FLAGS``, or failing them
    ``BASELINE_FLAGS``."""
    import hashlib

    return hashlib.sha256(repr((source, KERNEL_FLAGS, BASELINE_FLAGS, host))
                          .encode()).hexdigest()


def _cache_dir():
    """The library cache, ``$XDG_CACHE_HOME/safestock`` or
    ``~/.cache/safestock``, made with mode 0700 if it is missing; None where
    it cannot be made, its root is not an absolute path, or it is not
    private (``_private``)."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(root):
        return None
    folder = Path(root) / "safestock"
    try:
        folder.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return None
    return folder if _private(folder, stat.S_ISDIR) else None


def _private(path, kind):
    """Whether ``path`` is a ``kind`` (``stat.S_ISDIR`` or ``S_ISREG``)
    owned by this user that no other user can write: loading a library
    runs its code."""
    try:
        st = os.stat(path)
    except OSError:
        return False
    return kind(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _cached_functions(path):
    """The probed functions of the library cached at ``path``, or None where
    none is.  An entry that fails to load or to agree is removed, never
    rewritten: other processes may have it mapped."""
    if not _private(path, stat.S_ISREG):
        return None
    try:
        functions, _ = _probed_functions(ctypes.CDLL(str(path)))
    except OSError:
        functions = None
    if functions is None:
        with contextlib.suppress(OSError):
            path.unlink()
    return functions


def _publish(path, data):
    """Put the library ``data`` in the cache at ``path``: written under a
    temporary name beside it, then renamed onto it, so a reader finds the
    whole library or none.  A failure leaves it unpublished."""
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


_PROBE_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan)


def _same_bits(a, b):
    """Whether ``a`` and ``b`` hold the same bits, NaNs compared by NaN-ness
    only (see the module docstring)."""
    return (np.where(np.isnan(a), np.nan, a).tobytes()
            == np.where(np.isnan(b), np.nan, b).tobytes())


def _probe_updates(run):
    """Ten updates by ``run`` (``_a2c_passes``' signature) each of three
    actor-critics, whose actors have one, three and two members, the first
    made after the actor's pass of the first period's input; after every
    update, its TD error, the agent's parameters, gradient and moments, the
    actor's forward values (not the compiled backward pass's scratch, which
    the numpy passes never write; all live arrays, so compare them before
    the next update) and its step count.

    Zeros of both signs and subnormals replace some parameters.  The first
    update's state is zero, so the critic's first-layer weights, which lead
    ``theta``, get gradients of +-0: the compiled Adam's first two
    32-element blocks are idle, a -0 first moment over a -0 parameter is
    all that keeps the third busy, and first moments of +-2.3e-308 in the
    fourth cross the flush.  Six updates of normal values, where a sum in
    another order rounds differently, come first, and the first two actors'
    layers take every path of both products, ``W @ a`` and the
    back-propagated ``W.T @ dz``: gemv, a dot product and numpy's own
    loop.  The third actor takes the same paths on special values: zeros
    of both signs, subnormals, infinities and NaN replace every other one
    of its parameters and of its inputs' values.  Then a reward of 1e300
    makes gradients whose squares overflow, infinities and NaN replace
    some sampled actions, and last an infinite reward and then a NaN critic
    weight each give a non-finite TD error, having written nothing."""
    rng = np.random.default_rng(0)
    critic_sizes = (3, 48, 5, 1)
    n_critic = parameter_count(critic_sizes)
    rewards = [*rng.standard_normal(6) * 10.0 ** rng.uniform(-3.0, 3.0, 6),
               1e300, 0.5, np.inf, 0.5]
    n = len(rewards)
    for members, sizes, std, specials in ((1, (3, 9, 64, 3), 0.7, False),
                                          (3, (2, 9, 1, 64, 1), 1.3, False),
                                          (2, (3, 7, 1, 5, 2), 1.0, True)):
        theta = np.empty(n_critic + members * parameter_count(sizes))
        critic = Mlp(critic_sizes, rng, theta=theta[:n_critic])
        actor = Mlp(sizes, rng, theta=theta[n_critic:], members=members)
        theta[::5] = rng.choice(_PROBE_SPECIALS[:4], theta[::5].size)
        opt = AdamState(theta)
        # Adam's blocks 0 to 3 lie in the critic's 48 x 3 first-layer weights
        theta[64] = opt.m[64] = -0.0
        opt.m[96:128] = np.tile([2.3e-308, -2.3e-308], 16)
        states = rng.standard_normal((n + 1, 3))
        states[0] = 0.0
        xs = rng.standard_normal((n + 1, members, sizes[0]))
        for values in (actor.theta, xs.reshape(-1)) if specials else ():
            values[::2] = rng.choice(_PROBE_SPECIALS, values[::2].size)
        actions = rng.standard_normal((n, members * sizes[-1]))
        actions[7, ::2] = rng.choice(_PROBE_SPECIALS[4:], actions[7, ::2].size)
        update = A2cUpdate(critic, actor, theta, opt, 0.9, std)
        with np.errstate(all="ignore"):
            forward_cached(actor, xs[0])
        for i, r in enumerate(rewards):
            if i == n - 1:
                theta[1] = np.nan   # a hidden pre-activation of V is NaN
            update.a[...] = actions[i]
            with np.errstate(all="ignore"):
                delta = run(update, states[i], float(r), states[i + 1], xs[i + 1])
            yield delta, (theta, update.grad, opt.m, opt.v, actor.forward_values), opt.step


def _a2c_update_agrees(fn):
    """Whether ``fn`` gives ``_a2c_passes``' bits, TD error and step count
    after every update of ``_probe_updates``."""
    for (ref_delta, ref, ref_step), (delta, mine, step) in zip(
            _probe_updates(_a2c_passes),
            _probe_updates(lambda *args: _a2c_kernel(fn, *args))):
        if step != ref_step or not all(_same_bits(x, y) for x, y in zip(
                (np.float64(ref_delta), *ref), (np.float64(delta), *mine))):
            return False
    return True


def gaussian_mean_grad(mu, a, std):
    """Gradient of log N(a; mu, std^2) with respect to ``mu`` for a float
    ``std``: (a - mu) / (std * std)."""
    return (np.asarray(a, dtype=float) - mu) / (std * std)


class A2cUpdate:
    """A training loop's buffers for ``a2c_update`` on one actor-critic.

    ``critic`` is a one-member net with one output, V(s); ``actor`` is the
    net of the Gaussian policy's means; ``theta`` holds the critic's
    parameters and then the actor's (the two nets' ``theta`` are views of
    it), ``opt`` steps it, ``gamma`` is the discount and ``std`` the std of
    every action component.  Made once per training loop: ``critic_next``,
    a second net over the critic's parameters for V(s') (the critic's own
    buffer holds V(s), the actor's the pass the action was sampled from),
    ``a``, the float64 buffer that holds the sampled action, ``x_next``,
    the (members, n_in) float64 buffer that holds the next period's actor
    input, which the update copies into the actor's input only after its
    backward pass has read the old one, and ``grad``, the gradient vector:
    only what the kernel reads or writes.  The compiled update's plan is
    resolved here, once: every address it reads or writes, the discount
    and the variance ``std * std`` (Adam's constants are compiled in).  The
    numpy passes read the same discount and std, so both paths update
    alike.  A critic that is not one net with one output, a ``theta`` the
    kernel cannot write (not an aligned, writeable, C-contiguous float64
    vector of both nets' sizes) and moments of another shape or dtype raise
    ValueError.  Making one loads no library.  It cannot be copied or
    pickled: its plan holds the addresses of the nets' buffers.
    """

    def __init__(self, critic, actor, theta, opt, gamma, std):
        if critic.members != 1 or critic.layer_sizes[-1] != 1:
            raise ValueError(f"the critic must be one net with one output, not "
                             f"{critic.members} of {critic.layer_sizes}")
        n_critic = critic.theta.size
        _check_vector("theta", theta, n_critic + actor.theta.size, writeable=True)
        for name in ("m", "v"):
            _check_vector(name, getattr(opt, name), theta.size, writeable=True)
        self.critic, self.actor, self.theta, self.opt = critic, actor, theta, opt
        self.gamma, self.std = float(gamma), float(std)
        self.critic_next = Mlp(critic.layer_sizes, theta=critic.theta)
        self.a = np.zeros(actor.members * actor.layer_sizes[-1])
        self.x_next = np.zeros((actor.members, actor.layer_sizes[0]))
        self.grad = np.zeros_like(theta)
        g = self.grad.ctypes.data
        # the variance std * std, as gaussian_mean_grad makes it
        self._plan = _A2cPlan(
            critic.plan, self.critic_next.plan, actor.plan,
            critic._address, actor._address, g, g + 8 * n_critic, self.a.ctypes.data,
            self.x_next.ctypes.data, theta.ctypes.data, g, opt.m.ctypes.data,
            opt.v.ctypes.data, theta.size, self.std * self.std, self.gamma)
        self.plan = ctypes.addressof(self._plan)


class _A2cPlan(ctypes.Structure):
    """``struct a2c_plan`` of ``_kernels.c``."""
    _fields_ = [*((name, ctypes.c_void_p) for name in (
        "critic", "critic_next", "actor", "critic_theta", "actor_theta",
        "critic_grad", "actor_grad", "a", "x_next", "p", "g", "m", "v")),
        ("n", ctypes.c_size_t), ("var", ctypes.c_double), ("gamma", ctypes.c_double)]


def a2c_update(update, s, r, s_next, x_next):
    """One online TD actor-critic update, in place; returns the TD error.

    delta = r + gamma V(s') - V(s) moves the critic toward its bootstrapped
    target and every actor member along delta * grad log pi(a), through
    one Adam step over ``update.theta``; the discount is ``update.gamma``
    and the action ``update.a``.  The actor's buffer must hold its forward
    pass of the period's input, the one the action was sampled from.  The
    update ends with the actor's forward pass of ``x_next``, the next
    period's input, with the stepped parameters: the actor's buffer then
    holds what ``forward_cached(update.actor, x_next)`` would put there,
    and the next period samples from it.  A state not shaped as the
    critic's input or an ``x_next`` not shaped as the actor's raises
    ValueError, and the reward is taken as ``float(r)``.  A non-finite TD
    error (a NaN or infinite reward, or a diverged critic) raises
    FloatingPointError before any parameter, moment, step count or actor
    value moves.

    Runs as one compiled call (``a2c_update`` in ``_kernels.c``) on the
    plan ``update`` resolved.  In a process without the compiled library
    (``kernel_backend()``), the numpy reference (``_a2c_passes``) runs
    instead, on the same arrays.  Both give the same bits.
    """
    shapes = update.critic._output_shape
    s, s_next = _checked(s, shapes, "state"), _checked(s_next, shapes, "state")
    x_next = _checked(x_next, update.actor._output_shape, "input")
    r = float(r)
    kernel = (_library or _load_library()).a2c_update
    if kernel is None:
        delta = _a2c_passes(update, s, r, s_next, x_next)
    else:
        delta = _a2c_kernel(kernel, update, s, r, s_next, x_next)
    if not math.isfinite(delta):
        raise FloatingPointError(
            f"non-finite TD error {delta} (reward {r}, "
            f"V(s) {float(update.critic.output.flat[0])}, "
            f"V(s') {float(update.critic_next.output.flat[0])})")
    return delta


def _a2c_passes(update, s, r, s_next, x_next):
    """The reference: ``a2c_update`` as the numpy forward, backward and Adam
    passes, called directly on the arrays ``update`` checked when it was
    made, as the kernel is.  Returns the TD error; a non-finite one returns
    before any gradient, parameter, moment or actor value is written."""
    critic, actor, grad = update.critic, update.actor, update.grad
    v_s = forward_cached(critic, s)
    v_next = forward_cached(update.critic_next, s_next)
    delta = r + update.gamma * float(v_next.flat[0]) - float(v_s.flat[0])
    if not math.isfinite(delta):
        return delta
    # ascent along delta * grad; Adam applies descent, so negate
    n_critic = critic.theta.size
    _backward_passes(critic, np.array([-delta]), grad[:n_critic])
    up_actor = gaussian_mean_grad(actor.output.ravel(), update.a, update.std)
    up_actor *= -delta
    _backward_passes(actor, up_actor, grad[n_critic:])
    _adam_passes(update.theta, grad, update.opt, *_advance(update.opt))
    forward_cached(actor, x_next)
    return delta


def _a2c_kernel(fn, update, s, r, s_next, x_next):
    """Run the compiled update ``fn`` on ``update``'s plan; its TD error.
    The step count advances only after a finite TD error."""
    opt = update.opt
    update.critic.input[...] = s
    update.critic_next.input[...] = s_next
    update.x_next[...] = x_next
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
    """Read ``members`` same-shaped ``mlp`` blocks: their layer sizes, and
    per member its parameter arrays, shaped and ordered as
    ``Mlp.member_parameters`` gives them, for the caller's net.

    Every parameter line's value count is checked against its block's
    header as it is read, so a header that claims more parameters than its
    lines hold raises ValueError having allocated no more than those
    lines' values."""
    sizes, blocks = None, []
    for k in range(members):
        header = fh.readline().split()
        if not header or header[0] != "mlp":
            raise ValueError(f"expected an mlp block, got {header!r}")
        block_sizes = _layer_sizes(header[1:])
        if sizes is None:
            sizes = block_sizes
        elif block_sizes != sizes:
            raise ValueError(f"mlp block sizes {block_sizes} != {sizes}")
        shapes = [shape for fan_in, fan_out in zip(sizes, sizes[1:])
                  for shape in ((fan_out, fan_in), (fan_out,))]
        block = []
        for i, shape in enumerate(shapes):
            values = fh.readline().split()
            count = math.prod(shape)
            if len(values) != count:
                raise ValueError(f"mlp block {k}, parameter line {i}: "
                                 f"{len(values)} values, expected {count}")
            block.append(np.array([float(v) for v in values]).reshape(shape))
        blocks.append(block)
    return sizes, blocks
