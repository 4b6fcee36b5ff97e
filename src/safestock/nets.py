"""Dense feedforward networks with hand-rolled reverse-mode gradients.

Everything operates on single float64 vectors (no batching): a multilayer
perceptron with ReLU hidden layers and a linear output, a bias-corrected
Adam optimizer, and a fixed-std Gaussian policy head whose log-probability
gradient feeds policy updates.

Parameters live in one flat vector per network (``theta``); the per-layer
weight matrices and bias vectors are views into it.  Gradients come back in
the same flat layout, so one fused Adam step can update a whole network, or
several networks sharing a buffer.  Adam is elementwise, which makes the
fused step identical to per-layer updates.

Adam flushes its first moment to zero once it falls below the smallest
normal float64 (``TINY``).  The first moment of a parameter whose gradient
stays zero (a dead ReLU unit) decays by ``beta1`` each step, and after about
6k steps it reaches the subnormal range.  There it stops decaying: for small
``k``, round-to-nearest maps ``k * 5e-324 * 0.9`` back to ``k * 5e-324``, so
the value is a fixed point that never reaches zero, and every later
arithmetic pass over a subnormal runs several times slower.  The flush
changes no parameter: a subnormal first moment moves a parameter by about
1e-304, far below one ulp at its working scale.  The second moment is left
alone: none of the training runs measured so far drives it subnormal, and
each flush pass costs a warm step as much as any other pass.
"""

import math
from dataclasses import dataclass

import numpy as np

LOG_ROOT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
TINY = np.finfo(float).tiny


def parameter_count(layer_sizes):
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))


class Mlp:
    """Weights ``W[i]`` are (fan_out, fan_in); hidden layers apply ReLU.

    ``theta`` may be supplied to place the parameters inside an external
    buffer (a slice of a shared optimizer vector).  Explicit ``weights``/
    ``biases`` are copied in; otherwise a fresh or seeded generator draws a
    Glorot-uniform initialisation with zero biases, except that a provided
    ``theta`` with no generator is kept as-is.
    """

    def __init__(self, layer_sizes, rng=None, theta=None, weights=None, biases=None):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ValueError(f"need at least two positive layer sizes, got {sizes}")
        self.layer_sizes = sizes
        total = parameter_count(sizes)
        keep = theta is not None and weights is None and rng is None
        if theta is None:
            theta = np.empty(total)
        elif theta.shape != (total,):
            raise ValueError(f"theta shape {theta.shape} != ({total},)")
        self.theta = theta
        self.weights = []
        self.biases = []
        self._layout = []
        offset = 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            n_w = fan_out * fan_in
            self._layout.append((offset, (fan_out, fan_in), offset + n_w, fan_out))
            self.weights.append(theta[offset:offset + n_w].reshape(fan_out, fan_in))
            offset += n_w
            self.biases.append(theta[offset:offset + fan_out])
            offset += fan_out
        if weights is not None:
            for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
                w = np.asarray(weights[i], dtype=float)
                b = np.asarray(biases[i], dtype=float)
                if w.shape != (fan_out, fan_in):
                    raise ValueError(
                        f"layer {i}: weight shape {w.shape} != {(fan_out, fan_in)}")
                if b.shape != (fan_out,):
                    raise ValueError(
                        f"layer {i}: bias shape {b.shape} != {(fan_out,)}")
                self.weights[i][:] = w
                self.biases[i][:] = b
        elif not keep:
            if rng is None or isinstance(rng, (int, np.integer)):
                rng = np.random.default_rng(rng)
            for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
                limit = math.sqrt(6.0 / (fan_in + fan_out))
                self.weights[i][:] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
                self.biases[i][:] = 0.0

    def parameters(self):
        """Live parameter arrays, ordered [W0, b0, W1, b1, ...] (views of theta)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @property
    def n_parameters(self):
        return self.theta.size

    def grad_layers(self, flat):
        """View a flat gradient vector as [dW0, db0, dW1, db1, ...]."""
        out = []
        for w_off, w_shape, b_off, n_b in self._layout:
            out.append(flat[w_off:w_off + w_shape[0] * w_shape[1]].reshape(w_shape))
            out.append(flat[b_off:b_off + n_b])
        return out


def _as_input(net, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (net.layer_sizes[0],):
        raise ValueError(
            f"input shape {x.shape} incompatible with input size {net.layer_sizes[0]}")
    return x


def forward(net, x):
    """Deterministic feedforward evaluation, returning the output vector."""
    a = _as_input(net, x)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ a + b
        a = z if i == last else np.maximum(z, 0.0)
    return a


def forward_cached(net, x):
    """Forward pass that also returns the per-layer activations for backward."""
    a = _as_input(net, x)
    activations = [a]
    zs = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ a + b
        zs.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return a, (zs, activations)


def backward(net, x, upstream, cache=None, out=None):
    """Gradient of ``upstream . output`` w.r.t. ``net.theta``.

    Returns the flat gradient vector (written into ``out`` when supplied).
    Recomputes the forward pass unless a cache from ``forward_cached`` is
    given; ``net.grad_layers`` views the result per layer.
    """
    if cache is None:
        _, cache = forward_cached(net, x)
    zs, activations = cache
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (net.layer_sizes[-1],):
        raise ValueError(
            f"upstream shape {upstream.shape} incompatible with output size "
            f"{net.layer_sizes[-1]}")
    if out is None:
        out = np.empty(net.theta.size)
    elif out.shape != (net.theta.size,):
        raise ValueError(f"out shape {out.shape} != ({net.theta.size},)")
    dz = upstream
    for i in range(len(net.weights) - 1, -1, -1):
        w_off, w_shape, b_off, n_b = net._layout[i]
        g_w = out[w_off:w_off + w_shape[0] * w_shape[1]].reshape(w_shape)
        np.multiply(dz[:, None], activations[i][None, :], out=g_w)
        out[b_off:b_off + n_b] = dz
        if i > 0:
            dz = net.weights[i].T @ dz
            dz *= zs[i - 1] > 0.0
    return out


class AdamState:
    """Moment accumulators plus step counter for one flat parameter vector.

    Carries two float scratch buffers and a boolean mask so a step
    allocates nothing; large temps would otherwise bounce through mmap on
    every update.  The mask marks the first-moment entries at or above
    ``TINY``; the step multiplies ``m`` by it, which flushes subnormals to
    zero without a per-element branch (see the module docstring).
    """

    def __init__(self, params, alpha=0.001, beta1=0.9, beta2=0.999, eps=1e-7):
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._s1 = np.zeros_like(params)
        self._s2 = np.zeros_like(params)
        self._keep = np.zeros(params.shape, dtype=bool)


def adam_step(params, grads, state):
    """One bias-corrected Adam descent step, applied in place.

    First-moment entries below ``TINY`` in magnitude are flushed to exactly
    zero after both moments are updated.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}")
    state.step += 1
    m, v, s1, s2, keep = state.m, state.v, state._s1, state._s2, state._keep
    m *= state.beta1
    np.multiply(grads, 1.0 - state.beta1, out=s1)
    m += s1
    v *= state.beta2
    np.square(grads, out=s1)
    s1 *= 1.0 - state.beta2
    v += s1
    np.abs(m, out=s1)
    np.greater_equal(s1, TINY, out=keep)
    m *= keep
    np.sqrt(v, out=s1)
    s1 *= 1.0 / math.sqrt(1.0 - state.beta2 ** state.step)
    s1 += state.eps
    np.divide(m, s1, out=s2)
    s2 *= state.alpha / (1.0 - state.beta1 ** state.step)
    params -= s2
    return params


@dataclass
class GaussianPolicy:
    """Diagonal Gaussian over actions: mean from an Mlp, fixed per-component std.

    ``action_std`` is a positive scalar, or one positive value per action
    component.
    """

    mean_net: Mlp
    action_std: object

    def __post_init__(self):
        std = np.asarray(self.action_std, dtype=float)
        if std.ndim > 1 or not np.all(std > 0):
            raise ValueError(f"action_std={self.action_std} must be > 0")
        self.action_std = float(std) if std.ndim == 0 else std


def std_to_text(std):
    arr = np.asarray(std, dtype=float)
    if arr.ndim == 0:
        return repr(float(arr))
    return ",".join(repr(float(v)) for v in arr)


def std_from_text(text):
    if "," in text:
        return np.array([float(v) for v in text.split(",")])
    return float(text)


def sample_action(policy, s, rng):
    """Draw an action and return it with the mean it was drawn around."""
    mu = forward(policy.mean_net, s)
    return mu + policy.action_std * rng.standard_normal(mu.shape), mu


def logprob_grad_from_mean(mu, a, std):
    """Log-density of ``a`` under a diagonal N(mu, std^2) and its mu-gradient."""
    diff = np.asarray(a, dtype=float) - mu
    if np.isscalar(std) or getattr(std, "ndim", 0) == 0:
        var = std * std
        logp = float(-0.5 * np.dot(diff, diff) / var
                     - diff.size * (math.log(std) + LOG_ROOT_TWO_PI))
        return logp, diff / var
    std = np.asarray(std, dtype=float)
    var = std * std
    logp = float(-0.5 * np.sum(diff * diff / var)
                 - np.sum(np.log(std)) - diff.size * LOG_ROOT_TWO_PI)
    return logp, diff / var


def gaussian_logprob_grad(policy, s, a):
    """Log pi(a|s) and its gradient w.r.t. the mean-net output."""
    mu = forward(policy.mean_net, s)
    return logprob_grad_from_mean(mu, a, policy.action_std)


def write_mlp(fh, net):
    fh.write("mlp " + " ".join(str(s) for s in net.layer_sizes) + "\n")
    for p in net.parameters():
        fh.write(" ".join(repr(float(v)) for v in p.ravel()) + "\n")


def read_mlp(fh):
    header = fh.readline().split()
    if not header or header[0] != "mlp":
        raise ValueError(f"expected an mlp block, got {header!r}")
    sizes = [int(s) for s in header[1:]]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = np.array([float(v) for v in fh.readline().split()])
        b = np.array([float(v) for v in fh.readline().split()])
        weights.append(w.reshape(fan_out, fan_in))
        biases.append(b)
    return Mlp(sizes, weights=weights, biases=biases)
