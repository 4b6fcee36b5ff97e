import copy
import ctypes
import io
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import COMPILED
from hypothesis import given, settings, strategies as st

from safestock import nets
from safestock.nets import (
    ADAM_ALPHA,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TINY,
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_cached,
    gaussian_mean_grad,
    parameter_count,
    read_mlp,
    write_mlp,
)


def finite_difference(net, x, upstream, h=1e-5):
    grads = np.empty(net.theta.size)
    for j in range(net.theta.size):
        orig = net.theta[j]
        net.theta[j] = orig + h
        up = float(upstream @ forward(net, x))
        net.theta[j] = orig - h
        down = float(upstream @ forward(net, x))
        net.theta[j] = orig
        grads[j] = (up - down) / (2 * h)
    return grads


def reference_adam_step(params, grads, state):
    """Adam without the subnormal flush, in the same operation order."""
    state.step += 1
    state.m[...] = state.m * ADAM_BETA1 + grads * (1.0 - ADAM_BETA1)
    state.v[...] = state.v * ADAM_BETA2 + (grads * grads) * (1.0 - ADAM_BETA2)
    denom = (np.sqrt(state.v) * (1.0 / math.sqrt(1.0 - ADAM_BETA2 ** state.step))
             + ADAM_EPS)
    params -= (state.m / denom) * (ADAM_ALPHA / (1.0 - ADAM_BETA1 ** state.step))


def reference_forward_cached(weights, biases, x):
    """One network on one 1-D input: W @ a + b per layer, ReLU between."""
    a = x
    activations = [a]
    zs = []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = w @ a + b
        zs.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return a, (zs, activations)


def reference_backward(weights, biases, x, upstream):
    """Flat [dW0, db0, dW1, db1, ...] of ``upstream . output`` for one network."""
    zs, activations = reference_forward_cached(weights, biases, x)[1]
    pieces = []
    dz = upstream
    for i in range(len(weights) - 1, -1, -1):
        pieces.append(dz.copy())
        pieces.append(np.multiply(dz[:, None], activations[i][None, :]).ravel())
        if i > 0:
            dz = weights[i].T @ dz
            dz *= zs[i - 1] > 0.0
    return np.concatenate(pieces[::-1])


def read_net(fh, members=1):
    """The stacked net of the ``members`` blocks ``read_mlp`` reads from
    ``fh``, its parameters filled in."""
    sizes, blocks = read_mlp(fh, members)
    net = Mlp(sizes, theta=np.zeros(members * parameter_count(sizes)), members=members)
    for k, block in enumerate(blocks):
        for p, values in zip(net.member_parameters(k), block):
            p[...] = values
    return net


def subnormal_count(x):
    return int(np.count_nonzero((x != 0.0) & (np.abs(x) < TINY)))


def max_rel_error(a, b, floor=1e-8):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


class TestForward:
    def test_zero_net_maps_to_zero(self):
        net = Mlp((4, 10, 10, 3), rng=0)
        net.theta[:] = 0.0
        assert np.array_equal(forward(net, [1.0, -2.0, 3.0, 4.0]), np.zeros(3))

    def test_identity_single_layer(self):
        net = Mlp((3, 3))
        net.weights[0][...] = np.eye(3)
        net.biases[0][...] = 0.0
        x = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(forward(net, x), x)

    def test_matches_independent_layerwise_evaluation(self):
        rng = np.random.default_rng(8)
        net = Mlp((5, 7, 6, 2), rng=rng)
        x = rng.normal(size=5)
        # plain-python re-evaluation, one unit at a time
        a = list(x)
        params = net.member_parameters(0)
        for layer, (w, b) in enumerate(zip(params[::2], params[1::2])):
            out = []
            for i in range(w.shape[0]):
                z = b[i] + sum(w[i, j] * a[j] for j in range(w.shape[1]))
                if layer < len(net.weights) - 1:
                    z = max(z, 0.0)
                out.append(z)
            a = out
        assert forward(net, x) == pytest.approx(a, rel=1e-12)

    def test_dimension_mismatch(self):
        net = Mlp((3, 2), rng=1)
        with pytest.raises(ValueError, match="input"):
            forward(net, [1.0, 2.0])

    def test_cached_output_follows_the_next_pass_and_a_copy_does_not(self):
        rng = np.random.default_rng(12)
        net = Mlp((4, 6, 3), rng=rng)
        x1, x2 = rng.normal(size=(2, 4))
        y1 = forward_cached(net, x1)
        copied = forward(net, x1)
        assert np.shares_memory(y1, net.buffer)
        assert not np.shares_memory(copied, net.buffer)
        first = copied.tobytes()
        second = forward(net, x2).tobytes()
        assert first != second
        assert y1.tobytes() == second and copied.tobytes() == first
        assert forward_cached(net, x1).tobytes() == y1.tobytes() == first

    def test_forward_is_pure(self):
        net = Mlp((3, 8, 2), rng=2)
        x = [0.1, 0.2, 0.3]
        before = net.theta.copy()
        y1 = forward(net, x)
        y2 = forward(net, x)
        assert np.array_equal(y1, y2)
        assert np.array_equal(net.theta, before)


class TestBackward:
    @pytest.mark.parametrize("sizes", [(4, 1), (4, 10, 2), (3, 8, 8, 8, 1)])
    def test_matches_finite_differences_each_layer_count(self, sizes):
        rng = np.random.default_rng(hash(sizes) % 2 ** 31)
        net = Mlp(sizes, rng=rng)
        x = rng.normal(size=sizes[0])
        upstream = rng.normal(size=sizes[-1])
        analytic = backward(net, x, upstream)
        numeric = finite_difference(net, x, upstream)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_zero_upstream_gives_zero_gradient(self):
        net = Mlp((3, 9, 2), rng=3)
        grads = backward(net, [1.0, 2.0, 3.0], np.zeros(2))
        assert np.count_nonzero(grads) == 0

    def test_dead_relu_blocks_gradient(self):
        # one hidden unit forced negative: its incoming weights get no grad
        net = Mlp((1, 2, 1))
        net.weights[0][...] = [[1.0], [-1.0]]
        net.weights[1][...] = [[1.0, 1.0]]
        net.biases[0][...] = net.biases[1][...] = 0.0
        grads = backward(net, [2.0], np.array([1.0]))
        # [dW0, db0, dW1, db1], as views of a net over the gradient
        layers = Mlp(net.layer_sizes, theta=grads).member_parameters(0)
        assert layers[0][0, 0] != 0.0   # live unit
        assert layers[0][1, 0] == 0.0   # dead unit (pre-activation -2)
        assert layers[2][0, 1] == 0.0   # dead unit contributes no activation

    def test_upstream_shape_error(self):
        net = Mlp((3, 2), rng=1)
        with pytest.raises(ValueError, match="upstream"):
            backward(net, [1.0, 2.0, 3.0], np.zeros(3))


class TestMembers:
    @settings(max_examples=80, deadline=None)
    @given(members=st.integers(1, 4),
           sizes=st.lists(st.integers(1, 130), min_size=2, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1),
           drop_member_axis=st.booleans())
    def test_stacked_calls_match_per_network_reference(self, members, sizes, seed,
                                                       drop_member_axis):
        rng = np.random.default_rng(seed)
        net = Mlp(sizes, rng=rng, members=members)
        for b in net.biases:   # nonzero biases, some of them exactly zero
            b[:] = rng.normal(size=b.shape) * (rng.random(b.shape) < 0.8)
        x = rng.normal(size=(members, sizes[0]))
        upstream = rng.normal(size=(members, sizes[-1]))
        upstream[rng.random(upstream.shape) < 0.2] = 0.0
        if drop_member_axis and members == 1:
            x, upstream = x[0], upstream[0]
        y = forward(net, x)
        y_cached = forward_cached(net, x)
        grad = backward(net, x, upstream)   # reruns the pass of x in the buffer
        assert y.shape == y_cached.shape == upstream.shape
        grad_net = Mlp(sizes, theta=grad, members=members)   # views of the gradient
        xs, ys, ups = (np.reshape(v, (members, -1)) for v in (x, y, upstream))
        for k in range(members):
            params = net.member_parameters(k)
            weights, biases = params[::2], params[1::2]
            ref_y, (ref_zs, _) = reference_forward_cached(weights, biases, xs[k])
            assert ys[k].tobytes() == ref_y.tobytes()
            assert np.reshape(y_cached, (members, -1))[k].tobytes() == ref_y.tobytes()
            for z, ref_z in zip(net.zs, ref_zs):
                assert z[k, :, 0].tobytes() == ref_z.tobytes()
            mine = np.concatenate([g.ravel() for g in grad_net.member_parameters(k)])
            ref = reference_backward(weights, biases, xs[k], ups[k])
            assert mine.tobytes() == ref.tobytes()

    def test_members_drawn_one_after_another(self):
        stacked = Mlp((2, 5, 3, 1), rng=np.random.default_rng(9), members=3)
        rng = np.random.default_rng(9)
        for k in range(3):
            alone = Mlp((2, 5, 3, 1), rng=rng)
            for mine, theirs in zip(stacked.member_parameters(k),
                                    alone.member_parameters(0)):
                assert np.array_equal(mine, theirs)

    def test_one_member_layout_is_per_layer_weights_then_biases(self):
        net = Mlp((3, 4, 2), rng=1)
        w0, b0, w1, b1 = net.member_parameters(0)
        assert np.array_equal(net.theta, np.concatenate(
            [w0.ravel(), b0, w1.ravel(), b1]))

    def test_member_axis_required_above_one_member(self):
        net = Mlp((2, 3, 1), rng=0, members=2)
        with pytest.raises(ValueError, match="input"):
            forward(net, [0.1, 0.2])
        with pytest.raises(ValueError, match="upstream"):
            backward(net, np.zeros((2, 2)), np.zeros(1))

    def test_text_blocks_round_trip_per_member(self):
        net = Mlp((3, 4, 1), rng=5, members=3)
        buf = io.StringIO()
        write_mlp(buf, net)
        assert buf.getvalue().count("mlp 3 4 1\n") == 3
        buf.seek(0)
        clone = read_net(buf, members=3)
        assert clone.members == 3
        assert np.array_equal(clone.theta, net.theta)


class TestAdam:
    def test_first_step_moves_by_alpha(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState(params)
        adam_step(params, np.array([4.0, -0.3, 1e-4]), state)
        moved = np.abs(params - [1.0, -2.0, 0.5])
        assert moved == pytest.approx([0.001] * 3, rel=1e-3)

    def test_zero_gradient_never_moves(self):
        params = np.array([3.0, 7.0])
        state = AdamState(params)
        for _ in range(25):
            adam_step(params, np.zeros(2), state)
        assert np.array_equal(params, [3.0, 7.0])

    def test_two_steps_match_hand_recursion(self):
        # the constants of the Adam paper (Kingma and Ba, arXiv:1412.6980),
        # with the denominator floor the actor-critics train with
        alpha, b1, b2, eps = 0.001, 0.9, 0.999, 1e-7
        params = np.array([0.25])
        state = AdamState(params)
        # independent recursion on a scalar with g = 1 both steps
        m = v = 0.0
        w = 0.25
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w -= alpha * m_hat / (math.sqrt(v_hat) + eps)
        adam_step(params, np.ones(1), state)
        adam_step(params, np.ones(1), state)
        assert params[0] == pytest.approx(w, abs=1e-15)

    def test_shape_mismatch(self):
        params = np.zeros(3)
        state = AdamState(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, np.zeros(4), state)

    def test_deterministic_given_state(self):
        runs = []
        for _ in range(2):
            params = np.linspace(-1, 1, 5)
            state = AdamState(params)
            for t in range(10):
                adam_step(params, np.sin(np.arange(5) + t), state)
            runs.append(params)
        assert np.array_equal(runs[0], runs[1])

    def test_subnormal_fixed_point_flushed_to_zero(self):
        # 5e-324 * 0.9 rounds back to 5e-324: without the flush the
        # moment would stay there forever
        ref_params = np.array([0.5])
        ref = AdamState(ref_params)
        ref.m[:] = 5e-324
        reference_adam_step(ref_params, np.zeros(1), ref)
        assert ref.m[0] == 5e-324
        params = np.array([0.5])
        state = AdamState(params)
        state.m[:] = 5e-324
        adam_step(params, np.zeros(1), state)
        assert state.m[0] == 0.0
        assert params[0] == 0.5

    def test_no_step_leaves_a_subnormal_first_moment(self):
        # gradient magnitudes from 1e-320 to 1 put fresh subnormals in the
        # first moment, and zeroed entries decay into them
        rng = np.random.default_rng(4)
        params = rng.normal(size=300)
        state = AdamState(params)
        for _ in range(400):
            grads = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-320, 0, 300)
            grads[rng.random(300) < 0.45] = 0.0
            adam_step(params, grads, state)
            assert subnormal_count(state.m) == 0

    def test_flush_leaves_parameters_bit_identical(self):
        # 45% of entries get tiny gradients for 50 steps, then zero ones, so
        # their first moments cross into the subnormal range within 2000 steps
        rng = np.random.default_rng(5)
        n = 600
        dead = rng.random(n) < 0.45
        scale = np.where(dead, 10.0 ** rng.uniform(-300, -150, n), 1.0)
        params = rng.normal(size=n)
        ref_params = params.copy()
        state = AdamState(params)
        ref = AdamState(ref_params)
        ref_subnormals = 0
        for t in range(2000):
            grads = rng.normal(size=n) * scale
            if t >= 50:
                grads[dead] = 0.0
            adam_step(params, grads, state)
            reference_adam_step(ref_params, grads, ref)
            ref_subnormals = max(ref_subnormals, subnormal_count(ref.m))
        assert ref_subnormals > 0.1 * n
        assert params.tobytes() == ref_params.tobytes()

    def test_moments_cannot_be_rebound(self):
        params = np.zeros(3)
        state = AdamState(params)
        for name in ("m", "v"):
            with pytest.raises(AttributeError):
                setattr(state, name, np.zeros(3, dtype=np.float32))
        adam_step(params, np.ones(3), state)
        assert state.m.dtype == state.v.dtype == np.float64


DISAGREES = "compiled kernel disagrees with the numpy passes"


@pytest.fixture(scope="module")
def kernel():
    if not nets.kernel_backend().startswith(COMPILED):
        pytest.skip(f"no compiled kernels: {nets.kernel_backend()}")


def unit_td_update(sizes, members=1, rng=None):
    """An ``A2cUpdate`` whose compiled call (``run_unit_td``) hands the
    actor's backward pass ``update.a`` as its upstream, exactly, and Adam
    the gradient [0, 1, *the actor's]: a zero one-weight critic on
    s = s' = 0 (its inputs stay at their initial zeros) makes the TD error
    of reward -1 exactly -1, and under std 1 an actor whose mean is held at
    0 gets the upstream ((a - 0) / 1) * 1.  ``theta`` is the critic's two
    parameters, then the actor's, drawn from ``rng`` if one is given."""
    theta = np.zeros(2 + members * parameter_count(sizes))
    actor = Mlp(sizes, rng, theta=theta[2:], members=members)
    return nets.A2cUpdate(Mlp((1, 1), theta=theta[:2]), actor, theta,
                          AdamState(theta), 0.9, 1.0)


def run_unit_td(update, k, lr, fn=None):
    """One call of the raw compiled ``a2c_update`` (``fn``, else the loaded
    library's) on ``update`` (``unit_td_update``), with Adam's bias
    corrections ``k`` and ``lr`` as given, on the actor's buffer as it
    stands; the critic's parameters and the actor's mean are zeroed first.
    The call ends with the actor's forward pass of ``update.x_next``."""
    update.theta[:2] = 0.0
    update.actor.output[...] = 0.0
    assert (fn or nets._library.a2c_update)(update.plan, -1.0, k, lr) == -1.0


class AdamPair:
    """The compiled Adam, reached through the raw compiled ``a2c_update``,
    and the numpy passes, each stepping its own copy of one start state.

    A one-layer actor of ``n`` inputs G (``unit_td_update``, action 1.0)
    hands Adam [0, 1, *G, 1], zeros' signs included, so the parameters and
    moments are ``n + 3`` long; the critic's two parameters are zeroed
    before every step on both sides."""

    def __init__(self, n, params, m, v):
        self.update = unit_td_update((n, 1))
        self.update.a[...] = 1.0
        self.params, self.state = self.update.theta, self.update.opt
        self.ref_params = np.array(params, dtype=float)
        self.ref = AdamState(self.ref_params)
        self.params[:], self.state.m[:], self.state.v[:] = params, m, v
        self.ref.m[:], self.ref.v[:] = m, v

    def step(self, g, k, lr):
        """One step on both sides with gradient G = ``g`` and bias
        corrections ``k`` and ``lr``."""
        self.update.actor.input[0] = g
        run_unit_td(self.update, k, lr)
        self.ref_params[:2] = 0.0
        nets._adam_passes(self.ref_params, np.concatenate([[0.0, 1.0], g, [1.0]]),
                          self.ref, k, lr)

    def agree(self):
        return adam_bits(self.params, self.state) == adam_bits(self.ref_params, self.ref)


# bias corrections k and lr, each drawn on its own: those of steps 1, 7,
# 6000 and 10**7, and values no step makes, which the compiled Adam's idle
# blocks must refuse: negative, zeros of both signs, overflow, inf and NaN
STEP_SIZE_VALUES = [*(v for step in (1, 7, 6000, 10 ** 7) for v in nets._step_sizes(step)),
                    -1.0, 0.0, -0.0, 1e300, np.inf, np.nan]
STEP_SIZES = st.sampled_from(STEP_SIZE_VALUES)


# zeros of both signs, the subnormal range and its edge, overflow, NaN
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, TINY, -TINY,
                     np.nextafter(TINY, 0.0), 1.7e308, -1.7e308,
                     np.inf, -np.inf, np.nan])


def mixed_values(rng, n, special_frac):
    """Signed magnitudes spread from subnormal to near overflow, with a
    ``special_frac`` share of ``SPECIALS``."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-323.5, 308.2, n)
    pick = rng.random(n) < special_frac
    x[pick] = rng.choice(SPECIALS, int(pick.sum()))
    return x


def zero_runs(rng, n, zero_frac):
    """A mask of runs over ``n`` entries, each 32 to 96 long (the last may be
    shorter), and each set with probability ``zero_frac``."""
    mask = np.zeros(n, dtype=bool)
    start = 0
    while start < n:
        end = start + int(rng.integers(32, 97))
        mask[start:end] = rng.random() < zero_frac
        start = end
    return mask


def adam_bits(params, state):
    """The bytes of ``params``, ``m`` and ``v``, and the step count.

    Every NaN is written as the one canonical NaN.  When two NaNs meet in an
    addition, IEEE 754 leaves open whose sign and payload the result
    carries, and compilers order the operands of a commutative operation as
    they like (numpy's own loops included), so only NaN-ness is compared.
    """
    def bits(x):
        return np.where(np.isnan(x), np.nan, x).tobytes()
    return bits(params), bits(state.m), bits(state.v), state.step


class TestAdamKernel:
    """The compiled Adam, reached through the raw compiled ``a2c_update``
    (``AdamPair``), whose bias corrections are plain arguments: any k and
    lr reach the idle-block gate."""

    @given(n=st.integers(1, 2000), seed=st.integers(0, 2 ** 32 - 1),
           special_frac=st.sampled_from([0.0, 0.05, 0.5]),
           steps=st.integers(1, 4), k=STEP_SIZES, lr=STEP_SIZES)
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_numpy_passes_bit_for_bit(
            self, kernel, n, seed, special_frac, steps, k, lr):
        rng = np.random.default_rng(seed)
        grads = [mixed_values(rng, n, special_frac) for _ in range(steps)]
        pair = AdamPair(n, mixed_values(rng, n + 3, special_frac),
                        mixed_values(rng, n + 3, special_frac),
                        np.abs(mixed_values(rng, n + 3, special_frac)))
        with np.errstate(all="ignore"):
            for g in grads:
                pair.step(g, k, lr)
        assert pair.agree()

    @given(n=st.integers(32, 400), seed=st.integers(0, 2 ** 32 - 1),
           zero_frac=st.sampled_from([0.9, 1.0]),
           v_kind=st.sampled_from(["zero", "mixed", "inf", "negative", "nan"]),
           k=STEP_SIZES, lr=STEP_SIZES, steps=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_idle_blocks_match_numpy_passes_bit_for_bit(
            self, kernel, n, seed, zero_frac, v_kind, k, lr, steps):
        # runs of zero gradients over +0 first moments, each at least one of
        # the kernel's 32-element blocks long, make whole blocks idle; -0
        # first moments sit among them, and the parameters hold zeros of
        # both signs.  An infinite second moment gives an infinite
        # denominator, or a NaN one where k is 0, and negative or NaN second
        # moments never make a block idle.
        rng = np.random.default_rng(seed)
        zero = zero_runs(rng, n, zero_frac)
        grads = mixed_values(rng, n, 0.05)
        grads[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
        zero = np.r_[False, False, zero, False]   # over Adam's [0, 1, *G, 1]
        size = n + 3
        params = mixed_values(rng, size, 0.05)
        signed = zero & (rng.random(size) < 0.5)
        params[signed] = rng.choice([0.0, -0.0], int(signed.sum()))
        m = mixed_values(rng, size, 0.05)
        m[zero] = 0.0
        m[zero & (rng.random(size) < 0.02)] = -0.0
        v = {"zero": np.zeros(size), "mixed": np.abs(mixed_values(rng, size, 0.05)),
             "inf": np.full(size, np.inf), "negative": -np.abs(mixed_values(rng, size, 0.05)),
             "nan": np.full(size, np.nan)}[v_kind]
        pair = AdamPair(n, params, m, v)
        with np.errstate(all="ignore"):
            for _ in range(steps):
                pair.step(grads, k, lr)
                assert pair.agree()

    @pytest.mark.parametrize("v", [0.0, 1.0, np.inf])
    def test_idle_blocks_under_every_pair_of_step_sizes(self, kernel, v):
        # the skip's gate on k and lr, pair by pair: Adam's [0, 1, *G, 1]
        # with G = 126 zeros of both signs has three whole idle blocks,
        # over parameters of both zero signs, a normal value and NaN
        n = 4 * 32 - 2
        grads = np.tile([0.0, -0.0], n // 2)
        params = np.resize([0.0, -0.0, 1.5, np.nan], n + 3)
        for k in STEP_SIZE_VALUES:
            for lr in STEP_SIZE_VALUES:
                pair = AdamPair(n, params, np.zeros(n + 3), np.full(n + 3, v))
                with np.errstate(all="ignore"):
                    pair.step(grads, k, lr)
                assert pair.agree(), (k, lr)

    def test_zero_gradient_run_through_the_flush(self, kernel):
        # first moments of 0.1 * |g| decay by beta1 per zero-gradient step and
        # cross TINY after about 6.7k steps; both paths flush them to +-0.0
        rng = np.random.default_rng(7)
        n = 1000
        pair = AdamPair(n, rng.normal(size=n + 3), np.zeros(n + 3), np.zeros(n + 3))
        grads = rng.normal(size=n)
        for t in range(7200):
            pair.step(grads, *nets._step_sizes(t + 1))
            if t == 0:
                grads = np.zeros(n)
        assert pair.agree()
        # every first moment but those of the two constant gradients of 1
        m = pair.state.m
        assert not np.any(m[2:-1]) and m[0] == 0.0
        assert subnormal_count(pair.state.v) == 0

    def test_copied_state_steps_its_own_arrays(self):
        rng = np.random.default_rng(14)
        params, grads = rng.normal(size=50), rng.normal(size=50)
        state = AdamState(params)
        adam_step(params, grads, state)
        before = adam_bits(params, state)
        for twin in (copy.deepcopy((params, grads, state)),
                     pickle.loads(pickle.dumps((params, grads, state)))):
            adam_step(*twin)
            assert adam_bits(params, state) == before
            assert adam_bits(twin[0], twin[2]) != before

    def test_kernel_builds_where_cc_exists(self):
        if nets.shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        assert nets.kernel_backend() == COMPILED

    def test_backend_names_the_path(self, monkeypatch):
        assert nets.kernel_backend().startswith((COMPILED, "numpy ("))
        monkeypatch.setattr(nets, "_library", None)
        monkeypatch.setattr(nets.shutil, "which", lambda name: None)
        assert nets.kernel_backend() == "numpy (no C compiler: cc is not on PATH)"
        assert nets._library == ("numpy (no C compiler: cc is not on PATH)", None)

    def test_failed_compile_falls_back_with_the_reason(self, monkeypatch, tmp_path):
        broken = tmp_path / "_kernels.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(nets, "_library", None)
        monkeypatch.setattr(nets, "KERNEL_SOURCE", broken)
        if nets.shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        assert nets.kernel_backend().startswith("numpy (cc failed: ")


def grad_bits(g):
    """The bytes of ``g``, every NaN written as the canonical NaN (see
    ``adam_bits``)."""
    return np.where(np.isnan(g), np.nan, g).tobytes()


# layer widths from 1 to 120, width 1 often: a one-row product is a dot
# product in numpy's matmul, a one-column one its own loop
WIDTHS = st.lists(st.one_of(st.just(1), st.integers(1, 120)), min_size=2, max_size=4)


class TestBackwardKernel:
    @given(members=st.integers(1, 3), sizes=WIDTHS, seed=st.integers(0, 2 ** 32 - 1),
           special_frac=st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_backward_passes_bit_for_bit(
            self, kernel, members, sizes, seed, special_frac):
        # the compiled backward pass, reached through the raw compiled
        # a2c_update, which reads the actor's layer values from its buffer
        rng = np.random.default_rng(seed)
        update = unit_td_update(sizes, members, rng)
        net = update.actor
        if special_frac:
            net.theta[:] = mixed_values(rng, net.theta.size, special_frac)
        x = rng.normal(size=(members, sizes[0]))
        with np.errstate(all="ignore"):
            forward_cached(net, x)
        # any pre-activations and layer inputs, not only those a net
        # computes; the output is the mean, which the update holds at 0
        for values in (*net.zs[:-1], *net.activations):
            values[...] = mixed_values(rng, values.size, special_frac).reshape(values.shape)
        upstream = mixed_values(rng, members * sizes[-1], special_frac)
        theta = update.theta.copy()
        values = net.forward_values.copy()
        with np.errstate(all="ignore"):
            ref = nets._backward_passes(net, upstream, np.empty(net.theta.size))
            # the first call leaves NaNs in the scratch that the second
            # reuses; its Adam step and its forward pass are undone
            update.a[...] = np.nan
            run_unit_td(update, *nets._step_sizes(1))
            update.theta[...] = theta
            net.forward_values[...] = values
            update.a[...] = upstream
            run_unit_td(update, *nets._step_sizes(1))
        assert grad_bits(update.grad[2:]) == grad_bits(ref)

    def test_two_nets_over_one_theta_stay_independent(self):
        # as V(s) and V(s') in an update: each pass stays in its own buffer
        rng = np.random.default_rng(21)
        net = Mlp((3, 9, 7, 2), rng=rng, members=2)
        twin = Mlp(net.layer_sizes, theta=net.theta, members=2)
        x1, x2 = rng.normal(size=(2, 2, 3))
        upstream = rng.normal(size=(2, 2))
        expected = [(forward(net, x).tobytes(), backward(net, x, upstream).tobytes())
                    for x in (x1, x2)]
        y1 = forward_cached(net, x1)
        y2 = forward_cached(twin, x2)
        assert not np.shares_memory(net.buffer, twin.buffer)
        g1 = nets._backward_passes(net, upstream, np.empty(net.theta.size))
        g2 = nets._backward_passes(twin, upstream, np.empty(net.theta.size))
        assert [(y1.tobytes(), g1.tobytes()), (y2.tobytes(), g2.tobytes())] == expected

    def test_unsuitable_out_takes_the_numpy_passes(self):
        # backward always runs the numpy passes: the compiled pass runs only
        # inside a2c_update
        rng = np.random.default_rng(8)
        net = Mlp((3, 6, 5, 2), rng=rng)
        x, upstream = rng.normal(size=3), rng.normal(size=2)
        forward_cached(net, x)
        n = net.theta.size
        for out in (np.zeros(n), np.zeros(2 * n)[::2], np.zeros(n, dtype=np.float32)):
            ref = nets._backward_passes(net, upstream, np.zeros(n, out.dtype))
            assert backward(net, x, upstream, out=out).tobytes() == ref.tobytes()
        read_only = np.zeros(n)
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            backward(net, x, upstream, out=read_only)


# the compiled ReLU, and one that maps NaN to 0.0 where np.maximum keeps
# it: the update's probe refuses a library built with the second
RELU = "(z[o] > 0.0 || z[o] != z[o]) ? z[o] : 0.0"
WRONG_RELU = "z[o] > 0.0 ? z[o] : 0.0"


def fused_pass(update, x, fn=None):
    """The compiled forward pass of ``x`` by the actor of ``update``
    (``unit_td_update``), as the raw compiled ``a2c_update`` ends with it,
    on the actor's parameters as they stand: every layer value of the
    sampling pass and the action are zeroed first, so every gradient is
    +-0 but where a non-finite weight meets a zero, and Adam's step size
    is +0, so the step leaves every parameter of a finite gradient as it
    is."""
    update.actor.buffer[:] = 0.0
    update.a[...] = 0.0
    update.x_next[...] = x
    run_unit_td(update, 1.0, 0.0, fn)


class TestForwardKernel:
    """The compiled forward pass, reached through the raw compiled
    ``a2c_update``, which ends with it (``fused_pass``)."""

    @given(members=st.integers(1, 3), sizes=WIDTHS, seed=st.integers(0, 2 ** 32 - 1),
           special_frac=st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_forward_passes_bit_for_bit(
            self, kernel, members, sizes, seed, special_frac):
        rng = np.random.default_rng(seed)
        update = unit_td_update(sizes, members, rng)
        net = update.actor
        if special_frac:
            net.theta[:] = mixed_values(rng, net.theta.size, special_frac)
        x = mixed_values(rng, members * sizes[0], special_frac).reshape(members, -1)
        ref = Mlp(sizes, theta=net.theta, members=members)
        np.copyto(ref.input, x)
        with np.errstate(all="ignore"):
            fused_pass(update, x)
            nets._forward_passes(ref)
        assert grad_bits(net.forward_values) == grad_bits(ref.forward_values)

    def test_relu_maps_negative_zero_to_zero_and_keeps_nan(self, kernel, no_kernels):
        # np.maximum(z, 0.0) returns +0.0 for -0.0 and z itself for a NaN,
        # sign and payload included; z = (0.0 + 1.0 * -0.0) + b
        update = unit_td_update((1, 4, 1))
        net = update.actor
        nan = np.frombuffer(np.uint64(0xFFF8000000000123).tobytes(), dtype=float)[0]
        net.weights[0][0, :, 0] = 1.0
        net.biases[0][0] = [-0.0, 0.0, nan, -1.0]
        expected = np.array([0.0, 0.0, nan, 0.0]).tobytes()
        fused_pass(update, [-0.0])
        assert net.activations[1].tobytes() == expected
        with no_kernels():
            forward_cached(net, [-0.0])
        assert net.activations[1].tobytes() == expected

    def test_forwards_never_use_the_library(self, monkeypatch):
        # before the first update and after it, a forward runs the numpy
        # passes: it neither loads the library nor calls it
        def refuse(*args):
            raise AssertionError("a forward called the library")
        net = Mlp((3, 6, 2), rng=0, members=2)
        x = np.ones((2, 3))
        passes, real = [], nets._forward_passes
        monkeypatch.setattr(nets, "_forward_passes", lambda net: passes.append(real(net)))
        for library in (None, nets._Library("compiled kernels (a2c_update)", refuse)):
            monkeypatch.setattr(nets, "_library", library)
            y = forward(net, x)
            y_cached = forward_cached(net, x)
            assert nets._library is library
            assert y.tobytes() == y_cached.tobytes()
        assert len(passes) == 4

    @pytest.mark.parametrize("make, message", [
        (lambda n: np.zeros(2 * n)[::2], "theta is strided"),
        (lambda n: np.zeros(n, dtype=np.float32), "theta is float32, not float64"),
        (lambda n: np.zeros(n, dtype=">f8"), "theta is >f8, not float64"),
        (lambda n: np.zeros(8 * n + 1, dtype=np.uint8)[1:].view(np.float64),
         "theta is misaligned"),
        (lambda n: np.zeros(n + 1), f"theta has shape ({parameter_count((3, 5, 2)) + 1},)"),
    ], ids=["strided", "float32", "big-endian", "misaligned", "long"])
    def test_unsuitable_theta_refused(self, make, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            Mlp((3, 5, 2), rng=0, theta=make(parameter_count((3, 5, 2))))

    def test_forward_only_reads_theta(self):
        # a net accepts a read-only theta, and its forward pass gives the
        # bits of a net over a writeable one
        net = Mlp((3, 5, 2), rng=5)
        theta = net.theta.copy()
        theta.flags.writeable = False
        read_only = Mlp(net.layer_sizes, theta=theta)
        assert forward(read_only, np.ones(3)).tobytes() == forward(net, np.ones(3)).tobytes()

    def test_theta_cannot_be_rebound(self):
        net = Mlp((3, 5, 2), rng=0)
        with pytest.raises(AttributeError):
            net.theta = np.zeros_like(net.theta)

    def test_output_is_a_fresh_array(self):
        net = Mlp((2, 4, 3), rng=1)
        y1 = forward(net, [1.0, 2.0])
        y2 = forward(net, [3.0, 4.0])
        assert not np.shares_memory(y1, y2)
        assert y1.tobytes() != y2.tobytes()

    def test_copy_is_rebuilt_around_its_own_theta(self):
        net = Mlp((2, 4, 3), rng=1, members=2)
        x = np.array([[1.0, 2.0], [3.0, -4.0]])
        y = forward(net, x)
        for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net)), copy.copy(net)):
            assert not np.shares_memory(twin.buffer, net.buffer)
            assert forward(twin, x).tobytes() == y.tobytes()
            assert all(np.shares_memory(w, twin.theta) for w in twin.weights)
            # the compiled passes' addresses are the twin's own: its theta,
            # and each layer's z, a and dz in its buffer
            start = twin.buffer.ctypes.data
            layer_values = twin._plan[2:].reshape(-1, 7)[:, :3]
            assert twin._address == twin.theta.ctypes.data
            assert all(start <= v < start + twin.buffer.nbytes for v in layer_values.ravel())
            twin.theta[...] *= 2.0
        # a shallow copy shares the original's parameters
        assert not np.array_equal(forward(net, x), y)

    def test_unreachable_blas_falls_back_with_the_reason(self, monkeypatch):
        if nets.shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        monkeypatch.setattr(nets, "_library", None)
        monkeypatch.setattr(nets, "BLAS_SYMBOLS", ("no_such_dgemv", "no_such_ddot"))
        text = nets.kernel_backend()
        assert text.startswith("numpy (numpy's BLAS is out of reach: ")
        assert "no_such_dgemv" in text
        assert nets._library.a2c_update is None
        rng = np.random.default_rng(6)
        net = Mlp((3, 7, 2), rng=rng)
        x, upstream = rng.normal(size=3), rng.normal(size=2)
        forward_cached(net, x)
        ref = nets._backward_passes(net, upstream, np.empty(net.theta.size))
        assert backward(net, x, upstream).tobytes() == ref.tobytes()


@pytest.mark.parametrize("part, probe", [("a2c_update", "_a2c_update_agrees")])
def test_update_runs_only_on_parts_that_agree(kernel, monkeypatch, part, probe):
    # the library is on or off as a whole, and the reason names the
    # function whose probe disagreed
    monkeypatch.setattr(nets, "_library", None)
    monkeypatch.setattr(nets, probe, lambda fn: False)
    assert nets.kernel_backend() == f"numpy ({part}: {DISAGREES})"
    assert nets._library == (f"numpy ({part}: {DISAGREES})", None)


ACTOR_BACKWARD = "backward(actor, plan->actor_theta, plan->actor_grad);"
X_NEXT_COPY = "memcpy(actor->layer[0].a, plan->x_next, n_x * sizeof *plan->x_next);"
# edits of _kernels.c, each of which the update's probe must refuse
PLANTED_FAULTS = {
    # a select masks to +0.0 where the multiply keeps the sign of dz
    "backward-mask": ("d = d * (z[j] > 0.0 ? 1.0 : 0.0);", "d = z[j] > 0.0 ? d : 0.0;"),
    # first moments below DBL_MIN kept, not flushed
    "flush": ("mi = mi * (fabs(mi) >= DBL_MIN ? 1.0 : 0.0);", "mi = mi;"),
    # a block of zero gradients called idle whatever its first moments
    "idle-first-moment": ("(gj != 0.0) | (mj != 0) | ", "(gj != 0.0) | "),
    "relu": (RELU, WRONG_RELU),
    # the next input written over the one the actor's backward pass reads
    "x-next-early": (f"{ACTOR_BACKWARD}\n    {X_NEXT_COPY}",
                     f"{X_NEXT_COPY}\n    {ACTOR_BACKWARD}"),
    # the update ends without the actor's pass of the next input
    "fused-forward-dropped": ("    forward(actor, plan->actor_theta);\n", ""),
}


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_planted_fault_turns_the_whole_library_off(fault, monkeypatch, tmp_path):
    if nets.shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    exact, wrong = PLANTED_FAULTS[fault]
    source = nets.KERNEL_SOURCE.read_text()
    assert source.count(exact) == 1
    planted = tmp_path / "_kernels.c"
    planted.write_text(source.replace(exact, wrong))
    monkeypatch.setattr(nets, "_library", None)
    monkeypatch.setattr(nets, "KERNEL_SOURCE", planted)
    assert nets.kernel_backend() == f"numpy (a2c_update: {DISAGREES})"
    assert nets._library.a2c_update is None


def test_probe_references_make_no_compiled_call(kernel, monkeypatch):
    # each probe compares a compiled function with its numpy reference; the
    # reference side must run on the numpy passes alone, however deep
    calls, in_reference = [], []
    library_functions = nets._library_functions

    def spied_functions(lib):
        functions, why = library_functions(lib)

        def spy(name, fn):
            def call(*args):
                calls.append((name, bool(in_reference)))
                return fn(*args)
            return call
        return {name: spy(name, fn) for name, fn in functions.items()}, why

    for name in ("_adam_passes", "_forward_passes", "_backward_passes", "_a2c_passes"):
        def reference(*args, real=getattr(nets, name)):
            in_reference.append(None)
            try:
                return real(*args)
            finally:
                in_reference.pop()
        monkeypatch.setattr(nets, name, reference)
    monkeypatch.setattr(nets, "_library_functions", spied_functions)
    monkeypatch.setattr(nets, "_library", None)
    assert nets.kernel_backend().startswith(COMPILED)
    assert {name for name, _ in calls} == set(nets.KERNELS)
    assert [call for call in calls if call[1]] == []


@pytest.mark.parametrize("flags", [nets.KERNEL_FLAGS, nets.BASELINE_FLAGS],
                         ids=["host", "baseline"])
def test_kernel_source_compiles_without_warnings(tmp_path, flags):
    cc = nets.shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    result = subprocess.run(
        [cc, *flags, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernels.so"), str(nets.KERNEL_SOURCE)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_kernel_defines_the_adam_constants():
    # the compiled Adam's decays and floor are compiled in: they must be
    # the numpy passes' own for the two paths to give the same bits
    defined = dict(re.findall(r"^#define (ADAM_\w+) (\S+)$",
                              nets.KERNEL_SOURCE.read_text(), re.MULTILINE))
    for name in ("ADAM_BETA1", "ADAM_BETA2", "ADAM_EPS"):
        assert float(defined[name]) == getattr(nets, name), name


def test_kernel_flags_keep_every_rounding():
    assert "-ffp-contract=off" in nets.KERNEL_FLAGS
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations"):
        assert flag not in nets.KERNEL_FLAGS
    assert nets.KERNEL_FLAGS == nets.BASELINE_FLAGS + nets.HOST_FLAGS
    assert "-march=native" in nets.HOST_FLAGS


def built_library(tmp_path, name, flags):
    """``_kernels.c`` built with ``flags`` and loaded; skips where there is
    no cc."""
    cc = nets.shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    path = tmp_path / f"{name}.so"
    subprocess.run([cc, *flags, "-o", str(path), str(nets.KERNEL_SOURCE)],
                   check=True, capture_output=True, timeout=120)
    return ctypes.CDLL(str(path))


def built_functions(tmp_path, name, flags):
    """The kernels of ``_kernels.c`` built with ``flags``, argument types
    set; skips where there is no cc or numpy's BLAS is out of reach."""
    functions, why = nets._library_functions(built_library(tmp_path, name, flags))
    if why:
        pytest.skip(why)
    return functions


def test_library_exports_only_what_python_binds(tmp_path):
    assert nets.KERNELS == ("a2c_update",)
    lib = built_library(tmp_path, "host", nets.KERNEL_FLAGS)
    for name in ("set_blas", "a2c_update"):
        assert hasattr(lib, name), name
    for name in ("adam_step", "backward", "forward"):
        assert not hasattr(lib, name), name


def build_outputs(functions):
    """Adam on dense and on idle-heavy input and every update of the
    probe's agents, all through ``functions``, as bytes; Adam through the
    update (``unit_td_update``)."""
    update_fn = functions["a2c_update"]
    out = []
    for zero_frac in (0.0, 0.95):
        rng = np.random.default_rng(17)
        n = 1000
        zero = zero_runs(rng, n, zero_frac)
        update = unit_td_update((n, 1))
        update.a[...] = 1.0
        # the input G, which each update's pass of x_next puts back
        update.actor.input[0] = update.x_next[0] = np.where(
            zero, 0.0, mixed_values(rng, n, 0.05))
        update.theta[:] = mixed_values(rng, n + 3, 0.05)
        update.opt.m[:] = np.where(np.r_[False, False, zero, False], 0.0,
                                   mixed_values(rng, n + 3, 0.05))
        update.opt.v[:] = np.abs(mixed_values(rng, n + 3, 0.05))
        with np.errstate(all="ignore"):
            for step in (1, 2, 3):
                run_unit_td(update, *nets._step_sizes(step), update_fn)
        out.append(adam_bits(update.theta, update.opt))
    for delta, arrays, step in nets._probe_updates(
            lambda *args: nets._a2c_kernel(update_fn, *args)):
        out.append((grad_bits(np.float64(delta)), *map(grad_bits, arrays), step))
    return out


def test_host_build_gives_the_baseline_build_bits(tmp_path):
    host = build_outputs(built_functions(tmp_path, "host", nets.KERNEL_FLAGS))
    baseline = build_outputs(built_functions(tmp_path, "baseline", nets.BASELINE_FLAGS))
    assert len(host) == 32
    assert host == baseline


def test_compiler_without_host_builds_retries_at_the_baseline(monkeypatch, tmp_path):
    cc = nets.shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    log = tmp_path / "cc.log"
    fake = tmp_path / "bin" / "cc"
    fake.parent.mkdir()
    fake.write_text(
        "#!/bin/sh\n"
        f'echo "$*" >> "{log}"\n'
        'for arg in "$@"; do\n'
        '  if [ "$arg" = -march=native ]; then\n'
        '    echo "cc: error: unrecognized command-line option \'-march=native\'" >&2\n'
        "    exit 1\n"
        "  fi\n"
        "done\n"
        f'exec "{cc}" "$@"\n')
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{fake.parent}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setattr(nets, "_library", None)
    assert nets.kernel_backend() == COMPILED
    first, second = log.read_text().splitlines()
    assert first.split()[:len(nets.KERNEL_FLAGS)] == list(nets.KERNEL_FLAGS)
    assert second.split()[:len(nets.BASELINE_FLAGS)] == list(nets.BASELINE_FLAGS)
    assert "-march=native" not in second.split()


def fresh_build(tmp_path, source=None, flags=nets.KERNEL_FLAGS):
    """The bytes of ``_kernels.c`` (or of ``source``, its text) built with
    ``flags`` by the ``cc`` on PATH."""
    path = tmp_path / "fresh" / "_kernels.c"
    path.parent.mkdir(exist_ok=True)
    path.write_text(source or nets.KERNEL_SOURCE.read_text())
    lib = path.with_suffix(".so")
    subprocess.run([nets.shutil.which("cc"), *flags, "-o", str(lib), str(path)],
                   check=True, capture_output=True, timeout=120)
    return lib.read_bytes()


@pytest.fixture
def cache_dir(kernel, monkeypatch, tmp_path):
    """An empty cache of the test's own (``XDG_CACHE_HOME``), in a process
    that has loaded no library: a cache path is loaded at most once per
    process, as dlopen hands back the library it loaded before under it."""
    if nets._host_identity() is None:
        pytest.skip("the compiler or the CPU cannot be identified: nothing is cached")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-home"))
    monkeypatch.setattr(nets, "_library", None)
    return tmp_path / "cache-home" / "safestock"


def loaded_paths(monkeypatch):
    """The paths ``ctypes.CDLL`` is asked to load, from now on."""
    paths, cdll = [], ctypes.CDLL

    def spy(name, *args, **kwargs):
        paths.append(str(name))
        return cdll(name, *args, **kwargs)
    monkeypatch.setattr(ctypes, "CDLL", spy)
    return paths


def no_compiles(monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError(f"compiled: {args}")
    monkeypatch.setattr(subprocess, "run", run)


class TestLibraryCache:
    def test_tests_use_a_cache_of_their_own(self, session_cache_home):
        home = os.environ["XDG_CACHE_HOME"]
        assert home == str(session_cache_home)
        assert nets._cache_dir() == session_cache_home / "safestock"
        result = subprocess.run(
            [sys.executable, "-c", "import os; print(os.environ['XDG_CACHE_HOME'])"],
            capture_output=True, text=True, check=True, timeout=60)
        assert result.stdout.strip() == home

    def test_first_load_publishes_the_fresh_build(self, cache_dir, tmp_path):
        assert not cache_dir.exists()
        assert nets.kernel_backend() == COMPILED
        entry = nets._cache_entry()
        assert [p.name for p in cache_dir.iterdir()] == [entry.name]
        assert entry.read_bytes() == fresh_build(tmp_path)
        assert cache_dir.stat().st_mode & 0o777 == 0o700
        assert entry.stat().st_mode & 0o077 == 0

    def test_warm_entry_compiles_nothing(self, cache_dir, monkeypatch):
        assert nets.kernel_backend() == COMPILED
        monkeypatch.setattr(nets, "_library", None)
        no_compiles(monkeypatch)
        paths = loaded_paths(monkeypatch)
        probed, real = [], nets._a2c_update_agrees
        monkeypatch.setattr(nets, "_a2c_update_agrees",
                            lambda fn: probed.append(None) or real(fn))
        assert nets.kernel_backend() == COMPILED
        assert str(nets._cache_entry()) in paths
        # a cached library is probed as a fresh one is
        assert len(probed) == 1

    def test_garbage_entry_is_replaced_by_a_working_library(
            self, cache_dir, tmp_path, monkeypatch):
        entry = nets._cache_entry()
        entry.write_bytes(b"not a library\n")
        entry.chmod(0o600)
        assert nets.kernel_backend() == COMPILED
        assert entry.read_bytes() == fresh_build(tmp_path)
        monkeypatch.setattr(nets, "_library", None)
        no_compiles(monkeypatch)
        assert nets.kernel_backend() == COMPILED

    def test_unloadable_entry_is_removed_even_without_a_rebuild(
            self, cache_dir, monkeypatch):
        entry = nets._cache_entry()
        entry.write_bytes(b"not a library\n")
        entry.chmod(0o600)
        monkeypatch.setattr(nets, "_compile_library",
                            lambda: (None, "numpy (no build)", None))
        assert nets.kernel_backend() == "numpy (no build)"
        assert list(cache_dir.iterdir()) == []

    def test_disagreeing_entry_is_discarded_and_rebuilt(
            self, cache_dir, tmp_path, monkeypatch):
        source = nets.KERNEL_SOURCE.read_text()
        assert RELU in source
        entry = nets._cache_entry()
        entry.write_bytes(fresh_build(tmp_path, source.replace(RELU, WRONG_RELU)))
        entry.chmod(0o600)
        verdicts, update_agrees = [], nets._a2c_update_agrees
        monkeypatch.setattr(nets, "_a2c_update_agrees",
                            lambda fn: verdicts.append(update_agrees(fn)) or verdicts[-1])
        assert nets.kernel_backend() == COMPILED
        # the planted library was loaded and refused, then a fresh one agreed
        assert verdicts == [False, True]
        assert entry.read_bytes() == fresh_build(tmp_path)

    @pytest.mark.parametrize("target", ["directory", "entry"])
    @pytest.mark.parametrize("mode", [0o770, 0o707, "foreign"])
    def test_entry_another_user_could_write_is_never_used(
            self, cache_dir, monkeypatch, target, mode):
        entry = nets._cache_entry()
        entry.write_bytes(b"planted\n")
        entry.chmod(0o600)
        path = cache_dir if target == "directory" else entry
        if mode == "foreign":
            try:
                os.chown(path, os.getuid() + 1, -1)
            except PermissionError:
                pytest.skip("only root can give a file to another user")
        else:
            path.chmod(mode if target == "directory" else mode & 0o666)
        paths = loaded_paths(monkeypatch)
        assert nets.kernel_backend() == COMPILED
        assert str(entry) not in paths
        assert [p.name for p in cache_dir.iterdir()] == [entry.name]
        assert entry.read_bytes() == b"planted\n"

    def test_failed_publish_leaves_a_compiled_run(self, cache_dir, monkeypatch):
        def replace(src, dst):
            raise OSError("no room")
        monkeypatch.setattr(os, "replace", replace)
        assert nets.kernel_backend() == COMPILED
        assert list(cache_dir.iterdir()) == []

    def test_unidentified_cpu_caches_nothing(self, cache_dir, monkeypatch):
        monkeypatch.setattr(nets, "_host_identity", lambda: None)
        assert nets._cache_entry() is None
        assert nets.kernel_backend() == COMPILED
        assert not cache_dir.exists()

    def test_two_processes_on_an_empty_cache_share_one_entry(self, cache_dir, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(nets.__file__).parents[1]))
        script = "from safestock import nets; print(nets.kernel_backend())"
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True) for _ in range(2)]
        outs = [proc.communicate(timeout=300)[0].strip() for proc in procs]
        assert outs == [COMPILED, COMPILED]
        entries = list(cache_dir.iterdir())
        assert [p.name for p in entries] == [nets._cache_entry().name]
        assert entries[0].read_bytes() == fresh_build(tmp_path)

    def test_key_follows_source_flags_and_compiler(self, monkeypatch):
        source = nets.KERNEL_SOURCE.read_bytes()
        host = ("/usr/bin/cc", 1000, 1, "x86_64", ("flags\t: sse2", "model name\t: cpu"))
        key = nets._cache_key(source, host)
        assert re.fullmatch("[0-9a-f]{64}", key)
        assert key == nets._cache_key(source, host)
        others = {nets._cache_key(source + b"\n", host),
                  nets._cache_key(source, host[:2] + (2,) + host[3:]),
                  nets._cache_key(source, host[:4] + (host[4][:1],))}
        for name in ("KERNEL_FLAGS", "BASELINE_FLAGS"):
            with monkeypatch.context() as patch:
                patch.setattr(nets, name, getattr(nets, name) + ("-g",))
                others.add(nets._cache_key(source, host))
        assert key not in others and len(others) == 5


def gaussian_logprob(mu, a, std):
    """Reference log-density of ``a`` under a diagonal N(mu, std^2)."""
    std = np.broadcast_to(np.asarray(std, dtype=float), np.shape(mu))
    diff = a - mu
    return float(-0.5 * np.sum(diff * diff / (std * std))
                 - np.sum(np.log(std)) - diff.size * 0.5 * math.log(2.0 * math.pi))


class TestGaussianPolicy:
    """The actor-critics' policy: means from an Mlp, one fixed std."""

    def test_logprob_at_mode(self):
        s = np.array([0.1, 0.2, 0.3])
        mu = forward(Mlp((3, 6, 3), rng=0), s)
        grad = gaussian_mean_grad(mu, mu, 2.0)
        assert grad == pytest.approx(np.zeros(3), abs=0)
        assert gaussian_logprob(mu, mu, 2.0) == pytest.approx(
            -3 * math.log(2.0 * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_unit_std_unit_deviation(self):
        grad = gaussian_mean_grad(np.zeros(1), np.ones(1), 1.0)
        assert grad[0] == pytest.approx(1.0)
        assert gaussian_logprob(np.zeros(1), np.ones(1), 1.0) == pytest.approx(
            -0.5 - math.log(math.sqrt(2 * math.pi)))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(size=4)
        a = rng.normal(size=4)
        h = 1e-7
        std = 1.7
        grad = gaussian_mean_grad(mu, a, std)
        for i in range(4):
            up = mu.copy()
            up[i] += h
            down = mu.copy()
            down[i] -= h
            numeric = (gaussian_logprob(up, a, std)
                       - gaussian_logprob(down, a, std)) / (2 * h)
            assert abs(numeric - grad[i]) < 1e-6
        assert grad.tobytes() == ((a - mu) / (std * std)).tobytes()

    def test_sampling_uses_mean_and_std(self):
        s = np.array([0.3, -0.1, 0.2])
        mu = forward(Mlp((3, 6, 3), rng=4), s)
        rng = np.random.default_rng(9)
        # the draw the actor-critic's training policy makes around its mean
        draws = np.array([mu + 0.5 * rng.standard_normal(mu.shape)
                          for _ in range(4000)])
        assert np.mean(draws, axis=0) == pytest.approx(mu, abs=0.05)
        assert np.std(draws, axis=0) == pytest.approx([0.5] * 3, abs=0.05)


class TestInitAndSerialization:
    def test_seed_reproducible_init(self):
        a = Mlp((4, 100, 2), rng=123)
        b = Mlp((4, 100, 2), rng=123)
        assert np.array_equal(a.theta, b.theta)

    def test_glorot_bounds_and_zero_biases(self):
        net = Mlp((50, 80, 4), rng=7)
        limit0 = math.sqrt(6.0 / 130)
        assert np.max(np.abs(net.weights[0])) <= limit0
        assert np.count_nonzero(net.biases[0]) == 0

    def test_parameter_count(self):
        # 4*100 + 101*100 + 101*100 + 101*1
        assert parameter_count((3, 100, 100, 100, 1)) == 20701
        net = Mlp((3, 100, 100, 100, 1), rng=0)
        assert net.theta.size == 20701

    def test_round_trip_exact(self):
        net = Mlp((3, 11, 5), rng=77)
        buf = io.StringIO()
        write_mlp(buf, net)
        buf.seek(0)
        clone = read_net(buf)
        assert clone.layer_sizes == net.layer_sizes
        assert np.array_equal(clone.theta, net.theta)

    def test_read_rejects_garbage(self):
        with pytest.raises(ValueError, match="mlp"):
            read_mlp(io.StringIO("nonsense 1 2 3\n"))

    def test_external_buffer_is_shared(self):
        theta = np.zeros(parameter_count((2, 3, 1)))
        net = Mlp((2, 3, 1), theta=theta)
        theta[:] = 1.0
        assert np.all(net.weights[0] == 1.0)
