import copy
import ctypes
import io
import math
import os
import pickle
import re
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safestock import nets
from safestock.nets import (
    ADAM_ALPHA,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TINY,
    AdamState,
    GaussianPolicy,
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

    def test_cache_matches_recompute(self):
        rng = np.random.default_rng(12)
        net = Mlp((4, 6, 3), rng=rng)
        x = rng.normal(size=4)
        upstream = rng.normal(size=3)
        _, cache = forward_cached(net, x)
        assert np.array_equal(backward(net, x, upstream, cache),
                              backward(net, x, upstream))

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
        y_cached, cache = forward_cached(net, x)
        grad = backward(net, x, upstream, cache)
        assert y.shape == y_cached.shape == upstream.shape
        grad_net = Mlp(sizes, theta=grad, members=members)   # views of the gradient
        xs, ys, ups = (np.reshape(v, (members, -1)) for v in (x, y, upstream))
        for k in range(members):
            params = net.member_parameters(k)
            weights, biases = params[::2], params[1::2]
            ref_y, (ref_zs, _) = reference_forward_cached(weights, biases, xs[k])
            assert ys[k].tobytes() == ref_y.tobytes()
            assert np.reshape(y_cached, (members, -1))[k].tobytes() == ref_y.tobytes()
            for z, ref_z in zip(cache.zs, ref_zs):
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
        clone = read_mlp(buf, members=3)
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


COMPILED = "compiled kernels (adam_step, forward, backward, a2c_update)"
DISAGREES = "compiled kernel disagrees with the numpy passes"


@pytest.fixture(scope="module")
def kernel():
    if not nets.kernel_backend().startswith(COMPILED):
        pytest.skip(f"no compiled kernels: {nets.kernel_backend()}")


def c_adam_step(params, grads, state):
    """One step of the compiled Adam, called directly as its probe calls it
    (``a2c_update`` runs it only inside the update)."""
    nets._c_adam(nets._library.adam_step, params, grads, state, *nets._advance(state))


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
    @given(n=st.integers(0, 2000), seed=st.integers(0, 2 ** 32 - 1),
           special_frac=st.sampled_from([0.0, 0.05, 0.5]),
           steps=st.integers(1, 4), k=STEP_SIZES, lr=STEP_SIZES)
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_numpy_passes_bit_for_bit(
            self, kernel, n, seed, special_frac, steps, k, lr):
        rng = np.random.default_rng(seed)
        grads = [mixed_values(rng, n, special_frac) for _ in range(steps)]
        params = mixed_values(rng, n, special_frac)
        state = AdamState(params)
        state.m[:] = mixed_values(rng, n, special_frac)
        state.v[:] = np.abs(mixed_values(rng, n, special_frac))
        ref_params = params.copy()
        ref = AdamState(ref_params)
        ref.m[:], ref.v[:] = state.m, state.v
        with np.errstate(all="ignore"):
            for g in grads:
                nets._c_adam(nets._library.adam_step, params, g, state, k, lr)
                nets._adam_passes(ref_params, g, ref, k, lr)
        assert adam_bits(params, state) == adam_bits(ref_params, ref)

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
        params = mixed_values(rng, n, 0.05)
        signed = zero & (rng.random(n) < 0.5)
        params[signed] = rng.choice([0.0, -0.0], int(signed.sum()))
        state = AdamState(params)
        state.m[:] = mixed_values(rng, n, 0.05)
        state.m[zero] = 0.0
        state.m[zero & (rng.random(n) < 0.02)] = -0.0
        state.v[:] = {"zero": np.zeros(n), "mixed": np.abs(mixed_values(rng, n, 0.05)),
                      "inf": np.full(n, np.inf), "negative": -np.abs(mixed_values(rng, n, 0.05)),
                      "nan": np.full(n, np.nan)}[v_kind]
        ref_params = params.copy()
        ref = AdamState(ref_params)
        ref.m[:], ref.v[:] = state.m, state.v
        with np.errstate(all="ignore"):
            for _ in range(steps):
                nets._c_adam(nets._library.adam_step, params, grads, state, k, lr)
                nets._adam_passes(ref_params, grads, ref, k, lr)
                assert adam_bits(params, state) == adam_bits(ref_params, ref)

    @pytest.mark.parametrize("v", [0.0, 1.0, np.inf])
    def test_idle_blocks_under_every_pair_of_step_sizes(self, kernel, v):
        # the skip's gate on k and lr, pair by pair: three idle blocks over
        # parameters of both zero signs, a normal value and NaN
        n = 3 * 32
        grads = np.tile([0.0, -0.0], n // 2)
        for k in STEP_SIZE_VALUES:
            for lr in STEP_SIZE_VALUES:
                params = np.tile([0.0, -0.0, 1.5, np.nan], n // 4)
                ref_params = params.copy()
                state, ref = AdamState(params), AdamState(ref_params)
                state.v[:] = ref.v[:] = v
                with np.errstate(all="ignore"):
                    nets._c_adam(nets._library.adam_step, params, grads, state, k, lr)
                    nets._adam_passes(ref_params, grads, ref, k, lr)
                assert adam_bits(params, state) == adam_bits(ref_params, ref), (k, lr)

    def test_zero_gradient_run_through_the_flush(self, kernel):
        # first moments of 0.1 * |g| decay by beta1 per zero-gradient step and
        # cross TINY after about 6.7k steps; both paths flush them to +-0.0
        rng = np.random.default_rng(7)
        n = 1000
        params = rng.normal(size=n)
        ref_params = params.copy()
        state = AdamState(params)
        ref = AdamState(ref_params)
        grads = rng.normal(size=n)
        for t in range(7200):
            c_adam_step(params, grads, state)
            adam_step(ref_params, grads, ref)
            if t == 0:
                grads = np.zeros(n)
        assert adam_bits(params, state) == adam_bits(ref_params, ref)
        assert not np.any(state.m)
        assert subnormal_count(state.v) == 0

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
        assert nets._library == ("numpy (no C compiler: cc is not on PATH)",
                                 None, None, None, None)

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


def c_backward(fn, net, cache, upstream, out):
    """The compiled backward ``fn`` called directly, as ``a2c_update``
    calls it: ``upstream`` in the cache's last scratch slot, the gradients
    into ``out``."""
    np.copyto(cache.upstream, upstream)
    fn(cache.plan, net.theta.ctypes.data, out.ctypes.data)
    return out


class TestBackwardKernel:
    @given(members=st.integers(1, 3), sizes=WIDTHS, seed=st.integers(0, 2 ** 32 - 1),
           special_frac=st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_backward_passes_bit_for_bit(
            self, kernel, members, sizes, seed, special_frac):
        fn = nets._library.backward
        rng = np.random.default_rng(seed)
        net = Mlp(sizes, rng=rng, members=members)
        if special_frac:
            net.theta[:] = mixed_values(rng, net.theta.size, special_frac)
        x = rng.normal(size=(members, sizes[0]))
        _, cache = forward_cached(net, x)
        # any pre-activations and layer inputs, not only those a net computes
        for values in (*cache.zs, *cache.activations):
            values[...] = mixed_values(rng, values.size, special_frac).reshape(values.shape)
        upstream = mixed_values(rng, members * sizes[-1], special_frac).reshape(members, -1)
        ref, mine = np.empty(net.theta.size), np.empty(net.theta.size)
        with np.errstate(all="ignore"):
            nets._backward_passes(net, cache, upstream, ref)
            # the first call leaves NaNs in the scratch that the second reuses
            c_backward(fn, net, cache, np.full_like(upstream, np.nan), mine)
            c_backward(fn, net, cache, upstream, mine)
        assert grad_bits(mine) == grad_bits(ref)

    def test_two_caches_of_one_net_stay_independent(self):
        rng = np.random.default_rng(21)
        net = Mlp((3, 9, 7, 2), rng=rng, members=2)
        x1, x2 = rng.normal(size=(2, 2, 3))
        upstream = rng.normal(size=(2, 2))
        y1, c1 = forward_cached(net, x1)
        y2, c2 = forward_cached(net, x2)
        g2 = backward(net, x2, upstream, c2)
        g1 = backward(net, x1, upstream, c1)
        assert y1.tobytes() == forward(net, x1).tobytes()
        assert y2.tobytes() == forward(net, x2).tobytes()
        assert g1.tobytes() == backward(net, x1, upstream).tobytes()
        assert g2.tobytes() == backward(net, x2, upstream).tobytes()
        # a reused cache's output is a view of its buffer, overwritten in place
        y1_again, c1_again = forward_cached(net, x2, c1)
        assert c1_again is c1 and np.shares_memory(y1, y1_again)
        assert y1.tobytes() == y2.tobytes()

    def test_cache_belongs_to_one_net_shape(self):
        net = Mlp((3, 4, 2), rng=0)
        _, cache = forward_cached(net, np.zeros(3))
        with pytest.raises(ValueError, match="cache"):
            forward_cached(Mlp((3, 5, 2), rng=0), np.zeros(3), cache)
        with pytest.raises(ValueError, match="cache"):
            backward(Mlp((3, 4, 2), rng=0, members=2), np.zeros((2, 3)),
                     np.zeros((2, 2)), cache)
        with pytest.raises(TypeError, match="copied or pickled"):
            copy.deepcopy(cache)

    def test_unsuitable_out_takes_the_numpy_passes(self):
        # backward always runs the numpy passes: the compiled pass runs only
        # inside a2c_update
        rng = np.random.default_rng(8)
        net = Mlp((3, 6, 5, 2), rng=rng)
        x, upstream = rng.normal(size=3), rng.normal(size=2)
        _, cache = forward_cached(net, x)
        n = net.theta.size
        for out in (np.zeros(n), np.zeros(2 * n)[::2], np.zeros(n, dtype=np.float32)):
            ref = nets._backward_passes(net, cache, upstream, np.zeros(n, out.dtype))
            assert backward(net, x, upstream, cache, out=out).tobytes() == ref.tobytes()
        read_only = np.zeros(n)
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            backward(net, x, upstream, cache, out=read_only)

    def test_disagreeing_backward_falls_back_with_the_reason(self, monkeypatch, tmp_path):
        if nets.shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        source = nets.KERNEL_SOURCE.read_text()
        exact = "d = d * (z[j] > 0.0 ? 1.0 : 0.0);"
        assert exact in source
        # a select masks to +0.0 where the multiply keeps the sign of dz
        wrong = tmp_path / "_kernels.c"
        wrong.write_text(source.replace(exact, "d = z[j] > 0.0 ? d : 0.0;"))
        monkeypatch.setattr(nets, "_library", None)
        monkeypatch.setattr(nets, "KERNEL_SOURCE", wrong)
        assert nets.kernel_backend() == f"numpy (backward: {DISAGREES})"
        rng = np.random.default_rng(4)
        net = Mlp((2, 8, 8, 1), rng=rng, members=3)
        x, upstream = rng.normal(size=(3, 2)), rng.normal(size=(3, 1))
        _, cache = forward_cached(net, x)
        ref = nets._backward_passes(net, cache, upstream, np.empty(net.theta.size))
        assert backward(net, x, upstream, cache).tobytes() == ref.tobytes()


class TestForwardKernel:
    @given(members=st.integers(1, 3), sizes=WIDTHS, seed=st.integers(0, 2 ** 32 - 1),
           special_frac=st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_forward_passes_bit_for_bit(
            self, kernel, members, sizes, seed, special_frac):
        rng = np.random.default_rng(seed)
        net = Mlp(sizes, rng=rng, members=members)
        if special_frac:
            net.theta[:] = mixed_values(rng, net.theta.size, special_frac)
        x = mixed_values(rng, members * sizes[0], special_frac).reshape(members, -1)
        ref = nets.ForwardCache(net)
        np.copyto(ref.input, x)
        cache = nets.ForwardCache(net)
        with np.errstate(all="ignore"):
            nets._forward_passes(net, ref)
            # the first call leaves NaNs in the cache that the second overwrites
            forward_cached(net, np.full_like(x, np.nan), cache)
            y, _ = forward_cached(net, x, cache)
            y_plain = forward(net, x)
        assert grad_bits(cache.buffer) == grad_bits(ref.buffer)
        assert grad_bits(y_plain) == grad_bits(y) == grad_bits(ref.output)

    def test_relu_maps_negative_zero_to_zero_and_keeps_nan(self, kernel, no_kernels):
        # np.maximum(z, 0.0) returns +0.0 for -0.0 and z itself for a NaN,
        # sign and payload included; z = (0.0 + 1.0 * -0.0) + b
        net = Mlp((1, 4, 1), rng=0)
        nan = np.frombuffer(np.uint64(0xFFF8000000000123).tobytes(), dtype=float)[0]
        net.weights[0][0, :, 0] = 1.0
        net.biases[0][0] = [-0.0, 0.0, nan, -1.0]
        expected = np.array([0.0, 0.0, nan, 0.0]).tobytes()
        _, cache = forward_cached(net, [-0.0])
        assert cache.activations[1].tobytes() == expected
        with no_kernels():
            _, cache = forward_cached(net, [-0.0])
        assert cache.activations[1].tobytes() == expected

    def test_forwards_never_compile(self, monkeypatch):
        monkeypatch.setattr(nets, "_library", None)
        net = Mlp((3, 6, 2), rng=0, members=2)
        x = np.ones((2, 3))
        y = forward(net, x)
        y_cached, _ = forward_cached(net, x)
        assert nets._library is None
        assert y.tobytes() == y_cached.tobytes()

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

    def test_read_only_theta_runs_the_kernel(self, kernel, no_kernels):
        # the forward pass only reads theta
        net = Mlp((3, 5, 2), rng=5)
        net.theta.flags.writeable = False
        with no_kernels():
            y = forward(net, np.ones(3))
        assert forward(net, np.ones(3)).tobytes() == y.tobytes()

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

    def test_copy_is_rebuilt_around_its_own_theta(self, no_kernels):
        net = Mlp((2, 4, 3), rng=1, members=2)
        x = np.array([[1.0, 2.0], [3.0, -4.0]])
        y = forward(net, x)
        for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net)), copy.copy(net)):
            assert twin._scratch is None
            assert forward(twin, x).tobytes() == y.tobytes()
            assert all(np.shares_memory(w, twin.theta) for w in twin.weights)
            twin.theta[...] *= 2.0
            with no_kernels():
                y_numpy = forward(twin, x)
            assert forward(twin, x).tobytes() == y_numpy.tobytes()
        # a shallow copy shares the original's parameters
        assert not np.array_equal(forward(net, x), y)

    def test_disagreeing_forward_falls_back_with_the_reason(self, monkeypatch, tmp_path):
        if nets.shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        source = nets.KERNEL_SOURCE.read_text()
        exact = "(z[o] > 0.0 || z[o] != z[o]) ? z[o] : 0.0"
        assert exact in source
        # a ReLU that maps NaN to 0.0, where np.maximum keeps it
        wrong = tmp_path / "_kernels.c"
        wrong.write_text(source.replace(exact, "z[o] > 0.0 ? z[o] : 0.0"))
        monkeypatch.setattr(nets, "_library", None)
        monkeypatch.setattr(nets, "KERNEL_SOURCE", wrong)
        assert nets.kernel_backend() == f"numpy (forward: {DISAGREES})"
        rng = np.random.default_rng(4)
        net = Mlp((2, 8, 8, 1), rng=rng, members=3)
        x = rng.normal(size=(3, 2))
        ref = nets.ForwardCache(net)
        np.copyto(ref.input, x)
        nets._forward_passes(net, ref)
        assert forward(net, x).tobytes() == ref.output.tobytes()

    def test_unreachable_blas_falls_back_with_the_reason(self, monkeypatch):
        if nets.shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        monkeypatch.setattr(nets, "_library", None)
        monkeypatch.setattr(nets, "BLAS_SYMBOLS", ("no_such_dgemv", "no_such_ddot"))
        text = nets.kernel_backend()
        assert text.startswith("numpy (numpy's BLAS is out of reach: ")
        assert "no_such_dgemv" in text
        assert nets._library.adam_step is None
        rng = np.random.default_rng(6)
        net = Mlp((3, 7, 2), rng=rng)
        x, upstream = rng.normal(size=3), rng.normal(size=2)
        _, cache = forward_cached(net, x)
        ref = nets._backward_passes(net, cache, upstream, np.empty(net.theta.size))
        assert backward(net, x, upstream, cache).tobytes() == ref.tobytes()


@pytest.mark.parametrize("part, probe", [
    ("adam_step", "_adam_agrees"), ("forward", "_forward_agrees"),
    ("backward", "_backward_agrees"), ("a2c_update", "_a2c_update_agrees")])
def test_update_runs_only_on_parts_that_agree(kernel, monkeypatch, part, probe):
    # the library is on or off as a whole: one disagreeing function turns
    # every one off, and the reason names it
    monkeypatch.setattr(nets, "_library", None)
    monkeypatch.setattr(nets, probe, lambda fn: False)
    assert nets.kernel_backend() == f"numpy ({part}: {DISAGREES})"
    assert nets._library.forward is None and nets._library.a2c_update is None


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


def test_kernel_source_compiles_without_warnings(tmp_path):
    cc = nets.shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    result = subprocess.run(
        [cc, *nets.KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
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


def built_functions(tmp_path, name, flags):
    """The kernels of ``_kernels.c`` built with ``flags``, argument types
    set; skips where there is no cc or numpy's BLAS is out of reach."""
    cc = nets.shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    path = tmp_path / f"{name}.so"
    subprocess.run([cc, *flags, "-o", str(path), str(nets.KERNEL_SOURCE)],
                   check=True, capture_output=True, timeout=120)
    functions, why = nets._library_functions(ctypes.CDLL(str(path)))
    if why:
        pytest.skip(why)
    return functions


def build_outputs(functions):
    """Adam on dense and on idle-heavy input, forward and backward on the
    probe nets, and the update on the probe's agents, all through
    ``functions``, as bytes."""
    out = []
    for zero_frac in (0.0, 0.95):
        rng = np.random.default_rng(17)
        n = 1000
        zero = zero_runs(rng, n, zero_frac)
        grads = mixed_values(rng, n, 0.05)
        grads[zero] = 0.0
        params = mixed_values(rng, n, 0.05)
        state = AdamState(params)
        state.m[:] = np.where(zero, 0.0, mixed_values(rng, n, 0.05))
        state.v[:] = np.abs(mixed_values(rng, n, 0.05))
        with np.errstate(all="ignore"):
            for _ in range(3):
                nets._c_adam(functions["adam_step"], params, grads, state,
                             *nets._advance(state))
        out.append(adam_bits(params, state))
    for net, x, mix in nets._probe_nets():
        cache = nets.ForwardCache(net)
        np.copyto(cache.input, x)
        upstream = np.linspace(-1.5, 2.5, 2 * net.layer_sizes[-1]).reshape(2, -1)
        grads = np.empty(net.theta.size)
        with np.errstate(all="ignore"):
            functions["forward"](cache.plan, net._address)
            out.append(grad_bits(cache.buffer))
            mix(*cache.zs, *cache.activations, upstream)
            c_backward(functions["backward"], net, cache, upstream, grads)
        out.append(grad_bits(grads))
    for deltas, arrays, step in nets._probe_updates(
            lambda *args: nets._a2c_kernel(functions["a2c_update"], *args)):
        out.append((grad_bits(np.array(deltas)), *map(grad_bits, arrays), step))
    return out


def test_host_build_gives_the_baseline_build_bits(tmp_path):
    host = build_outputs(built_functions(tmp_path, "host", nets.KERNEL_FLAGS))
    baseline = build_outputs(built_functions(tmp_path, "baseline", nets.BASELINE_FLAGS))
    assert len(host) == 10
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


def gaussian_logprob(mu, a, std):
    """Reference log-density of ``a`` under a diagonal N(mu, std^2)."""
    std = np.broadcast_to(np.asarray(std, dtype=float), np.shape(mu))
    diff = a - mu
    return float(-0.5 * np.sum(diff * diff / (std * std))
                 - np.sum(np.log(std)) - diff.size * 0.5 * math.log(2.0 * math.pi))


class TestGaussianPolicy:
    def make_policy(self, out_dim=3, std=2.0, seed=0):
        return GaussianPolicy(Mlp((3, 6, out_dim), rng=seed), std)

    def test_logprob_at_mode(self):
        policy = self.make_policy(std=2.0)
        s = np.array([0.1, 0.2, 0.3])
        mu = forward(policy.mean_net, s)
        grad = gaussian_mean_grad(mu, mu, policy.action_std)
        assert grad == pytest.approx(np.zeros(3), abs=0)
        assert gaussian_logprob(mu, mu, policy.action_std) == pytest.approx(
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

    def test_std_must_be_positive(self):
        for std in (0.0, -0.0, -1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="action_std=.* must be positive and finite"):
                GaussianPolicy(Mlp((2, 1), rng=0), std)

    def test_std_must_be_one_number(self):
        for std in (np.array([1.0]), np.array([2.0, 1.5]), [1.0, 2.0]):
            with pytest.raises(ValueError, match="action_std=.* must be one number"):
                GaussianPolicy(Mlp((2, 2), rng=0), std)
        policy = GaussianPolicy(Mlp((2, 2), rng=0), np.float64(1.5))
        assert type(policy.action_std) is float and policy.action_std == 1.5

    def test_sampling_uses_mean_and_std(self):
        policy = self.make_policy(std=0.5, seed=4)
        s = np.array([0.3, -0.1, 0.2])
        mu = forward(policy.mean_net, s)
        rng = np.random.default_rng(9)
        # the draw the actor-critic's training policy makes around its mean
        draws = np.array([mu + policy.action_std * rng.standard_normal(mu.shape)
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
        assert net.n_parameters == 20701

    def test_round_trip_exact(self):
        net = Mlp((3, 11, 5), rng=77)
        buf = io.StringIO()
        write_mlp(buf, net)
        buf.seek(0)
        clone = read_mlp(buf)
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
