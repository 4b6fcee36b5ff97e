import io
import math

import numpy as np
import pytest

from safestock.nets import (
    TINY,
    AdamState,
    GaussianPolicy,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_cached,
    gaussian_logprob_grad,
    logprob_grad_from_mean,
    parameter_count,
    read_mlp,
    sample_action,
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
    state.m = state.m * state.beta1 + grads * (1.0 - state.beta1)
    state.v = state.v * state.beta2 + (grads * grads) * (1.0 - state.beta2)
    denom = (np.sqrt(state.v) * (1.0 / math.sqrt(1.0 - state.beta2 ** state.step))
             + state.eps)
    params -= (state.m / denom) * (state.alpha / (1.0 - state.beta1 ** state.step))


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
        net = Mlp((3, 3), weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(forward(net, x), x)

    def test_matches_independent_layerwise_evaluation(self):
        rng = np.random.default_rng(8)
        net = Mlp((5, 7, 6, 2), rng=rng)
        x = rng.normal(size=5)
        # plain-python re-evaluation, one unit at a time
        a = list(x)
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
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
        w0 = np.array([[1.0], [-1.0]])
        b0 = np.array([0.0, 0.0])
        w1 = np.array([[1.0, 1.0]])
        b1 = np.array([0.0])
        net = Mlp((1, 2, 1), weights=[w0, w1], biases=[b0, b1])
        grads = backward(net, [2.0], np.array([1.0]))
        layers = net.grad_layers(grads)   # [dW0, db0, dW1, db1]
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


class TestAdam:
    def test_first_step_moves_by_alpha(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState(params, alpha=0.001)
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
        alpha, b1, b2, eps = 0.001, 0.9, 0.999, 1e-7
        params = np.array([0.25])
        state = AdamState(params, alpha=alpha, beta1=b1, beta2=b2, eps=eps)
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
            state = AdamState(params, alpha=0.01)
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


class TestGaussianPolicy:
    def make_policy(self, out_dim=3, std=2.0, seed=0):
        return GaussianPolicy(Mlp((3, 6, out_dim), rng=seed), std)

    def test_logprob_at_mode(self):
        policy = self.make_policy(std=2.0)
        s = np.array([0.1, 0.2, 0.3])
        mu = forward(policy.mean_net, s)
        logp, grad = gaussian_logprob_grad(policy, s, mu)
        assert grad == pytest.approx(np.zeros(3), abs=0)
        assert logp == pytest.approx(
            -3 * math.log(2.0 * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_unit_std_unit_deviation(self):
        logp, grad = logprob_grad_from_mean(np.zeros(1), np.ones(1), 1.0)
        assert grad[0] == pytest.approx(1.0)
        assert logp == pytest.approx(-0.5 - math.log(math.sqrt(2 * math.pi)))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(size=4)
        a = rng.normal(size=4)
        std = 1.7
        _, grad = logprob_grad_from_mean(mu, a, std)
        h = 1e-7
        for i in range(4):
            up = mu.copy()
            up[i] += h
            down = mu.copy()
            down[i] -= h
            numeric = (logprob_grad_from_mean(up, a, std)[0]
                       - logprob_grad_from_mean(down, a, std)[0]) / (2 * h)
            assert abs(numeric - grad[i]) < 1e-6

    def test_std_must_be_positive(self):
        with pytest.raises(ValueError, match="action_std"):
            GaussianPolicy(Mlp((2, 1), rng=0), 0.0)

    def test_sampling_uses_mean_and_std(self):
        policy = self.make_policy(std=0.5, seed=4)
        s = np.array([0.3, -0.1, 0.2])
        mu = forward(policy.mean_net, s)
        rng = np.random.default_rng(9)
        draws = np.array([sample_action(policy, s, rng)[0] for _ in range(4000)])
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
