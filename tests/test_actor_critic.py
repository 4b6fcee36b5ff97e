import contextlib
import copy
import math
import pickle

import numpy as np
import pytest

from safestock.actor_critic import (
    Transition,
    a2c_step,
    evaluate_a2c,
    joint_obs,
    load_agent,
    make_a2c_agent,
    save_agent,
    train_a2c,
)
from safestock import nets
from safestock.env import ChainConfig, EnvState, new_env
from safestock.multi_agent import make_maa2c_agent, train_maa2c
from safestock.nets import GaussianPolicy, Mlp, forward

CFG = ChainConfig.for_case(1)


def td_advantage(critic, r_scaled, s, s_next, gamma):
    """Reference one-step TD error r + gamma V(s') - V(s), as a2c_step computes it."""
    return float(r_scaled + gamma * forward(critic, s_next)[0]
                 - forward(critic, s)[0])


def gaussian_logprob(policy, s, a):
    """Reference log pi(a|s) of a Gaussian policy with a scalar std."""
    diff = a - forward(policy.mean_net, s)
    std = policy.action_std
    return float(-0.5 * np.dot(diff, diff) / (std * std)
                 - diff.size * (math.log(std) + 0.5 * math.log(2.0 * math.pi)))


def zeroed_agent(seed=0, std=2.0):
    agent = make_a2c_agent(CFG, seed, action_std=std)
    agent.theta[:] = 0.0
    return agent


class TestTdAdvantage:
    def test_zero_critic_returns_reward(self):
        agent = zeroed_agent()
        s = np.array([0.1, 0.2, 0.3])
        assert td_advantage(agent.critic, -0.75, s, s, 0.2) == pytest.approx(-0.75)

    def test_direct_substitution(self):
        # identity critic on a single input: V([x]) = x
        critic = Mlp((1, 1), weights=[np.array([[1.0]])], biases=[np.zeros(1)])
        delta = td_advantage(critic, -65.0, np.array([-80.0]), np.array([-100.0]), 0.2)
        assert delta == pytest.approx(-5.0)

    def test_deterministic(self):
        agent = make_a2c_agent(CFG, 3)
        s = np.array([0.5, 0.1, 0.2])
        s2 = np.array([0.4, 0.2, 0.1])
        assert td_advantage(agent.critic, -0.1, s, s2, 0.2) == \
            td_advantage(agent.critic, -0.1, s, s2, 0.2)


def poison_reward_from_episode(env, episode):
    """Make ``env`` report a NaN reward from its ``episode``-th reset on."""
    reset, step = env.reset, env.step
    resets = []

    def counting_reset():
        resets.append(None)
        return reset()

    def poisoned_step(action):
        outcome = step(action)
        return outcome._replace(reward=np.nan) if len(resets) > episode else outcome

    env.reset, env.step = counting_reset, poisoned_step


@contextlib.contextmanager
def numpy_update():
    """Run ``a2c_update`` on its numpy passes, beside the other kernels."""
    saved = nets._kernels or nets._load_kernels()
    nets._kernels = {**saved, "a2c_update": (None, "numpy (kernel disabled)")}
    try:
        yield
    finally:
        nets._kernels = saved


# the compiled update where this process has it, then the numpy passes
UPDATE_PATHS = (contextlib.nullcontext, numpy_update)


def learner_state(agent):
    """The bytes of the parameters and both moments, and the step count."""
    return (agent.theta.tobytes(), agent.opt.m.tobytes(), agent.opt.v.tobytes(),
            agent.opt.step)


def rejects_without_moving(agent, transition, match, warm_up=None):
    """``transition`` raises FloatingPointError on every update path and
    leaves parameters, moments and step count as they were; ``warm_up``, a
    finite transition, first makes the moments and the count nonzero."""
    for path in UPDATE_PATHS:
        twin = copy.deepcopy(agent)
        with path():
            if warm_up is not None:
                a2c_step(twin, warm_up)
            before = learner_state(twin)
            with pytest.raises(FloatingPointError, match=match):
                a2c_step(twin, transition)
        assert learner_state(twin) == before, path


class TestA2cStep:
    def test_nan_reward_raises_before_any_update(self):
        agent = make_a2c_agent(CFG, 1)
        s = np.array([0.2, 0.2, 0.1])
        rejects_without_moving(
            agent, Transition(s, np.zeros(3), np.nan, s, s), "non-finite TD error nan",
            warm_up=Transition(s, np.array([0.5, -0.25, 1.0]), -0.5, s[::-1].copy(), s))

    def test_nan_critic_parameter_raises(self):
        agent = make_a2c_agent(CFG, 1)
        s = np.array([0.2, 0.2, 0.1])
        warm_up = Transition(s, np.array([0.5, -0.25, 1.0]), -0.5, s[::-1].copy(), s)
        a2c_step(agent, warm_up)
        agent.theta[0] = np.nan   # first critic weight
        rejects_without_moving(agent, Transition(s, np.zeros(3), -0.5, s, s),
                               "non-finite TD error")

    def test_zero_delta_leaves_parameters_untouched(self):
        agent = zeroed_agent()
        s = np.array([0.2, 0.2, 0.1])
        tr = Transition(s, np.zeros(3), 0.0, s, s)   # V=0, r=0 -> delta=0, a=mu
        before = agent.theta.copy()
        a2c_step(agent, tr)
        assert np.array_equal(agent.theta, before)

    def test_positive_delta_raises_logprob_of_action(self):
        agent = make_a2c_agent(CFG, 7)
        s = np.array([0.1, 0.4, 0.2])
        a = forward(agent.actor.mean_net, s) + np.array([0.9, -0.7, 0.4])
        lp_before = gaussian_logprob(agent.actor, s, a)
        # rig a strongly positive TD error via a large scaled reward
        v_s = float(forward(agent.critic, s)[0])
        v_n = float(forward(agent.critic, s)[0])
        r = 5.0 + v_s - agent.gamma * v_n
        a2c_step(agent, Transition(s, a, r, s, s))
        lp_after = gaussian_logprob(agent.actor, s, a)
        assert lp_after > lp_before

    def test_negative_delta_lowers_overestimated_value(self):
        agent = make_a2c_agent(CFG, 9)
        s = np.array([0.3, 0.1, 0.1])
        v_before = float(forward(agent.critic, s)[0])
        # target r + gamma V(s') far below V(s) -> delta < 0
        target_gap = -4.0
        v_n = float(forward(agent.critic, s)[0])
        r = v_before + target_gap - agent.gamma * v_n
        a2c_step(agent, Transition(s, forward(agent.actor.mean_net, s), r, s, s))
        v_after = float(forward(agent.critic, s)[0])
        assert v_after < v_before

    @pytest.mark.parametrize("make, x", [
        (make_a2c_agent, np.array([0.3, 0.1, 0.2])),
        (make_maa2c_agent, np.array([[0.3, 0.2], [0.1, 0.3], [0.2, 0.1]]))])
    def test_copy_updates_its_own_arrays(self, make, x):
        agent = make(CFG, 5)
        s = np.array([0.3, 0.1, 0.2])
        tr = Transition(s, np.array([0.5, -0.25, 1.0]), -0.5, s[::-1].copy(), x)
        a2c_step(agent, tr)   # the agent's arrays are bound by now
        twins = (copy.deepcopy(agent), pickle.loads(pickle.dumps(agent)))
        a2c_step(agent, tr)
        after = [a.tobytes() for a in (agent.theta, agent.opt.m, agent.opt.v)]
        for twin in twins:
            assert twin.algo == agent.algo and twin.opt.step == agent.opt.step - 1
            for view in (twin.critic.theta, twin.actor.mean_net.theta):
                assert np.shares_memory(view, twin.theta)
            a2c_step(twin, tr)
            # the twin moves as the original moved, in its own arrays only
            assert [a.tobytes() for a in (twin.theta, twin.opt.m, twin.opt.v)] == after
            assert [a.tobytes() for a in (agent.theta, agent.opt.m, agent.opt.v)] == after


def trained(make, train, std):
    """The learner state and metrics after two seeded training episodes."""
    env = new_env(CFG, 51)
    agent = make(CFG, 52, action_std=std)
    metrics = train(env, agent, 2, 60, rng=np.random.default_rng(53))
    return learner_state(agent), [
        (m.total_reward, m.mean_inv_factory, m.mean_inv_warehouse, m.mean_rp,
         m.stockout_units) for m in metrics]


@pytest.fixture
def update_kernel(monkeypatch):
    """A fresh record of fallbacks, in a process with the compiled update."""
    monkeypatch.setattr(nets, "_fallbacks", {})
    if nets.kernel_backend("a2c_update") != "compiled kernel":
        pytest.skip(f"no compiled update: {nets.kernel_backend('a2c_update')}")


class TestUpdateKernel:
    @pytest.mark.parametrize("make, train, std", [
        (make_a2c_agent, train_a2c, 2.0),
        (make_maa2c_agent, train_maa2c, 2.0)], ids=["a2c", "maa2c"])
    def test_training_matches_numpy_update_bit_for_bit(self, update_kernel, make, train,
                                                       std):
        compiled = trained(make, train, std)
        assert nets._fallbacks == {}
        with numpy_update():
            assert trained(make, train, std) == compiled

    def test_refused_array_takes_the_numpy_passes(self, update_kernel):
        s, s_next = np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.1, 0.3])
        a = np.array([0.5, -0.25, 1.0])
        states = []
        for action, path in ((np.repeat(a, 2)[::2], contextlib.nullcontext),
                             (a, numpy_update)):
            agent = make_a2c_agent(CFG, 5)
            with path():
                a2c_step(agent, Transition(s, action, -0.5, s_next, s))
            states.append(learner_state(agent))
        assert states[0] == states[1]
        assert nets.kernel_backend("a2c_update") == (
            "compiled kernel; numpy passes for a is strided (1x)")

    def test_states_with_the_member_axis_update_alike(self, update_kernel):
        s, s_next = np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.1, 0.3])
        a = np.array([0.5, -0.25, 1.0])
        states = []
        for path in UPDATE_PATHS:
            for shape in ((3,), (1, 3)):
                agent = make_a2c_agent(CFG, 5)
                with path():
                    a2c_step(agent, Transition(s.reshape(shape), a, -0.5,
                                               s_next.reshape(shape), s))
                states.append(learner_state(agent))
        assert states[1:] == states[:1] * 3


class TestTraining:
    def test_zero_episodes(self):
        env = new_env(CFG, 1)
        agent = make_a2c_agent(CFG, 1)
        assert train_a2c(env, agent, 0, 50) == []

    def test_seeded_reproducibility(self):
        results = []
        for _ in range(2):
            env = new_env(CFG, 11)
            agent = make_a2c_agent(CFG, 12)
            metrics = train_a2c(env, agent, 4, 30, rng=np.random.default_rng(13))
            evals = evaluate_a2c(env, agent, 2, 30)
            results.append([
                (m.total_reward, m.mean_inv_factory, m.mean_inv_warehouse,
                 m.mean_rp, m.stockout_units) for m in metrics + evals])
        assert results[0] == results[1]

    def test_non_finite_td_error_names_the_episode(self):
        env = new_env(CFG, 2)
        agent = make_a2c_agent(CFG, 3)
        poison_reward_from_episode(env, 2)
        with pytest.raises(FloatingPointError, match="^episode 2: non-finite TD error"):
            train_a2c(env, agent, 5, 10, rng=np.random.default_rng(4))

    def test_nan_actor_weight_in_evaluation_names_the_episode(self):
        env = new_env(CFG, 2)
        agent = make_a2c_agent(CFG, 3)
        agent.actor.mean_net.weights[0][0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError,
                           match=r"^episode 0: non-finite mean action \[nan") as info:
            evaluate_a2c(env, agent, 2, 5)
        assert isinstance(info.value.__cause__, ValueError)

    def test_parameters_stay_finite(self):
        env = new_env(CFG, 21)
        agent = make_a2c_agent(CFG, 22)
        train_a2c(env, agent, 12, 60, rng=np.random.default_rng(23))
        assert np.all(np.isfinite(agent.theta))

    def test_env_only_sees_clipped_integer_actions(self):
        env = new_env(CFG, 31)
        seen = []
        original = env.step

        def recording_step(action):
            seen.append(action)
            return original(action)

        env.step = recording_step
        agent = make_a2c_agent(CFG, 32)
        train_a2c(env, agent, 2, 40, rng=np.random.default_rng(33))
        assert len(seen) == 80
        for action in seen:
            assert isinstance(action.q_factory, int)
            assert 0 <= action.q_warehouse <= 30
            assert 0 <= action.rp_next <= 6

    def test_evaluation_is_mean_action_and_pure(self):
        env_a = new_env(CFG, 41)
        env_b = new_env(CFG, 41)
        agent = make_a2c_agent(CFG, 42)
        theta_before = agent.theta.copy()
        ev_a = evaluate_a2c(env_a, agent, 3, 25)
        ev_b = evaluate_a2c(env_b, agent, 3, 25)
        assert [m.total_reward for m in ev_a] == [m.total_reward for m in ev_b]
        assert np.array_equal(agent.theta, theta_before)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        agent = make_a2c_agent(CFG, 5, action_std=1.5)
        path = tmp_path / "agent.txt"
        save_agent(agent, path, case=2)
        clone, case = load_agent(path)
        assert case == 2 and clone.algo == "a2c"
        assert clone.actor.mean_net.members == 1
        assert clone.actor.action_std == 1.5
        assert clone.gamma == agent.gamma
        s = np.array([0.2, 0.5, 0.1])
        assert np.array_equal(forward(clone.critic, s),
                              forward(agent.critic, s))
        assert np.array_equal(forward(clone.actor.mean_net, s),
                              forward(agent.actor.mean_net, s))

    def test_wrong_algo_rejected(self, tmp_path):
        path = tmp_path / "agent.txt"
        with open(path, "w") as fh:
            fh.write("safestock-agent 1\nalgo sarsa\ncase 1\ngamma 0.2\n"
                     "action_std 2.0\nobs_scale 0.1\nreward_scale 0.0001\n")
        with pytest.raises(ValueError, match="header block: unknown agent algo 'sarsa'"):
            load_agent(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not an agent\n")
        with pytest.raises(ValueError, match="agent"):
            load_agent(path)
