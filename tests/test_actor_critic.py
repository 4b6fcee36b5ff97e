import collections
import contextlib
import copy
import math
import pickle
import re

import numpy as np
import pytest
from conftest import COMPILED

from safestock.actor_critic import (
    ACTION_STD,
    GAMMA,
    NO_ORDERS,
    REWARD_SCALE,
    A2cAgent,
    a2c_step,
    evaluate_a2c,
    joint_obs,
    load_agent,
    local_obs_vectors,
    make_a2c_agent,
    save_agent,
    train_a2c,
)
from safestock import actor_critic, multi_agent, nets
from safestock.env import ChainConfig, EnvState, clip_action, new_env
from safestock.harness import ExperimentConfig, export_policy_grid, run_one_seed
from safestock.metrics import rollout
from safestock.multi_agent import evaluate_maa2c, make_maa2c_agent, train_maa2c
from safestock.nets import (
    A2cUpdate, AdamState, Mlp, forward, forward_cached,
)

CFG = ChainConfig.for_case(1)


def td_advantage(critic, r_scaled, s, s_next, gamma):
    """Reference one-step TD error r + gamma V(s') - V(s), as a2c_step computes it."""
    return float(r_scaled + gamma * forward(critic, s_next)[0]
                 - forward(critic, s)[0])


def gaussian_logprob(actor, s, a):
    """Reference log pi(a|s) of the Gaussian policy of means ``actor`` and
    std ``ACTION_STD``."""
    diff = a - forward(actor, s)
    std = ACTION_STD
    return float(-0.5 * np.dot(diff, diff) / (std * std)
                 - diff.size * (math.log(std) + 0.5 * math.log(2.0 * math.pi)))


def zeroed_agent(seed=0):
    agent = make_a2c_agent(CFG, seed)
    agent.theta[:] = 0.0
    return agent


class TestTdAdvantage:
    def test_zero_critic_returns_reward(self):
        agent = zeroed_agent()
        s = np.array([0.1, 0.2, 0.3])
        assert td_advantage(agent.critic, -0.75, s, s, 0.2) == pytest.approx(-0.75)

    def test_direct_substitution(self):
        # identity critic on a single input: V([x]) = x
        critic = Mlp((1, 1))
        critic.weights[0][...] = 1.0
        critic.biases[0][...] = 0.0
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


def learner_state(agent):
    """The bytes of the parameters and both moments, and the step count."""
    return (agent.theta.tobytes(), agent.opt.m.tobytes(), agent.opt.v.tobytes(),
            agent.opt.step)


def loop_update(agent):
    """The update ``policy`` makes for ``agent`` once per training call."""
    return A2cUpdate(agent.critic, agent.actor, agent.theta, agent.opt, GAMMA, ACTION_STD)


def period_parts(s, a, r, s_next, x=None, step=a2c_step):
    """``run_period``'s arguments after the update, ``x`` given."""
    return s, a, r, s_next, s if x is None else x, step


def sample(update, x, a):
    """A period's sampling as ``policy`` makes it: the actor's pass of
    ``x`` into the actor's buffer and the action ``a`` into ``update.a``."""
    forward_cached(update.actor, x)
    update.a[...] = a


def run_period(update, *period):
    """One training period as ``policy`` runs it, on ``period_parts``:
    the sampling, then ``step``, with ``x`` (by default ``s``) as this
    period's input and the next one's; returns the TD error."""
    s, a, r, s_next, x, step = period_parts(*period)
    sample(update, x, a)
    return step(update, s, r, s_next, x)


def rejects_without_moving(agent, period, match, no_kernels, warm_up=None):
    """``period``, the arguments of ``run_period`` after the update, raises
    FloatingPointError on every update path (the compiled update where this
    process has it, then the numpy passes) and leaves parameters, moments,
    step count and the actor's buffer (its sampling pass) as they were;
    ``warm_up``, a finite period, first makes the moments and the count
    nonzero."""
    for path in (contextlib.nullcontext, no_kernels):
        twin = copy.deepcopy(agent)
        update = loop_update(twin)
        with path():
            if warm_up is not None:
                run_period(update, *warm_up)
            s, a, r, s_next, x, step = period_parts(*period)
            sample(update, x, a)
            before = learner_state(twin), twin.actor.buffer.tobytes()
            with pytest.raises(FloatingPointError, match=match):
                step(update, s, r, s_next, x + 1.0)   # a pass of it would show
        assert (learner_state(twin), twin.actor.buffer.tobytes()) == before, path


class TestA2cStep:
    def test_the_step_is_the_compiled_update(self):
        assert actor_critic.a2c_step is nets.a2c_update
        assert multi_agent.maa2c_step is nets.a2c_update

    @pytest.mark.parametrize("make, train", [
        (make_a2c_agent, train_a2c),
        (make_maa2c_agent, train_maa2c)], ids=["a2c", "maa2c"])
    def test_a_training_call_makes_one_update(self, monkeypatch, make, train):
        made = []

        def counting(*args):
            made.append(None)
            return A2cUpdate(*args)
        monkeypatch.setattr(actor_critic, "A2cUpdate", counting)
        train(new_env(CFG, 1), make(CFG, 2), 2, 10, rng=np.random.default_rng(3))
        assert len(made) == 1

    def test_nan_reward_raises_before_any_update(self, no_kernels):
        agent = make_a2c_agent(CFG, 1)
        s = np.array([0.2, 0.2, 0.1])
        rejects_without_moving(
            agent, (s, np.zeros(3), np.nan, s), "non-finite TD error nan", no_kernels,
            warm_up=(s, np.array([0.5, -0.25, 1.0]), -0.5, s[::-1].copy()))

    def test_nan_critic_parameter_raises(self, no_kernels):
        agent = make_a2c_agent(CFG, 1)
        s = np.array([0.2, 0.2, 0.1])
        run_period(loop_update(agent), s, np.array([0.5, -0.25, 1.0]), -0.5,
                   s[::-1].copy())
        agent.theta[0] = np.nan   # first critic weight
        rejects_without_moving(agent, (s, np.zeros(3), -0.5, s),
                               "non-finite TD error", no_kernels)

    def test_zero_delta_leaves_parameters_untouched(self):
        agent = zeroed_agent()
        s = np.array([0.2, 0.2, 0.1])
        before = agent.theta.copy()
        # V=0, r=0 -> delta=0, a=mu
        assert run_period(loop_update(agent), s, np.zeros(3), 0.0, s) == 0.0
        assert np.array_equal(agent.theta, before)

    def test_positive_delta_raises_logprob_of_action(self):
        agent = make_a2c_agent(CFG, 7)
        s = np.array([0.1, 0.4, 0.2])
        a = forward(agent.actor, s) + np.array([0.9, -0.7, 0.4])
        lp_before = gaussian_logprob(agent.actor, s, a)
        # rig a strongly positive TD error via a large scaled reward
        v_s = float(forward(agent.critic, s)[0])
        v_n = float(forward(agent.critic, s)[0])
        r = 5.0 + v_s - GAMMA * v_n
        run_period(loop_update(agent), s, a, r, s)
        lp_after = gaussian_logprob(agent.actor, s, a)
        assert lp_after > lp_before

    def test_negative_delta_lowers_overestimated_value(self):
        agent = make_a2c_agent(CFG, 9)
        s = np.array([0.3, 0.1, 0.1])
        v_before = float(forward(agent.critic, s)[0])
        # target r + gamma V(s') far below V(s) -> delta < 0
        target_gap = -4.0
        v_n = float(forward(agent.critic, s)[0])
        r = v_before + target_gap - GAMMA * v_n
        run_period(loop_update(agent), s, forward(agent.actor, s), r, s)
        v_after = float(forward(agent.critic, s)[0])
        assert v_after < v_before

    def test_next_value_reads_the_critics_new_parameters(self, no_kernels):
        # V(s') runs in a second net over the critic's parameters, so the
        # second update's TD error is made with the first update's critic
        s, s_next = np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.1, 0.3])
        a = np.array([0.5, -0.25, 1.0])
        for path in (contextlib.nullcontext, no_kernels):
            agent = make_a2c_agent(CFG, 5)
            update = loop_update(agent)
            assert np.shares_memory(update.critic_next.theta, agent.critic.theta)
            v_next = float(forward(agent.critic, s_next)[0])
            with path():
                run_period(update, s, a, -0.5, s_next)
                v_s, v_next_after = (float(forward(agent.critic, x)[0]) for x in (s, s_next))
                delta = run_period(update, s, a, -0.25, s_next)
            assert v_next_after != v_next
            assert delta == (-0.25 + GAMMA * v_next_after) - v_s, path
            assert float(update.critic_next.output[0, 0]) == v_next_after

    @pytest.mark.parametrize("make, x, x_next", [
        (make_a2c_agent, np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.1, 0.3])),
        (make_maa2c_agent, np.array([[0.3, 0.2], [0.1, 0.3], [0.2, 0.1]]),
         np.array([[0.1, 0.0], [0.2, 0.4], [0.3, 0.05]]))], ids=["a2c", "maa2c"])
    def test_the_update_ends_with_the_pass_of_the_next_input(self, no_kernels, make,
                                                             x, x_next):
        # after each update the actor's layer values are those a fresh pass
        # of the next period's input makes with the stepped parameters
        s, s_next = np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.1, 0.3])
        for path in (contextlib.nullcontext, no_kernels):
            agent = make(CFG, 5)
            actor, update = agent.actor, loop_update(agent)
            fresh = Mlp(actor.layer_sizes, theta=actor.theta, members=actor.members)
            forward_cached(actor, x)
            for r in (-0.5, 0.25):
                theta = actor.theta.copy()
                update.a[...] = [0.5, -0.25, 1.0]
                with path():
                    a2c_step(update, s, r, s_next, x_next)
                assert not np.array_equal(actor.theta, theta)
                forward_cached(fresh, x_next)
                for mine, theirs in zip((*actor.activations, *actor.zs),
                                        (*fresh.activations, *fresh.zs)):
                    assert mine.tobytes() == theirs.tobytes(), path

    @pytest.mark.parametrize("make, x", [
        (make_a2c_agent, np.array([0.3, 0.1, 0.2])),
        (make_maa2c_agent, np.array([[0.3, 0.2], [0.1, 0.3], [0.2, 0.1]]))])
    def test_copy_updates_its_own_arrays(self, make, x):
        agent = make(CFG, 5)
        s = np.array([0.3, 0.1, 0.2])
        period = (s, np.array([0.5, -0.25, 1.0]), -0.5, s[::-1].copy(), x)
        update = loop_update(agent)
        run_period(update, *period)   # the agent's arrays are bound by now
        twins = (copy.deepcopy(agent), pickle.loads(pickle.dumps(agent)))
        run_period(update, *period)
        after = [a.tobytes() for a in (agent.theta, agent.opt.m, agent.opt.v)]
        for twin in twins:
            assert twin.algo == agent.algo and twin.opt.step == agent.opt.step - 1
            for view in (twin.critic.theta, twin.actor.theta):
                assert np.shares_memory(view, twin.theta)
            run_period(loop_update(twin), *period)
            # the twin moves as the original moved, in its own arrays only
            assert [a.tobytes() for a in (twin.theta, twin.opt.m, twin.opt.v)] == after
            assert [a.tobytes() for a in (agent.theta, agent.opt.m, agent.opt.v)] == after


def trained(make, train):
    """The learner state and metrics after two seeded training episodes."""
    env = new_env(CFG, 51)
    agent = make(CFG, 52)
    metrics = train(env, agent, 2, 60, rng=np.random.default_rng(53))
    return learner_state(agent), [
        (m.total_reward, m.mean_inv_factory, m.mean_inv_warehouse, m.mean_rp,
         m.stockout_units) for m in metrics]


@pytest.fixture
def update_kernel():
    """Skip unless this process has the compiled update."""
    if nets.kernel_backend() != COMPILED:
        pytest.skip(f"no compiled update: {nets.kernel_backend()}")


class TestUpdateKernel:
    @pytest.mark.parametrize("make, train", [
        (make_a2c_agent, train_a2c),
        (make_maa2c_agent, train_maa2c)], ids=["a2c", "maa2c"])
    def test_training_matches_numpy_update_bit_for_bit(self, update_kernel, no_kernels,
                                                       make, train):
        compiled = trained(make, train)
        with no_kernels():
            assert trained(make, train) == compiled

    @pytest.mark.parametrize("make, train, module, step", [
        (make_a2c_agent, train_a2c, actor_critic, "a2c_step"),
        (make_maa2c_agent, train_maa2c, multi_agent, "maa2c_step")], ids=["a2c", "maa2c"])
    def test_a_training_period_makes_one_compiled_call(self, update_kernel, monkeypatch,
                                                       make, train, module, step):
        # the update ends with the sampling pass of the next period, so a
        # forward pass outside it runs once per episode, on the reset state
        calls = collections.Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call
        monkeypatch.setattr(nets, "_library", nets._library._replace(
            a2c_update=counted("compiled", nets._library.a2c_update)))
        monkeypatch.setattr(nets, "_forward_passes",
                            counted("_forward_passes", nets._forward_passes))
        monkeypatch.setattr(actor_critic, "forward_cached",
                            counted("forward_cached", nets.forward_cached))
        monkeypatch.setattr(module, step, counted(step, getattr(module, step)))
        train(new_env(CFG, 1), make(CFG, 2), 3, 7, rng=np.random.default_rng(3))
        assert calls == {"compiled": 21, step: 21, "forward_cached": 3, "_forward_passes": 3}

    def test_refused_array_takes_the_numpy_passes(self, update_kernel, no_kernels):
        # the kernel takes no strided action: it is written into the
        # update's float64 buffer, and the update matches the numpy passes
        s, s_next = np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.1, 0.3])
        a = np.array([0.5, -0.25, 1.0])
        states = []
        for action, path in ((np.repeat(a, 2)[::2], contextlib.nullcontext),
                             (a, no_kernels)):
            agent = make_a2c_agent(CFG, 5)
            update = loop_update(agent)
            with path():
                run_period(update, s, action, -0.5, s_next)
                run_period(update, s_next, action, 0.25, s)
            states.append(learner_state(agent))
        assert states[0] == states[1]

    def test_a_new_action_array_is_checked_afresh(self, update_kernel, no_kernels):
        # one loop's update takes each new action array, whatever its
        # flags, dtype or byte order, written into its float64 buffer
        s, s_next = np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.1, 0.3])
        a = np.array([0.5, -0.25, 1.0])
        read_only = a.copy()
        read_only.flags.writeable = False
        actions = [a, read_only, np.repeat(a, 2)[::2], a.astype(np.float32),
                   a.astype(">f8"), pickle.loads(pickle.dumps(a))]
        runs = []
        for path in (contextlib.nullcontext, no_kernels):
            agent = make_a2c_agent(CFG, 5)
            states = []
            with path():
                update = loop_update(agent)
                for i, action in enumerate(actions):
                    run_period(update, s, action, -0.5 + 0.25 * i, s_next)
                    states.append(learner_state(agent))
            runs.append(states)
        assert runs[0] == runs[1]
        assert len(set(map(repr, runs[0]))) == len(actions)

    @pytest.mark.parametrize("edit, message", [
        (lambda parts: parts.update(theta=np.repeat(parts["theta"], 2)[::2]),
         "theta is strided"),
        (lambda parts: parts["theta"].setflags(write=False), "theta is read-only"),
        (lambda parts: parts.update(opt=AdamState(parts["theta"].astype(np.float32))),
         "m is float32, not float64"),
        (lambda parts: parts.update(opt=AdamState(parts["theta"].astype(">f8"))),
         "m is >f8, not float64"),
        (lambda parts: parts.update(opt=AdamState(parts["theta"][1:])),
         "m has shape"),
        (lambda parts: parts.update(critic=Mlp((3, 4, 2), rng=0)),
         "the critic must be one net with one output"),
    ], ids=["strided-theta", "read-only-theta", "float32-m", "big-endian-m",
            "short-m", "two-output-critic"])
    def test_unsuitable_arrays_refused_at_construction(self, edit, message):
        agent = make_a2c_agent(CFG, 5)
        parts = {"critic": agent.critic, "theta": agent.theta.copy(), "opt": agent.opt}
        edit(parts)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            A2cUpdate(parts["critic"], agent.actor, parts["theta"], parts["opt"],
                      GAMMA, ACTION_STD)

    def test_misshapen_state_raises_on_both_paths(self, no_kernels):
        s = np.array([0.3, 0.1, 0.2])
        for path in (contextlib.nullcontext, no_kernels):
            agent = make_a2c_agent(CFG, 5)
            with path(), pytest.raises(ValueError, match=r"^state shape \(2,\)"):
                run_period(loop_update(agent), s, np.zeros(3), -0.5, s[:2])
            assert agent.opt.step == 0

    def test_states_with_the_member_axis_update_alike(self, update_kernel, no_kernels):
        s, s_next = np.array([0.3, 0.1, 0.2]), np.array([0.2, 0.1, 0.3])
        a = np.array([0.5, -0.25, 1.0])
        states = []
        for path in (contextlib.nullcontext, no_kernels):
            for shape in ((3,), (1, 3)):
                agent = make_a2c_agent(CFG, 5)
                with path():
                    run_period(loop_update(agent), s.reshape(shape), a, -0.5,
                               s_next.reshape(shape), s)
                states.append(learner_state(agent))
        assert states[1:] == states[:1] * 3

    def test_runs_never_take_the_numpy_passes(self, update_kernel, monkeypatch, tmp_path):
        # with the library on, training runs every update compiled (a
        # forward pass outside an update always runs the numpy passes)
        entered = []
        monkeypatch.setattr(nets, "_a2c_passes",
                            lambda *args: entered.append(args))
        for algo, case in (("a2c", 1), ("maa2c", 2)):
            config = ExperimentConfig(algorithm=algo, case=case, episodes=2,
                                      steps_per_episode=20, num_seeds=1, eval_episodes=2,
                                      out_dir=str(tmp_path / algo))
            _, _, agent = run_one_seed(config, 0)
            save_agent(agent, tmp_path / f"{algo}.txt", case)
            export_policy_grid(tmp_path / f"{algo}.txt", 3, tmp_path / algo)
        assert entered == []


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
        agent.actor.weights[0][0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError,
                           match=r"^episode 0: non-finite mean action \[nan") as info:
            evaluate_a2c(env, agent, 2, 5)
        assert isinstance(info.value.__cause__, ValueError)

    def test_parameters_stay_finite(self):
        env = new_env(CFG, 21)
        agent = make_a2c_agent(CFG, 22)
        train_a2c(env, agent, 12, 60, rng=np.random.default_rng(23))
        assert np.all(np.isfinite(agent.theta))

    def test_training_follows_the_recipe(self, monkeypatch):
        # each sample is the actor's mean plus ACTION_STD times the noise
        # rng draws, each reward reaches the update scaled by REWARD_SCALE,
        # and the update discounts by GAMMA
        env = new_env(CFG, 51)
        agent = make_a2c_agent(CFG, 52)
        rewards, seen = [], []
        step = env.step

        def recording_step(action):
            outcome = step(action)
            rewards.append(outcome.reward)
            return outcome

        def spying_step(update, s, r, s_next, x_next):
            seen.append((update.a.copy(), update.actor.output.ravel().copy(), r))
            assert (update.gamma, update.std) == (GAMMA, ACTION_STD)
            return a2c_step(update, s, r, s_next, x_next)

        env.step = recording_step
        monkeypatch.setattr(actor_critic, "a2c_step", spying_step)
        train_a2c(env, agent, 2, 6, rng=np.random.default_rng(53))
        noise = np.random.default_rng(53).standard_normal((12, 3))
        assert len(seen) == len(rewards) == 12
        for (a, mu, r), z, reward in zip(seen, noise, rewards):
            assert a.tobytes() == (z * ACTION_STD + mu).tobytes()
            assert r == reward * REWARD_SCALE

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


def reference_evaluation(env, agent, episodes, steps_per_episode):
    """Mean-action rollouts as ``policy`` makes them, less its memo: every
    period runs the actor's forward pass and clips its mean."""
    net, scale = agent.actor, agent.obs_scale

    def start(state):
        incoming = NO_ORDERS

        def act():
            x = (joint_obs(state, scale) if net.members == 1
                 else local_obs_vectors(state, incoming, scale))
            return clip_action(state, forward(net, x).ravel(), incoming.to_warehouse,
                               env.config)

        def observe(outcome):
            nonlocal state, incoming
            state, incoming = outcome.next_state, outcome.incoming
        return act, observe
    return rollout(env, episodes, steps_per_episode, start)


def action_keys(env, steps_per_episode):
    """Record, on ``env``, the key (inv_factory, inv_warehouse, rp,
    *incoming) of every period's action: returns the set it fills."""
    keys, periods = set(), []
    reset, step = env.reset, env.step

    def add(state, incoming):
        keys.add((state.inv_factory, state.inv_warehouse, state.rp, *incoming))

    def recording_reset():
        state = reset()
        periods.clear()
        add(state, NO_ORDERS)
        return state

    def recording_step(action):
        outcome = step(action)
        periods.append(None)
        if len(periods) < steps_per_episode:   # the episode's last outcome acts no more
            add(outcome.next_state, outcome.incoming)
        return outcome
    env.reset, env.step = recording_reset, recording_step
    return keys


def records(metrics):
    return [(m.episode, m.total_reward, m.mean_inv_factory, m.mean_inv_warehouse,
             m.mean_rp, m.stockout_units) for m in metrics]


EVALUATIONS = pytest.mark.parametrize("make, train, evaluate", [
    (make_a2c_agent, train_a2c, evaluate_a2c),
    (make_maa2c_agent, train_maa2c, evaluate_maa2c)], ids=["a2c", "maa2c"])


class TestEvaluation:
    @EVALUATIONS
    def test_each_mean_action_is_computed_once_per_call(self, monkeypatch, make, train,
                                                        evaluate):
        env = new_env(CFG, 61)
        agent = make(CFG, 62)
        train(env, agent, 2, 40, rng=np.random.default_rng(63))
        calls = collections.Counter()
        for name in ("forward", "clip_action"):
            def spy(*args, real=getattr(actor_critic, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(actor_critic, name, spy)
        keys = action_keys(env, 40)
        evaluate(env, agent, 3, 40)
        assert calls["forward"] == calls["clip_action"] == len(keys) < 3 * 40

    @EVALUATIONS
    def test_a_later_evaluation_starts_afresh(self, make, train, evaluate):
        # the second evaluation acts by the further trained actor, as one
        # without a memo does
        env = new_env(CFG, 71)
        agent = make(CFG, 72)
        train(env, agent, 2, 30, rng=np.random.default_rng(73))
        first = evaluate(env, agent, 2, 30)
        train(env, agent, 2, 30, rng=np.random.default_rng(74))
        twin = copy.deepcopy(env)
        second = evaluate(env, agent, 2, 30)
        assert records(second) == records(reference_evaluation(twin, agent, 2, 30))
        assert records(second) != records(first)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        agent = make_a2c_agent(CFG, 5)
        path = tmp_path / "agent.txt"
        save_agent(agent, path, case=2)
        clone, case = load_agent(path)
        assert case == 2 and clone.algo == "a2c"
        assert clone.actor.members == 1 and clone.obs_scale == agent.obs_scale
        s = np.array([0.2, 0.5, 0.1])
        assert np.array_equal(forward(clone.critic, s),
                              forward(agent.critic, s))
        assert np.array_equal(forward(clone.actor, s), forward(agent.actor, s))
        again = tmp_path / "again.txt"
        save_agent(clone, again, case)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("make", [make_a2c_agent, make_maa2c_agent],
                             ids=["a2c", "maa2c"])
    def test_header_records_the_recipe(self, tmp_path, make):
        agent = make(CFG, 2)
        # an agent holds its nets, their scale and their optimizer; the
        # recipe is the module's
        assert sorted(vars(agent)) == ["actor", "critic", "obs_scale", "opt", "theta"]
        path = tmp_path / "agent.txt"
        save_agent(agent, path, case=1)
        assert path.read_text().splitlines()[:7] == [
            "safestock-agent 1", f"algo {agent.algo}", "case 1", f"gamma {GAMMA!r}",
            f"action_std {ACTION_STD!r}", f"obs_scale {1 / 30!r}",
            f"reward_scale {REWARD_SCALE!r}"]

    def test_wrong_algo_rejected(self, tmp_path):
        path = tmp_path / "agent.txt"
        with open(path, "w") as fh:
            fh.write("safestock-agent 1\nalgo sarsa\ncase 1\ngamma 0.2\n"
                     "action_std 2.0\nobs_scale 0.1\nreward_scale 0.0001\n")
        with pytest.raises(ValueError, match="header block: unknown agent algo 'sarsa'"):
            load_agent(path)

    @pytest.mark.parametrize("make, block, sizes", [
        (make_a2c_agent, "actor", (3, 4, 4)),
        (make_a2c_agent, "actor", (2, 4, 3)),
        (make_a2c_agent, "critic", (4, 4, 2)),
        (make_a2c_agent, "critic", (3, 4, 2)),
        (make_maa2c_agent, "actor", (3, 4, 1)),
        (make_maa2c_agent, "actor", (2, 4, 3)),
    ], ids=["a2c-actor-out", "a2c-actor-in", "critic-in", "critic-out", "maa2c-actor-in",
            "maa2c-actor-out"])
    def test_nets_of_the_wrong_widths_rejected(self, tmp_path, make, block, sizes):
        agent = make(CFG, 1)
        sizes_by_block = {"critic": agent.critic.layer_sizes, "actor": agent.actor.layer_sizes}
        sizes_by_block[block] = sizes
        path = tmp_path / "agent.txt"
        save_agent(A2cAgent(sizes_by_block["critic"], sizes_by_block["actor"],
                            agent.actor.members, 1 / 30), path, case=1)
        expected = " ".join(map(str, sizes))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}: {block} block: mlp {expected} is not ")):
            load_agent(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not an agent\n")
        with pytest.raises(ValueError, match="agent"):
            load_agent(path)

    def test_oversized_header_is_refused_before_allocating(self, tmp_path):
        # the header claims 1e16 parameters; its first line holds 300
        path = tmp_path / "agent.txt"
        save_agent(make_a2c_agent(CFG, 1), path, case=1)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[7] == f"mlp 3 {' '.join(map(str, actor_critic.HIDDEN_LAYERS))} 1\n"
        path.write_text("".join(lines[:7] + ["mlp 3 100000000 100000000 1\n"] + lines[8:]))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: critic block: mlp block 0, parameter line 0: 300 values, "
                "expected 300000000")):
            load_agent(path)

    @pytest.mark.parametrize("make", [make_a2c_agent, make_maa2c_agent],
                             ids=["a2c", "maa2c"])
    def test_agent_builds_its_two_nets_once(self, monkeypatch, tmp_path, make):
        # drawn straight into the agent's theta, loaded and copied into it
        built = []
        monkeypatch.setattr(actor_critic, "Mlp", lambda *args, **kwargs: built.append(
            nets.Mlp(*args, **kwargs)) or built[-1])
        agent = make(CFG, 3)
        assert len(built) == 2
        assert all(np.shares_memory(net.theta, agent.theta) for net in built)
        copy.deepcopy(agent)
        assert len(built) == 4

    @pytest.mark.parametrize("make", [make_a2c_agent, make_maa2c_agent],
                             ids=["a2c", "maa2c"])
    def test_load_builds_the_agents_two_nets_once(self, monkeypatch, tmp_path, make):
        # the file's parameters go straight into the loaded agent's nets
        path = tmp_path / "agent.txt"
        save_agent(make(CFG, 3), path, case=1)
        built, init = [], nets.Mlp.__init__
        monkeypatch.setattr(nets.Mlp, "__init__", lambda net, *args, **kwargs: (
            built.append(net), init(net, *args, **kwargs))[1])
        agent, _ = load_agent(path)
        assert built == [agent.critic, agent.actor]
        again = tmp_path / "again.txt"
        save_agent(agent, again, case=1)
        assert again.read_bytes() == path.read_bytes()
