import re
from pathlib import Path

import numpy as np
import pytest

from safestock.env import ChainConfig, IncomingOrders, EnvState, new_env
from safestock.multi_agent import (
    build_actor,
    evaluate_maa2c,
    maa2c_step,
    make_maa2c_agent,
    train_maa2c,
)
from safestock.actor_critic import (
    ACTION_STD,
    GAMMA,
    load_agent,
    local_obs_vectors,
    save_agent,
)
from test_actor_critic import (
    loop_update,
    poison_reward_from_episode,
    rejects_without_moving,
    run_period,
    td_advantage,
)
from safestock.harness import export_policy_grid, read_policy_grid
from safestock.nets import forward, parameter_count

CFG = ChainConfig.for_case(1)
# A maa2c agent file written before the actors were stacked: hidden (4, 4),
# trained 2 x 30 steps on case 2, then evaluated as in
# test_agent_file_from_before_stacking_still_reads.
OLD_AGENT = Path(__file__).parent / "data" / "maa2c_agent_v1.txt"
OLD_AGENT_EVALS = [
    (-366475.0, 3.1666666666666665, 6.533333333333333, 0.0, 17),
    (-414670.0, 4.466666666666667, 7.8, 0.0, 18),
]
# rows (inv_factory, inv_warehouse) -> (value, factory mean) of its policy
# grid at rp 3, from test_agent_file_from_before_stacking_gives_its_policy_grid
OLD_AGENT_GRID = {
    (0, 0): (-0.10432819492380321, -0.015855856648993995),
    (0, 30): (-0.09093133427417563, -0.015855856648993995),
    (30, 0): (-0.23115786702819496, -0.31948218966523634),
    (30, 30): (-0.2462077789470118, -0.31948218966523634),
    (7, 13): (-0.13659387190181593, -0.08980801508441638),
    (15, 15): (-0.1684319594003714, -0.174324767582042),
}


def zeroed_agent(seed=0):
    agent = make_maa2c_agent(CFG, seed)
    agent.theta[:] = 0.0
    return agent


def obs_triple(i_f=0.2, order_f=0.0, i_w=0.3, order_w=0.0, rp=0.1, demand=0.07):
    return np.array([[i_f, order_f], [i_w, order_w], [rp, demand]])


def sample_actions(agent, local_obs, rng):
    """Reference sampling: each member's scalar mean plus its Gaussian noise."""
    mu = forward(agent.actor, local_obs)[:, 0]
    return mu + ACTION_STD * rng.standard_normal(len(mu))


class TestActAll:
    def test_zero_actors_sample_centered_gaussian(self):
        agent = zeroed_agent()
        rng = np.random.default_rng(1)
        assert np.array_equal(forward(agent.actor, obs_triple()), np.zeros((3, 1)))
        draws = np.array([sample_actions(agent, obs_triple(), rng) for _ in range(10000)])
        assert np.abs(draws.mean(axis=0)) .max() < 0.1
        assert draws.std(axis=0) == pytest.approx([2.0] * 3, abs=0.1)

    def test_identical_rng_state_identical_action(self):
        agent = make_maa2c_agent(CFG, 4)
        a1 = sample_actions(agent, obs_triple(), np.random.default_rng(7))
        a2 = sample_actions(agent, obs_triple(), np.random.default_rng(7))
        assert np.array_equal(a1, a2)

    def test_actors_only_see_local_fields(self):
        net = make_maa2c_agent(CFG, 5).actor
        m1 = forward(net, obs_triple())[:, 0]
        m2 = forward(net, obs_triple(i_w=0.9, order_w=0.5))[:, 0]
        assert m1[0] == m2[0]           # factory untouched by warehouse fields
        assert m1[2] == m2[2]           # retailer untouched too
        assert m1[1] != m2[1]


class TestMaa2cStep:
    def test_zero_delta_changes_nothing(self):
        agent = zeroed_agent()
        s = np.array([0.1, 0.1, 0.1])
        before = agent.theta.copy()
        assert run_period(loop_update(agent), s, np.zeros(3), 0.0, s, obs_triple(),
                          maa2c_step) == 0.0
        assert np.array_equal(agent.theta, before)

    def test_nan_reward_raises_before_any_update(self, no_kernels):
        agent = make_maa2c_agent(CFG, 1)
        s = np.array([0.1, 0.1, 0.1])
        rejects_without_moving(
            agent, (s, np.zeros(3), np.nan, s, obs_triple(), maa2c_step),
            "non-finite TD error nan", no_kernels,
            warm_up=(s, np.array([0.5, -0.25, 1.0]), -0.5, np.array([0.2, 0.1, 0.3]),
                     obs_triple(), maa2c_step))

    def test_nan_critic_parameter_raises(self, no_kernels):
        agent = make_maa2c_agent(CFG, 1)
        s = np.array([0.1, 0.1, 0.1])
        run_period(loop_update(agent), s, np.array([0.5, -0.25, 1.0]), -0.5,
                   np.array([0.2, 0.1, 0.3]), obs_triple(), maa2c_step)
        agent.theta[0] = np.nan   # first critic weight
        rejects_without_moving(agent, (s, np.zeros(3), -0.5, s, obs_triple(), maa2c_step),
                               "non-finite TD error", no_kernels)

    def test_actor_at_its_mode_keeps_parameters(self):
        agent = make_maa2c_agent(CFG, 6)
        s = np.array([0.2, 0.1, 0.1])
        obs = obs_triple()
        mus = [float(mu) for mu in forward(agent.actor, obs)[:, 0]]
        # factory acts at its mode; others deviate
        actions = np.array([mus[0], mus[1] + 1.0, mus[2] - 0.5])

        def pieces():   # critic, then each actor member's parameters
            net = agent.actor
            return [agent.critic.theta.copy()] + [
                np.concatenate([p.ravel() for p in net.member_parameters(k)])
                for k in range(net.members)]
        slices = pieces()
        run_period(loop_update(agent), s, actions, -3.0, s, obs, maa2c_step)
        after = pieces()
        assert not np.array_equal(after[0], slices[0])      # critic moved
        assert np.array_equal(after[1], slices[1])          # factory at mode
        assert not np.array_equal(after[2], slices[2])
        assert not np.array_equal(after[3], slices[3])

    def test_shared_delta_comes_from_joint_critic(self):
        agent = make_maa2c_agent(CFG, 8)
        s = np.array([0.3, 0.2, 0.1])
        s2 = np.array([0.1, 0.2, 0.2])
        expected = td_advantage(agent.critic, -0.4, s, s2, GAMMA)
        # delta > 0 pushes every actor's mean toward its sampled action;
        # verify direction on each actor given the sign of expected delta
        obs = obs_triple()
        mus = [float(mu) for mu in forward(agent.actor, obs)[:, 0]]
        actions = np.array([m + 0.5 for m in mus])
        run_period(loop_update(agent), s, actions, -0.4, s2, obs, maa2c_step)
        new_mus = [float(mu) for mu in forward(agent.actor, obs)[:, 0]]
        for old, new in zip(mus, new_mus):
            if expected > 0:
                assert new > old
            else:
                assert new < old


class TestScaling:
    def test_actor_parameters_grow_linearly_with_agents(self):
        rng = np.random.default_rng(0)
        three = build_actor(3, rng)
        four = build_actor(4, rng)
        single = parameter_count((2, 100, 100, 100, 1))
        assert three.n_parameters == 3 * single
        assert four.n_parameters == 4 * single


class TestTraining:
    def test_zero_episodes(self):
        env = new_env(CFG, 1)
        agent = make_maa2c_agent(CFG, 1)
        assert train_maa2c(env, agent, 0, 40) == []

    def test_seeded_reproducibility(self):
        results = []
        for _ in range(2):
            env = new_env(CFG, 14)
            agent = make_maa2c_agent(CFG, 15)
            metrics = train_maa2c(env, agent, 3, 30, rng=np.random.default_rng(16))
            evals = evaluate_maa2c(env, agent, 2, 30)
            results.append([
                (m.total_reward, m.mean_inv_factory, m.mean_inv_warehouse,
                 m.mean_rp, m.stockout_units) for m in metrics + evals])
        assert results[0] == results[1]

    def test_non_finite_td_error_names_the_episode(self):
        env = new_env(CFG, 2)
        agent = make_maa2c_agent(CFG, 3)
        poison_reward_from_episode(env, 1)
        with pytest.raises(FloatingPointError, match="^episode 1: non-finite TD error"):
            train_maa2c(env, agent, 4, 10, rng=np.random.default_rng(4))

    def test_nan_actor_weight_in_evaluation_names_the_episode(self):
        env = new_env(CFG, 2)
        agent = make_maa2c_agent(CFG, 3)
        agent.actor.weights[0][1, 0, 0] = np.nan   # the warehouse actor
        with pytest.raises(FloatingPointError,
                           match=r"^episode 0: non-finite mean action \[-?[0-9.e-]+, nan"):
            evaluate_maa2c(env, agent, 2, 5)

    def test_parameters_stay_finite(self):
        env = new_env(CFG, 24)
        agent = make_maa2c_agent(CFG, 25)
        train_maa2c(env, agent, 10, 60, rng=np.random.default_rng(26))
        assert np.all(np.isfinite(agent.theta))

    def test_local_obs_built_from_step_outcome(self):
        state = EnvState(0, 6, 9, 3, 5)
        incoming = IncomingOrders(to_factory=4, to_warehouse=11, demand=2)
        obs_f, obs_w, obs_r = local_obs_vectors(state, incoming, 1.0 / 30)
        assert np.allclose(obs_f, [6 / 30, 4 / 30])
        assert np.allclose(obs_w, [9 / 30, 11 / 30])
        assert np.allclose(obs_r, [5 / 30, 2 / 30])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        agent = make_maa2c_agent(CFG, 51)
        path = tmp_path / "agent.txt"
        save_agent(agent, path, case=1)
        clone, case = load_agent(path)
        assert case == 1 and clone.algo == "maa2c"
        s = np.array([0.4, 0.1, 0.15])
        assert np.array_equal(forward(clone.critic, s), forward(agent.critic, s))
        o = np.array([[0.2, 0.3]] * 3)   # the same view for every actor
        assert np.array_equal(forward(agent.actor, o), forward(clone.actor, o))
        again = tmp_path / "again.txt"
        save_agent(clone, again, case)
        assert again.read_bytes() == path.read_bytes()

    def test_agent_file_from_before_stacking_still_reads(self, tmp_path):
        agent, case = load_agent(OLD_AGENT)
        assert case == 2 and agent.actor.members == 3
        cfg = ChainConfig.for_case(case)
        evals = evaluate_maa2c(new_env(cfg, 24), agent, 2, 30)
        assert [(m.total_reward, m.mean_inv_factory, m.mean_inv_warehouse,
                 m.mean_rp, m.stockout_units) for m in evals] == OLD_AGENT_EVALS
        # the file's nets come back out as they went in; its recipe lines
        # are checked but not kept, so the agent saves under this recipe
        path = tmp_path / "agent.txt"
        save_agent(agent, path, case)
        old = OLD_AGENT.read_text().splitlines(keepends=True)
        assert old[4] == "action_std 1.5\n"
        assert path.read_text() == "".join(old[:4] + [f"action_std {ACTION_STD!r}\n"]
                                           + old[5:])

    def test_agent_file_from_before_stacking_gives_its_policy_grid(self, tmp_path):
        grid = read_policy_grid(export_policy_grid(OLD_AGENT, 3, tmp_path))
        assert len(grid) == 31 * 31
        # (value, factory mean) rows as the agent with its file's std gave them
        assert np.array([grid[cell] for cell in OLD_AGENT_GRID]) == pytest.approx(
            np.array(list(OLD_AGENT_GRID.values())), rel=1e-12, abs=0)

    @pytest.mark.parametrize("edit, block", [
        (lambda lines: [], "header"),
        (lambda lines: lines[:4], "header"),
        (lambda lines: lines[:3] + ["gamma\n"] + lines[4:], "header"),
        (lambda lines: lines[:3] + ["gamma zero\n"] + lines[4:], "header"),
        (lambda lines: lines[:10], "critic"),
        (lambda lines: lines[:8] + [lines[8].rsplit(" ", 1)[0] + "\n"] + lines[9:],
         "critic"),
        (lambda lines: lines[:-1], "actor"),
        (lambda lines: lines[:-1] + ["0.1x\n"], "actor"),
        (lambda lines: lines + ["mlp 2 4 4 1\n"], "actor"),
        # the recipe lines are not kept, but must still be numbers
        (lambda lines: lines[:4] + ["action_std wide\n"] + lines[5:], "header"),
        (lambda lines: lines[:6] + ["reward_scale 1e-4x\n"] + lines[7:], "header"),
        (lambda lines: lines[:2] + ["case 3\n"] + lines[3:], "header"),
    ])
    def test_malformed_file_names_path_and_block(self, tmp_path, edit, block):
        lines = OLD_AGENT.read_text().splitlines(keepends=True)
        path = tmp_path / "agent.txt"
        path.write_text("".join(edit(lines)))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {block} block: "):
            load_agent(path)

    @pytest.mark.parametrize("line, value, block", [
        (5, "obs_scale nan", "header"),
        (5, "obs_scale inf", "header"),
        (5, "obs_scale -0.5", "header"),
        (5, "obs_scale 0.0", "header"),
        (9, "nan", "critic"),
        (13, "-inf", "critic"),
        (15, "nan", "actor"),
        (-1, "inf", "actor"),
    ], ids=["scale-nan", "scale-inf", "scale-negative", "scale-zero",
            "critic-weight-nan", "critic-bias-inf", "actor-weight-nan", "actor-bias-inf"])
    def test_unusable_numbers_name_path_and_block(self, tmp_path, line, value, block):
        # a NaN scale or parameter would act, and draw a policy grid, all NaN
        lines = OLD_AGENT.read_text().splitlines(keepends=True)
        if block != "header":   # the line's first parameter
            value = " ".join([value, *lines[line].split()[1:]])
        lines[line] = value + "\n"
        path = tmp_path / "agent.txt"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {block} block: "):
            load_agent(path)

    def test_wrong_algo_rejected(self, tmp_path):
        from safestock.actor_critic import make_a2c_agent

        # the header's algo must match the number of actor blocks, both ways
        a2c_text = tmp_path / "a2c.txt"
        save_agent(make_a2c_agent(CFG, 1), a2c_text, case=1)
        lines = a2c_text.read_text().splitlines(keepends=True)
        path = tmp_path / "agent.txt"
        path.write_text("".join(lines[:1] + ["algo maa2c\n"] + lines[2:]))
        with pytest.raises(ValueError, match="actor block: expected an mlp block"):
            load_agent(path)
        lines = OLD_AGENT.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + ["algo a2c\n"] + lines[2:]))
        with pytest.raises(ValueError, match="actor block: unexpected text"):
            load_agent(path)
