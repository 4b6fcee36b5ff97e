import copy
import io
import pickle
import re
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safestock.env import ActionVector, ChainConfig, EnvState, new_env
from safestock.metrics import EpisodeStats
from safestock.qlearning import (
    FeasibleActions,
    QHyper,
    QTable,
    evaluate_q,
    export_table,
    greedy_action,
    q_update,
    select_action,
    state_key,
    train_q,
)

CFG = ChainConfig.for_case(1)


def feasible_for(inv_f=10, inv_w=10, rp=4, incoming=0):
    state = EnvState(0, inv_f, inv_w, 10, rp)
    return FeasibleActions.from_state(state, incoming, CFG)


def q_value(table, state, action):
    """Q(state, action) as ``items_sorted`` lists it: 0.0 where unwritten."""
    return next((v for s, a, v in table.items_sorted() if (s, a) == (state, action)), 0.0)


class TestFeasibleActions:
    def test_candidates_respect_clip_box(self):
        feas = feasible_for(inv_f=4, inv_w=25, incoming=10)
        lo_w = 10 - 25
        for i in range(feas.size):
            q_f, q_w, rp = feas.action_at(i)
            assert max(0, lo_w) <= q_w <= 30 - 25
            assert max(0, q_w - 4) <= q_f <= 30 - 4
            assert 0 <= rp <= 6

    def test_lower_bounds_always_present(self):
        feas = feasible_for(inv_f=0, inv_w=3, incoming=12)
        actions = {feas.action_at(i) for i in range(feas.size)}
        # demand-coverage bound q_w = 9 and its forced production q_f = 9
        assert (9, 9, 0) in actions

    def test_flat_order_is_lexicographic(self):
        feas = feasible_for()
        actions = [feas.action_at(i) for i in range(feas.size)]
        assert actions == sorted(actions)

    def test_counts_are_stored_with_the_set(self):
        feas = FeasibleActions([(0, 1), (2, 3)], [5, 1, 3], 31)
        assert (feas.n_rp, feas.size) == (3, 6)
        assert [feas.action_at(i) for i in range(feas.size)] == [
            (0, 1, 5), (0, 1, 1), (0, 1, 3), (2, 3, 5), (2, 3, 1), (2, 3, 3)]
        assert FeasibleActions([], [0, 1], 31).size == 0

    def test_candidates_are_pairs_crossed_with_rps(self):
        feas = feasible_for(inv_f=26, inv_w=22, incoming=3)
        assert feas.pairs == tuple(sorted(set(feas.pairs)))
        assert feas.rps == tuple(range(CFG.rp_min, CFG.rp_max + 1))
        assert feas.size == len(feas.pairs) * len(feas.rps)
        assert [feas.action_at(i) for i in range(feas.size)] == \
            [(*pair, rp) for pair in feas.pairs for rp in feas.rps]
        assert all(type(v) is int for v in feas.action_at(feas.size - 1))
        # each call builds a new set; equal content gives an equal key
        again = feasible_for(inv_f=26, inv_w=22, incoming=3)
        assert again is not feas and again.key == feas.key
        assert feasible_for(inv_f=26, inv_w=10, incoming=3).key != feas.key


class TestSelectAction:
    def test_epsilon_one_uniform_over_feasible(self):
        from scipy.stats import chisquare

        feas = feasible_for(inv_f=29, inv_w=28)
        table = QTable()
        hyper = QHyper(epsilon=1.0)
        rng = np.random.default_rng(17)
        counts = np.zeros(feas.size)
        for _ in range(10000):
            a = select_action(table, (29, 28, 4), feas, hyper, rng)
            idx = [feas.action_at(i) for i in range(feas.size)].index(a)
            counts[idx] += 1
        assert chisquare(counts).pvalue > 0.01

    def test_epsilon_zero_picks_learned_maximum(self):
        feas = feasible_for()
        table = QTable()
        s = (10, 10, 4)
        best = feas.action_at(feas.size // 2)
        table.set(s, best, 5.0)
        hyper = QHyper(epsilon=1e-12)   # hyper requires epsilon > 0
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert select_action(table, s, feas, hyper, rng) == best

    def test_all_zero_table_ties_break_to_lowest_index(self):
        feas = feasible_for()
        table = QTable()
        assert greedy_action(table, (10, 10, 4), feas) == feas.action_at(0)

    def test_empty_feasible_set_rejected(self):
        empty = FeasibleActions([], range(7), 31)
        with pytest.raises(ValueError, match="empty feasible"):
            greedy_action(QTable(), (0, 0, 0), empty)


class TestQUpdate:
    def test_single_backup_example(self):
        table = QTable()
        feas = feasible_for()
        s, a = (5, 5, 3), (0, 0, 0)
        new = q_update(table, s, a, -65.0, (6, 6, 3), feas, QHyper())
        assert new == pytest.approx(-52.0)
        assert q_value(table, s, a) == pytest.approx(-52.0)

    def test_zero_reward_zero_table_is_fixed_point(self):
        table = QTable()
        feas = feasible_for()
        new = q_update(table, (1, 1, 1), (0, 0, 0), 0.0, (1, 1, 1), feas, QHyper())
        assert new == 0.0

    def test_converges_to_geometric_fixed_point(self):
        # one state, one action, constant reward: Q* = r / (1 - gamma)
        hyper = QHyper(alpha=0.8, gamma=0.2, epsilon=0.5)
        table = QTable()
        s, a = (2, 2, 2), (1, 1, 1)
        only = FeasibleActions([a[:2]], [a[2]], 31)
        for _ in range(200):
            q_update(table, s, a, -65.0, s, only, hyper)
        assert q_value(table, s, a) == pytest.approx(-65.0 / 0.8, abs=1e-6)

    def test_zero_sign_of_best_next_never_reaches_q_new(self):
        # q_update reads the maximum through argmax, which may pick -0.0
        # where max() picks 0.0 or the other way round
        for q in (0.0, -0.0, -1.5):
            for r in (0.0, -0.0, -65.0):
                for alpha, gamma in ((0.8, 0.2), (1.0, 1.0), (0.3, 0.9)):
                    new = {bits(q + alpha * (r + gamma * best - q)) for best in (0.0, -0.0)}
                    assert len(new) == 1, (q, r, alpha, gamma)

    def test_hyper_validation(self):
        with pytest.raises(ValueError):
            QHyper(alpha=0.0)
        with pytest.raises(ValueError):
            QHyper(gamma=1.5)


class TestQTable:
    def test_default_zero_without_allocation(self):
        table = QTable()
        assert q_value(table, (3, 3, 3), (1, 1, 1)) == 0.0
        assert table.best((3, 3, 3), feasible_for()) is None
        assert len(table) == 0

    def test_state_bounds_checked_on_write(self):
        table = QTable()
        with pytest.raises(ValueError, match="bounds"):
            table.set((40, 0, 0), (0, 0, 0), -1.0)

    @pytest.mark.parametrize("state", [(1, 1), (1, 1, 99), (1, 1, -3), (1, 1, 1, 1),
                                       (31, 0, 0), (0, -1, 0), (1.5, 1, 1), "abc"])
    def test_new_state_must_be_a_triple_in_bounds(self, state):
        table = QTable()
        with pytest.raises(ValueError, match=re.escape(f"state {state!r}")):
            table.set(state, (0, 0, 0), -3.0)
        with pytest.raises(ValueError, match="bounds"):
            q_update(table, state, (0, 0, 0), -3.0, (1, 1, 1), feasible_for(), QHyper())
        assert len(table) == 0

    def test_state_bounds_follow_the_reorder_range(self):
        table = QTable(capacity=8, rp_max=5, rp_min=2)
        for bad in ((1, 1, 1), (1, 1, 6), (9, 1, 2)):
            with pytest.raises(ValueError, match="bounds"):
                table.set(bad, (0, 0, 0), -1.0)
        for good in ((0, 0, 2), (8, 8, 5)):
            table.set(good, (0, 0, 0), -1.0)
        assert [len(line.split()) for line in table_text(table).splitlines()] == [7] * 3

    def test_values_survive_row_buffer_growth(self):
        # 31 distinct (q_factory, q_warehouse) pairs in one state: the row
        # buffer is reallocated several times while values are written
        table = QTable()
        s = (5, 5, 5)
        actions = [(i, 7 * i % 31, i % 7) for i in range(31)]
        for i, a in enumerate(actions):
            table.set(s, a, -1.0 - i)
        assert [q_value(table, s, a) for a in actions] == [-1.0 - i for i in range(31)]

    def test_action_outside_box_rejected(self):
        table = QTable()
        with pytest.raises(IndexError, match="action box"):
            table.set((1, 1, 1), (0, 31, 0), -1.0)
        # a backup with an out-of-box action writes nothing, in a known
        # state or a new one, and searches nothing
        table.set((1, 1, 1), (0, 0, 0), -1.0)
        nbytes = table.nbytes
        for s in ((1, 1, 1), (2, 2, 2)):
            for bad in ((0, 31, 0), (-1, 0, 0), (0, 0, 7)):
                with pytest.raises(IndexError, match="action box"):
                    q_update(table, s, bad, -5.0, (1, 1, 1), feasible_for(), QHyper())
        assert list(table.items_sorted()) == [((1, 1, 1), (0, 0, 0), -1.0)]
        assert len(table) == 1 and table.nbytes == nbytes

    def test_feasible_set_for_another_box_rejected(self):
        table = QTable()
        table.set((1, 1, 1), (0, 0, 0), -1.0)
        for other in (FeasibleActions([(0, 0)], [0, 1, 2], 41),
                      FeasibleActions([(0, 31)], [0], 31),
                      FeasibleActions([(-1, 0)], [0], 31),
                      FeasibleActions([(0, 0)], [0, 7], 31),
                      FeasibleActions([(0, 0)], [-1], 31)):
            with pytest.raises(ValueError, match="box"):
                table.best((1, 1, 1), other)

    def test_states_fed_the_same_sets_share_one_read_only_array(self):
        table = QTable()
        feas, other = feasible_for(), feasible_for(inv_f=3, inv_w=20)
        s1, s2 = (1, 2, 3), (4, 5, 6)
        for s in (s1, s2):
            table.set(s, feas.action_at(0), -1.0)
            for f in (feas, other):
                greedy_action(table, s, f)
        rows1, rows2 = table._rows[s1], table._rows[s2]
        for f in (feas, other):
            shared = rows1.layout.positions[f.key]
            assert rows2.layout.positions[f.key] is shared
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0] = 0
        assert rows1.data.size == len(rows1.layout.codes) * 7   # no spare rows
        # a row appended to s1 alone replaces s1's buffer and layout; the
        # shared positions still gather each state's own values
        shared = rows1.layout.positions[feas.key]
        before = rows2.data[shared].copy()
        table.set(s2, feas.action_at(1), -2.0)
        table.set(s1, (29, 29, 0), -9.0)
        table.set(s1, feas.action_at(2), -3.0)
        assert (29 * 31 + 29) in rows1.layout.codes
        assert (29 * 31 + 29) not in rows2.layout.codes
        assert rows1.layout.positions[feas.key] is shared is rows2.layout.positions[feas.key]
        assert rows1.data[shared][:3].tolist() == [-1.0, 0.0, -3.0]
        assert rows2.data[shared][:3].tolist() == [-1.0, -2.0, 0.0]
        assert rows2.data[shared][2:].tolist() == before[2:].tolist()
        assert greedy_action(table, s1, feas) == feas.action_at(1)
        assert greedy_action(table, s2, feas) == feas.action_at(2)

    def test_nbytes_counts_each_shared_array_once(self):
        env = new_env(CFG, 8)
        table, _ = train_q(env, QHyper(), 20, 100, rng=np.random.default_rng(6))
        rows = list(table._rows.values())
        buffers = sum(r.data.nbytes for r in rows)
        distinct = {id(p): p for r in rows for p in r.layout.positions.values()}
        assert len(distinct) < sum(len(r.layout.positions) for r in rows) / 2
        assert table.nbytes <= buffers + sum(p.nbytes for p in distinct.values())
        assert all(r.data.size == len(r.layout.codes) * 7 for r in rows)

    def test_states_with_rows_added_in_one_order_hold_one_layout(self):
        table = QTable()
        feas, other = feasible_for(), feasible_for(inv_f=3, inv_w=20)
        alike = [(1, 2, 3), (4, 5, 6), (7, 8, 2)]
        for s in alike:
            table.set(s, feas.action_at(0), -1.0 - s[0])
            for f in (feas, other):
                greedy_action(table, s, f)
        layout = table._rows[alike[0]].layout
        assert all(table._rows[s].layout is layout for s in alike)
        assert layout.users == 3 and list(table._layouts.values()) == [layout]
        # the same rows added in another order make another layout
        s = (9, 9, 1)
        table.set(s, feas.action_at(0), -1.0)
        for f in (other, feas):
            greedy_action(table, s, f)
        assert sorted(table._rows[s].layout.codes) == sorted(layout.codes)
        assert table._rows[s].layout is not layout
        assert len(table._layouts) == 2

    def test_appending_a_row_moves_only_that_state(self):
        table = QTable()
        feas, other = feasible_for(), feasible_for(inv_f=3, inv_w=20)
        states = [(1, 2, 3), (4, 5, 6), (7, 8, 2)]
        for k, s in enumerate(states):
            table.set(s, feas.action_at(0), -1.0)
            for f in (feas, other):
                greedy_action(table, s, f)
            table.set(s, feas.action_at(k + 1), 2.0 + k)   # an existing row
        shared = table._rows[states[0]].layout
        before = {s: (table._rows[s].data.copy(),
                      [greedy_action(table, s, f) for f in (feas, other)])
                  for s in states}
        moved = states[1]
        wider = FeasibleActions([*feas.pairs, (29, 29)], feas.rps, 31)
        for append in (lambda: table.set(moved, (28, 28, 0), -9.0),   # a write
                       lambda: greedy_action(table, moved, wider)):  # a search
            left = table._rows[moved].layout
            append()
            layout = table._rows[moved].layout
            assert layout is not left and layout.codes[:len(left.codes)] == left.codes
            assert all(layout.positions[key] is p for key, p in left.positions.items())
        assert shared.users == 2 and list(table._layouts.values()) == [shared, layout]
        for s in states:
            data, picks = before[s]
            rows = table._rows[s]
            assert rows.layout is (layout if s == moved else shared)
            assert rows.data[:data.size].tobytes() == data.tobytes()
            assert [greedy_action(table, s, f) for f in (feas, other)] == picks
        assert table._rows[moved].data.size == before[moved][0].size + 2 * 7
        assert q_value(table, moved, (28, 28, 0)) == -9.0

    def test_live_layouts_stay_well_below_the_states(self):
        env = new_env(CFG, 8)
        table, _ = train_q(env, QHyper(), 40, 100, rng=np.random.default_rng(6))
        live = {id(rows.layout): rows.layout for rows in table._rows.values()}
        # the table keeps exactly the layouts some state holds
        assert sorted(map(id, table._layouts.values())) == sorted(live)
        assert all(table._layouts[layout.codes] is layout for layout in live.values())
        assert sum(layout.users for layout in live.values()) == len(table)
        # measured: 193 layouts for 1,738 states (0.11)
        assert len(live) < 0.25 * len(table)

    @pytest.mark.parametrize("round_trip", [lambda t: pickle.loads(pickle.dumps(t)),
                                            copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_table_survives_a_round_trip(self, round_trip):
        env = new_env(CFG, 8)
        table, _ = train_q(env, QHyper(), 10, 100, rng=np.random.default_rng(6))
        copied = round_trip(table)
        assert table_text(copied) == table_text(table)
        assert copied.nbytes == table.nbytes
        for rows in copied._rows.values():
            assert copied._layouts[rows.layout.codes] is rows.layout
        assert all(not p.flags.writeable for p in copied._arrays.values())
        for s in sorted(table._rows)[::7]:
            f = feasible_for(inv_f=s[0], inv_w=s[1], rp=s[2])
            assert greedy_action(copied, s, f) == greedy_action(table, s, f)
        # training goes on from the copy as from the original
        runs = []
        for t in (copied, table):
            _, history = train_q(new_env(CFG, 9), QHyper(), 5, 100,
                                 rng=np.random.default_rng(3), table=t)
            runs.append((history_bits(history), table_text(t), t.nbytes, len(t._layouts)))
        assert runs[0] == runs[1]

    def test_export_sorted_triples(self):
        table = QTable()
        table.set((2, 1, 0), (0, 5, 3), -7.25)
        table.set((1, 9, 2), (4, 0, 1), -1.5)
        buf = io.StringIO()
        export_table(table, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("state_if")
        assert lines[1] == "1 9 2 4 0 1 -1.5"
        assert lines[2] == "2 1 0 0 5 3 -7.25"


class TestTraining:
    def test_zero_episodes_untouched(self):
        env = new_env(CFG, 1)
        table, metrics = train_q(env, QHyper(), 0, 50)
        assert metrics == []
        assert len(table) == 0

    def test_seeded_reproducibility(self):
        runs = []
        for _ in range(2):
            env = new_env(CFG, 42)
            table, metrics = train_q(env, QHyper(), 8, 40,
                                     rng=np.random.default_rng(9))
            evals = evaluate_q(env, table, 3, 40)
            runs.append([(m.episode, m.total_reward, m.mean_inv_factory,
                          m.mean_inv_warehouse, m.mean_rp, m.stockout_units)
                         for m in metrics + evals])
        assert runs[0] == runs[1]

    def test_q_values_bounded_by_reward_bound(self):
        env = new_env(CFG, 3)
        hyper = QHyper()
        table, _ = train_q(env, hyper, 30, 100, rng=np.random.default_rng(2))
        r_max = CFG.eta_stockout * 31 + CFG.h_factory * 30 + CFG.h_warehouse * 30
        bound = r_max / (1 - hyper.gamma)
        worst = min((value for _, _, value in table.items_sorted()), default=0.0)
        assert abs(worst) <= bound
        assert np.isfinite(worst)

    def test_greedy_extraction_is_pure(self):
        env = new_env(CFG, 5)
        table, _ = train_q(env, QHyper(), 10, 60, rng=np.random.default_rng(4))
        state = (10, 10, 3)
        feas = feasible_for()
        first = greedy_action(table, state, feas)
        again = greedy_action(table, state, feas)
        assert first == again

    def test_memory_stays_far_below_dense_joint_bound(self):
        env = new_env(CFG, 8)
        table, _ = train_q(env, QHyper(), 40, 100, rng=np.random.default_rng(6))
        dense_joint = (31 * 31 * 7) ** 2 * 8   # full state x action product
        assert table.nbytes < 0.4 * dense_joint

    def test_metrics_fields(self):
        env = new_env(CFG, 11)
        _, metrics = train_q(env, QHyper(), 3, 25, rng=np.random.default_rng(1))
        assert [m.episode for m in metrics] == [0, 1, 2]
        for m in metrics:
            assert m.total_reward <= 0
            assert 0 <= m.mean_inv_factory <= 30
            assert 0 <= m.mean_rp <= 6
            assert m.wall_time > 0


def flat_index(feasible, shape):
    """The candidates' indices into a dense array of ``shape``, in order."""
    return np.array([np.ravel_multi_index(feasible.action_at(i), shape)
                     for i in range(feasible.size)], dtype=np.int64)


class DenseQTable:
    """Reference table: one dense (capacity + 1)^2 x (rp_max + 1) array per
    written state, read through ``flat_index``, with the greedy choice and
    the backup written out as plain argmax and max."""

    def __init__(self, capacity=30, rp_max=6):
        self.shape = (capacity + 1, capacity + 1, rp_max + 1)
        self.values = {}

    def __len__(self):
        return len(self.values)

    def peek(self, state, feasible):
        arr = self.values.get(state)
        return None if arr is None else arr.ravel()[flat_index(feasible, self.shape)]

    def get(self, state, action):
        arr = self.values.get(state)
        return 0.0 if arr is None else float(arr[action])

    def set(self, state, action, value):
        if state not in self.values:
            self.values[state] = np.zeros(self.shape)
        self.values[state][action] = value

    def greedy(self, state, feasible):
        values = self.peek(state, feasible)
        return feasible.action_at(0 if values is None else int(np.argmax(values)))

    def backup(self, s, a, r, s_next, feasible_next, hyper):
        q = self.get(s, a)
        values = self.peek(s_next, feasible_next)
        best_next = 0.0 if values is None else float(values.max())
        q_new = q + hyper.alpha * (r + hyper.gamma * best_next - q)
        self.set(s, a, q_new)
        return q_new

    def items_sorted(self):
        for state in sorted(self.values):
            arr = self.values[state]
            for flat in np.flatnonzero(arr.ravel()):
                action = np.unravel_index(flat, self.shape)
                yield state, tuple(int(i) for i in action), float(arr[action])


def bits(x):
    return struct.pack("<d", x)


STATES = [(0, 0, 0), (10, 20, 3), (30, 30, 6)]
VALUES = st.one_of(st.sampled_from([0.0, -0.0, -1.5, 2.0]),
                   st.floats(-1e6, 1e6, allow_nan=False))
BOX_ACTIONS = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 6))


@st.composite
def hand_built_sets(draw, min_pairs=1, max_pairs=6):
    """A FeasibleActions built by hand, pairs and rps in arbitrary order."""
    pairs = draw(st.lists(st.integers(0, 31 * 31 - 1), min_size=min_pairs,
                          max_size=max_pairs, unique=True))
    rps = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True))
    return FeasibleActions([divmod(p, 31) for p in pairs], rps, 31)


@st.composite
def from_state_sets(draw):
    state = EnvState(0, draw(st.integers(0, 30)), draw(st.integers(0, 30)), 10, 3)
    return FeasibleActions.from_state(state, draw(st.integers(0, 40)), CFG)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_store_matches_dense_reference(data):
    # the first set has at least 17 pairs: searching it grows a state's
    # row buffer past 4, 8 and 16 rows
    feasibles = [data.draw(hand_built_sets(min_pairs=17, max_pairs=40), "big set")]
    feasibles += data.draw(st.lists(st.one_of(hand_built_sets(), from_state_sets()),
                                    min_size=1, max_size=4), "sets")
    candidates = st.sampled_from(feasibles).flatmap(
        lambda f: st.integers(0, f.size - 1).map(f.action_at))
    actions = st.one_of(BOX_ACTIONS, candidates)
    hyper = QHyper(alpha=data.draw(st.sampled_from([0.8, 1.0, 0.3])),
                   gamma=data.draw(st.sampled_from([0.2, 1.0, 0.9])))
    compact, dense = QTable(), DenseQTable()
    for _ in range(data.draw(st.integers(1, 80), "ops")):
        op = data.draw(st.sampled_from(["set", "read", "greedy", "update"]))
        if op == "read":
            assert [(s, a, bits(v)) for s, a, v in compact.items_sorted()] == \
                [(s, a, bits(v)) for s, a, v in dense.items_sorted()]
            continue
        s = data.draw(st.sampled_from(STATES))
        if op == "greedy":
            feas = data.draw(st.sampled_from(feasibles))
            assert greedy_action(compact, s, feas) == dense.greedy(s, feas)
            continue
        a = data.draw(actions)
        if op == "set":
            value = data.draw(VALUES)
            compact.set(s, a, value)
            dense.set(s, a, value)
        else:
            r = data.draw(VALUES)
            s_next = data.draw(st.sampled_from(STATES))
            feas = data.draw(st.sampled_from(feasibles))
            assert bits(q_update(compact, s, a, r, s_next, feas, hyper)) == \
                bits(dense.backup(s, a, r, s_next, feas, hyper))
    # one backup down each write path of q_update: a new state, a new pair
    # in a known state, then an existing row whose state is also the next
    # state, so that searching the big set grows the buffer under the write
    s_new = (7, 8, 2)
    a_first, a_second = data.draw(st.lists(BOX_ACTIONS, min_size=2, max_size=2,
                                           unique_by=lambda a: a[:2]), "actions")
    for a, s_next, feas, path in ((a_first, STATES[1], feasibles[-1], "new state"),
                                  (a_second, STATES[1], feasibles[-1], "new pair"),
                                  (a_first, s_new, feasibles[0], "existing row")):
        rows = compact._rows.get(s_new)
        if rows is None:
            assert path == "new state"
        else:
            assert (a[0] * 31 + a[1] in rows.layout.codes) == (path == "existing row")
        r = data.draw(VALUES)
        assert bits(q_update(compact, s_new, a, r, s_next, feas, hyper)) == \
            bits(dense.backup(s_new, a, r, s_next, feas, hyper))
    assert len(compact._rows[s_new].data) > 4 * 7
    assert len(compact) == len(dense)
    texts = []
    for table in (compact, dense):
        buf = io.StringIO()
        export_table(table, buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


@st.composite
def overlapping_sets(draw):
    """Hand-built sets cut from one run of pairs, the contents overlapping
    each other: each set twice, as two instances, and once more with its
    reorder points in another order."""
    pool = draw(st.lists(st.integers(0, 31 * 31 - 1), min_size=2, max_size=12,
                         unique=True))
    rps = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True))
    sets = []
    for _ in range(draw(st.integers(2, 4))):
        lo = draw(st.integers(0, len(pool) - 1))
        pairs = [divmod(p, 31) for p in pool[lo:draw(st.integers(lo + 1, len(pool)))]]
        sets += [FeasibleActions(pairs, rps, 31), FeasibleActions(pairs, rps, 31),
                 FeasibleActions(pairs, draw(st.permutations(rps)), 31)]
    return sets


def gathered(table, s, feas):
    """The bits of the values ``best`` searches for ``feas`` in state ``s``."""
    table.best(s, feas)
    rows = table._rows[s]
    return rows.data[rows.layout.positions[feas.key]].tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_positions_match_dense_reference(data):
    # the first three states open alike (one write, then a search of each
    # set in one order), so their rows lie alike and they hold one layout,
    # with one array of positions per set; the last opens with one more
    # write, which may move its rows; later writes and searches append rows
    # to some states only
    feasibles = data.draw(overlapping_sets(), "sets")
    states = [(i, 30 - i, i % 7) for i in range(4)]
    compact, dense = QTable(), DenseQTable()
    opening = [(feasibles[0].action_at(0), -1.0)]
    for s in states:
        if s == states[-1]:
            opening.append((data.draw(BOX_ACTIONS, "last state's opening"), -2.0))
        for a, value in opening:
            compact.set(s, a, value)
            dense.set(s, a, value)
        for feas in feasibles:
            assert greedy_action(compact, s, feas) == dense.greedy(s, feas)
    layout = compact._rows[states[0]].layout
    assert all(compact._rows[s].layout is layout for s in states[:3])
    for feas in feasibles:
        shared = layout.positions[feas.key]
        assert all(compact._rows[s].layout.positions[feas.key] is shared
                   for s in states[:3])
    candidates = st.sampled_from(feasibles).flatmap(
        lambda f: st.integers(0, f.size - 1).map(f.action_at))
    actions = st.one_of(BOX_ACTIONS, candidates)
    hyper = QHyper(alpha=data.draw(st.sampled_from([0.8, 1.0, 0.3])),
                   gamma=data.draw(st.sampled_from([0.2, 1.0, 0.9])))
    for _ in range(data.draw(st.integers(1, 60), "ops")):
        op = data.draw(st.sampled_from(["set", "greedy", "update"]))
        s = data.draw(st.sampled_from(states))
        feas = data.draw(st.sampled_from(feasibles))
        if op == "greedy":
            assert greedy_action(compact, s, feas) == dense.greedy(s, feas)
            continue
        a = data.draw(actions)
        if op == "set":
            value = data.draw(VALUES)
            compact.set(s, a, value)
            dense.set(s, a, value)
        else:
            r = data.draw(VALUES)
            s_next = data.draw(st.sampled_from(states))
            assert bits(q_update(compact, s, a, r, s_next, feas, hyper)) == \
                bits(dense.backup(s, a, r, s_next, feas, hyper))
    for s in states:
        for feas in feasibles:
            assert gathered(compact, s, feas) == dense.peek(s, feas).tobytes()
            assert greedy_action(compact, s, feas) == dense.greedy(s, feas)
    assert table_text(compact) == table_text(dense)


# Reference copies of the loops before the per-run feasible-set memo and the
# greedy slot: every period builds its feasible sets through ``from_state``,
# and every greedy pick and backup gathers and searches afresh.


def ref_peek(table, state, feasible):
    rows = table._rows.get(state)
    if rows is None:
        return None
    positions = rows.layout.positions.get(feasible.key)
    if positions is None:
        positions = table._positions(rows, feasible)
    return rows.data[positions]


def ref_select_action(table, state, feasible, hyper, rng):
    size = feasible.size
    if size == 0:
        raise ValueError(f"empty feasible action set in state {state}")
    if rng.random() < hyper.epsilon:
        return feasible.action_at(int(rng.integers(size)))
    return ref_greedy_action(table, state, feasible)


def ref_greedy_action(table, state, feasible):
    if feasible.size == 0:
        raise ValueError(f"empty feasible action set in state {state}")
    values = ref_peek(table, state, feasible)
    if values is None:
        return feasible.action_at(0)
    return feasible.action_at(int(values.argmax()))


def ref_q_update(table, s, a, r, s_next, feasible_next, hyper):
    pair, rp = table._check_action(a)
    rows = table._rows.get(s)
    order = () if rows is None else rows.layout.codes
    offset = order.index(pair) * table._n_rp if pair in order else None
    q = 0.0 if offset is None else rows.data.item(offset + rp)
    values = ref_peek(table, s_next, feasible_next)
    best_next = 0.0 if values is None else values.item(values.argmax())
    q_new = q + hyper.alpha * (r + hyper.gamma * best_next - q)
    if offset is None:
        table.set(s, a, q_new)
    else:
        rows.data[offset + rp] = q_new
    return q_new


def ref_train_q(env, hyper, episodes, steps_per_episode, rng):
    table = QTable(env.config.capacity, env.config.rp_max, env.config.rp_min)
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        state = env.reset()
        s = state_key(state)
        feasible = FeasibleActions.from_state(state, 0, env.config)
        stats = EpisodeStats()
        for _ in range(steps_per_episode):
            a = ref_select_action(table, s, feasible, hyper, rng)
            outcome = env.step(ActionVector(*a))
            s_next = state_key(outcome.next_state)
            feasible_next = FeasibleActions.from_state(
                outcome.next_state, outcome.incoming.to_warehouse, env.config)
            ref_q_update(table, s, a, outcome.reward, s_next, feasible_next, hyper)
            stats.update(outcome)
            s, feasible = s_next, feasible_next
        history.append(stats.to_metrics(episode, time.perf_counter() - tic))
    return table, history


def ref_evaluate_q(env, table, episodes, steps_per_episode):
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        state = env.reset()
        s = state_key(state)
        feasible = FeasibleActions.from_state(state, 0, env.config)
        stats = EpisodeStats()
        for _ in range(steps_per_episode):
            a = ref_greedy_action(table, s, feasible)
            outcome = env.step(ActionVector(*a))
            s = state_key(outcome.next_state)
            feasible = FeasibleActions.from_state(
                outcome.next_state, outcome.incoming.to_warehouse, env.config)
            stats.update(outcome)
        history.append(stats.to_metrics(episode, time.perf_counter() - tic))
    return history


def history_bits(history):
    """Every field but the wall time, floats by their exact repr."""
    return [(m.episode, repr(m.total_reward), repr(m.mean_inv_factory),
             repr(m.mean_inv_warehouse), repr(m.mean_rp), m.stockout_units)
            for m in history]


def table_text(table):
    buf = io.StringIO()
    export_table(table, buf)
    return buf.getvalue()


@st.composite
def small_chains(draw):
    capacity = draw(st.integers(3, 30))
    rp_max = draw(st.integers(0, min(capacity, 8)))
    rp_min = draw(st.integers(0, rp_max))
    return ChainConfig.for_case(draw(st.sampled_from([1, 2])), capacity=capacity,
                                rp_min=rp_min, rp_max=rp_max)


@settings(max_examples=40, deadline=None)
@given(config=small_chains(),
       epsilon=st.sampled_from([1.0, 0.5, 0.05, 1e-12]),
       alpha=st.sampled_from([0.8, 1.0, 0.3]),
       gamma=st.sampled_from([0.2, 1.0, 0.9]),
       episodes=st.integers(1, 6), steps=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_memoised_loops_match_reference_loops(config, epsilon, alpha, gamma,
                                              episodes, steps, seed):
    hyper = QHyper(alpha=alpha, gamma=gamma, epsilon=epsilon)
    runs = []
    for train, evaluate in ((train_q, evaluate_q), (ref_train_q, ref_evaluate_q)):
        env, rng = new_env(config, seed), np.random.default_rng(seed + 1)
        table, history = train(env, hyper, episodes, steps, rng=rng)
        history += evaluate(env, table, 2, steps)
        runs.append((history_bits(history), table_text(table),
                     env.rng.bit_generator.state, rng.bit_generator.state))
    assert runs[0] == runs[1]


def written_table(s, feas, values):
    """A table whose state ``s`` holds ``values`` at ``feas``'s first candidates."""
    table = QTable()
    for i, v in enumerate(values):
        table.set(s, feas.action_at(i), v)
    return table


class TestGreedySlot:
    S = (10, 10, 4)

    def test_slot_holds_the_searched_set_until_a_write(self):
        feas = feasible_for()
        table = written_table(self.S, feas, [-3.0, -1.0, -2.0])
        assert greedy_action(table, self.S, feas) == feas.action_at(3)  # unwritten 0.0
        slot = table._rows[self.S].greedy
        assert slot[0] is feas and slot[1:] == (3, 0.0)
        assert table.best(self.S, feas) is slot

    def test_set_clears_the_slot(self):
        feas = feasible_for()
        table = written_table(self.S, feas, [-3.0, -1.0])
        assert greedy_action(table, self.S, feas) == feas.action_at(2)
        table.set(self.S, feas.action_at(5), 4.0)
        assert table._rows[self.S].greedy is None
        assert greedy_action(table, self.S, feas) == feas.action_at(5)

    def test_in_place_backup_into_the_searched_state_clears_the_slot(self):
        # s == s_next: the backup searches the state, sets the slot from the
        # old values, then writes into the same rows
        feas = feasible_for()
        table = written_table(self.S, feas, [-3.0, -1.0])
        assert greedy_action(table, self.S, feas) == feas.action_at(2)
        q_new = q_update(table, self.S, feas.action_at(0), 50.0, self.S, feas, QHyper())
        assert q_new > 0
        assert table._rows[self.S].greedy is None
        assert greedy_action(table, self.S, feas) == feas.action_at(0)

    def test_backup_adding_a_pair_clears_the_slot(self):
        feas = feasible_for()
        table = written_table(self.S, feas, [-3.0])
        assert greedy_action(table, self.S, feas) == feas.action_at(1)
        outside = (29, 29, 0)   # not a candidate of feas: a new row
        assert (29 * 31 + 29) not in table._rows[self.S].layout.codes
        q_update(table, self.S, outside, -7.0, (1, 2, 3), feas, QHyper())
        assert table._rows[self.S].greedy is None
        assert q_value(table, self.S, outside) == pytest.approx(-5.6)
        # another backup writes the pair's new row in place, now a candidate
        wider = FeasibleActions([*feas.pairs, outside[:2]], feas.rps, 31)
        assert greedy_action(table, self.S, wider) == feas.action_at(1)
        q_update(table, self.S, outside, 90.0, (1, 2, 3), feas, QHyper())
        assert greedy_action(table, self.S, wider) == outside

    def test_backup_adding_a_state_is_seen_by_greedy(self):
        feas = feasible_for()
        table = written_table(self.S, feas, [-3.0])
        s_new = (3, 4, 5)
        assert greedy_action(table, s_new, feas) == feas.action_at(0)
        q_update(table, s_new, feas.action_at(4), 9.0, self.S, feas, QHyper())
        assert greedy_action(table, s_new, feas) == feas.action_at(4)
        # the backup searched S for its maximum, so S holds a slot for feas
        assert table._rows[self.S].greedy[0] is feas

    def test_hand_built_set_never_reuses_another_sets_slot(self):
        table = QTable()
        s = (1, 1, 1)
        table.set(s, (0, 0, 0), -1.0)
        table.set(s, (0, 1, 0), -2.0)
        first = FeasibleActions([(0, 0), (0, 1)], [0], 31)   # (0,0,0), (0,1,0)
        same_content = FeasibleActions([(0, 0), (0, 1)], [0], 31)
        only_second = FeasibleActions([(0, 1)], [0], 31)
        assert greedy_action(table, s, first) == (0, 0, 0)
        assert greedy_action(table, s, only_second) == (0, 1, 0)
        assert table._rows[s].greedy[0] is only_second
        assert greedy_action(table, s, same_content) == (0, 0, 0)
        assert table._rows[s].greedy[0] is same_content
        assert table.best(s, first) == (first, 0, -1.0)


class TestFeasibleMemo:
    def test_from_state_runs_once_per_distinct_triple_per_call(self, monkeypatch):
        built = []
        from_state = FeasibleActions.from_state.__func__

        def counting(cls, state, incoming_order, config):
            built.append((state.inv_factory, state.inv_warehouse, incoming_order))
            return from_state(cls, state, incoming_order, config)
        monkeypatch.setattr(FeasibleActions, "from_state", classmethod(counting))

        env = new_env(ChainConfig.for_case(1, capacity=8, rp_max=3), 4)
        seen = []
        step, reset = env.step, env.reset

        def seen_step(action):
            out = step(action)
            seen.append((out.next_state.inv_factory, out.next_state.inv_warehouse,
                         out.incoming.to_warehouse))
            return out

        def seen_reset():
            state = reset()
            seen.append((state.inv_factory, state.inv_warehouse, 0))
            return state
        monkeypatch.setattr(env, "step", seen_step)
        monkeypatch.setattr(env, "reset", seen_reset)

        table, _ = train_q(env, QHyper(), 20, 50, rng=np.random.default_rng(5))
        assert len(seen) == 20 * 51
        assert len(built) == len(set(built)) and set(built) == set(seen)
        for _ in range(2):   # each call keeps its own memo
            built.clear()
            seen.clear()
            evaluate_q(env, table, 3, 50)
            assert len(built) == len(set(built)) and set(built) == set(seen)

    def test_evaluation_reuses_the_positions_training_built(self, monkeypatch):
        # positions are cached per (layout, set content), and a state that
        # appends rows takes them to its new layout: evaluation builds its own
        # sets, and adds no positions for a pair training already searched
        built, looked_up = [], []
        positions, best = QTable._positions, QTable.best

        def recording_positions(self, rows, feasible):
            built.append((id(rows), feasible.pairs, feasible.rps))
            return positions(self, rows, feasible)

        def recording_best(self, state, feasible):
            rows = self._rows.get(state)
            if rows is not None:
                looked_up.append((id(rows), feasible.pairs, feasible.rps))
            return best(self, state, feasible)
        monkeypatch.setattr(QTable, "_positions", recording_positions)
        monkeypatch.setattr(QTable, "best", recording_best)

        env = new_env(ChainConfig.for_case(1, capacity=8, rp_max=3), 3)
        table, _ = train_q(env, QHyper(), 30, 100, rng=np.random.default_rng(2))
        trained = set(built)
        assert len(trained) == len(built)
        built.clear()
        looked_up.clear()
        evaluate_q(env, table, 5, 100)
        assert not set(built) & trained
        assert len(set(looked_up) & trained) > 10
