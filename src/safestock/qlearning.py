"""Tabular Q-learning over the joint chain state.

The state is the integer triple (inv_factory, inv_warehouse, rp) and the
action the integer triple (q_factory, q_warehouse, rp_next) restricted to
the constraint-filtered feasible box.  Unwritten entries read as zero,
which is optimistic since every reward is <= 0.

The table holds only the rows that training touches.  A visited state owns
one float64 buffer with one row of rp_max + 1 values per
(q_factory, q_warehouse) pair it was written or searched at, and no spare
room, plus a reference to the row layout it shares with every state whose
rows were added in the same order.  A state costs about 0.8 KB of heap,
60% of it values, instead of a dense (capacity + 1)^2 x (rp_max + 1) array
(54 KB at capacity 30).  A feasible set is a small value, its
(q_factory, q_warehouse) pairs crossed with its reorder points.  Greedy
search and the TD backup gather a set's candidates through buffer positions
that each layout caches per set content; a state that appends rows takes
them along to its new layout, so evaluation reuses the positions training
built.  The positions arrays are interned by content and read-only.  A
state's greedy slot keeps the argmax of the last set searched there until
the next write into it, so the greedy pick at t + 1 reuses the backup's
search at t.

``train_q`` and ``evaluate_q`` run ``metrics.rollout`` with one policy
(``_q_policy``): epsilon-greedy with a backup per period when training,
greedy and frozen when evaluating.  It builds each feasible set
(``_feasible_memo``) and each ``ActionVector`` once per call; nothing
outlives the call but the table.

Training's exploration draws come from blocks of 1024 raw words of the
caller's PCG64 generator (``_DrawBlock``), with the bits and the stream
position ``rng.random()`` and ``rng.integers(n)`` would give: numpy's two
rules are computed in Python on the words, which costs a fraction of a
numpy call.  ``train_q`` therefore takes only a PCG64 ``Generator``.
"""

from array import array
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from operator import itemgetter, length_hint

import numpy as np

from .env import ActionVector, feasible_bounds
from .metrics import rollout

# Order-quantity rungs the planner considers (intersected with the clip
# box; the box's own lower bound is always included).  The full unit box
# holds ~2800 joint actions per state, far more than a zero-initialised
# table can ever exhaust within the training budget, so the planner
# searches this coarser ladder instead; clipping still allows any integer.
QUANTITY_RUNGS = (0, 5, 10, 15)


@dataclass(frozen=True)
class QHyper:
    alpha: float = 0.8
    gamma: float = 0.2
    epsilon: float = 0.5

    def __post_init__(self):
        for name in ("alpha", "gamma", "epsilon"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name}={v} must lie in (0, 1]")


# An EnvState's (inv_factory, inv_warehouse, rp), the table's state key.
state_key = itemgetter(1, 2, 4)


def _ladder(lo, hi):
    return [lo] + [q for q in QUANTITY_RUNGS if lo < q <= hi]


class FeasibleActions:
    """Candidate integer actions for a state: pairs crossed with reorder points.

    ``pairs`` holds distinct (q_factory, q_warehouse) tuples and ``rps`` the
    reorder points, each in the caller's order; candidate ``i`` is
    ``(*pairs[i // len(rps)], rps[i % len(rps)])``.  ``from_state`` sorts its
    pairs, so its candidates run in lexicographic order and position 0 is the
    smallest.  ``n_w`` is the box's width per quantity (capacity + 1).
    ``n_rp`` and ``size`` are the counts of reorder points and of candidates,
    stored as slots because every period reads them; a set is not changed
    after it is built.

    ``key`` is the set's content as bytes, whose hash Python computes once
    (a tuple of tuples would be hashed afresh at every lookup): equal sets
    share their positions in a Q table whoever built them.
    """

    __slots__ = ("pairs", "rps", "n_w", "n_rp", "size", "key")

    def __init__(self, pairs, rps, n_w):
        self.pairs = tuple(pairs)
        self.rps = tuple(rps)
        self.n_w = n_w
        self.n_rp = len(self.rps)
        self.size = len(self.pairs) * self.n_rp
        self.key = array("q", [n_w, self.n_rp, *self.rps,
                               *chain.from_iterable(self.pairs)]).tobytes()

    @classmethod
    def from_state(cls, state, incoming_order, config):
        """The planner's ladder (``QUANTITY_RUNGS``) within the clip box."""
        cap = config.capacity
        inv_f = state.inv_factory
        lo_w, hi_w, hi_f = feasible_bounds(state, incoming_order, config)
        lo_w = min(lo_w, cap)
        hi_w = max(hi_w, lo_w)
        pairs = sorted((q_f, q_w) for q_w in _ladder(lo_w, hi_w)
                       for q_f in _ladder(max(0, q_w - inv_f), hi_f))
        return cls(pairs, range(config.rp_min, config.rp_max + 1), cap + 1)

    def action_at(self, position):
        pair, rp = divmod(position, self.n_rp)
        q_f, q_w = self.pairs[pair]
        return q_f, q_w, self.rps[rp]


class _Layout:
    """One row order, shared by every state whose rows were added in it.

    ``codes`` holds the pair codes in row order and never changes: the row
    of ``codes[i]`` starts at offset ``i * (rp_max + 1)`` of a state's
    buffer.  ``positions`` maps a feasible set's key to the positions of
    its candidates in any such buffer, an array the table interns.
    ``users`` counts the states that hold the layout.
    """

    __slots__ = ("codes", "positions", "users")

    def __init__(self, codes):
        self.codes = codes
        self.positions = {}   # FeasibleActions.key -> interned candidate positions
        self.users = 0


class _StateRows:
    """One state's value rows, end to end in one buffer, and their layout.

    ``data`` holds exactly one row of ``rp_max + 1`` values per pair code
    in ``layout.codes``.
    """

    __slots__ = ("data", "layout", "greedy")

    def __init__(self, layout):
        self.data = np.zeros(0)
        self.layout = layout
        self.greedy = None    # (feasible, argmax, max); every write clears it


class QTable:
    """Sparse map from visited states to compact rows of action values.

    A state gets its rows on its first ``set``.  Each row holds the
    ``rp_max + 1`` values of one (q_factory, q_warehouse) pair and is
    zero-filled when the pair is first written or searched; a state's
    buffer grows to exactly the rows it holds.  What many states share is
    held once per table.  A row order is one ``_Layout``, interned by its
    pair codes while a state holds it: states whose rows were added in the
    same order hold one layout, and with it one cache of candidate
    positions per feasible set.  A state that appends rows moves to the
    layout of its new order, which takes over the positions of the old one,
    since appending moves no row.  The positions arrays are interned by
    content (the set's row offsets and reorder points) and read-only, and
    each pair code is one int object of ``_codes``.  ``best`` searches a
    feasible set's values, gathered through those positions, and keeps the
    result in the state's greedy slot until ``set`` or ``q_update`` writes
    there.
    Unwritten values read as 0.0; ``shape`` is the dense action box.
    """

    def __init__(self, capacity=30, rp_max=6, rp_min=0):
        self.capacity = capacity
        self.rp_min = rp_min
        self.rp_max = rp_max
        self.shape = (capacity + 1, capacity + 1, rp_max + 1)
        self._n_rp = rp_max + 1
        self._rows = {}
        self._codes = tuple(range((capacity + 1) ** 2))   # pair code -> shared int
        self._layouts = {}   # row order (pair codes) -> _Layout some state holds
        self._arrays = {}    # (row offsets, rps) -> read-only positions array

    def __len__(self):
        return len(self._rows)

    def __setstate__(self, state):
        # pickle and deepcopy rebuild arrays writeable
        self.__dict__.update(state)
        for positions in self._arrays.values():
            positions.flags.writeable = False

    def best(self, state, feasible):
        """``(feasible, first argmax position, maximum)``, searched afresh
        unless the slot holds this very set; None for an unwritten state."""
        rows = self._rows.get(state)
        if rows is None:
            return None
        slot = rows.greedy
        if slot is None or slot[0] is not feasible:
            positions = rows.layout.positions.get(feasible.key)
            if positions is None:
                positions = self._positions(rows, feasible)
            values = rows.data[positions]
            # values[argmax] equals max() at a third of its cost on these
            # short arrays, except that a tie of 0.0 and -0.0 may pick either
            # zero.  That sign never reaches q_update's q_new: a nonzero r or
            # q absorbs it, and with r and q both zeros q_new is +0.0.
            i = values.argmax()
            slot = rows.greedy = (feasible, i, values.item(i))
        return slot

    def _positions(self, rows, feasible):
        n_w, pairs, rps = feasible.n_w, feasible.pairs, feasible.rps
        if (n_w != self.capacity + 1
                or not all(0 <= q < n_w for pair in pairs for q in pair)
                or not all(0 <= rp <= self.rp_max for rp in rps)):
            raise ValueError(
                f"feasible set {pairs} x {rps} in a {n_w} x {n_w} box lies "
                f"outside the table's box {self.shape}")
        codes = [self._codes[q_f * n_w + q_w] for q_f, q_w in pairs]
        order = rows.layout.codes
        missing = [code for code in dict.fromkeys(codes) if code not in order]
        if missing:
            self._add_rows(rows, missing)
        layout = rows.layout
        row_offsets = tuple(layout.codes.index(code) * self._n_rp for code in codes)
        positions = self._arrays.get((row_offsets, rps))
        if positions is None:
            positions = (np.array(row_offsets, dtype=np.int64)[:, None]
                         + np.array(rps, dtype=np.int64)).ravel()
            positions.flags.writeable = False
            self._arrays[row_offsets, rps] = positions
        layout.positions[feasible.key] = positions
        return positions

    def _add_rows(self, rows, codes):
        """Append a zero row to ``rows`` for each pair code in ``codes``, none
        of which has a row yet, and move the state to the layout of its new
        order; returns the first new row's offset.

        This replaces ``rows.data``, so index it only after this returns.
        """
        start = rows.data.size
        data = np.zeros(start + len(codes) * self._n_rp)
        data[:start] = rows.data
        rows.data = data
        old = rows.layout
        rows.layout = self._hold(old.codes + tuple(codes))
        rows.layout.positions.update(old.positions)
        old.users -= 1
        if not old.users:
            del self._layouts[old.codes]
        return start

    def _hold(self, order):
        """The layout of row order ``order``, counted as held once more."""
        layout = self._layouts.get(order)
        if layout is None:
            layout = self._layouts[order] = _Layout(order)
        layout.users += 1
        return layout

    def _check_state(self, state):
        cap = self.capacity
        if not (isinstance(state, tuple) and len(state) == 3
                and all(isinstance(s, Integral) for s in state)
                and 0 <= state[0] <= cap and 0 <= state[1] <= cap
                and self.rp_min <= state[2] <= self.rp_max):
            raise ValueError(
                f"state {state!r} is not an (inv_factory, inv_warehouse, rp) "
                f"triple of integers within the bounds [0, {cap}]^2 x "
                f"[{self.rp_min}, {self.rp_max}]")

    def _check_action(self, action):
        q_f, q_w, rp = action
        cap = self.capacity
        if not (0 <= q_f <= cap and 0 <= q_w <= cap and 0 <= rp <= self.rp_max):
            raise IndexError(f"action {action} outside the action box {self.shape}")
        return q_f * (cap + 1) + q_w, rp

    def set(self, state, action, value):
        pair, rp = self._check_action(action)
        rows = self._rows.get(state)
        if rows is None:
            self._check_state(state)
            rows = self._rows[state] = _StateRows(self._hold(()))
        order = rows.layout.codes
        if pair in order:
            offset = order.index(pair) * self._n_rp
        else:
            offset = self._add_rows(rows, (self._codes[pair],))
        rows.data[offset + rp] = value   # data is read after _add_rows(), which replaces it
        rows.greedy = None

    @property
    def nbytes(self):
        """Bytes of the states' value buffers plus the interned positions
        arrays, each counted once however many states share it."""
        return (sum(rows.data.nbytes for rows in self._rows.values())
                + sum(positions.nbytes for positions in self._arrays.values()))

    def items_sorted(self):
        """Nonzero (state, action, value) triples in sorted order."""
        n_w, n_rp = self.capacity + 1, self._n_rp
        for state in sorted(self._rows):
            rows = self._rows[state]
            for i, pair in sorted(enumerate(rows.layout.codes), key=itemgetter(1)):
                row = rows.data[i * n_rp:(i + 1) * n_rp]
                q_f, q_w = divmod(int(pair), n_w)
                for rp in np.flatnonzero(row):
                    yield state, (q_f, q_w, int(rp)), float(row[rp])


def select_action(table, state, feasible, hyper, rng):
    """Epsilon-greedy draw over the feasible set, greedy ties to lowest index.

    ``rng`` is any object with numpy's ``random()`` and ``integers(n)``: a
    numpy ``Generator``, or in ``train_q`` the ``_DrawBlock`` over one.
    """
    size = feasible.size
    if size == 0:
        raise ValueError(f"empty feasible action set in state {state}")
    if rng.random() < hyper.epsilon:
        return feasible.action_at(int(rng.integers(size)))
    return greedy_action(table, state, feasible)


def greedy_action(table, state, feasible):
    """Argmax of Q over the feasible set; unseen entries count as zero."""
    if feasible.size == 0:
        raise ValueError(f"empty feasible action set in state {state}")
    best = table.best(state, feasible)
    return feasible.action_at(0 if best is None else best[1])


def q_update(table, s, a, r, s_next, feasible_next, hyper):
    """One off-policy backup; returns the new Q(s, a).

    Q(s, a) is looked up once for both its read and its write.  A row that
    exists is written in place and its greedy slot cleared; a new state or
    pair goes through ``QTable.set``, which checks the state and adds a row.
    The action box is checked inline; ``QTable._check_action`` is called
    only to raise its IndexError.
    """
    q_f, q_w, rp = a
    cap = table.capacity
    if not (0 <= q_f <= cap and 0 <= q_w <= cap and 0 <= rp <= table.rp_max):
        table._check_action(a)   # raises
    pair = q_f * (cap + 1) + q_w
    rows = table._rows.get(s)
    offset = None
    if rows is not None:
        order = rows.layout.codes
        if pair in order:
            offset = order.index(pair) * table._n_rp
    q = 0.0 if offset is None else rows.data.item(offset + rp)
    best = table.best(s_next, feasible_next)
    best_next = 0.0 if best is None else best[2]
    q_new = q + hyper.alpha * (r + hyper.gamma * best_next - q)
    if offset is None:
        table.set(s, a, q_new)
    else:
        # best may have grown this state's buffer, so read data only now
        rows.data[offset + rp] = q_new
        rows.greedy = None
    return q_new


def _feasible_memo(config):
    """``FeasibleActions.from_state`` for one run of ``config``, memoised on
    the only inputs it reads that vary within a run.  Equal sets come back
    as one instance, which saves memory and lets a state's greedy slot
    match the set by identity."""
    memo = {}
    by_content = {}   # FeasibleActions.key -> the run's set with that content

    def feasible_for(state, incoming_order):
        key = (state.inv_factory, state.inv_warehouse, incoming_order)
        feasible = memo.get(key)
        if feasible is None:
            feasible = FeasibleActions.from_state(state, incoming_order, config)
            feasible = memo[key] = by_content.setdefault(feasible.key, feasible)
        return feasible
    return feasible_for


def _q_policy(env, table, hyper=None, rng=None):
    """``rollout``'s policy over ``table``: epsilon-greedy with one
    ``q_update`` per period given ``hyper``, else greedy and frozen.

    Feasible sets (``_feasible_memo``) and ``ActionVector``s are built once
    per call.
    """
    feasible_for = _feasible_memo(env.config)
    actions = {}   # action tuple -> its ActionVector

    def start(state):
        s = state_key(state)
        feasible = feasible_for(state, 0)
        a = None

        def act():
            nonlocal a
            if hyper is None:
                a = greedy_action(table, s, feasible)
            else:
                a = select_action(table, s, feasible, hyper, rng)
            action = actions.get(a)
            if action is None:
                action = actions[a] = ActionVector(*a)
            return action

        def observe(outcome):
            nonlocal s, feasible
            s_next = state_key(outcome.next_state)
            feasible_next = feasible_for(outcome.next_state, outcome.incoming.to_warehouse)
            if hyper is not None:
                q_update(table, s, a, outcome.reward, s_next, feasible_next, hyper)
            s, feasible = s_next, feasible_next
        return act, observe
    return start


# Raw words a _DrawBlock takes from its generator at a time.
_BLOCK_WORDS = 1024


class _DrawBlock:
    """``random()`` and ``integers(n)`` of a PCG64 ``Generator``, served from
    blocks of its raw 64-bit words with the same bits numpy returns.

    ``random()`` is numpy's ``next_double``: the word's top 53 bits times
    2**-53.  ``integers(n)`` is numpy's ``buffered_bounded_lemire_uint32``
    for 1 <= n <= 2**32 (Lemire 2019) over PCG64's 32-bit stream, which
    serves a word's low half and keeps its high half for the next 32-bit
    draw (``has_uint32`` and ``uinteger`` in the generator's state).
    ``random()`` never touches that half.

    While a block is open it owns the generator, which stands past the
    words drawn so far.  ``close`` puts the generator where per-call draws
    would have left it: the current block's starting state advanced by the
    words used, with the 32-bit half written back.
    """

    __slots__ = ("_bitgen", "_start", "_words", "_it", "_has_uint32", "_uinteger")

    def __init__(self, rng):
        bitgen = getattr(rng, "bit_generator", None)
        if type(rng) is not np.random.Generator or type(bitgen) is not np.random.PCG64:
            over = (f"a Generator over {type(bitgen).__name__}"
                    if type(rng) is np.random.Generator else type(rng).__name__)
            raise ValueError(
                f"train_q draws from a numpy Generator over PCG64 "
                f"(np.random.default_rng); got {over}")
        self._bitgen = bitgen
        self._start = state = bitgen.state
        self._has_uint32 = state["has_uint32"]
        self._uinteger = state["uinteger"]
        self._words = ()
        self._it = iter(self._words)

    def _refill(self):
        """Draw the next block and return its first word."""
        bitgen = self._bitgen
        start = bitgen.state
        words = bitgen.random_raw(_BLOCK_WORDS).tolist()
        self._start, self._words, self._it = start, words, iter(words)
        return next(self._it)

    def random(self):
        try:
            word = next(self._it)
        except StopIteration:
            word = self._refill()
        return (word >> 11) * 1.1102230246251565e-16   # 2**-53

    def integers(self, n):
        if not 1 < n <= 0x100000000:
            if n == 1:
                return 0
            raise ValueError(f"integers({n}) needs 1 <= n <= 2**32")
        while True:
            if self._has_uint32:
                self._has_uint32 = 0
                u = self._uinteger
            else:
                try:
                    word = next(self._it)
                except StopIteration:
                    word = self._refill()
                self._has_uint32 = 1
                self._uinteger = word >> 32
                u = word & 0xFFFFFFFF
            m = u * n
            leftover = m & 0xFFFFFFFF
            # numpy computes the threshold only below n, its upper bound
            if leftover >= n or leftover >= (0x100000000 - n) % n:
                return m >> 32

    def close(self):
        bitgen = self._bitgen
        used = len(self._words) - length_hint(self._it)
        bitgen.state = self._start
        bitgen.advance(used)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = self._has_uint32, self._uinteger
        bitgen.state = state


def train_q(env, hyper, episodes, steps_per_episode, rng=None, table=None):
    """Run the epsilon-greedy training loop; returns (table, metrics).

    ``rng`` must be a numpy ``Generator`` over PCG64, as
    ``np.random.default_rng`` makes (the default is ``default_rng(0)``); any
    other raises ValueError before a draw, and so does ``env``'s own
    generator.  Training draws its exploration from blocks of the
    generator's raw words (``_DrawBlock``) with the bits ``rng.random()``
    and ``rng.integers(n)`` would return, and hands the generator back
    where those per-call draws would have left it, on return and on an
    exception alike.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    block = _DrawBlock(rng)
    if rng.bit_generator is env.rng.bit_generator:
        raise ValueError("train_q cannot draw from the generator env.step draws from")
    if table is None:
        table = QTable(env.config.capacity, env.config.rp_max, env.config.rp_min)
    try:
        history = rollout(env, episodes, steps_per_episode,
                          _q_policy(env, table, hyper, block))
    finally:
        block.close()
    return table, history


def evaluate_q(env, table, episodes, steps_per_episode):
    """Greedy rollouts with the frozen table; no updates, no exploration."""
    return rollout(env, episodes, steps_per_episode, _q_policy(env, table))


def export_table(table, fh):
    """Write the nonzero table entries as sorted plain-text triples."""
    fh.write("state_if state_iw state_rp q_factory q_warehouse rp_next value\n")
    for state, action, value in table.items_sorted():
        fh.write(" ".join(str(v) for v in (*state, *action)) + f" {value!r}\n")
