import concurrent.futures
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from safestock import actor_critic, multi_agent
from safestock.actor_critic import load_agent, make_a2c_agent, save_agent
from safestock.env import ChainConfig, ConfigurationError, Env
from safestock.harness import (
    GRID_CASTERS,
    GRID_HEADER,
    METRICS_CASTERS,
    METRICS_HEADER,
    SUMMARY_CASTERS,
    SUMMARY_HEADER,
    TIMING_CASTERS,
    TIMING_HEADER,
    TIMING_SUMMARY_CASTERS,
    TIMING_SUMMARY_HEADER,
    ExperimentConfig,
    _ENV_KEYS,
    _RUN_KEYS,
    _read_kv_file,
    _read_metrics_csv,
    _read_rows,
    _write_rows,
    _write_run_config,
    experiment_config_from_file,
    export_policy_grid,
    read_policy_grid,
    run_experiment,
    run_one_seed,
    seed_means,
    summarize,
)
from safestock.metrics import RunMetrics, compute_ci
from safestock.multi_agent import make_maa2c_agent

# a run_config.txt written while the recipe's values were settings
OLD_RUN_CONFIG = Path(__file__).parent / "data" / "run_config_v1.txt"


def tiny_config(tmp_path, algo="q", **kw):
    defaults = dict(algorithm=algo, case=1, episodes=3, steps_per_episode=25,
                    num_seeds=2, base_seed=5, eval_episodes=4,
                    out_dir=str(tmp_path / f"run_{algo}"))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_chain_checked_on_construction(self):
        with pytest.raises(ConfigurationError, match="T_factory=0 must be >= 1") as info:
            ExperimentConfig(algorithm="q", case=1, env_overrides={"T_factory": 0})
        assert info.value.fields == ("T_factory",)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            ExperimentConfig(algorithm="dqn", case=1)

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="case"):
            ExperimentConfig(algorithm="q", case=3)

    def test_paper_protocol_defaults(self):
        config = ExperimentConfig(algorithm="q", case=1)
        assert config.episodes == 3000
        assert config.steps_per_episode == 1000
        assert config.num_seeds == 10
        assert ExperimentConfig(algorithm="a2c", case=1).episodes == 1000

    def test_env_overrides_reach_chain_config(self):
        config = ExperimentConfig(algorithm="q", case=2,
                                  env_overrides={"capacity": 40, "rp_max": 8})
        chain = config.chain_config()
        assert chain.capacity == 40 and chain.rp_max == 8
        assert chain.h_warehouse == 1000.0


class TestRunExperiment:
    def test_files_and_summary(self, tmp_path):
        config = tiny_config(tmp_path)
        summary = run_experiment(config)
        out = tmp_path / "run_q"
        for k in range(2):
            assert (out / f"metrics_seed{k:02d}.csv").exists()
            assert (out / f"timing_seed{k:02d}.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "timing_summary.csv").exists()
        assert summary.num_seeds == 2
        for metric in ("rp", "inv_warehouse", "inv_factory",
                       "stockout_units", "plateau_episode"):
            mean, low, high = summary.row(metric)
            assert low <= mean <= high

    def test_summary_targets_follow_the_run_chain(self, tmp_path):
        # a cheap factory moves case 1's optimum from (6, 0, 13) to (6, 13, 0)
        runs = {"default": {}, "cheap_factory": {"h_factory": 1.0}}
        expected = {"default": ("6", "0", "13"), "cheap_factory": ("6", "13", "0")}
        for name, overrides in runs.items():
            out = tmp_path / name
            run_experiment(tiny_config(tmp_path, num_seeds=1, out_dir=str(out),
                                       env_overrides=overrides))
            # summarize rebuilds the chain from run_config.txt alone
            assert summarize(out).targets == tuple(
                float(v) for v in expected[name])
            rows = {line.split()[0]: line.split()[-1]
                    for line in (out / "summary.txt").read_text().splitlines()[2:]}
            assert (rows["rp"], rows["inv_factory"], rows["inv_warehouse"]) \
                == expected[name]

    def test_metrics_csv_schema_and_phases(self, tmp_path):
        run_experiment(tiny_config(tmp_path))
        lines = (tmp_path / "run_q" / "metrics_seed00.csv").read_text().splitlines()
        assert lines[0] == ("episode,phase,total_reward,mean_inv_factory,"
                            "mean_inv_warehouse,mean_rp,stockout_units")
        phases = [line.split(",")[1] for line in lines[1:]]
        assert phases == ["train"] * 3 + ["eval"] * 4
        assert "wall_time" not in lines[0]

    def test_training_metrics_are_byte_identical_across_runs(self, tmp_path):
        a = tiny_config(tmp_path / "a")
        b = tiny_config(tmp_path / "b")
        run_experiment(a)
        run_experiment(b)
        for k in range(2):
            name = f"metrics_seed{k:02d}.csv"
            assert (tmp_path / "a" / "run_q" / name).read_bytes() == \
                (tmp_path / "b" / "run_q" / name).read_bytes()
        assert (tmp_path / "a" / "run_q" / "summary.csv").read_bytes() == \
            (tmp_path / "b" / "run_q" / "summary.csv").read_bytes()

    def test_parallel_workers_produce_identical_results(self, tmp_path):
        seq = tiny_config(tmp_path / "seq", algo="a2c", episodes=2, num_seeds=2)
        par = tiny_config(tmp_path / "par", algo="a2c", episodes=2, num_seeds=2)
        run_experiment(seq, workers=1)
        run_experiment(par, workers=2)
        for k in range(2):
            name = f"metrics_seed{k:02d}.csv"
            assert (tmp_path / "seq" / "run_a2c" / name).read_bytes() == \
                (tmp_path / "par" / "run_a2c" / name).read_bytes()

    def test_pool_never_exceeds_the_seed_count(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and runs the seeds in process, so
        # no worker is ever started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        run_experiment(tiny_config(tmp_path, num_seeds=2), workers=5000)
        assert sizes == [2]
        assert len(list((tmp_path / "run_q").glob("metrics_seed*.csv"))) == 2
        run_experiment(tiny_config(tmp_path, num_seeds=1, out_dir=str(tmp_path / "one")),
                       workers=4)
        assert sizes == [2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected_before_writing(self, tmp_path, workers):
        config = tiny_config(tmp_path)
        with pytest.raises(ValueError, match=f"workers={workers} must be >= 1"):
            run_experiment(config, workers=workers)
        assert not (tmp_path / "run_q").exists()

    def test_summarize_recomputes_the_same_summary(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        out = tmp_path / "run_q"
        first = (out / "summary.csv").read_bytes()
        summarize(out)
        assert (out / "summary.csv").read_bytes() == first

    def test_summary_cis_match_recomputation_from_csvs(self, tmp_path):
        config = tiny_config(tmp_path, num_seeds=3)
        summary = run_experiment(config)
        per_seed = []
        for k in range(3):
            train, evals = _read_metrics_csv(
                tmp_path / "run_q" / f"metrics_seed{k:02d}.csv")
            per_seed.append(seed_means(train, evals)["inv_warehouse"])
        low, high = compute_ci(per_seed)
        _, s_low, s_high = summary.row("inv_warehouse")
        assert (s_low, s_high) == (low, high)

    def test_single_seed_single_episode_degenerates(self, tmp_path):
        config = tiny_config(tmp_path, episodes=1, num_seeds=1, eval_episodes=1)
        summary = run_experiment(config)
        mean, low, high = summary.row("inv_factory")
        assert low == mean == high

    def test_agents_saved_for_net_algorithms(self, tmp_path):
        config = tiny_config(tmp_path, algo="maa2c", episodes=2)
        run_experiment(config)
        assert (tmp_path / "run_maa2c" / "agent_seed00.txt").exists()
        assert (tmp_path / "run_maa2c" / "agent_seed01.txt").exists()

    def test_missing_dir_summarize_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize(tmp_path / "nothing_here")

    def test_summarize_reads_only_the_seeds_of_the_last_run(self, tmp_path):
        # a 2-seed run into the directory of a 3-seed run leaves seed 2's
        # files behind; the summary must not count them
        out = tmp_path / "run_q"
        run_experiment(tiny_config(tmp_path, num_seeds=3))
        summary = run_experiment(tiny_config(tmp_path, num_seeds=2))
        assert (out / "metrics_seed02.csv").exists()
        assert summary.num_seeds == 2
        assert "seeds: 2" in (out / "summary.txt").read_text()
        fresh = tmp_path / "fresh"
        run_experiment(tiny_config(tmp_path, num_seeds=2, out_dir=str(fresh)))
        for name in ("summary.csv", "summary.txt"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert len((out / "timing_summary.csv").read_text().splitlines()) == 1 + 2

    @pytest.mark.parametrize("name", ["metrics_seed01.csv", "timing_seed00.csv"])
    def test_summarize_names_a_missing_seed_file(self, tmp_path, name):
        run_experiment(tiny_config(tmp_path))
        (tmp_path / "run_q" / name).unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "run_q" / name))):
            summarize(tmp_path / "run_q")

    @pytest.mark.parametrize("value", ["0", "two"])
    def test_summarize_rejects_a_bad_seed_count(self, tmp_path, value):
        run_experiment(tiny_config(tmp_path))
        path = tmp_path / "run_q" / "run_config.txt"
        path.write_text(path.read_text().replace("run.num_seeds = 2",
                                                 f"run.num_seeds = {value}"))
        # a value that does not parse, or one that breaks ExperimentConfig's rule
        expected = {"0": ": num_seeds=0 must be >= 1",
                    "two": " = 'two': invalid literal for int()"}[value]
        with pytest.raises(ValueError, match=re.escape(f"{path}: run.num_seeds{expected}")):
            summarize(tmp_path / "run_q")


def edit_line(path, old, new):
    """Replace the line of ``path`` that starts with ``old`` by ``new`` (no
    line when ``new`` is None); append ``new`` when ``old`` is None."""
    lines = path.read_text().splitlines()
    if old is None:
        lines.append(new)
    else:
        (index,) = [i for i, line in enumerate(lines) if line.startswith(old)]
        lines[index:index + 1] = [] if new is None else [new]
    path.write_text("\n".join(lines) + "\n")


# a damaged run_config.txt: (line replaced, its replacement, message after
# the file name)
DAMAGED_RUN_CONFIGS = [
    ("run.case", None, "no cost case: "),
    ("run.algorithm", None, "no algorithm: "),
    ("run.algorithm", "run.algorithm = bogus",
     "run.algorithm = 'bogus': unknown algorithm 'bogus'"),
    ("run.case", "run.case = abc", "run.case = 'abc': invalid literal for int()"),
    (None, "run.bogus = 1", "unknown key 'run.bogus'"),
    (None, "env.T_factory = 0", "env.T_factory: T_factory=0 must be >= 1"),
    (None, "env.z_target = 0", "env.z_target: z_target=0.0 must be > 0"),
]


class TestSummarizeRejectsDamagedFiles:
    @pytest.mark.parametrize("old, new, message", DAMAGED_RUN_CONFIGS)
    def test_damaged_run_config_names_file_and_key(self, tmp_path, old, new, message):
        out = tmp_path / "run_q"
        run_experiment(tiny_config(tmp_path))
        path = out / "run_config.txt"
        edit_line(path, old, new)
        (out / "summary.csv").unlink()
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            summarize(out)
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("episode", "bogus",
         "line 1: header 'bogus', expected 'episode,phase,wall_time'"),
        ("1,train", "3,train", "line 3: 2 fields, expected 3: '3,train'"),
        ("1,train", "1,trian,0.5", "line 3: unknown phase 'trian'"),
        ("1,train", "1,train,fast", "line 3: could not convert string to float: 'fast'"),
    ])
    def test_damaged_timing_file_names_file_and_line(self, tmp_path, old, new, message):
        out = tmp_path / "run_q"
        run_experiment(tiny_config(tmp_path))
        path = out / "timing_seed01.csv"
        edit_line(path, old, new)
        (out / "summary.csv").unlink()
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}, {message}")):
            summarize(out)
        assert not (out / "summary.csv").exists()

    def test_t_interval_without_scipy_fails_before_writing(self, tmp_path, monkeypatch):
        out = tmp_path / "run_q"
        run_experiment(tiny_config(tmp_path))
        for name in ("summary.csv", "summary.txt", "timing_summary.csv"):
            (out / name).unlink()
        for name in ("scipy", "scipy.stats"):
            monkeypatch.setitem(sys.modules, name, None)
        with pytest.raises(ValueError, match="needs scipy"):
            summarize(out, use_t=True)
        assert not any((out / name).exists()
                       for name in ("summary.csv", "summary.txt", "timing_summary.csv"))

    @pytest.mark.parametrize("name, keep, counts", [
        ("metrics_seed01.csv", 1, "0 train and 0 eval rows"),
        ("metrics_seed01.csv", -1, "3 train and 3 eval rows"),
        ("timing_seed01.csv", -1, "3 train and 3 eval rows"),
        ("timing_seed01.csv", 3, "2 train and 0 eval rows"),
    ], ids=["metrics-header-only", "metrics-eval-cut", "timing-eval-cut", "timing-train-cut"])
    def test_seed_file_of_another_episode_count_names_the_file(
            self, tmp_path, name, keep, counts):
        # the run has 3 training and 4 evaluation episodes
        out = tmp_path / "run_q"
        run_experiment(tiny_config(tmp_path))
        path = out / name
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
        (out / "summary.csv").unlink()
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}: {counts}, expected 3 and 4 as in run_config.txt")):
            summarize(out)
        assert not (out / "summary.csv").exists()


class TestRows:
    HEADER = "n,phase,x"
    CASTERS = (int, str, float)

    def test_round_trip_writes_floats_by_repr(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = [(1, "train", 0.1), (2, "eval", np.float64(1) / 3), (3, "eval", -np.inf)]
        _write_rows(path, self.HEADER, rows)
        assert path.read_bytes() == (b"n,phase,x\n1,train,0.1\n"
                                     b"2,eval,0.3333333333333333\n3,eval,-inf\n")
        assert _read_rows(path, self.HEADER, self.CASTERS) == rows

    @pytest.mark.parametrize("text, message", [
        ("n,x\n", "line 1: header 'n,x', expected 'n,phase,x'"),
        ("n,phase,x\n1,train,0.5\n\n", "line 3: 1 fields, expected 3: ''"),
        ("n,phase,x\n1,train,0.5,7\n", "line 2: 4 fields, expected 3: '1,train,0.5,7'"),
        ("n,phase,x\n1.5,train,0.5\n", "line 2: invalid literal for int()"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "rows.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}, {message}")):
            _read_rows(path, self.HEADER, self.CASTERS)


class TestReadMetricsCsv:
    def write(self, tmp_path, *rows):
        path = tmp_path / "metrics_seed00.csv"
        lines = [METRICS_HEADER, "0,train,-1.5,1.0,2.0,3.0,4", *rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_unknown_phase_rejected(self, tmp_path):
        path = self.write(tmp_path, "0,trian,-2.5,1.0,2.0,3.0,0")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}, line 3: unknown phase 'trian'")):
            _read_metrics_csv(path)

    @pytest.mark.parametrize("row", ["0,eval,-2.5,1.0,2.0,3.0", "0,eval,-2.5,1.0,2.0,3.0,0,9"])
    def test_wrong_field_count_rejected(self, tmp_path, row):
        path = self.write(tmp_path, row)
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")
                           + r"\d fields, expected 7"):
            _read_metrics_csv(path)

    def test_unparsable_number_rejected(self, tmp_path):
        path = self.write(tmp_path, "0,eval,-2.5,1.0,x,3.0,0")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: could not convert")):
            _read_metrics_csv(path)


class TestSeedMeans:
    def test_takes_every_evaluation_episode(self):
        train = [RunMetrics(i, -1.0, 100.0, 0.0, 0.0, 0, 0.0) for i in range(3)]
        evals = [RunMetrics(i, -1.0, float(i), 0.0, 0.0, i % 2, 0.0) for i in range(50)]
        means = seed_means(train, evals)
        assert means["inv_factory"] == sum(range(50)) / 50
        assert means["stockout_units"] == 0.5

    def test_single_record(self):
        records = [RunMetrics(0, -1.0, 3.0, 2.0, 1.0, 4, 0.0)]
        means = seed_means([], records)
        assert means["inv_factory"] == 3.0
        assert means["stockout_units"] == 4.0

    def test_no_evaluation_takes_the_last_training_episode(self):
        train = [RunMetrics(i, -1.0, float(i), 2.0, 1.0, 4, 0.0) for i in range(20)]
        assert seed_means(train, [])["inv_factory"] == 19.0


class TestConfigFile:
    def test_sections_and_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "run.case = 2\n"
            "env.capacity = 40\n"
            "run.episodes = 7\n"
            "run.num_seeds = 3\n"
            "run.out_dir = from_file\n")
        config = experiment_config_from_file(
            path, algorithm="q", out_dir=str(tmp_path / "cli_wins"))
        assert config.case == 2
        assert config.episodes == 7
        assert config.num_seeds == 3
        assert config.env_overrides == {"capacity": 40.0} or \
            config.env_overrides == {"capacity": 40}
        assert config.out_dir == str(tmp_path / "cli_wins")

    def test_unknown_env_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("env.warp_speed = 9\n")
        with pytest.raises(ValueError, match="exp.cfg: unknown key 'env.warp_speed'"):
            experiment_config_from_file(path, algorithm="q", case=1)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("episodes 7\n")
        with pytest.raises(ValueError, match="key = value"):
            experiment_config_from_file(path, algorithm="q", case=1)

    @pytest.mark.parametrize("line, key", [
        ("run.episodes = 7.5", "run.episodes"),
        ("run.q_epsilon = half", "run.q_epsilon"),
        ("env.capacity = 3O", "env.capacity"),
        ("env.h_factory = cheap", "env.h_factory"),
        ("run.case = 3", "run.case"),
        ("run.algorithm = sarsa", "run.algorithm"),
    ])
    def test_bad_number_names_file_key_and_value(self, tmp_path, line, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"run.num_seeds = 2\n{line}\n")
        raw = line.split("= ")[1]
        with pytest.raises(ValueError) as info:
            experiment_config_from_file(path, algorithm="q")
        assert str(info.value).startswith(f"{path}: {key} = {raw!r}: ")

    def test_bad_chain_value_names_its_source(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("env.T_factory = 1.5\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: env.T_factory = '1.5': ")):
            experiment_config_from_file(path, algorithm="q", case=1)

    @pytest.mark.parametrize("raw, expected", [
        ("true", True), ("false", False), ("True", True), ("False", False)])
    def test_save_tables_reads_true_or_false(self, tmp_path, raw, expected):
        path = tmp_path / "exp.cfg"
        path.write_text(f"run.save_tables = {raw}\n")
        config = experiment_config_from_file(path, algorithm="q", case=1)
        assert config.save_tables is expected

    @pytest.mark.parametrize("raw", ["yes", "1", "no", "tru"])
    def test_save_tables_rejects_other_values(self, tmp_path, raw):
        path = tmp_path / "exp.cfg"
        path.write_text(f"run.save_tables = {raw}\n")
        with pytest.raises(ValueError, match=f"run.save_tables = '{raw}': expected true or false"):
            experiment_config_from_file(path, algorithm="q")

    def test_run_config_reads_back_as_the_same_config(self, tmp_path):
        config = ExperimentConfig(
            algorithm="a2c", case=2, episodes=7, steps_per_episode=13, num_seeds=3,
            base_seed=11, eval_episodes=5, out_dir=str(tmp_path / "run"),
            save_tables=True, env_overrides={"capacity": 20, "h_factory": 2.5})
        path = tmp_path / "run_config.txt"
        _write_run_config(path, config)
        assert experiment_config_from_file(path) == config
        # a '#' inside a value is part of it
        config.out_dir = str(tmp_path / "runs" / "exp#3")
        _write_run_config(path, config)
        assert experiment_config_from_file(path) == config

    def test_missing_algorithm_names_the_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("run.case = 1\n")
        # the flag is named only to a caller with command-line overrides
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}: no algorithm: set run.algorithm in the config file")):
            experiment_config_from_file(path)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}: no algorithm: pass --algo or set run.algorithm")):
            experiment_config_from_file(path, base_seed=3)

    @pytest.mark.parametrize("line, overrides, key", [
        ("run.num_seeds = 0", {"num_seeds": 2}, "run.num_seeds: num_seeds=0 must be >= 1"),
        ("run.case = 3", {"case": 1}, "run.case = '3': unknown cost case 3"),
        ("run.episodes = 0\nrun.eval_episodes = 0", {"episodes": 5},
         "run.episodes, run.eval_episodes: a run needs at least one"),
    ])
    def test_overridden_file_value_is_still_checked(self, tmp_path, line, overrides, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"{line}\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {key}")):
            experiment_config_from_file(path, **{"algorithm": "q", "case": 1, **overrides})

    @pytest.mark.parametrize("key", ["algo.alhpa", "run.q_alhpa", "alpha", "env_case"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"run.case = 1\n{key} = 0.5\n")
        with pytest.raises(ValueError, match=f"exp.cfg: unknown key '{key}'"):
            experiment_config_from_file(path, algorithm="q")

    def test_reader_takes_only_keys_the_writer_writes(self, tmp_path):
        # every setting the reader knows is a key some run_config.txt holds:
        # here, a config with every chain field set
        config = ExperimentConfig(algorithm="q", case=1, env_overrides=dataclasses.asdict(
            ChainConfig.for_case(1)))
        path = tmp_path / "run_config.txt"
        _write_run_config(path, config)
        assert set(_read_kv_file(path)) == {*_RUN_KEYS, *_ENV_KEYS}
        assert experiment_config_from_file(path) == config

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("run.episodes = 7\n# comment\n\nrun.case = 1\nrun.episodes = 8\n")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}: run.episodes given twice, on lines 1 and 5")):
            experiment_config_from_file(path, algorithm="q")

    def test_run_config_from_before_the_recipe_was_fixed_reads(self, tmp_path):
        assert experiment_config_from_file(OLD_RUN_CONFIG) == ExperimentConfig(
            algorithm="q", case=2, episodes=3, steps_per_episode=15, num_seeds=1,
            eval_episodes=1, out_dir="runs/q_case2",
            env_overrides={"capacity": 12, "rp_max": 5})

    @pytest.mark.parametrize("old, new, message", [
        ("run.q_alpha", "run.q_alpha = 0.3", "run.q_alpha = '0.3': not a setting; "
         "the recipe fixes it at 0.8"),
        ("run.q_gamma", "run.q_gamma = 0.9", "run.q_gamma = '0.9': not a setting; "
         "the recipe fixes it at 0.2"),
        ("run.q_epsilon", "run.q_epsilon = nan", "run.q_epsilon = 'nan': not a setting; "
         "the recipe fixes it at 0.5"),
        ("run.action_std", "run.action_std = 1.5", "run.action_std = '1.5': not a "
         "setting; the recipe fixes it at 2.0"),
    ])
    def test_retired_key_reads_at_the_recipe_value_only(self, tmp_path, old, new, message):
        path = tmp_path / "run_config.txt"
        path.write_text(OLD_RUN_CONFIG.read_text())
        edit_line(path, old, new)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            experiment_config_from_file(path)

    def test_no_file_pure_cli(self):
        config = experiment_config_from_file(None, algorithm="a2c", case=1,
                                             episodes=4)
        assert config.algorithm == "a2c" and config.episodes == 4


class TestPolicyGrid:
    def zero_agent_path(self, tmp_path, algo="a2c"):
        cfg = ChainConfig.for_case(1)
        path = tmp_path / "agent.txt"
        agent = (make_a2c_agent if algo == "a2c" else make_maa2c_agent)(cfg, 0)
        agent.theta[:] = 0.0
        save_agent(agent, path, case=1)
        return path

    def test_grid_has_961_rows_and_header(self, tmp_path):
        path = self.zero_agent_path(tmp_path)
        grid_path = export_policy_grid(path, 6, tmp_path)
        lines = grid_path.read_text().splitlines()
        assert lines[0] == "inv_factory,inv_warehouse,value,factory_action_mean"
        assert len(lines) == 962

    def test_zero_agent_constant_zero_value(self, tmp_path):
        for algo in ("a2c", "maa2c"):
            path = self.zero_agent_path(tmp_path, algo)
            grid = read_policy_grid(export_policy_grid(path, 3, tmp_path))
            assert len(grid) == 961
            assert all(v == 0.0 and m == 0.0 for v, m in grid.values())

    def test_grid_spans_the_run_chain(self, tmp_path):
        # the run_config.txt next to the agent file sets the chain
        out = tmp_path / "run"
        run_experiment(tiny_config(tmp_path, "a2c", episodes=1, num_seeds=1,
                                   eval_episodes=0, out_dir=str(out),
                                   env_overrides={"capacity": 20, "rp_max": 8}))
        grid = read_policy_grid(export_policy_grid(out / "agent_seed00.txt", 8, tmp_path))
        assert sorted(grid) == [(f, w) for f in range(21) for w in range(21)]

    @pytest.mark.parametrize("row, message", [
        ("3,4,0.5", "3 fields, expected 4: '3,4,0.5'"),
        ("3,4,0.5,x", "could not convert string to float: 'x'"),
        ("3,4.5,0.5,0.25", "invalid literal for int()"),
    ])
    def test_damaged_grid_names_file_and_line(self, tmp_path, row, message):
        path = export_policy_grid(self.zero_agent_path(tmp_path), 3, tmp_path)
        edit_line(path, "0,1,", row)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}, line 3: {message}")):
            read_policy_grid(path)

    @pytest.mark.parametrize("old, new, message", [
        (None, "run.bogus = 1", "unknown key 'run.bogus'"),
        (None, "env.T_factory = 0", "env.T_factory: T_factory=0 must be >= 1"),
        ("run.case", "run.case = 2", "run a2c/case 2 does not match agent "),
    ])
    def test_damaged_run_config_next_to_agent_rejected(self, tmp_path, old, new, message):
        out = tmp_path / "run"
        run_experiment(tiny_config(tmp_path, "a2c", episodes=1, num_seeds=1,
                                   eval_episodes=0, out_dir=str(out)))
        edit_line(out / "run_config.txt", old, new)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{out / 'run_config.txt'}: {message}")):
            export_policy_grid(out / "agent_seed00.txt", 3, tmp_path / "viz")
        assert not (tmp_path / "viz").exists()

    def test_rp_outside_bounds_rejected(self, tmp_path):
        path = self.zero_agent_path(tmp_path)
        with pytest.raises(ValueError, match="rp"):
            export_policy_grid(path, 9, tmp_path)

    def test_non_agent_file_rejected(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("state_if state_iw ...\n")
        with pytest.raises(ValueError, match="agent"):
            export_policy_grid(path, 3, tmp_path)


class TestRunOneSeed:
    @pytest.mark.parametrize("algo", ["a2c", "maa2c"])
    def test_non_finite_td_error_names_seed_and_episode(self, tmp_path, algo):
        # 1e308 per unit held overflows the reward to -inf at two units
        config = tiny_config(tmp_path, algo, episodes=2, steps_per_episode=5,
                             env_overrides={"h_factory": 1e308})
        with pytest.raises(FloatingPointError,
                           match="^seed 1: episode 0: non-finite TD error -inf"):
            run_one_seed(config, 1)

    @pytest.mark.parametrize("algo", ["a2c", "maa2c"])
    def test_nan_actor_weight_names_seed_and_episode(self, tmp_path, monkeypatch,
                                                     algo):
        module = actor_critic if algo == "a2c" else multi_agent
        make = getattr(module, f"make_{algo}_agent")

        def make_poisoned(*args, **kwargs):
            agent = make(*args, **kwargs)
            agent.actor.weights[0][0, 0, 0] = np.nan
            return agent
        monkeypatch.setattr(module, f"make_{algo}_agent", make_poisoned)
        steps = []
        env_step = Env.step

        def counting_step(env, action):
            steps.append(action)
            return env_step(env, action)
        monkeypatch.setattr(Env, "step", counting_step)
        config = tiny_config(tmp_path, algo, episodes=2, steps_per_episode=5)
        with pytest.raises(FloatingPointError,
                           match=r"^seed 1: episode 0: non-finite sampled action \[nan"):
            run_one_seed(config, 1)
        assert steps == []

    @pytest.mark.parametrize("algo", ["a2c", "maa2c"])
    def test_nan_actor_after_training_names_seed_and_episode(self, tmp_path,
                                                             monkeypatch, algo):
        module = actor_critic if algo == "a2c" else multi_agent

        def train_poisoned(env, agent, *args, **kwargs):
            agent.actor.weights[0][0, 0, 0] = np.nan
            return []
        monkeypatch.setattr(module, f"train_{algo}", train_poisoned)
        config = tiny_config(tmp_path, algo, episodes=2, steps_per_episode=5)
        with pytest.raises(FloatingPointError,
                           match=r"^seed 1: episode 0: non-finite mean action \[nan"):
            run_one_seed(config, 1)

    def test_q_returns_table_and_metrics(self, tmp_path):
        config = tiny_config(tmp_path)
        train, evals, table = run_one_seed(config, 0)
        assert len(train) == 3 and len(evals) == 4
        assert len(table) > 0


def _reads_qtable(path, config):
    lines = path.read_text().splitlines()
    assert lines[0] == "state_if state_iw state_rp q_factory q_warehouse rp_next value"
    for line in lines[1:]:
        *ints, value = line.split(" ")
        assert len(ints) == 6 and [str(int(v)) for v in ints] == ints
        float(value)
    return True


def _reads_summary_text(path, config):
    text = path.read_text()
    return summarize(path.parent).to_pretty_text() == text


# every name a file in a run directory may have, with the check that reads
# the file back; a new kind of run file needs an entry here
RUN_FILE_READERS = {
    r"run_config\.txt": lambda path, config: experiment_config_from_file(path) == config,
    r"metrics_seed\d\d\.csv": lambda path, config: _read_rows(path, METRICS_HEADER,
                                                             METRICS_CASTERS),
    r"timing_seed\d\d\.csv": lambda path, config: _read_rows(path, TIMING_HEADER,
                                                            TIMING_CASTERS),
    r"summary\.csv": lambda path, config: _read_rows(path, SUMMARY_HEADER, SUMMARY_CASTERS),
    r"timing_summary\.csv": lambda path, config: _read_rows(
        path, TIMING_SUMMARY_HEADER, TIMING_SUMMARY_CASTERS),
    r"summary\.txt": _reads_summary_text,
    r"agent_seed\d\d\.txt": lambda path, config: load_agent(path)[1] == config.case,
    r"qtable_seed\d\d\.txt": _reads_qtable,
    r"policy_value_grid_(a2c|maa2c)_case[12]_rp\d+\.csv": lambda path, config: _read_rows(
        path, GRID_HEADER, GRID_CASTERS),
}


@pytest.mark.parametrize("algo", ["q", "a2c", "maa2c"])
def test_every_file_a_run_writes_has_a_reader(tmp_path, algo):
    config = tiny_config(tmp_path, algo, episodes=2, steps_per_episode=10,
                         eval_episodes=2, save_tables=True,
                         env_overrides={"capacity": 12})
    out = Path(config.out_dir)
    run_experiment(config)
    if algo != "q":
        export_policy_grid(out / "agent_seed00.txt", 3, out)
    names = sorted(path.name for path in out.iterdir())
    # run_config.txt, three summaries, and per seed metrics, timing and a
    # Q table or an agent; a grid for the agents
    assert len(names) == 4 + 3 * 2 + (algo != "q")
    for name in names:
        checks = [check for pattern, check in RUN_FILE_READERS.items()
                  if re.fullmatch(pattern, name)]
        assert len(checks) == 1, f"no reader for {name}"
        assert checks[0](out / name, config), name
