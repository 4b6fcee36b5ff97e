import math
from dataclasses import fields
from pathlib import Path

import pytest
from conftest import COMPILED

from safestock.cli import _build_parser, main
from safestock.harness import ExperimentConfig


def test_solve_gsm_prints_enumeration(capsys):
    assert main(["solve-gsm", "--case", "1"]) == 0
    out = capsys.readouterr().out
    assert "S_factory" in out
    assert "optimum: S=(1, 3) cost=15" in out
    assert "targets: rp=6 inv_factory=0 inv_warehouse=13" in out


def test_solve_gsm_case2_to_file(tmp_path, capsys):
    target = tmp_path / "case2.txt"
    assert main(["solve-gsm", "--case", "2", "--out", str(target)]) == 0
    text = target.read_text()
    assert "optimum: S=(0, 3) cost=15" in text
    assert f"{15 + 3000 * math.sqrt(3):.12g}"[:8] in text


def test_train_summarize_viz_pipeline(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--algo", "a2c", "--case", "1", "--episodes", "2",
               "--steps", "20", "--seeds", "2", "--seed", "3",
               "--eval-episodes", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "summary.csv").exists()

    banner = capsys.readouterr().out.splitlines()[1]
    assert banner in (f"kernels: {COMPILED}", "kernels: numpy (no C compiler: cc is not on PATH)")

    rc = main(["summarize", "--in", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "algorithm: a2c" in text and "inv_warehouse" in text

    rc = main(["viz", "--agent", str(out / "agent_seed00.txt"),
               "--rp", "6", "--out", str(tmp_path / "viz")])
    assert rc == 0
    grids = list((tmp_path / "viz").glob("policy_value_grid_*.csv"))
    assert len(grids) == 1


def test_train_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("run.episodes = 2\nrun.num_seeds = 1\n"
                   "run.eval_episodes = 1\nrun.steps_per_episode = 15\n")
    out = tmp_path / "run"
    rc = main(["train", "--algo", "q", "--case", "2",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "metrics_seed00.csv").exists()
    text = (out / "run_config.txt").read_text()
    assert "run.episodes = 2" in text


def test_run_config_retrains_the_same_run(tmp_path, capsys):
    # a run's run_config.txt is a valid --config: chain settings included
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("env.capacity = 12\nrun.base_seed = 4\nrun.episodes = 3\n"
                   "run.num_seeds = 1\nrun.eval_episodes = 1\n"
                   "run.steps_per_episode = 15\n")
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["train", "--algo", "q", "--case", "1", "--config", str(cfg),
                 "--out", str(first)]) == 0
    assert main(["train", "--algo", "q", "--config", str(first / "run_config.txt"),
                 "--out", str(again)]) == 0
    assert "env.capacity = 12" in (first / "run_config.txt").read_text()
    for name in ("run_config.txt", "metrics_seed00.csv"):
        assert (again / name).read_text().replace(str(again), str(first)) == \
            (first / name).read_text()


def test_run_config_from_before_the_recipe_was_fixed_retrains(tmp_path, capsys):
    # an older run's run_config.txt, which holds the recipe's values as
    # settings, retrains the run its settings describe and summarizes it
    old = Path(__file__).parent / "data" / "run_config_v1.txt"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("env.capacity = 12\nenv.rp_max = 5\nrun.num_seeds = 1\n")
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    assert main(["train", "--algo", "q", "--config", str(old), "--out", str(again)]) == 0
    assert main(["train", "--algo", "q", "--case", "2", "--episodes", "3", "--steps", "15",
                 "--eval-episodes", "1", "--config", str(cfg), "--out", str(fresh)]) == 0
    assert (again / "metrics_seed00.csv").read_bytes() == \
        (fresh / "metrics_seed00.csv").read_bytes()
    (again / "run_config.txt").write_text(old.read_text())
    assert main(["summarize", "--in", str(again)]) == 0


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_fail_before_writing(tmp_path, capsys, workers):
    out = tmp_path / "run"
    rc = main(["train", "--algo", "q", "--case", "1", "--episodes", "1",
               "--seeds", "2", "--out", str(out), "--workers", workers])
    assert rc == 1
    assert capsys.readouterr().err == f"error: workers={workers} must be >= 1\n"
    assert not out.exists()


def test_workers_below_one_fail_before_the_banner(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--algo", "a2c", "--case", "1", "--episodes", "1",
               "--out", str(out), "--workers", "0"])
    assert rc == 1
    # no banner and no kernel line: nothing was printed or compiled
    assert capsys.readouterr() == ("", "error: workers=0 must be >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("env.capacity = -4", "env.capacity: capacity=-4 must be finite and >= 0"),
    ("env.rp_max = 31", "env.rp_max: rp_max=31 must not exceed capacity=30"),
    ("env.T_warehouse = 0", "env.T_warehouse: T_warehouse=0 must be >= 1"),
    ("run.case = 3", "run.case = '3': unknown cost case 3"),
    ("algo.alhpa = 0.5", "unknown key 'algo.alhpa'"),
    ("run.q_alhpa = 0.5", "unknown key 'run.q_alhpa'"),
    ("env.S_retailer = 5", "unknown key 'env.S_retailer'"),
    ("env.case = 1", "unknown key 'env.case'"),
    ("algo.alpha = 0.8", "unknown key 'algo.alpha'"),
    ("algo.action_std = 2.0", "unknown key 'algo.action_std'"),
    ("run.q_alpha = 0", "run.q_alpha = '0': not a setting; the recipe fixes it at 0.8"),
    ("run.action_std = inf",
     "run.action_std = 'inf': not a setting; the recipe fixes it at 2.0"),
    ("run.base_seed = -1", "run.base_seed: base_seed=-1 must be >= 0"),
    ("run.num_seeds = 2", "run.num_seeds given twice, on lines 1 and 2"),
    # a chain of no capacity has no observation scale
    ("env.capacity = 0\nenv.rp_max = 0", "env.capacity: capacity=0 must be >= 1"),
])
def test_bad_config_fails_before_writing(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"run.num_seeds = 1\n{line}\n")
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["train", "--config", str(cfg), "--algo", "q", "--case", "1",
               "--episodes", "1", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: {message}")
    assert list(out.iterdir()) == []


def test_train_without_evaluation_reports_training(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--algo", "q", "--case", "1", "--episodes", "2",
               "--steps", "5", "--seeds", "1", "--eval-episodes", "0",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "final train inv f/w = " in captured.out
    assert "seeds: 1" in (out / "summary.txt").read_text()


def test_train_without_training_episodes_summarizes(tmp_path, capsys):
    # evaluation alone: the untrained policy plateaus at episode 0
    out = tmp_path / "run"
    rc = main(["train", "--algo", "a2c", "--case", "1", "--episodes", "0",
               "--steps", "10", "--seeds", "2", "--eval-episodes", "2",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    names = ("summary.csv", "summary.txt", "timing_summary.csv")
    written = {name: (out / name).read_bytes() for name in names}
    assert "plateau_episode,0.0,0.0,0.0" in written["summary.csv"].decode()
    assert main(["summarize", "--in", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in names} == written


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "0"], "num_seeds=0 must be >= 1"),
    (["--eval-episodes", "-1"], "eval_episodes=-1 must be >= 0"),
    (["--episodes", "0", "--eval-episodes", "0"],
     "a run needs at least one training or evaluation episode"),
    (["--steps", "0"], "steps_per_episode=0 must be >= 1"),
])
def test_empty_run_fails_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    rc = main(["train", "--algo", "q", "--case", "1", "--steps", "5",
               "--out", str(out), *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("run.num_seeds = 0", "run.num_seeds: num_seeds=0 must be >= 1"),
    ("run.episodes = -2", "run.episodes: episodes=-2 must be >= 0"),
    ("run.eval_episodes = -1", "run.eval_episodes: eval_episodes=-1 must be >= 0"),
    ("run.episodes = 0\nrun.eval_episodes = 0", "run.episodes, run.eval_episodes: "
     "a run needs at least one training or evaluation episode"),
    ("run.steps_per_episode = 0", "run.steps_per_episode: steps_per_episode=0 must be >= 1"),
])
def test_empty_run_in_config_names_file_and_key(tmp_path, capsys, lines, message):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"{lines}\n")
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--algo", "q", "--case", "1",
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}: {message}")
    assert not out.exists()


def test_negative_seed_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--algo", "q", "--case", "1", "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: base_seed=-1 must be >= 0\n"
    assert not out.exists()


def test_every_run_setting_has_a_train_flag():
    # the chain overrides alone come from a config file only
    args = _build_parser().parse_args(["train", "--algo", "q"])
    settings = {f.name for f in fields(ExperimentConfig)} - {"env_overrides"}
    assert settings <= set(vars(args))
    assert args.algorithm == "q"


def test_removed_flag_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", "a2c", "--case", "1", "--action-std", "1.5",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --action-std 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_command_line_value_is_not_blamed_on_the_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("run.num_seeds = 2\n")
    rc = main(["train", "--config", str(cfg), "--algo", "q", "--case", "1",
               "--seeds", "0", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: num_seeds=0 must be >= 1")


def _damaged_run(tmp_path, capsys, name, old, new):
    """A one-seed a2c run whose file ``name`` has the line starting with
    ``old`` replaced by ``new`` (appended when ``old`` is None, dropped
    when ``new`` is None)."""
    out = tmp_path / "run"
    assert main(["train", "--algo", "a2c", "--case", "1", "--episodes", "2",
                 "--steps", "5", "--seeds", "1", "--eval-episodes", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / name
    lines = path.read_text().splitlines()
    if old is None:
        lines.append(new)
    else:
        (index,) = [i for i, line in enumerate(lines) if line.startswith(old)]
        lines[index:index + 1] = [] if new is None else [new]
    path.write_text("\n".join(lines) + "\n")
    return out, path


def _assert_one_error_line(capsys, *parts):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    for part in parts:
        assert part in captured.err
    return captured.err


@pytest.mark.parametrize("name, old, new, key", [
    ("run_config.txt", "run.case", None, "run.case"),
    ("run_config.txt", None, "run.bogus = 1", "'run.bogus'"),
    ("run_config.txt", None, "env.T_factory = 0", "env.T_factory: "),
    ("run_config.txt", "run.algorithm", "run.algorithm = bogus", "run.algorithm = 'bogus'"),
    ("timing_seed00.csv", "1,train", "1,train", "line 3: 2 fields"),
])
def test_summarize_reports_a_damaged_file(tmp_path, capsys, name, old, new, key):
    out, path = _damaged_run(tmp_path, capsys, name, old, new)
    assert main(["summarize", "--in", str(out)]) == 1
    # summarize has no flag to offer in place of a missing key
    assert "pass --" not in _assert_one_error_line(capsys, f"error: {path}", key)


@pytest.mark.parametrize("old, new, key", [
    (None, "run.bogus = 1", "'run.bogus'"),
    (None, "env.T_factory = 0", "env.T_factory: "),
    ("run.algorithm", "run.algorithm = bogus", "run.algorithm = 'bogus'"),
])
def test_viz_reports_a_damaged_run_config(tmp_path, capsys, old, new, key):
    out, path = _damaged_run(tmp_path, capsys, "run_config.txt", old, new)
    assert main(["viz", "--agent", str(out / "agent_seed00.txt"), "--rp", "3",
                 "--out", str(tmp_path / "viz")]) == 1
    _assert_one_error_line(capsys, f"error: {path}", key)
    assert not (tmp_path / "viz").exists()



@pytest.mark.parametrize("line, value, block", [
    (5, "obs_scale nan", "header"),
    (5, "obs_scale -0.5", "header"),
    (8, "nan", "critic"),
], ids=["scale-nan", "scale-negative", "critic-nan"])
def test_viz_refuses_an_agent_with_unusable_numbers(tmp_path, capsys, line, value, block):
    # such an agent would give a grid of NaN values and means
    lines = (Path(__file__).parent / "data" / "maa2c_agent_v1.txt").read_text().splitlines()
    if block == "critic":   # the line's first parameter
        value = " ".join([value, *lines[line].split()[1:]])
    lines[line] = value
    path = tmp_path / "agent.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["viz", "--agent", str(path), "--rp", "3",
                 "--out", str(tmp_path / "viz")]) == 1
    _assert_one_error_line(capsys, f"error: {path}: {block} block: ")
    assert not (tmp_path / "viz").exists()

def test_errors_exit_nonzero(tmp_path, capsys):
    assert main(["summarize", "--in", str(tmp_path / "missing")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert main(["viz", "--agent", str(tmp_path / "nope.txt"),
                 "--rp", "3", "--out", str(tmp_path)]) == 1


def test_bad_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
