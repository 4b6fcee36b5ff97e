"""Command line front end: solve-gsm, train, summarize, viz."""

import argparse
import sys
from dataclasses import fields as dataclass_fields

from . import gsm, harness, nets


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="safestock",
        description="Safety stock placement: guaranteed-service analytics "
                    "and reinforcement-learning training runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-gsm", help="enumerate and solve a cost case analytically")
    p.add_argument("--case", type=int, required=True, choices=(1, 2))
    p.add_argument("--out", help="write the table here instead of stdout")

    p = sub.add_parser("train", help="train one algorithm across seeds")
    p.add_argument("--algo", dest="algorithm", required=True, choices=harness.ALGORITHMS)
    p.add_argument("--case", type=int, choices=(1, 2))
    p.add_argument("--episodes", type=int)
    p.add_argument("--steps", type=int, dest="steps_per_episode")
    p.add_argument("--seeds", type=int, dest="num_seeds")
    p.add_argument("--seed", type=int, dest="base_seed")
    p.add_argument("--eval-episodes", type=int, dest="eval_episodes")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--config", help="key/value config file (run.*, env.*)")
    p.add_argument("--save-tables", action="store_true", default=None,
                   help="also export trained Q tables (large files)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel processes, at most one per seed (same results)")

    p = sub.add_parser("summarize", help="recompute a run summary from its CSVs")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--t-ci", action="store_true",
                   help="Student-t interval instead of the normal 1.96")

    p = sub.add_parser("viz", help="export a value/policy grid from a saved agent")
    p.add_argument("--agent", required=True)
    p.add_argument("--rp", type=int, required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_solve_gsm(args):
    chain = gsm.case_chain(args.case)
    vertices = gsm.enumerate_vertices(chain)
    best = gsm.solve_exhaustive(chain)
    table = gsm.format_solution_table(chain, vertices, optimal=best)
    targets = gsm.analytical_targets(args.case)
    lines = (
        f"case {args.case} vertex enumeration\n{table}"
        f"optimum: S={best.service_times} cost={best.total_cost:.12g}\n"
        f"targets: rp={targets[0]:g} inv_factory={targets[1]:g} "
        f"inv_warehouse={targets[2]:g}\n"
    )
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)


def _cmd_train(args):
    if args.workers < 1:   # before the banner, and before any kernel compiles
        raise ValueError(f"workers={args.workers} must be >= 1")
    # a flag per run setting; the chain overrides come from --config only
    overrides = {f.name: getattr(args, f.name)
                 for f in dataclass_fields(harness.ExperimentConfig)
                 if f.name != "env_overrides" and getattr(args, f.name) is not None}
    config = harness.experiment_config_from_file(args.config, **overrides)
    print(f"training {config.algorithm} on case {config.case}: "
          f"{config.num_seeds} seeds x {config.episodes} episodes "
          f"x {config.steps_per_episode} steps -> {config.out_dir}")
    if config.algorithm != "q":
        print(f"kernels: {nets.kernel_backend()}")
    summary = harness.run_experiment(config, log=print, workers=args.workers)
    print(summary.to_pretty_text(), end="")


def _cmd_summarize(args):
    summary = harness.summarize(args.in_dir, use_t=args.t_ci)
    print(summary.to_pretty_text(), end="")


def _cmd_viz(args):
    path = harness.export_policy_grid(args.agent, args.rp, args.out)
    print(f"wrote {path}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve-gsm": _cmd_solve_gsm,
        "train": _cmd_train,
        "summarize": _cmd_summarize,
        "viz": _cmd_viz,
    }
    try:
        handlers[args.command](args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
