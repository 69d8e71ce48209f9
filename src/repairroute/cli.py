"""Command-line front end.

Subcommands cover the full workflow: fit a model, route a fitted model,
optimize both jointly, export the routing MILP as LP text, replay the
bundled demos, validate costs by simulation, and evaluate the deviation
bound.  All outputs are written atomically under --out-dir and contain no
timestamps or host details, so identical invocations produce identical
bytes.  Exit codes: 0 on success, 2 for bad input, 1 for internal errors.
"""

import argparse
import functools
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import dataio
from .bound import BoundInputs, generalization_bound
from .core import cost1, cost2_exact, latency, standard_trp_cost
from .dataio import ValidationError
from .demo import INSTANCES
from .learn import auc, fit_logistic
from .milp import build_milp, export_lp
from .opt import (
    COST_MODELS, METHODS, MltrpConfig, c1_sweep, check_c1_grid, node_weights, route_string, solve,
    sweep_csv,
)
from .sim import SimConfig, simulate_route_cost
from .trp import naive_route, solve_weighted_trp_dp


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ValidationError(f"--{name} is required for this command")


def _mltrp_config(args, c1=0.0) -> MltrpConfig:
    return MltrpConfig(c2=args.c2, c1=c1, cost_model=args.cost_model)


def _model_dict(fit, c2: float, data) -> dict:
    scores = data.features @ fit.lam
    both = (data.labels == 1).any() and (data.labels == -1).any()
    return {
        "lambda": fit.lam,
        "loss": fit.loss,
        "grad_norm": fit.grad_norm,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "c2": c2,
        "train_auc": auc(scores, data.labels) if both else None,
    }


def _route_costs(route, lam, nodes, D) -> dict:
    # A route with both failure costs under the model lam: the expected
    # failure count (cost1) and the early-failure probability (cost2_exact).
    return {
        "route": list(route),
        "route_string": route_string(route),
        "cost1": cost1(route, node_weights(lam, nodes, "cost1"), D),
        "cost2_exact": cost2_exact(route, node_weights(lam, nodes, "cost2"), D),
    }


def _route_dict(route, lam, nodes, D, cost_model: str) -> dict:
    w = node_weights(lam, nodes, cost_model)
    naive = naive_route(w)
    return {
        **_route_costs(route, lam, nodes, D),
        "latencies_by_node": latency(route, D),
        "weights": w,
        "probabilities": node_weights(lam, nodes, "cost1"),
        "weighted_latency_cost": cost1(route, w, D),
        "standard_trp_cost": standard_trp_cost(route, D),
        "naive": {
            **_route_costs(naive, lam, nodes, D),
            "weighted_latency_cost": cost1(naive, w, D),
        },
    }


def _load_graph(args):
    nodes = dataio.load_nodes_csv(args.nodes)
    D = dataio.load_distances_csv(args.distances)
    if nodes.shape[0] != D.shape[0]:
        raise ValidationError(
            f"{nodes.shape[0]} node rows do not match a {D.shape[0]}x{D.shape[0]} distance matrix"
        )
    return nodes, D


def _load_problem(args):
    data = dataio.load_labeled_csv(args.train)
    nodes, D = _load_graph(args)
    if nodes.shape[1] != data.d:
        raise ValidationError(
            f"node features have {nodes.shape[1]} columns, training data has {data.d}"
        )
    return data, nodes, D


def cmd_train(args) -> int:
    _require(args, "train", "c2", "out-dir")
    data = dataio.load_labeled_csv(args.train)
    fit = fit_logistic(data, args.c2)
    dataio.write_json(Path(args.out_dir) / "model.json", _model_dict(fit, args.c2, data))
    return 0


def cmd_route(args) -> int:
    _require(args, "train", "nodes", "distances", "c2", "out-dir")
    data, nodes, D = _load_problem(args)
    cfg = _mltrp_config(args)
    fit = fit_logistic(data, cfg.c2)
    route = solve_weighted_trp_dp(node_weights(fit.lam, nodes, cfg.cost_model), D).route
    # Built before any write, so a rejected weight leaves no output behind.
    route_doc = _route_dict(route, fit.lam, nodes, D, cfg.cost_model)
    out = Path(args.out_dir)
    dataio.write_json(out / "model.json", _model_dict(fit, args.c2, data))
    dataio.write_json(out / "route.json", route_doc)
    return 0


def cmd_simultaneous(args) -> int:
    _require(args, "train", "nodes", "distances", "c2", "out-dir")
    if args.test is not None and args.c1_grid is None:
        raise ValidationError("--test is only used with --c1-grid")
    data, nodes, D = _load_problem(args)
    test = dataio.load_labeled_csv(args.test) if args.test is not None else None
    if test is not None and test.d != data.d:
        raise ValidationError(
            f"test data has {test.d} feature columns, training data has {data.d}"
        )
    cfg = _mltrp_config(args, c1=args.c1 if args.c1 is not None else 0.0)
    grid = None
    if args.c1_grid is not None:
        # Checked before solving, so a rejected grid leaves no output behind.
        try:
            grid = check_c1_grid(float(tok) for tok in args.c1_grid.split(",") if tok.strip())
        except ValueError as exc:
            raise ValidationError(
                f"--c1-grid must be comma-separated numbers, got {args.c1_grid!r}: {exc}"
            ) from None
    out = Path(args.out_dir)
    sol = solve(args.method, data, nodes, D, cfg)
    route_doc = _route_dict(sol.route, sol.lam, nodes, D, cfg.cost_model)  # before any write
    dataio.write_json(
        out / "solution.json",
        {
            "method": sol.method,
            "c1": cfg.c1,
            "c2": cfg.c2,
            "cost_model": args.cost_model,
            "lambda": sol.lam,
            "route": list(sol.route),
            "route_string": route_string(sol.route),
            "training_error": sol.training_error,
            "traversal_cost": sol.traversal_cost,
            "combined_objective": sol.combined_objective,
            "trace": list(sol.trace),
        },
    )
    dataio.write_json(out / "route.json", route_doc)
    if grid is not None:
        rows = c1_sweep(data, nodes, D, cfg, grid, method=args.method, test_data=test)
        dataio.write_text(out / "sweep.csv", sweep_csv(rows))
    return 0


def cmd_export_milp(args) -> int:
    _require(args, "train", "nodes", "distances", "c2")
    if (args.lp_out is None) == (args.out_dir is None):
        raise ValidationError("export-milp takes exactly one of --lp-out or --out-dir")
    data, nodes, D = _load_problem(args)
    cfg = _mltrp_config(args)
    fit = fit_logistic(data, cfg.c2)
    w = node_weights(fit.lam, nodes, cfg.cost_model)
    text = export_lp(build_milp(w, D))
    target = Path(args.lp_out) if args.lp_out is not None else Path(args.out_dir) / "model.lp"
    dataio.write_text(target, text)
    return 0


def cmd_demo(args) -> int:
    _require(args, "out-dir")
    inst = INSTANCES[args.which](seed=args.seed)
    data, nodes, D = inst.train, inst.nodes, inst.D
    cfg = replace(inst.cfg, cost_model=args.cost_model)
    if args.c1 is not None:
        cfg = replace(cfg, c1=args.c1)
    if args.c2 is not None:
        cfg = replace(cfg, c2=args.c2)
    out = Path(args.out_dir)

    header = ",".join(f"f{k+1}" for k in range(data.d))
    train_rows = [header + ",label"] + [
        ",".join(repr(v) for v in row) + f",{int(lab):+d}"
        for row, lab in zip(data.features.tolist(), data.labels.tolist())
    ]
    dataio.write_text(out / "train.csv", "\n".join(train_rows) + "\n")
    node_rows = [header] + [",".join(repr(v) for v in row) for row in nodes.tolist()]
    dataio.write_text(out / "nodes.csv", "\n".join(node_rows) + "\n")
    dist_rows = [",".join(repr(v) for v in row) for row in D.tolist()]
    dataio.write_text(out / "distances.csv", "\n".join(dist_rows) + "\n")

    seq = solve("sequential", data, nodes, D, cfg)
    sim_sol = solve(args.method, data, nodes, D, cfg)

    def _summary(sol):
        return {
            **_route_costs(sol.route, sol.lam, nodes, D),
            "training_error": sol.training_error,
            "probabilities": node_weights(sol.lam, nodes, "cost1"),
        }

    s_seq, s_sim = _summary(seq), _summary(sim_sol)
    dataio.write_json(out / "sequential.json", s_seq)
    dataio.write_json(out / "simultaneous.json", s_sim)
    shift = np.abs(np.asarray(s_seq["probabilities"]) - np.asarray(s_sim["probabilities"]))
    dataio.write_json(
        out / "summary.json",
        {
            "instance": inst.name,
            "c1": cfg.c1,
            "c2": cfg.c2,
            "cost_model": args.cost_model,
            "method": sim_sol.method,
            "seed": args.seed,
            "sequential": s_seq,
            "simultaneous": s_sim,
            "cost1_reduction_pct": 100.0 * (s_seq["cost1"] - s_sim["cost1"]) / s_seq["cost1"],
            "probability_shift": shift,
            "max_shift_node": int(shift.argmax()) + 1,
            "odd_node": inst.odd_node,
        },
    )
    return 0


def cmd_simulate(args) -> int:
    _require(args, "train", "nodes", "distances", "c2", "out-dir")
    data, nodes, D = _load_problem(args)
    cfg = _mltrp_config(args)
    sol = solve("sequential", data, nodes, D, cfg)
    sim_cfg = SimConfig(trials=args.trials, seed=args.seed, steps_per_unit=args.steps_per_unit)
    report = simulate_route_cost(
        sol.route, D, sim_cfg, node_weights(sol.lam, nodes, "cost1"), model=args.cost_model
    )
    dataio.write_json(
        Path(args.out_dir) / "simulation.json",
        {**asdict(report), "route": list(sol.route), "route_string": route_string(sol.route)},
    )
    return 0


def cmd_bound(args) -> int:
    _require(args, "nodes", "distances", "cg", "eps", "out-dir")
    if args.c2 is not None and args.train is None:
        raise ValidationError("--c2 is only used with --train")
    nodes, D = _load_graph(args)
    m1 = args.m1
    m = args.m
    rows = nodes
    if args.train is not None:
        data = dataio.load_labeled_csv(args.train)
        if data.d != nodes.shape[1]:
            raise ValidationError(
                f"training data has {data.d} feature columns, nodes have {nodes.shape[1]}"
            )
        if args.c2 is None:
            raise ValidationError("--c2 is required when --train is used")
        fit = fit_logistic(data, args.c2)
        lam_norm = float(np.linalg.norm(fit.lam))
        m1 = max(m1, lam_norm) if m1 is not None else lam_norm
        m = m if m is not None else data.m
        rows = np.vstack([nodes, data.features])
    if m1 is None:
        raise ValidationError("supply --m1 or --train to set the coefficient norm cap")
    if m is None:
        raise ValidationError("supply --m or --train to set the sample size")
    m2 = args.m2 if args.m2 is not None else float(np.linalg.norm(rows, axis=1).max())
    try:
        inputs = BoundInputs(M1=m1, M2=m2, Cg=args.cg, eps=args.eps, m=m, nodes=nodes, D=D)
        # BoundInputs has checked the node rows, so only a training row can fail here.
        inputs.check_norms(rows, "training")
        report = generalization_bound(inputs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    dataio.write_json(
        Path(args.out_dir) / "bound.json",
        {
            "M1": m1,
            "M2": m2,
            "Cg": args.cg,
            "eps": args.eps,
            "m": m,
            "dimension": inputs.d,
            **asdict(report),
        },
    )
    return 0


def _text(value: str) -> str:
    """argparse type of the path and list flags: an empty value is an error,
    never the same as leaving the flag out."""
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


# Every flag the CLI knows, with its argparse settings; each subcommand takes
# only the flags it reads (_COMMANDS), so an irrelevant flag is rejected.
_FLAGS = {
    "train": dict(type=_text, help="training CSV (features + label column)"),
    "test": dict(type=_text, help="held-out CSV with the same columns"),
    "nodes": dict(type=_text, help="node feature CSV"),
    "distances": dict(type=_text, help="square travel-cost CSV, no header"),
    "c1": dict(type=float, help="routing-cost weight (default 0)"),
    "c2": dict(type=float, help="squared-norm regularization weight"),
    "cost-model": dict(
        choices=COST_MODELS, default="cost1",
        help="cost1: expected failure counts; cost2: only the first failure counts",
    ),
    "method": dict(choices=METHODS, default="am"),
    "seed": dict(type=int, default=0),
    "out-dir": dict(type=_text, help="directory for output files"),
    "c1-grid": dict(type=_text, help="comma-separated C1 values for a sweep CSV"),
    "trials": dict(type=int, default=100_000),
    "lp-out": dict(type=_text, help="output path for LP text"),
    "which": dict(choices=sorted(INSTANCES), default="six_node"),
    "steps-per-unit": dict(type=int, default=1),
    "cg": dict(type=float, help="budget on the weighted failure-rate sum"),
    "eps": dict(type=float, help="deviation size"),
    "m1": dict(type=float, help="coefficient norm cap"),
    "m2": dict(type=float, help="feature norm cap"),
    "m": dict(type=int, help="training sample size"),
}

# route, export-milp and simulate fix C1 at 0, so they take no --c1.
_PROBLEM = ("train", "nodes", "distances", "c2", "cost-model")
_COMMANDS = {
    "train": (cmd_train, "fit the regularized logistic model", ("train", "c2")),
    "route": (cmd_route, "fit, then route the fitted weights", _PROBLEM),
    "simultaneous": (
        cmd_simultaneous, "joint fit and route", _PROBLEM + ("c1", "test", "method", "c1-grid"),
    ),
    "export-milp": (cmd_export_milp, "write the routing MILP as LP text", _PROBLEM + ("lp-out",)),
    "demo": (
        cmd_demo, "run a bundled synthetic showcase",
        ("which", "method", "cost-model", "c1", "c2", "seed"),
    ),
    "simulate": (
        cmd_simulate, "Monte Carlo check of the analytic costs",
        _PROBLEM + ("trials", "seed", "steps-per-unit"),
    ),
    "bound": (
        cmd_bound, "evaluate the deviation bound",
        ("train", "nodes", "distances", "c2", "cg", "eps", "m1", "m2", "m"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repairroute",
        description="Failure-probability estimation coupled with minimum-latency routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags + ("out-dir",):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building one on every main() call grows the
    # resident set of a process that calls main() many times.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
