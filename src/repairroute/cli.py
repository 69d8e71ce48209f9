"""Command-line front end.

Subcommands cover the full workflow: fit a model, route a fitted model,
optimize both jointly, export the routing MILP as LP text, replay the
bundled demos, validate costs by simulation, and evaluate the deviation
bound.  Each command returns {path: document}, with null for a number that
can be inf or nan; main renders every document (a str as text, anything
else as standard JSON) and, once all are rendered, writes them all or none
(dataio.write_texts), so a run that exits non-zero writes no file.  Outputs
contain no timestamps or host details, so identical invocations produce
identical bytes.  Exit codes: 0 on success, 2 for bad input (an input that
cannot be read or an output path that cannot be written included), 1 for
internal errors.
"""

import argparse
import functools
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import dataio
from .bound import BoundInputs, generalization_bound
from .core import _cost2_exact, latency, standard_trp_cost
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


def _json_number(x: float) -> float | None:
    # JSON has no inf or nan; such a value is written as null.
    return x if math.isfinite(x) else None


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


def _route_doc(route, lam, nodes, D, cost_model: str | None = None) -> dict:
    # A route under the model lam with both failure costs, the expected
    # failure count (cost1) and the early-failure probability (cost2_exact),
    # priced from its latencies and each model's weights, each taken once.
    # Given the cost model it was routed by, also its latencies, weights and
    # unweighted cost, and the naive route by those weights, priced alike.
    p, rates = (node_weights(lam, nodes, model) for model in COST_MODELS)

    def costs(route, lat):
        return {"route": list(route), "route_string": route_string(route),
                "cost1": float(p @ lat), "cost2_exact": _cost2_exact(lat, rates)}

    lat = latency(route, D)
    doc = {**costs(route, lat), "probabilities": p}
    if cost_model is None:
        return doc
    w = p if cost_model == "cost1" else rates
    naive = naive_route(w)
    naive_lat = latency(naive, D)
    return {
        **doc,
        "latencies_by_node": lat,
        "weights": w,
        "weighted_latency_cost": float(w @ lat),
        "standard_trp_cost": standard_trp_cost(route, D),
        "naive": {**costs(naive, naive_lat), "weighted_latency_cost": float(w @ naive_lat)},
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


def cmd_train(args) -> dict:
    data = dataio.load_labeled_csv(args.train)
    fit = fit_logistic(data, args.c2)
    return {Path(args.out_dir) / "model.json": _model_dict(fit, args.c2, data)}


def cmd_route(args) -> dict:
    data, nodes, D = _load_problem(args)
    cfg = _mltrp_config(args)
    fit = fit_logistic(data, cfg.c2)
    route = solve_weighted_trp_dp(node_weights(fit.lam, nodes, cfg.cost_model), D).route
    out = Path(args.out_dir)
    return {
        out / "model.json": _model_dict(fit, args.c2, data),
        out / "route.json": _route_doc(route, fit.lam, nodes, D, cfg.cost_model),
    }


def cmd_simultaneous(args) -> dict:
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
        # Checked before solving, so a rejected grid, or a set whose sweep
        # AUC is undefined, fails fast.
        try:
            grid = check_c1_grid(float(tok) for tok in args.c1_grid.split(","))
        except ValueError as exc:
            raise ValidationError(
                f"--c1-grid must be comma-separated numbers, got {args.c1_grid!r}: {exc}"
            ) from None
        for flag, path, labeled in (("--train", args.train, data), ("--test", args.test, test)):
            if labeled is not None and np.unique(labeled.labels).size < 2:
                raise ValidationError(
                    f"{flag} {path} has one class; the sweep's AUC needs both labels"
                )
    out = Path(args.out_dir)
    sol = solve(args.method, data, nodes, D, cfg)
    docs = {
        out / "solution.json": {
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
        out / "route.json": _route_doc(sol.route, sol.lam, nodes, D, cfg.cost_model),
    }
    if grid is not None:
        rows = c1_sweep(data, nodes, D, cfg, grid, method=args.method, test_data=test)
        docs[out / "sweep.csv"] = sweep_csv(rows)
    return docs


def cmd_export_milp(args) -> dict:
    data, nodes, D = _load_problem(args)
    cfg = _mltrp_config(args)
    fit = fit_logistic(data, cfg.c2)
    w = node_weights(fit.lam, nodes, cfg.cost_model)
    return {Path(args.out_dir) / "model.lp": export_lp(build_milp(w, D))}


def cmd_demo(args) -> dict:
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
    node_rows = [header] + [",".join(repr(v) for v in row) for row in nodes.tolist()]
    dist_rows = [",".join(repr(v) for v in row) for row in D.tolist()]

    seq = solve("sequential", data, nodes, D, cfg)
    # seq.lam is the deterministic fit that solve would otherwise redo, and
    # a second sequential solve would return seq again.
    sim_sol = (seq if args.method == "sequential"
               else solve(args.method, data, nodes, D, cfg, seq.lam))

    s_seq, s_sim = (
        {**_route_doc(sol.route, sol.lam, nodes, D), "training_error": sol.training_error}
        for sol in (seq, sim_sol)
    )
    shift = np.abs(np.asarray(s_seq["probabilities"]) - np.asarray(s_sim["probabilities"]))
    return {
        out / "train.csv": "\n".join(train_rows) + "\n",
        out / "nodes.csv": "\n".join(node_rows) + "\n",
        out / "distances.csv": "\n".join(dist_rows) + "\n",
        out / "sequential.json": s_seq,
        out / "simultaneous.json": s_sim,
        out / "summary.json": {
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
    }


def cmd_simulate(args) -> dict:
    data, nodes, D = _load_problem(args)
    cfg = _mltrp_config(args)
    sol = solve("sequential", data, nodes, D, cfg)
    sim_cfg = SimConfig(trials=args.trials, seed=args.seed, steps_per_unit=args.steps_per_unit)
    report = simulate_route_cost(
        sol.route, D, sim_cfg, node_weights(sol.lam, nodes, "cost1"), model=args.cost_model
    )
    return {
        Path(args.out_dir) / "simulation.json":
            {**asdict(report), "z_score": _json_number(report.z_score), "route": list(sol.route),
             "route_string": route_string(sol.route)},
    }


def cmd_bound(args) -> dict:
    if args.c2 is not None and args.train is None:
        raise ValidationError("--c2 is only used with --train")
    if args.m is not None and args.train is not None:
        raise ValidationError("--m is only used without --train")
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
        norm = float(np.linalg.norm(fit.lam))
        # The bound holds only for coefficients within M1 (slack as in check_norms).
        if m1 is None:
            m1 = norm
        elif norm > m1 * (1 + 1e-12) + 1e-12:
            raise ValidationError(f"fitted coefficient norm {norm:.6g} exceeds the M1 cap {m1:.6g}")
        m = data.m
        rows = np.vstack([nodes, data.features])
    if m1 is None:
        raise ValidationError("supply --m1 or --train to set the coefficient norm cap")
    if m is None:
        raise ValidationError("supply --m or --train to set the sample size")
    m2 = args.m2 if args.m2 is not None else float(np.linalg.norm(rows, axis=1).max())
    inputs = BoundInputs(M1=m1, M2=m2, Cg=args.cg, eps=args.eps, m=m, nodes=nodes, D=D)
    # BoundInputs has checked the node rows, so only a training row can fail here.
    inputs.check_norms(rows, "training")
    report = generalization_bound(inputs)
    return {
        Path(args.out_dir) / "bound.json": {
            "M1": m1,
            "M2": m2,
            "Cg": args.cg,
            "eps": args.eps,
            "m": m,
            "dimension": inputs.d,
            **asdict(report),
            "c_norm_inv": _json_number(report.c_norm_inv),
            "z_prime": _json_number(report.z_prime),
        },
    }


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
    "which": dict(choices=sorted(INSTANCES), default="six_node"),
    "steps-per-unit": dict(type=int, default=1),
    "cg": dict(type=float, help="budget on the weighted failure-rate sum"),
    "eps": dict(type=float, help="deviation size"),
    "m1": dict(type=float, help="coefficient norm cap"),
    "m2": dict(type=float, help="feature norm cap"),
    "m": dict(type=int, help="training sample size"),
}

# name: (function, help, flags besides --out-dir, required flags in checking
# order).  route, export-milp and simulate fix C1 at 0, so take no --c1.
_PROBLEM = ("train", "nodes", "distances", "c2", "cost-model")
_REQUIRED = ("train", "nodes", "distances", "c2", "out-dir")
_COMMANDS = {
    "train": (
        cmd_train, "fit the regularized logistic model", ("train", "c2"),
        ("train", "c2", "out-dir"),
    ),
    "route": (cmd_route, "fit, then route the fitted weights", _PROBLEM, _REQUIRED),
    "simultaneous": (
        cmd_simultaneous, "joint fit and route", _PROBLEM + ("c1", "test", "method", "c1-grid"),
        _REQUIRED,
    ),
    "export-milp": (cmd_export_milp, "write the routing MILP as LP text", _PROBLEM, _REQUIRED),
    "demo": (
        cmd_demo, "run a bundled synthetic showcase",
        ("which", "method", "cost-model", "c1", "c2", "seed"), ("out-dir",),
    ),
    "simulate": (
        cmd_simulate, "Monte Carlo check of the analytic costs",
        _PROBLEM + ("trials", "seed", "steps-per-unit"), _REQUIRED,
    ),
    "bound": (
        cmd_bound, "evaluate the deviation bound",
        ("train", "nodes", "distances", "c2", "cg", "eps", "m1", "m2", "m"),
        ("nodes", "distances", "cg", "eps", "out-dir"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repairroute",
        description="Failure-probability estimation coupled with minimum-latency routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags + ("out-dir",):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building one on every main() call grows the
    # resident set of a process that calls main() many times.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    func, _, _, required = _COMMANDS[args.command]
    try:
        for name in required:
            if getattr(args, name.replace("-", "_")) is None:
                raise ValidationError(f"--{name} is required for this command")
        dataio.write_texts({path: doc if isinstance(doc, str) else dataio.json_text(doc)
                            for path, doc in func(args).items()})
        return 0
    except (ValueError, OSError) as exc:
        # An OSError here is an input that cannot be read or an output path
        # that cannot be written; its message names the path.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
