"""Write the outputs of a fixed list of CLI invocations into one directory tree.

    python3 tools/cli_golden.py OUT_DIR

Generates small seeded input CSVs under OUT_DIR/inputs, then runs every
subcommand of ``repairroute.cli.main`` in-process: both cost models, all
three methods, a C1 sweep over the grid 0, 0.25, 1 under each method,
simulate at one and at four steps per unit, both demos (one also under
cost2), and the bound with explicit caps, with --train, with a vacuous
budget and with a void one.  One more cost1 simulate, at 64 steps
per unit on the five-node graph with every distance four times as long,
has a node whose binomial draw has n * min(p, 1 - p) > 30, so numpy's BTPE
sampler is reached as well as its inversion.  A cost2 simulate at 2**62
steps per unit reaches every node after more than 2**63 - 1 steps, past
where numpy's geometric draw saturates, so the first-failure indicators'
exact thresholds are compared there too.  Two runs write a null where
standard JSON has no number: cost1 simulate on a copy of the five nodes
whose failure probabilities are all about 1e-20, so no trial fails, the
standard error is 0 and the z score is -inf, and the bound on a copy of the
five nodes with all-zero features, whose constraint vector is 0, so the
plane distance c_norm_inv and z_prime are inf.  Fourteen runs are refused
with exit code 2: route into a folder whose route.json is already a
directory (the refusal names that path, relative to OUT_DIR/inputs, and
the run must leave no model.json or temp file beside it), simulate at 10**400 steps per unit (above 2**63 - 1),
export-milp on a copy of the five nodes where one node's score is so low
that its weight underflows to 0 (a zero-weight node would
let the flow model close a subtour), cost2 export-milp on a copy of the
five nodes where nodes 2-4 have features (0, 3e307, 0), so each of their
weights is about 6.4e307 and the weight total overflows, cost1 simulate
on the five-node graph with every distance 1e19 times as long, whose
step counts exceed the binomial draw's 2**63 - 1, cost1 simulate on a copy of the five nodes
where one node's features are 1.7e308, so its score overflows, the bound
with --train and an --m2 of 2, above every node's feature norm but below
the largest training row's (the bound holds only for training rows within
M2), the bound with --train and an --m (the training set gives the sample
size), simultaneous with --test but no --c1-grid (held-out data feeds only
the sweep), a C1 sweep whose --test set has one class (its AUC is
undefined), the six-node demo at --c1 1e308, whose objective overflows
only after the demo's input CSVs are built (a refused run writes no file,
so its folder must not exist), sequential simultaneous at --c1 1e308,
where C1 times the route cost overflows, and the bound at --eps 1e-200 and
at --eps 1e-320, where the covering factor (32 M1 M2 / eps + 1)^d
overflows (at 1e-320 its base is already inf).  A second,
14-node graph with integer distances and repeated node features, whose
optimal routes tie, is routed and solved by Nelder-Mead under both cost
models and bounded with --train, so the comparison also covers a large DP,
its tie-breaking, and Nelder-Mead where the tied routes leave the DP no
margin to reuse.  A
third, 10-node graph of Euclidean distances between random points in the
plane, with distinct node features, is solved by Nelder-Mead under both
cost models: routes there do not tie, so most evaluations reuse the route
of an earlier DP call under its per-step certificate.  Each invocation
writes into its own OUT_DIR/<name>/ folder; OUT_DIR/exit_codes.txt records
its exit code and stderr.  OUT_DIR must be new or empty, so no stale folder
survives into a comparison; -h or --help prints this text.  The package is
imported from the ``src/`` next to this script, so running it from two
checkouts and comparing the trees with

    diff -r OUT_A OUT_B

shows whether a change altered any output byte.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def _csv(rows) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"


def _labeled(X, y) -> str:
    header = ",".join(f"f{k + 1}" for k in range(X.shape[1])) + ",label\n"
    return header + "".join(
        ",".join(repr(float(v)) for v in row) + f",{int(lab):+d}\n" for row, lab in zip(X, y)
    )


def write_inputs(folder: Path) -> None:
    """Three graphs with two features plus an intercept: five nodes and
    fourteen with tied optimal routes, both with asymmetric integer
    distances, and ten in the plane with distinct features.  Each graph
    draws from its own seeded generator, so adding one changes no other.
    The five-node graph also has copies with four and 1e19 times its
    distances, and copies of its nodes whose third node has a first
    feature of -1000, whose second node has 1.7e308 for both features,
    whose nodes 2-4 have features (0, 3e307, 0), whose every node has -13
    for both features, or whose every feature is 0; the test set has a copy
    of its positive rows alone."""
    rng = np.random.default_rng(20110526)
    folder.mkdir(parents=True, exist_ok=True)
    d, M = 2, 5
    for name, m in (("train.csv", 24), ("test.csv", 16)):
        y = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        X = np.column_stack([rng.normal(0.0, 1.0, (m, d)) + 1.2 * y[:, None], np.ones(m)])
        (folder / name).write_text(_labeled(X, y))
    (folder / "test_one_class.csv").write_text(_labeled(X[y > 0], y[y > 0]))
    nodes = np.column_stack([rng.normal(0.0, 0.8, (M, d)), np.ones(M)])
    header = ",".join(f"f{k + 1}" for k in range(d + 1)) + "\n"
    (folder / "nodes.csv").write_text(header + _csv(nodes))
    D = rng.integers(1, 10, (M, M)).astype(float)
    np.fill_diagonal(D, 0.0)
    (folder / "dist.csv").write_text(_csv(D))
    (folder / "dist_far.csv").write_text(_csv(4.0 * D))
    (folder / "dist_huge.csv").write_text(_csv(1e19 * D))
    underflow = nodes.copy()
    underflow[2, 0] = -1000.0
    (folder / "nodes_underflow.csv").write_text(header + _csv(underflow))
    overflow = nodes.copy()
    overflow[1, :d] = 1.7e308
    (folder / "nodes_overflow.csv").write_text(header + _csv(overflow))
    heavy = nodes.copy()
    heavy[1:4] = [0.0, 3e307, 0.0]
    (folder / "nodes_weight_overflow.csv").write_text(header + _csv(heavy))
    low_risk = nodes.copy()
    low_risk[:, :d] = -13.0
    (folder / "nodes_low_risk.csv").write_text(header + _csv(low_risk))
    (folder / "nodes_zero.csv").write_text(header + _csv(np.zeros_like(nodes)))

    # Nodes repeat three feature rows, so weights repeat and, with distances
    # 1-3, this seed's optimal routes tie (checked by swapping node pairs).
    rng = np.random.default_rng(19620105)
    M = 14
    proto = rng.normal(0.0, 0.8, (3, d))
    nodes = np.column_stack([proto[rng.integers(0, 3, M)], np.ones(M)])
    (folder / "nodes14.csv").write_text(header + _csv(nodes))
    D = rng.integers(1, 4, (M, M)).astype(float)
    np.fill_diagonal(D, 0.0)
    (folder / "dist14.csv").write_text(_csv(D))

    rng = np.random.default_rng(19720301)
    M = 10
    nodes = np.column_stack([rng.normal(0.0, 0.8, (M, d)), np.ones(M)])
    (folder / "nodes10.csv").write_text(header + _csv(nodes))
    xy = rng.uniform(0.0, 10.0, (M, 2))
    D = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    (folder / "dist10.csv").write_text(_csv(D))


def invocations() -> dict:
    base = ["--train", "train.csv", "--nodes", "nodes.csv", "--distances", "dist.csv", "--c2", "0.2"]
    runs = {"train": ["train", "--train", "train.csv", "--c2", "0.2"]}
    for model in ("cost1", "cost2"):
        runs[f"route_{model}"] = ["route", *base, "--cost-model", model]
        runs[f"export_milp_{model}"] = ["export-milp", *base, "--cost-model", model]
        runs[f"simulate_{model}"] = ["simulate", *base, "--cost-model", model, "--trials", "2000",
                                     "--seed", "3"]
        runs[f"simulate_k4_{model}"] = ["simulate", *base, "--cost-model", model, "--trials", "2000",
                                        "--seed", "3", "--steps-per-unit", "4"]
        for method in ("sequential", "nm", "am"):
            runs[f"simultaneous_{method}_{model}"] = [
                "simultaneous", *base, "--cost-model", model, "--method", method, "--c1", "0.5",
            ]
    runs["simulate_far_k64_cost1"] = ["simulate", "--train", "train.csv", "--nodes", "nodes.csv",
                                      "--distances", "dist_far.csv", "--c2", "0.2", "--cost-model",
                                      "cost1", "--trials", "2000", "--seed", "3", "--steps-per-unit",
                                      "64"]
    runs["export_milp_zero_weight"] = ["export-milp", "--train", "train.csv", "--nodes",
                                       "nodes_underflow.csv", "--distances", "dist.csv", "--c2",
                                       "0.2"]
    runs["export_milp_weight_overflow_cost2"] = ["export-milp", "--train", "train.csv",
                                                 "--nodes", "nodes_weight_overflow.csv",
                                                 "--distances", "dist.csv", "--c2", "0.2",
                                                 "--cost-model", "cost2"]
    runs["simulate_overflow_cost1"] = ["simulate", "--train", "train.csv", "--nodes", "nodes.csv",
                                       "--distances", "dist_huge.csv", "--c2", "0.2",
                                       "--cost-model", "cost1", "--trials", "2000", "--seed", "3"]
    runs["simulate_score_overflow_cost1"] = ["simulate", "--train", "train.csv", "--nodes",
                                             "nodes_overflow.csv", "--distances", "dist.csv",
                                             "--c2", "0.2", "--cost-model", "cost1", "--trials",
                                             "2000", "--seed", "3"]
    runs["simulate_low_risk_cost1"] = ["simulate", "--train", "train.csv", "--nodes",
                                       "nodes_low_risk.csv", "--distances", "dist.csv", "--c2",
                                       "0.2", "--cost-model", "cost1", "--trials", "2000", "--seed",
                                       "3"]
    runs["simulate_fine_cost2"] = ["simulate", *base, "--cost-model", "cost2", "--trials", "2000",
                                   "--seed", "3", "--steps-per-unit", str(2**62)]
    runs["simulate_steps_overflow"] = ["simulate", *base, "--trials", "2000", "--seed", "3",
                                       "--steps-per-unit", str(10**400)]
    runs["simultaneous_sequential_c1_overflow"] = ["simultaneous", *base, "--method", "sequential",
                                                   "--c1", "1e308"]
    runs["route_blocked_output"] = ["route", *base]  # main makes its route.json a directory
    runs["simultaneous_sweep"] = ["simultaneous", *base, "--c1", "0.5", "--c1-grid", "0,0.25,1",
                                  "--test", "test.csv"]
    for method in ("sequential", "nm"):
        runs[f"simultaneous_sweep_{method}"] = ["simultaneous", *base, "--method", method, "--c1",
                                                "0.5", "--c1-grid", "0,0.25,1", "--test",
                                                "test.csv"]
    runs["simultaneous_test_without_grid"] = ["simultaneous", *base, "--c1", "0.5", "--test",
                                              "test.csv"]
    runs["simultaneous_sweep_one_class_test"] = ["simultaneous", *base, "--c1", "0.5",
                                                 "--c1-grid", "0,0.25,1", "--test",
                                                 "test_one_class.csv"]
    for which in ("four_node", "six_node"):
        for method in ("nm", "am"):
            runs[f"demo_{which}_{method}"] = ["demo", "--which", which, "--method", method]
    runs["demo_four_node_sequential"] = ["demo", "--which", "four_node", "--method", "sequential"]
    runs["demo_six_node_am_cost2"] = ["demo", "--which", "six_node", "--cost-model", "cost2"]
    runs["demo_six_node_c1_overflow"] = ["demo", "--which", "six_node", "--c1", "1e308"]
    graph = ["--nodes", "nodes.csv", "--distances", "dist.csv", "--eps", "0.5"]
    runs["bound_caps"] = ["bound", *graph, "--cg", "2", "--m1", "2", "--m2", "2", "--m", "64"]
    runs["bound_train"] = ["bound", *graph, "--cg", "5", "--train", "train.csv", "--c2", "0.2"]
    runs["bound_vacuous"] = ["bound", *graph, "--cg", "1000", "--m1", "2", "--m2", "2", "--m", "64"]
    runs["bound_void"] = ["bound", *graph, "--cg", "0.001", "--m1", "2", "--m2", "2", "--m", "64"]
    runs["bound_zero_features"] = ["bound", "--nodes", "nodes_zero.csv", "--distances",
                                   "dist.csv", "--eps", "0.5", "--cg", "2", "--m1", "2", "--m2",
                                   "2", "--m", "64"]
    runs["bound_train_m2_low"] = ["bound", *graph, "--cg", "5", "--train", "train.csv", "--c2",
                                  "0.2", "--m2", "2"]
    runs["bound_train_m"] = ["bound", *graph, "--cg", "5", "--train", "train.csv", "--c2", "0.2",
                             "--m", "1000000"]
    for name, eps in (("bound_tiny_eps", "1e-200"), ("bound_denormal_eps", "1e-320")):
        runs[name] = ["bound", "--nodes", "nodes.csv", "--distances", "dist.csv", "--eps", eps,
                      "--cg", "2", "--m1", "2", "--m2", "2", "--m", "64"]
    large = ["--nodes", "nodes14.csv", "--distances", "dist14.csv"]
    for model in ("cost1", "cost2"):
        runs[f"route14_{model}"] = ["route", "--train", "train.csv", *large, "--c2", "0.2",
                                    "--cost-model", model]
        runs[f"simultaneous14_nm_{model}"] = ["simultaneous", "--train", "train.csv", *large,
                                             "--c2", "0.2", "--cost-model", model, "--method", "nm",
                                             "--c1", "0.5"]
    runs["bound14_train"] = ["bound", *large, "--eps", "0.5", "--cg", "5", "--train", "train.csv",
                             "--c2", "0.2"]
    plane = ["--nodes", "nodes10.csv", "--distances", "dist10.csv"]
    for model in ("cost1", "cost2"):
        runs[f"simultaneous10_nm_{model}"] = ["simultaneous", "--train", "train.csv", *plane,
                                             "--c2", "0.2", "--cost-model", model, "--method", "nm",
                                             "--c1", "0.5"]
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"error: {out} is not a new or empty directory", file=sys.stderr)
        return 2
    inputs = out / "inputs"
    write_inputs(inputs)
    sys.path.insert(0, str(SRC))
    from repairroute.cli import main as cli_main

    (out / "route_blocked_output" / "route.json").mkdir(parents=True)
    log = []
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        for name, args in invocations().items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main(args + ["--out-dir", str(Path("..") / name)])
            log.append(f"{name} {code} {err.getvalue().strip()}")
    finally:
        os.chdir(cwd)
    (out / "exit_codes.txt").write_text("\n".join(log) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
