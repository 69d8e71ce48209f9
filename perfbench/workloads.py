"""Seeded inputs and the CLI operations of each workload.

Every input is drawn from ``numpy.random.SeedSequence([seed, workload, instance])``
and written as the CSV files the CLI reads; the program sees nothing else.
Geometry and features are drawn stratified (one value per equal-width
stratum, in random order) so that one seed's instances differ from
another's in arrangement but not in overall scale, which keeps run time and
objective sums comparable across seeds.  NOTES.md explains each choice.
"""

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# workload name -> its index in the seed sequence (BENCHMARK.json says why each exists)
WORKLOADS = {"plan_large": 1, "am_small": 2, "nm_mid": 3}

PLAN_SIZES = (15, 16, 16)
AM_SOLVES = 8
NM_SOLVES = 16
AM_C2 = 0.003
SIM_TRIALS = 100_000
SURVEY_TRIALS = 20_000


@dataclass
class Instance:
    """One generated problem: the arrays the checks use and the CSVs the CLI reads."""

    name: str
    X: np.ndarray
    y: np.ndarray
    nodes: np.ndarray
    D: np.ndarray
    files: dict = field(default_factory=dict)

    @property
    def M(self) -> int:
        return self.D.shape[0]


@dataclass
class Op:
    """One CLI call: its argv, its output directory and what the checks need."""

    kind: str
    argv: list
    out: Path
    inst: Instance | None = None
    cost_model: str = "cost1"
    c1: float = 0.0
    c2: float = 0.0
    survey: bool = False  # one of the calls that only make every layer traced


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _strata(rng, n, lo, hi) -> np.ndarray:
    """n values, one drawn uniformly in each of n equal slices of [lo, hi], shuffled."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _node_features(rng, M, d, half_width=2.0) -> np.ndarray:
    """Stratified features in [-half_width, half_width] per column; the depot's are 0.

    Node 1 waits the whole tour, so its weight scales the largest latency;
    holding its features at 0 keeps the objective's scale from hanging on
    one draw.
    """
    nodes = np.zeros((M, d))
    for k in range(d):
        nodes[1:, k] = _strata(rng, M - 1, -half_width, half_width)
    return nodes


def _clusters(rng, rows, d, sep):
    """Two labelled Gaussian clusters at +-sep in every coordinate, rows shuffled."""
    per = rows // 2
    X = np.vstack([rng.normal(sep, 1.0, (per, d)), rng.normal(-sep, 1.0, (rows - per, d))])
    y = np.concatenate([np.ones(per), -np.ones(rows - per)])
    order = rng.permutation(rows)
    return X[order], y[order]


def _plane(rng, M, side=10.0) -> np.ndarray:
    """Euclidean distances between M points, one per cell of a jittered grid."""
    k = math.ceil(math.sqrt(M))
    cells = rng.choice(k * k, size=M, replace=False)
    xy = (np.column_stack([cells % k, cells // k]) + rng.random((M, 2))) * (side / k)
    return np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)


def _road(rng, M, spacing=10.0) -> np.ndarray:
    """Distances between M stops on one road; the depot sits at its start."""
    pos = np.zeros(M)
    pos[1:] = spacing * (1 + rng.permutation(M - 1) + rng.uniform(-0.3, 0.3, M - 1))
    return np.abs(pos[:, None] - pos[None, :])


def _write(path: Path, lines):
    path.write_text("\n".join(lines) + "\n")


def _save(inst: Instance, folder: Path) -> Instance:
    folder.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"f{k + 1}" for k in range(inst.X.shape[1]))
    fmt = lambda row: ",".join(repr(float(v)) for v in row)  # noqa: E731
    files = {
        "train": folder / "train.csv",
        "nodes": folder / "nodes.csv",
        "distances": folder / "distances.csv",
    }
    _write(
        files["train"],
        [header + ",label"] + [fmt(r) + (",+1" if lab > 0 else ",-1") for r, lab in zip(inst.X, inst.y)],
    )
    _write(files["nodes"], [header] + [fmt(r) for r in inst.nodes])
    _write(files["distances"], [fmt(r) for r in inst.D])
    inst.files = files
    return inst


def _plan_instance(seed, i, M) -> Instance:
    rng = _rng(seed, WORKLOADS["plan_large"], i)
    X, y = _clusters(rng, 100, 3, 2.5)
    return Instance(f"plan{i}_M{M}", X, y, _node_features(rng, M, 3), _plane(rng, M))


def _am_instance(seed, i) -> Instance:
    # The second training column copies the first, so the training loss is
    # flat along lam1 - lam2 apart from the c2 penalty, while the node columns
    # differ a little: the fixed-route descent must crawl along that flat
    # direction.  Nodes sit on one road, so the exact route does not depend
    # on the weights and each solve makes exactly one AM descent.
    rng = _rng(seed, WORKLOADS["am_small"], i)
    M = 5 + i % 2
    per = 10
    t = np.concatenate([rng.normal(2.5, 1.0, per), rng.normal(-2.5, 1.0, per)])
    y = np.concatenate([np.ones(per), -np.ones(per)])
    order = rng.permutation(2 * per)
    X = np.column_stack([t, t])[order]
    u = _node_features(rng, M, 1, 2.2)[:, 0]
    nodes = np.column_stack([u, u + 0.1 * rng.normal(size=M) * (u != 0)])
    return Instance(f"am{i}_M{M}", X, y[order], nodes, _road(rng, M))


def _survey_instance(seed, workload) -> Instance:
    """A small well-separated instance for the survey calls (its fits converge)."""
    rng = _rng(seed, WORKLOADS[workload], 1000)
    X, y = _clusters(rng, 20, 2, 2.5)
    return Instance("survey_M6", X, y, _node_features(rng, 6, 2), _plane(rng, 6))


def _nm_instance(seed, i) -> Instance:
    rng = _rng(seed, WORKLOADS["nm_mid"], i)
    X, y = _clusters(rng, 60, 3, 2.5)
    return Instance(f"nm{i}_M10", X, y, _node_features(rng, 10, 3), _plane(rng, 10))


def build(workload: str, seed: int, folder: Path) -> list:
    """Generate and write every instance of one workload for one seed."""
    if workload == "plan_large":
        made = [_plan_instance(seed, i, M) for i, M in enumerate(PLAN_SIZES)]
    elif workload == "am_small":
        made = [_am_instance(seed, i) for i in range(AM_SOLVES)] + [_survey_instance(seed, workload)]
    elif workload == "nm_mid":
        made = [_nm_instance(seed, i) for i in range(NM_SOLVES)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [_save(inst, folder / inst.name) for inst in made]


def _problem(inst: Instance) -> list:
    f = inst.files
    return ["--train", str(f["train"]), "--nodes", str(f["nodes"]), "--distances", str(f["distances"])]


def _model(i: int) -> str:
    return "cost1" if i % 2 == 0 else "cost2"


def _route(inst, out, model, c2):
    argv = ["route", *_problem(inst), "--c2", repr(c2), "--cost-model", model, "--out-dir", str(out)]
    return Op("route", argv, out, inst, model, 0.0, c2)


def _simulate(inst, out, model, c2, trials, sim_seed):
    argv = [
        "simulate", *_problem(inst), "--c2", repr(c2), "--cost-model", model,
        "--trials", str(trials), "--seed", str(sim_seed), "--out-dir", str(out),
    ]
    return Op("simulate", argv, out, inst, model, 0.0, c2)


def _export(inst, out, model, c2):
    argv = ["export-milp", *_problem(inst), "--c2", repr(c2), "--cost-model", model, "--out-dir", str(out)]
    return Op("export-milp", argv, out, inst, model, 0.0, c2)


def _bound(inst, out, c2):
    # Cg = M * max(D) exceeds the tangent intercept mass for any fit: the
    # intercept slope is at most 1/2 and the distance floors sum to less
    # than (2M - 1) * max(D).
    cg = inst.M * float(inst.D.max())
    argv = [
        "bound", "--train", str(inst.files["train"]), "--nodes", str(inst.files["nodes"]),
        "--distances", str(inst.files["distances"]), "--c2", repr(c2),
        "--cg", repr(cg), "--eps", "0.5", "--out-dir", str(out),
    ]
    return Op("bound", argv, out, inst, "cost1", 0.0, c2)


def _simultaneous(inst, out, method, model, c1, c2):
    argv = [
        "simultaneous", *_problem(inst), "--method", method, "--cost-model", model,
        "--c1", repr(c1), "--c2", repr(c2), "--out-dir", str(out),
    ]
    return Op("simultaneous", argv, out, inst, model, c1, c2)


def _demo(out):
    argv = ["demo", "--which", "four_node", "--method", "am", "--out-dir", str(out)]
    return Op("demo", argv, out, survey=True)


def operations(workload: str, seed: int, instances: list, out_root: Path) -> list:
    """The fixed operation list of one pass.

    Each workload's own operations come first.  A pass then ends with one
    call of each subcommand the workload does not otherwise use, on small
    inputs, so that every layer is timed in every workload; these survey
    calls take a few percent of a pass.
    """
    ops = []
    numbers = itertools.count()
    out = lambda tag: out_root / f"{next(numbers):02d}-{tag}"  # noqa: E731
    if workload == "plan_large":
        c2 = 0.1
        for i, inst in enumerate(instances):
            model = _model(i)
            ops.append(_route(inst, out("route"), model, c2))
            ops.append(_simulate(inst, out("simulate"), model, c2, SIM_TRIALS, seed * 1000 + i))
            ops.append(_export(inst, out("milp"), model, c2))
            ops.append(_bound(inst, out("bound"), c2))
        ops.append(_demo(out("demo")))
    elif workload == "am_small":
        # cost2 only: with cost1 a quarter to a half of these descents still
        # converge, which would make a run's time depend on the seed (NOTES.md).
        for inst in instances[:-1]:
            ops.append(_simultaneous(inst, out("am"), "am", "cost2", 1.0, AM_C2))
        ops += _survey(instances[-1], out, seed)
    elif workload == "nm_mid":
        for i, inst in enumerate(instances):
            ops.append(_simultaneous(inst, out("nm"), "nm", _model(i), 0.5, 0.1))
        ops += _survey(instances[0], out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _survey(inst, out, seed) -> list:
    ops = [
        _simulate(inst, out("simulate"), "cost1", 0.1, SURVEY_TRIALS, seed),
        _export(inst, out("milp"), "cost1", 0.1),
        _bound(inst, out("bound"), 0.1),
    ]
    for op in ops:
        op.survey = True
    return ops + [_demo(out("demo"))]
