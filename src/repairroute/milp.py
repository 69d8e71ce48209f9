"""Single-commodity flow formulation of the weighted latency routing problem.

Variables, both 1-based and row-major: y_i_j is the binary edge indicator and
z_i_j the weight still carried while traversing edge (i, j).  The crew leaves
node 1 carrying every node's weight, drops each node's weight on arrival, and
carries node 1's share all the way around; minimizing sum d_ij * z_ij over
degree-, flow-, and capacity-feasible (y, z) reproduces the optimal route
cost.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_distance_matrix, as_weights

EQ_TOL = 1e-9


def zvar(i: int, j: int) -> str:
    return f"z_{i}_{j}"


def yvar(i: int, j: int) -> str:
    return f"y_{i}_{j}"


@dataclass(frozen=True)
class Constraint:
    """One linear row; coeffs maps variable name to coefficient, zeros dropped."""

    name: str
    coeffs: dict
    sense: str  # "==" or "<="
    rhs: float


@dataclass(frozen=True)
class MilpInstance:
    M: int
    w: np.ndarray
    D: np.ndarray
    r: np.ndarray  # per-edge flow caps used in the linking rows
    constraints: tuple


def flow_caps(w) -> np.ndarray:
    """Tightest constant that bounds z_i_j on each edge.

    Edges into node 1 only ever carry node 1's weight (the closing leg);
    edges out of node 1 carry at most everything; any other edge leaves a
    node whose own weight has already been dropped, so it carries at most
    everything except that node's weight.
    """
    w = as_weights(w)
    M = w.shape[0]
    wtot = float(w.sum())
    r = np.empty((M, M))
    r[:] = (wtot - w)[:, None]
    r[0, :] = wtot
    r[:, 0] = w[0]  # column rule wins on edges into node 1
    return r


def build_milp(w, D) -> MilpInstance:
    """Assemble the flow model rows in a fixed, deterministic order."""
    D = as_distance_matrix(D)
    w = as_weights(w, D.shape[0])
    M = D.shape[0]
    wtot = float(w.sum())
    r = flow_caps(w)

    cons = []
    for j in range(1, M + 1):
        cons.append(
            Constraint(
                name=f"deg_in_{j}",
                coeffs={yvar(i, j): 1.0 for i in range(1, M + 1)},
                sense="==",
                rhs=1.0,
            )
        )
    for i in range(1, M + 1):
        cons.append(
            Constraint(
                name=f"deg_out_{i}",
                coeffs={yvar(i, j): 1.0 for j in range(1, M + 1)},
                sense="==",
                rhs=1.0,
            )
        )
    cons.append(
        Constraint(
            name="ret",
            coeffs={zvar(i, 1): 1.0 for i in range(1, M + 1)},
            sense="==",
            rhs=float(w[0]),
        )
    )
    for k in range(1, M + 1):
        coeffs = {}
        for i in range(1, M + 1):
            if i != k:
                coeffs[zvar(i, k)] = 1.0
        for j in range(1, M + 1):
            if j != k:
                coeffs[zvar(k, j)] = -1.0
        rhs = float(w[0]) - wtot if k == 1 else float(w[k - 1])
        cons.append(Constraint(name=f"flow_{k}", coeffs=coeffs, sense="==", rhs=rhs))
    for i in range(1, M + 1):
        for j in range(1, M + 1):
            coeffs = {zvar(i, j): 1.0}
            cap = float(r[i - 1, j - 1])
            if cap != 0.0:
                coeffs[yvar(i, j)] = -cap
            cons.append(
                Constraint(name=f"link_{i}_{j}", coeffs=coeffs, sense="<=", rhs=0.0)
            )
    return MilpInstance(M=M, w=w, D=D, r=r, constraints=tuple(cons))


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple  # (row or bound name, amount) pairs above EQ_TOL


def check_feasible(instance: MilpInstance, Y, Z) -> FeasibilityReport:
    """Evaluate every row, bound, and integrality condition of the model at (Y, Z)."""
    M = instance.M
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Y.shape != (M, M) or Z.shape != (M, M):
        raise ValueError(f"Y and Z must be {M}x{M} arrays")
    vals = {}
    for i in range(1, M + 1):
        for j in range(1, M + 1):
            vals[yvar(i, j)] = float(Y[i - 1, j - 1])
            vals[zvar(i, j)] = float(Z[i - 1, j - 1])

    violations = []
    for con in instance.constraints:
        res = sum(c * vals[v] for v, c in con.coeffs.items()) - con.rhs
        if con.sense == "==":
            if abs(res) > EQ_TOL:
                violations.append((con.name, abs(res)))
        elif res > EQ_TOL:
            violations.append((con.name, res))

    for i in range(1, M + 1):
        for j in range(1, M + 1):
            z = float(Z[i - 1, j - 1])
            y = float(Y[i - 1, j - 1])
            cap = float(instance.r[i - 1, j - 1]) if i != j else 0.0
            zb = max(0.0, -z, z - cap)
            if zb > EQ_TOL:
                violations.append((f"bound_{zvar(i, j)}", zb))
            nearest = 0.0 if y < 0.5 else 1.0
            ybad = abs(y) if i == j else abs(y - nearest)
            if ybad > EQ_TOL:
                violations.append((f"binary_{yvar(i, j)}", ybad))

    return FeasibilityReport(feasible=not violations, violations=tuple(violations))


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _expr(pairs) -> str:
    parts = []
    for var, coef in pairs:
        if not parts:
            parts.append(f"{_fmt(coef)} {var}" if coef >= 0 else f"- {_fmt(-coef)} {var}")
        elif coef >= 0:
            parts.append(f"+ {_fmt(coef)} {var}")
        else:
            parts.append(f"- {_fmt(-coef)} {var}")
    return " ".join(parts)


def export_lp(instance: MilpInstance) -> str:
    """Render the model as deterministic CPLEX-LP text.

    Same instance, same bytes: variable and row order are fixed, numerals are
    printed with 17 significant digits, and no timestamps or environment
    details are embedded.
    """
    M = instance.M
    lines = ["Minimize"]
    obj_terms = [
        (zvar(i, j), float(instance.D[i - 1, j - 1]))
        for i in range(1, M + 1)
        for j in range(1, M + 1)
        if i != j
    ]
    lines.append(f" obj: {_expr(obj_terms)}")
    lines.append("Subject To")
    for con in instance.constraints:
        sense = "=" if con.sense == "==" else "<="
        lines.append(f" {con.name}: {_expr(con.coeffs.items())} {sense} {_fmt(con.rhs)}")
    lines.append("Bounds")
    for i in range(1, M + 1):
        for j in range(1, M + 1):
            if i == j:
                lines.append(f" {zvar(i, j)} = 0")
            else:
                lines.append(f" 0 <= {zvar(i, j)} <= {_fmt(instance.r[i - 1, j - 1])}")
    for i in range(1, M + 1):
        lines.append(f" {yvar(i, i)} = 0")
    lines.append("Binaries")
    for i in range(1, M + 1):
        for j in range(1, M + 1):
            lines.append(f" {yvar(i, j)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
