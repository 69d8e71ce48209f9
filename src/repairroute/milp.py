"""Single-commodity flow formulation of the weighted latency routing problem.

The crew leaves node 1 carrying every node's weight, drops each node's
weight on arrival, and carries node 1's share all the way around;
minimizing sum d_ij * z_ij over degree-, flow-, and capacity-feasible (y, z)
reproduces the optimal route cost (Gavish & Graves 1978).  A zero-weight
node could sit on a zero-flow subtour, so nodes 2..M need positive weights.

Variables x = (z row-major, y row-major), nodes 1-based: z_i_j, column
(i - 1) * M + j - 1, is the weight carried along edge (i, j) and y_i_j, M * M
columns on, its binary indicator; bounds are 0 <= x <= ub, with z_i_i and
y_i_i fixed at 0.  Rows in order: deg_in_j, deg_out_i, ret (the closing
legs carry node 1's weight), flow_k (conservation) and link_i_j (z_i_j <=
cap * y_i_j, no y term where cap is 0).  Row r holds the terms vals[a:b] on
columns cols[a:b], a, b = indptr[r], indptr[r + 1], in LP text order;
eq[r] marks an == row (else <=) and rhs[r] is its right-hand side.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_distance_matrix, as_weights


@dataclass(frozen=True)
class MilpInstance:
    M: int
    D: np.ndarray
    constraints: tuple  # row names, in row order
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    eq: np.ndarray
    rhs: np.ndarray
    ub: np.ndarray


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
    """Assemble the flow model's rows in a fixed, deterministic order."""
    D = as_distance_matrix(D)
    w = as_weights(w, D.shape[0])
    M = D.shape[0]
    zero = np.flatnonzero(w[1:] == 0.0)
    if zero.size:
        raise ValueError(
            f"node {zero[0] + 2} has weight 0 (its score underflowed); the flow model "
            "needs a positive weight on every node but node 1"
        )
    r = flow_caps(w)
    Z = np.arange(M * M).reshape(M, M)
    Y = Z + M * M
    off = ~np.eye(M, dtype=bool)
    nodes = range(1, M + 1)
    names = [f"deg_in_{j}" for j in nodes] + [f"deg_out_{i}" for i in nodes] + ["ret"]
    names += [f"flow_{k}" for k in nodes] + [f"link_{i}_{j}" for i in nodes for j in nodes]
    # Fixed-width rows: degrees, ret, then flow_k (in-edges of k, out-edges of k).
    flow = np.hstack([Z.T[off].reshape(M, M - 1), Z[off].reshape(M, M - 1)])
    fixed = [(Y.T, 1.0), (Y, 1.0), (Z[:, :1].T, 1.0), (flow, np.repeat([1.0, -1.0], M - 1))]
    # link_i_j: 1 z_i_j - cap y_i_j, without the y term where cap == 0.
    link_cols = np.stack([Z.ravel(), Y.ravel()], axis=1)
    link_vals = np.stack([np.ones(M * M), -r.ravel()], axis=1)
    keep = link_vals != 0.0
    lengths = [np.full(c.shape[0], c.shape[1]) for c, _ in fixed] + [keep.sum(axis=1)]
    vals = [np.broadcast_to(v, c.shape).ravel() for c, v in fixed] + [link_vals[keep]]
    flow_rhs = w.copy()
    flow_rhs[0] = float(w[0]) - float(w.sum())
    return MilpInstance(
        M=M,
        D=D,
        constraints=tuple(names),
        indptr=np.concatenate([[0], np.cumsum(np.concatenate(lengths))]),
        cols=np.concatenate([c.ravel() for c, _ in fixed] + [link_cols[keep]]),
        vals=np.concatenate(vals),
        eq=np.arange(len(names)) < 3 * M + 1,
        rhs=np.concatenate([np.ones(2 * M), w[:1], flow_rhs, np.zeros(M * M)]),
        ub=np.concatenate([np.where(off, r, 0.0).ravel(), off.ravel().astype(float)]),
    )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _expr(pairs) -> str:
    text = " ".join(f"+ {_fmt(c)} {v}" if c >= 0 else f"- {_fmt(-c)} {v}" for v, c in pairs)
    return text[2:] if text.startswith("+") else text


def export_lp(instance: MilpInstance) -> str:
    """Render the model as deterministic CPLEX-LP text.

    Same instance, same bytes: variable and row order are fixed, numerals are
    printed with 17 significant digits, and no timestamps or environment
    details are embedded.
    """
    M = instance.M
    nodes = range(1, M + 1)
    names = [f"{v}_{i}_{j}" for v in "zy" for i in nodes for j in nodes]
    edges = np.flatnonzero(~np.eye(M, dtype=bool))
    obj = zip([names[c] for c in edges], instance.D.ravel()[edges].tolist())
    lines = ["Minimize", f" obj: {_expr(obj)}", "Subject To"]
    ptr, cols, vals = instance.indptr.tolist(), instance.cols.tolist(), instance.vals.tolist()
    rows = zip(instance.constraints, ptr, ptr[1:], instance.eq.tolist(), instance.rhs.tolist())
    for name, a, b, eq, rhs in rows:
        terms = _expr(zip([names[c] for c in cols[a:b]], vals[a:b]))
        lines.append(f" {name}: {terms} {'=' if eq else '<='} {_fmt(rhs)}")
    lines.append("Bounds")
    ub = instance.ub.tolist()
    for c, name in enumerate(names[: M * M]):
        lines.append(f" {name} = 0" if c % (M + 1) == 0 else f" 0 <= {name} <= {_fmt(ub[c])}")
    lines += [f" {names[M * M + c]} = 0" for c in range(0, M * M, M + 1)]
    lines += ["Binaries"] + [f" {name}" for name in names[M * M :]] + ["End"]
    return "\n".join(lines) + "\n"
