"""Spans and counters around every function of the package's layers.

The tracer replaces each module-level function of the layer modules at every
binding the package holds (``repairroute.opt.solve_weighted_trp_dp`` and
``repairroute.bound.solve_weighted_trp_dp`` alike), so calls made inside a
module are traced too; ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited.  Each call adds to per-function call counts, inclusive
time and self time (its duration minus the time covered by traced children).
Spans of the coarser functions are also kept whole (id, name, start, end,
parent id) for writing out; the innermost helpers, called hundreds of
thousands of times per AM descent, are aggregated only.  Times are read
from ``hostspeed.program_time``, so the host-speed probes that interrupt a
traced call are not counted in it.
"""

import functools
import inspect
import statistics
import sys
from collections import Counter, defaultdict

from hostspeed import program_time

PACKAGE = "repairroute"
LAYERS = ("cli", "dataio", "learn", "opt", "trp", "core", "sim", "milp", "bound")

# Aggregated only: no span record is kept for these.
_INNER = {
    "learn.training_error", "learn.training_gradient", "learn.sigmoid_prob",
    "opt.obj", "opt.node_weights", "opt._fixed_route_gradient",
    "dataio._parse_float", "milp.zvar", "milp.yvar", "milp._fmt", "milp._expr",
    "sim._rng", "sim._check_prob", "sim._steps", "bound._betacf",
}

_SOLVERS = ("opt.nelder_mead", "opt.alternating_minimization", "opt.sequential_pipeline", "opt._finalize")


def _hook_dp(t, args, result, parent):
    M = len(result.route)
    t.counts["trp.dp_states"] += (1 << (M - 1)) * M
    if parent == "opt.alternating_minimization":
        t.counts["opt.am_rounds"] += 1


def _hook_fit(t, args, result, parent):
    t.counts["learn.fit_iters"] += result.iterations


def _hook_descent(t, args, result, parent):
    t.counts["learn.descent_iters"] += result.iterations
    t.counts["learn.descent_unconverged"] += int(not result.converged)


def _hook_sim(t, args, result, parent):
    t.counts["sim.draws"] += result.trials * len(args[0])


def _hook_build(t, args, result, parent):
    t.counts["milp.rows"] += len(result.constraints)


def _hook_export(t, args, result, parent):
    t.counts["milp.lp_bytes"] += len(result.encode())


def _hook_write(t, args, result, parent):
    t.counts["dataio.bytes_written"] += len(args[1].encode())


_HOOKS = {
    "trp.solve_weighted_trp_dp": _hook_dp,
    "learn.fit_logistic": _hook_fit,
    "learn.minimize_descent": _hook_descent,
    "sim.simulate_route_cost": _hook_sim,
    "milp.build_milp": _hook_build,
    "milp.export_lp": _hook_export,
    "dataio._atomic_write": _hook_write,
}


class Tracer:
    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        self.stack = []  # frames: [name, child seconds, nearest recorded span id]
        self.spans = []
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.dp_durations = []
        self._next_id = 0

    def _wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)
        record = not (name.startswith("core.") or name in _INNER)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = None
            if record:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [name, 0.0, sid if record else (parent[2] if parent else None)]
            stack.append(frame)
            t0 = program_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = program_time()
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if record:
                    tracer.spans.append((sid, name, t0, t1, parent[2] if parent else None))
            if name == "trp.solve_weighted_trp_dp":
                tracer.dp_durations.append(dur)
            if hook is not None:
                hook(tracer, args, result, parent[0] if parent else None)
            return result

        return traced

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched = []

    def snapshot(self) -> dict:
        """Exact counts and timings of everything traced since the last reset."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            layer_self[name.split(".")[0]] += s
        exact = {f"calls.{k}": v for k, v in sorted(self.calls.items())}
        exact.update(sorted(self.counts.items()))
        return {
            "exact": exact,
            "total": dict(self.total),
            "self": dict(self.self_s),
            "layer_self": layer_self,
            "dp_p50": statistics.median(self.dp_durations) if self.dp_durations else 0.0,
            "spans": list(self.spans),
        }


def _sum(table, prefix_or_names):
    if isinstance(prefix_or_names, str):
        return sum(v for k, v in table.items() if k.startswith(prefix_or_names))
    return sum(table.get(k, 0.0) for k in prefix_or_names)


def layer_metrics(snap) -> dict:
    """The per-layer metrics of one traced pass (counts exact, times in s)."""
    counts, total, selfs = snap["exact"], snap["total"], snap["self"]
    calls = lambda name: counts.get(f"calls.{name}", 0)  # noqa: E731
    descents = calls("learn.minimize_descent")
    sim_s = total.get("sim.simulate_route_cost", 0.0)
    return {
        "trp.dp_calls": calls("trp.solve_weighted_trp_dp"),
        "trp.dp_s": total.get("trp.solve_weighted_trp_dp", 0.0),
        "trp.dp_s_per_call_p50": snap["dp_p50"],
        "trp.dp_states": counts.get("trp.dp_states", 0),
        "bound.calls": calls("bound.generalization_bound"),
        "bound.self_s": _sum(selfs, "bound."),
        "bound.shortest_distances_calls": calls("bound.shortest_distances"),
        "learn.fit_calls": calls("learn.fit_logistic"),
        "learn.fit_iters": counts.get("learn.fit_iters", 0),
        "learn.descent_calls": descents,
        "learn.descent_iters": counts.get("learn.descent_iters", 0),
        "learn.descent_unconverged": counts.get("learn.descent_unconverged", 0),
        "learn.descent_converged_ratio": (
            (descents - counts.get("learn.descent_unconverged", 0)) / descents if descents else 1.0
        ),
        "learn.descent_s": total.get("learn.minimize_descent", 0.0),
        "learn.training_error_calls": calls("learn.training_error"),
        "opt.obj_calls": calls("opt.obj"),
        "opt.obj_s": total.get("opt.obj", 0.0),
        "opt.nm_evals": calls("opt.simultaneous_objective"),
        "opt.am_rounds": counts.get("opt.am_rounds", 0),
        "opt.solver_self_s": _sum(selfs, _SOLVERS),
        "core.cost1_calls": calls("core.cost1"),
        "core.latency_calls": calls("core.latency"),
        "core.as_distance_matrix_calls": calls("core.as_distance_matrix"),
        "core.cost1_s": total.get("core.cost1", 0.0),
        "sim.calls": calls("sim.simulate_route_cost"),
        "sim.s": sim_s,
        "sim.draws": counts.get("sim.draws", 0),
        "sim.draws_per_s": counts.get("sim.draws", 0) / sim_s if sim_s > 0 else 0.0,
        "milp.build_s": total.get("milp.build_milp", 0.0),
        "milp.rows": counts.get("milp.rows", 0),
        "milp.export_s": total.get("milp.export_lp", 0.0),
        "milp.lp_bytes": counts.get("milp.lp_bytes", 0),
        "dataio.load_s": _sum(total, ("dataio.load_labeled_csv", "dataio.load_nodes_csv", "dataio.load_distances_csv")),
        "dataio.write_s": total.get("dataio._atomic_write", 0.0),
        "dataio.bytes_written": counts.get("dataio.bytes_written", 0),
        "cli.self_s": _sum(selfs, "cli."),
    }
