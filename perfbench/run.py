"""Benchmark of the repairroute command line, one workload per invocation.

    python3 perfbench/run.py --workload plan_large --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout.  It generates the workload's CSV
inputs from --seed, calls ``repairroute.cli.main`` in-process one operation
at a time (a closed loop with one client, BLAS/OpenMP threads pinned to 1),
checks every output, and repeats the workload's fixed operation list (a
"pass") while another pass still fits in --seconds.  Every timed step is
scaled to a reference host speed by probes of the host's speed taken
around and during it (hostspeed.py); raw times go to the details file.  The last line of
standard output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  NOTES.md describes the workloads and
metrics; details of each run go to .perfbench_out/.
"""

import os

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repairroute.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END_UNITS = {"wall_s": "s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MiB", "objective_sum": "1"}
LAYER_UNITS = {
    "trp.dp_calls": "count", "trp.dp_s": "s", "trp.dp_s_per_call_p50": "s", "trp.dp_states": "count",
    "bound.calls": "count", "bound.self_s": "s", "bound.shortest_distances_calls": "count",
    "learn.fit_calls": "count", "learn.fit_iters": "count", "learn.descent_calls": "count",
    "learn.descent_iters": "count", "learn.descent_unconverged": "count",
    "learn.descent_converged_ratio": "1", "learn.descent_s": "s", "learn.training_error_calls": "count",
    "opt.obj_calls": "count", "opt.obj_s": "s", "opt.nm_evals": "count", "opt.am_rounds": "count",
    "opt.solver_self_s": "s",
    "core.cost1_calls": "count", "core.latency_calls": "count", "core.as_distance_matrix_calls": "count",
    "core.cost1_s": "s",
    "sim.calls": "count", "sim.s": "s", "sim.draws": "count", "sim.draws_per_s": "1/s",
    "milp.build_s": "s", "milp.rows": "count", "milp.export_s": "s", "milp.lp_bytes": "B",
    "dataio.load_s": "s", "dataio.write_s": "s", "dataio.bytes_written": "B",
    "cli.import_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(workload, seed, work):
    """Fresh-interpreter import plus input generation, SETUP_REPS times.

    Returns (median set-up seconds at reference host speed, median raw
    set-up seconds, median import seconds, instances).
    """
    totals, raw, imports = [], [], []
    instances = None

    def once(folder):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing repairroute.cli failed:\n{proc.stderr}")
        imports.append(float(proc.stdout.split()[-1]))
        return workloads.build(workload, seed, folder)

    clock = hostspeed.Clock()
    for rep in range(SETUP_REPS):
        # no probes while the child runs: they would compete with it
        raw_s, scaled_s, instances = clock.run(once, work / f"inputs{rep}", sample=False)
        raw.append(raw_s)
        totals.append(scaled_s)
    return statistics.median(totals), statistics.median(raw), statistics.median(imports), instances


def _digest(folder: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        h.update(path.relative_to(folder).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return -1


class Pass:
    def __init__(self):
        self.raw, self.times, self.codes, self.digests = [], [], [], []
        self.verdicts = None
        self.snap = None
        self.elapsed = 0.0  # the whole pass: calls, probes and checks

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def one_pass(cli, ops, tracer=None, verify=False) -> Pass:
    p = Pass()
    if verify:
        p.verdicts = []
    start = perf_counter()
    clock = hostspeed.Clock()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            shutil.rmtree(op.out, ignore_errors=True)
            raw_s, scaled_s, code = clock.run(_call, cli, op.argv)
            p.raw.append(raw_s)
            p.times.append(scaled_s)
            p.codes.append(code)
            p.digests.append(_digest(op.out) if op.out.exists() else "")
            if verify:
                p.verdicts.append(checks.check(op, code))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        p.snap = tracer.snapshot()
    p.elapsed = perf_counter() - start
    return p


def run_passes(cli, ops, budget, tracer=None, first=False) -> list:
    """Passes until another would overrun the budget; at least one."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(one_pass(cli, ops, tracer, verify=first and not passes))
        if perf_counter() - start + passes[-1].elapsed > budget:
            return passes


def _source_hash() -> str:
    h = hashlib.sha256()
    for base in (SRC / "repairroute", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(source_hash) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ[k] for k in _THREAD_VARS},
        "commit": _git_commit(),
        "source_sha256": source_hash,
    }


def check_state(workload, seed, source_hash, objective_sum, exact) -> list:
    """Compare this run's deterministic results with earlier runs of the same seed and code."""
    folder = OUT / "state"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload}-s{seed}-{source_hash[:16]}.json"
    mine = {"objective_sum": float(objective_sum).hex()}
    if exact is not None:
        mine["exact"] = exact
    seen = json.loads(path.read_text()) if path.exists() else {}
    problems = [
        f"determinism: {key} differs from an earlier run of this seed"
        for key in mine
        if key in seen and seen[key] != mine[key]
    ]
    if not problems:
        seen.update(mine)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, sort_keys=True))
        tmp.replace(path)
    return problems


def _percentile_report(times) -> dict:
    """Median, plus the highest of p75/p90/p95/p99 with at least ten samples above it."""
    out = {"n": len(times), "op_s_p50": statistics.median(times)}
    for q in (99, 95, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            out[f"op_s_p{q}"] = float(np.percentile(times, q))
            break
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "repairroute" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'repairroute'}; run from a repairroute checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work) -> int:
    setup_s, setup_raw_s, import_s, instances = setup(args.workload, args.seed, work)
    sys.path.insert(0, str(SRC))
    import repairroute.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "repairroute").resolve():
        print(f"error: imported repairroute from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ops = workloads.operations(args.workload, args.seed, instances, work / "out")
    source_hash = _source_hash()
    env = environment(source_hash)

    if args.trace:
        plain = run_passes(cli, ops, args.seconds / 2, first=True)
        tracer = tracing.Tracer()
        traced = run_passes(cli, ops, args.seconds / 2, tracer=tracer)
    else:
        plain = run_passes(cli, ops, args.seconds, first=True)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Failures: exit codes and checks of the first pass; every later pass
    # must write byte-identical outputs.
    first = plain[0]
    bad = [bool(v.problems) for v in first.verdicts]
    problems = [f"op {i} {ops[i].kind} {ops[i].inst.name if ops[i].inst else ''}: {msg}"
                for i, v in enumerate(first.verdicts) for msg in v.problems]
    jobs = [(i, w, D, claimed, label) for i, v in enumerate(first.verdicts) for (w, D, claimed, label) in v.optima]
    for idx, msg in checks.verify_optima(jobs):
        if idx is None:
            problems.append(msg)
        else:
            bad[idx] = True
            problems.append(f"op {idx} {ops[idx].kind}: {msg}")
    attempted = failed = 0
    for p in plain + traced:
        for i in range(len(ops)):
            attempted += 1
            drift = p.digests[i] != first.digests[i]
            if drift:
                problems.append(f"determinism: op {i} {ops[i].kind} wrote different bytes in a later pass")
            failed += int(p.codes[i] != 0 or bad[i] or drift)
    objective_sum = float(sum(v.objective for v in first.verdicts))

    exact = None
    if traced:
        exact = traced[0].snap["exact"]
        if any(p.snap["exact"] != exact for p in traced[1:]):
            problems.append("determinism: exact counts differ between traced passes")
    problems += check_state(args.workload, args.seed, source_hash, objective_sum, exact)
    correct = failed == 0 and not problems

    walls = [p.wall for p in plain]
    op_times = [t for p in plain for op, t in zip(ops, p.times) if not op.survey]
    pct = _percentile_report(op_times)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "passes": len(plain), "traced_passes": len(traced), "ops_per_pass": len(ops),
        "pass_walls_s": walls, "raw_pass_walls_s": [p.raw_wall for p in plain],
        "setup_raw_s": setup_raw_s, "reference_probe_s": hostspeed.REFERENCE_S,
        "op_kinds": [op.kind for op in ops], "op_times_s": [p.times for p in plain],
        "raw_op_times_s": [p.raw for p in plain], "problems": problems,
        "fail_ratio": failed / attempted,
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} pass(es) of {len(ops)} operations, {len(traced)} traced")
    print("env " + json.dumps(env, sort_keys=True))
    for msg in problems[:20]:
        print("FAIL " + msg)

    if args.trace:
        per_pass = [tracing.layer_metrics(p.snap) for p in traced]
        layer = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            layer[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
        traced_wall = statistics.median(p.wall for p in traced)
        layer["cli.import_s"] = import_s
        layer["trace.overhead_s"] = traced_wall - statistics.median(walls)
        # spans are in raw program seconds, so their base is the raw pass wall
        shares = {k: v / traced[-1].raw_wall for k, v in traced[-1].snap["layer_self"].items()}
        shares["unattributed"] = 1.0 - sum(shares.values())
        summary.update(per_layer=layer, layer_shares=shares, traced_walls_s=[p.wall for p in traced],
                       spans_fields=["id", "name", "start", "end", "parent"], spans=traced[-1].snap["spans"])
        print("layer self-time shares of a traced pass: "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        metrics = {k: {"value": layer[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}
    else:
        e2e = {
            "wall_s": statistics.median(walls),
            "op_s_p50": pct["op_s_p50"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "objective_sum": objective_sum,
        }
        summary.update(end_to_end=e2e, op_percentiles=pct)
        metrics = {k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
        tail = ", ".join(f"{k} {v:.6g} s" for k, v in pct.items() if k.startswith("op_s_p") and k != "op_s_p50")
        print(f"operations timed (survey calls excluded): {pct['n']}" + (f"; {tail}" if tail else ""))
        print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} operations failed)")
        print(f"raw (unscaled) wall_s {statistics.median(p.raw_wall for p in plain):.6g} s, "
              f"setup_s {setup_raw_s:.6g} s")

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
