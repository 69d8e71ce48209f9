import itertools
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repairroute.cli as cli_mod
import repairroute.core as core_mod
import repairroute.dataio as dataio_mod
from repairroute.cli import main
from repairroute.core import (
    LabeledDataset, cost1, cost2_exact, latency, sigmoid, softplus, standard_trp_cost,
)
from repairroute.dataio import (
    ValidationError,
    load_distances_csv,
    load_labeled_csv,
    load_nodes_csv,
    json_text,
)
from repairroute.demo import INSTANCES
import repairroute.opt as opt_mod
import repairroute.learn as learn_mod
from repairroute.learn import fit_logistic, training_gradient
from repairroute.opt import MltrpConfig, node_weights, route_string, solve
from repairroute.trp import naive_route, solve_weighted_trp_dp

from conftest import blobs, load_tool, random_instance

GOLDEN = Path(__file__).parent / "data" / "cli_m2.lp"

M2_TRAIN = "f1,label\n1.5,+1\n2.0,+1\n-1.5,-1\n-2.0,-1\n"
M2_NODES = "f1\n0.8\n-0.4\n"
M2_DIST = "0,3\n4,0\n"


def write_problem(tmp_path, data, nodes, D, name=""):
    """Serialize an in-memory instance into the three CLI input files."""
    d = data.d
    header = ",".join(f"f{k+1}" for k in range(d))
    train = [header + ",label"]
    for row, lab in zip(data.features.tolist(), data.labels.tolist()):
        train.append(",".join(repr(v) for v in row) + f",{int(lab):+d}")
    tp = tmp_path / f"train{name}.csv"
    tp.write_text("\n".join(train) + "\n")
    np_ = tmp_path / f"nodes{name}.csv"
    np_.write_text("\n".join([header] + [",".join(repr(v) for v in r) for r in nodes.tolist()]) + "\n")
    dp = tmp_path / f"dist{name}.csv"
    dp.write_text("\n".join(",".join(repr(v) for v in r) for r in D.tolist()) + "\n")
    return str(tp), str(np_), str(dp)


def problem(tmp_path, seed=0, M=5, d=2):
    rng = np.random.default_rng(seed + 500)
    data = blobs(seed, per_side=10, d=d)
    nodes = rng.normal(0.0, 1.2, size=(M, d))
    _, D = random_instance(seed, M)
    paths = write_problem(tmp_path, data, nodes, D)
    return paths, data, nodes, D


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def read_standard_json(path):
    """read_json, refusing the Infinity, -Infinity and NaN tokens that jq and
    JavaScript reject."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_refuse_constant)


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name through every binding the package holds."""
    real, calls = getattr(module, name), []

    def counting(*a, **k):
        calls.append(1)
        return real(*a, **k)

    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "repairroute" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def assert_priced(doc, route, lam, nodes, D):
    """Both failure costs of a route document (route.json's and demo's),
    equal bit for bit to the public functions at lam."""
    p, rates = node_weights(lam, nodes, "cost1"), node_weights(lam, nodes, "cost2")
    assert doc["route"] == route
    assert doc["route_string"] == route_string(route)
    assert doc["cost1"] == cost1(route, p, D)
    assert doc["cost2_exact"] == cost2_exact(route, rates, D)


class TestLoaders:
    def test_labeled_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,f2,label\n0.5,-1.25,+1\n2.0,3.0,-1\n1.0,0.0,1\n")
        ds = load_labeled_csv(p)
        assert np.array_equal(ds.features, [[0.5, -1.25], [2.0, 3.0], [1.0, 0.0]])
        assert np.array_equal(ds.labels, [1.0, -1.0, 1.0])

    def test_duplicate_header_names_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,f1,label\n1,2,+1\n")
        with pytest.raises(ValidationError, match="duplicate header column 'f1'"):
            load_labeled_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,f2\n1,2\n")
        with pytest.raises(ValidationError, match="label"):
            load_labeled_csv(p)

    def test_bad_label_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,label\n1,+1\n2,0\n")
        with pytest.raises(ValidationError, match=r"t\.csv:3"):
            load_labeled_csv(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,f2,label\n1,2,+1\n3,-1\n")
        with pytest.raises(ValidationError, match=r"t\.csv:3: expected 3 fields, got 2"):
            load_labeled_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,label\nnan,+1\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_labeled_csv(p)
        p.write_text("f1,label\ninf,-1\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_labeled_csv(p)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    @pytest.mark.parametrize("loader", ["labeled", "nodes", "distances"])
    def test_non_finite_cell_names_path_line_and_text(self, tmp_path, loader, cell):
        p = tmp_path / "t.csv"
        load, text, line = {
            "labeled": (load_labeled_csv, f"f1,f2,label\n1,2,+1\n3,{cell},-1\n", 3),
            "nodes": (load_nodes_csv, f"f1,f2\n1,2\n3,{cell}\n", 3),
            "distances": (load_distances_csv, f"0,1\n{cell},0\n", 2),
        }[loader]
        p.write_text(text)
        with pytest.raises(ValidationError) as err:
            load(p)
        assert str(err.value) == f"{p}:{line}: non-finite value {cell!r}"

    def test_not_a_number_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,label\n1.0,+1\nabc,-1\n")
        with pytest.raises(ValidationError, match=r"t\.csv:3: not a number: 'abc'"):
            load_labeled_csv(p)

    def test_empty_and_missing_files(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_labeled_csv(p)
        with pytest.raises(ValidationError, match="not found"):
            load_labeled_csv(tmp_path / "absent.csv")
        p.write_text("f1,label\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_labeled_csv(p)

    @pytest.mark.parametrize("load", [load_labeled_csv, load_nodes_csv, load_distances_csv])
    def test_undecodable_bytes_name_the_file(self, tmp_path, load):
        p = tmp_path / "t.csv"
        p.write_bytes(b"0,1\n\xff,0\n")
        with pytest.raises(ValidationError) as exc:
            load(p)
        assert str(exc.value).startswith(f"{p}: 'utf-8' codec can't decode byte 0xff")

    def test_nodes_reject_label_column(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("f1,label\n1,2\n")
        with pytest.raises(ValidationError, match="label"):
            load_nodes_csv(p)
        p.write_text("f1,f2\n1.5,2.5\n-1,0\n")
        assert np.array_equal(load_nodes_csv(p), [[1.5, 2.5], [-1.0, 0.0]])

    def test_distances_must_be_square(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n2,0\n3,4\n")
        with pytest.raises(ValidationError, match="expected 3 fields"):
            load_distances_csv(p)

    def test_distances_validation_carries_path(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n2,5\n")
        with pytest.raises(ValidationError, match=r"d\.csv: .*diagonal"):
            load_distances_csv(p)

    def test_write_json_deterministic(self, tmp_path):
        doc = {"b": np.array([1.5, 2.5]), "a": np.float64(3.5), "c": [np.int64(2)]}
        (tmp_path / "x.json").write_text(json_text(doc))
        first = (tmp_path / "x.json").read_bytes()
        (tmp_path / "x.json").write_text(json_text(doc))
        assert (tmp_path / "x.json").read_bytes() == first
        parsed = json.loads(first)
        assert parsed == {"a": 3.5, "b": [1.5, 2.5], "c": [2]}
        assert first.endswith(b"\n")
        assert first.decode().index('"a"') < first.decode().index('"b"')

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_json_text_refuses_non_standard_numbers(self, bad):
        with pytest.raises(ValueError, match="not JSON compliant"):
            json_text({"a": [1.0, np.float64(bad)]})


class TestTrain:
    def test_separable_pair(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,label\n2.0,+1\n-2.0,-1\n")
        assert main(["train", "--train", str(p), "--c2", "0.1", "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "model.json")
        lam = np.array(doc["lambda"])
        assert sigmoid(2.0 * lam[0]) > 0.5
        assert sigmoid(-2.0 * lam[0]) < 0.5

    def test_loss_round_trip(self, tmp_path):
        (tp, _, _), data, _, _ = problem(tmp_path, seed=4)
        assert main(["train", "--train", tp, "--c2", "0.3", "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "model.json")
        fit = fit_logistic(data, 0.3)
        assert doc["loss"] == pytest.approx(fit.loss, abs=1e-12)
        assert np.allclose(doc["lambda"], fit.lam, atol=1e-12)
        assert doc["converged"] is True
        assert 0.0 <= doc["train_auc"] <= 1.0

    def test_missing_inputs_exit_two(self, tmp_path, capsys):
        assert main(["train", "--c2", "0.1", "--out-dir", str(tmp_path)]) == 2
        assert "--train is required" in capsys.readouterr().err
        assert main(["train", "--train", str(tmp_path / "nope.csv"), "--c2", "0.1",
                     "--out-dir", str(tmp_path)]) == 2
        assert "not found" in capsys.readouterr().err
        (tmp_path / "t.csv").write_text("f1,label\n1,+1\n")
        assert main(["train", "--train", str(tmp_path / "t.csv"), "--out-dir", str(tmp_path)]) == 2
        assert "--c2 is required" in capsys.readouterr().err

    def test_negative_c2_exits_two(self, tmp_path, capsys):
        (tp, _, _), *_ = problem(tmp_path, seed=4)
        out = tmp_path / "out"
        assert main(["train", "--train", tp, "--c2", "-1", "--out-dir", str(out)]) == 2
        assert "error: C2 must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestRoute:
    def test_two_node_route_string(self, tmp_path):
        for name, content in [("t", M2_TRAIN), ("n", M2_NODES), ("d", M2_DIST)]:
            (tmp_path / f"{name}.csv").write_text(content)
        assert main(["route", "--train", str(tmp_path / "t.csv"), "--nodes", str(tmp_path / "n.csv"),
                     "--distances", str(tmp_path / "d.csv"), "--c2", "0.5",
                     "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "route.json")
        assert doc["route_string"] == "1-2-1"
        assert doc["route"] == [1, 2]

    def test_equal_probability_nodes_reduce_to_standard_trp(self, tmp_path):
        data = blobs(3, per_side=10, d=2)
        nodes = np.tile([0.7, -0.2], (4, 1))
        _, D = random_instance(3, 4)
        tp, np_, dp = write_problem(tmp_path, data, nodes, D)
        assert main(["route", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "route.json")
        p = doc["probabilities"][0]
        assert doc["probabilities"] == pytest.approx([p] * 4, rel=1e-12)
        best_std = min(
            standard_trp_cost([1] + list(t), D) for t in itertools.permutations(range(2, 5))
        )
        assert doc["standard_trp_cost"] == pytest.approx(best_std, rel=1e-12)
        assert doc["cost1"] == pytest.approx(p * best_std, rel=1e-12)

    def test_naive_route_never_beats_optimal(self, tmp_path):
        (tp, np_, dp), data, nodes, D = problem(tmp_path, seed=9, M=7)
        assert main(["route", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "route.json")
        assert doc["naive"]["cost1"] >= doc["cost1"] - 1e-12
        assert doc["naive"]["route_string"].startswith("1-")

    def test_latency_and_cost_fields(self, tmp_path):
        (tp, np_, dp), data, nodes, D = problem(tmp_path, seed=2, M=4)
        assert main(["route", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.4", "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "route.json")
        route = doc["route"]
        fit = fit_logistic(data, 0.4)
        assert np.allclose(doc["latencies_by_node"], latency(route, D), rtol=1e-12)
        assert doc["cost1"] == pytest.approx(cost1(route, sigmoid(nodes @ fit.lam), D), rel=1e-10)
        rates = node_weights(fit.lam, nodes, "cost2")
        assert doc["cost2_exact"] == pytest.approx(cost2_exact(route, rates, D), rel=1e-10)

    @pytest.mark.parametrize("seed,M", [(0, 4), (1, 5), (2, 7), (3, 9), (4, 11), (5, 14)])
    @pytest.mark.parametrize("model", ["cost1", "cost2"])
    @pytest.mark.parametrize("command", ["route", "simultaneous"])
    def test_every_pricing_field_equals_the_public_functions(self, tmp_path, seed, M, model,
                                                             command):
        (tp, np_, dp), data, nodes, D = problem(tmp_path, seed=seed, M=M)
        extra = ["--c1", "0.5"] if command == "simultaneous" else []
        assert main([command, "--train", tp, "--nodes", np_, "--distances", dp, "--c2", "0.3",
                     "--cost-model", model, *extra, "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "route.json")
        lam_doc = "solution.json" if command == "simultaneous" else "model.json"
        lam = np.array(read_json(tmp_path / lam_doc)["lambda"])
        route = doc["route"]
        w = node_weights(lam, nodes, model)
        if command == "route":
            assert route == solve_weighted_trp_dp(w, D).route
        else:
            assert route == read_json(tmp_path / "solution.json")["route"]
        assert_priced(doc, route, lam, nodes, D)
        assert doc["probabilities"] == node_weights(lam, nodes, "cost1").tolist()
        assert doc["weights"] == w.tolist()
        assert doc["latencies_by_node"] == latency(route, D).tolist()
        assert doc["weighted_latency_cost"] == cost1(route, w, D)
        assert doc["standard_trp_cost"] == standard_trp_cost(route, D)
        naive = naive_route(w)
        assert_priced(doc["naive"], naive, lam, nodes, D)
        assert doc["naive"]["weighted_latency_cost"] == cost1(naive, w, D)

    def test_prices_from_one_latency_vector_per_route(self, tmp_path, monkeypatch):
        # One route run: the fit, the DP and route.json with its naive route.
        # Each route's latencies are computed once, each model's weights once
        # beside the DP's, and D is checked on loading, by the DP, by the two
        # latencies and by the unweighted cost.
        (tp, np_, dp), *_ = problem(tmp_path, seed=1, M=6)
        lat = count_calls(monkeypatch, core_mod, "_latency")
        weights = count_calls(monkeypatch, opt_mod, "node_weights")
        checks = count_calls(monkeypatch, core_mod, "as_distance_matrix")
        assert main(["route", "--train", tp, "--nodes", np_, "--distances", dp, "--c2", "0.3",
                     "--out-dir", str(tmp_path)]) == 0
        assert len(lat) == 2
        assert len(weights) <= 3
        assert len(checks) <= 5

    def test_dimension_mismatches_exit_two(self, tmp_path, capsys):
        (tp, np_, dp), *_ = problem(tmp_path, seed=0, M=5, d=2)
        other = blobs(1, per_side=5, d=3)
        tp3, _, _ = write_problem(tmp_path, other, np.zeros((5, 3)), np.zeros((5, 5)), name="3")
        assert main(["route", "--train", tp3, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--out-dir", str(tmp_path)]) == 2
        assert "columns" in capsys.readouterr().err
        _, D6 = random_instance(1, 6)
        dp6 = tmp_path / "d6.csv"
        dp6.write_text("\n".join(",".join(repr(v) for v in r) for r in D6.tolist()) + "\n")
        assert main(["route", "--train", tp, "--nodes", np_, "--distances", str(dp6),
                     "--c2", "0.2", "--out-dir", str(tmp_path)]) == 2
        assert "do not match" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["cost1", "cost2"])
    @pytest.mark.parametrize(
        "command",
        [["route"], ["simultaneous", "--method", "sequential"], ["simultaneous", "--method", "nm"],
         ["simultaneous", "--method", "am"], ["simulate"]],
        ids=["route", "simultaneous", "simultaneous_nm", "simultaneous_am", "simulate"],
    )
    def test_overflowing_score_exits_two(self, tmp_path, capsys, command, model):
        # Node 2's features are near the largest double and the fitted lam is
        # positive, so its score lam . x overflows to +inf.  node_weights
        # refuses it where it is made, under either model and in every
        # command, with no numpy warning and before any file is written.
        data = blobs(3, per_side=10, d=2)
        nodes = np.array([[0.1, 0.2], [1.7e308, 1.7e308], [0.3, -0.1]])
        _, D = random_instance(3, 3)
        tp, np_, dp = write_problem(tmp_path, data, nodes, D)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*command, "--train", tp, "--nodes", np_, "--distances", dp,
                         "--c2", "0.2", "--cost-model", model, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: node 2 has a non-finite score lambda . x = inf\n"
        assert "RuntimeWarning" not in err
        assert not out.exists()


class TestSimultaneous:
    def test_c1_zero_matches_route_command(self, tmp_path):
        (tp, np_, dp), *_ = problem(tmp_path, seed=5)
        route_dir = tmp_path / "a"
        sim_dir = tmp_path / "b"
        assert main(["route", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--out-dir", str(route_dir)]) == 0
        assert main(["simultaneous", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--c1", "0", "--method", "am",
                     "--out-dir", str(sim_dir)]) == 0
        a = read_json(route_dir / "route.json")
        b = read_json(sim_dir / "route.json")
        assert a["route"] == b["route"]
        sol = read_json(sim_dir / "solution.json")
        assert sol["c1"] == 0.0
        assert sol["combined_objective"] == pytest.approx(sol["training_error"], rel=1e-12)

    def test_c1_zero_inner_solve_converges_from_capped_fit(self, tmp_path, monkeypatch):
        # The instance above, started from a fit capped at 10000 iterations:
        # lam0 has |grad| 1.7e-8, just over _GRAD_TOL, where the loss can no
        # longer resolve a Newton step's decrease.  AM's inner solve must
        # still converge, and fast.
        _, data, nodes, D = problem(tmp_path, seed=5)
        cfg = MltrpConfig(c2=0.2, c1=0.0)
        lam0 = np.array([1.7640446768697184, 0.9925920874813046])
        gnorm = np.linalg.norm(training_gradient(lam0, data, cfg.c2))
        assert learn_mod._GRAD_TOL < gnorm < 2e-8
        results = []
        real_descent = opt_mod.minimize_descent

        def recording_descent(*a, **k):
            results.append(real_descent(*a, **k))
            return results[-1]

        monkeypatch.setattr(opt_mod, "minimize_descent", recording_descent)
        solve("am", data, nodes, D, cfg, lam0=lam0)
        assert results
        assert all(r.converged and r.iterations <= 10 for r in results), results

    @pytest.mark.parametrize("method", ["sequential", "nm", "am"])
    def test_methods_and_trace(self, tmp_path, method):
        (tp, np_, dp), *_ = problem(tmp_path, seed=6)
        out = tmp_path / method
        assert main(["simultaneous", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--c1", "0.8", "--method", method,
                     "--out-dir", str(out)]) == 0
        sol = read_json(out / "solution.json")
        assert sol["method"] == method
        trace = sol["trace"]
        assert len(trace) >= 1
        assert all(b <= a + 1e-7 for a, b in zip(trace, trace[1:]))
        assert sol["combined_objective"] == pytest.approx(
            sol["training_error"] + 0.8 * sol["traversal_cost"], abs=1e-9
        )

    def test_cost2_model_uses_softplus_weights(self, tmp_path):
        (tp, np_, dp), data, nodes, D = problem(tmp_path, seed=7)
        assert main(["simultaneous", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--c1", "0.5", "--cost-model", "cost2",
                     "--out-dir", str(tmp_path)]) == 0
        sol = read_json(tmp_path / "solution.json")
        assert sol["cost_model"] == "cost2"
        route_doc = read_json(tmp_path / "route.json")
        lam = np.array(sol["lambda"])
        assert np.allclose(route_doc["weights"], softplus(nodes @ lam), rtol=1e-10)
        assert np.allclose(route_doc["probabilities"], sigmoid(nodes @ lam), rtol=1e-10)

    def test_sweep_csv(self, tmp_path):
        (tp, np_, dp), *_ = problem(tmp_path, seed=8)
        test_csv, _, _ = write_problem(tmp_path, blobs(80, per_side=8), np.zeros((1, 2)),
                                       np.zeros((1, 1)), name="_test")
        assert main(["simultaneous", "--train", tp, "--test", test_csv, "--nodes", np_,
                     "--distances", dp, "--c2", "0.2", "--c1", "0.5",
                     "--c1-grid", "0,0.5,1.0", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "c1,train_auc,test_auc,traversal_cost,train_loss,route"
        assert len(lines) == 4
        mid = lines[2].split(",")
        assert float(mid[0]) == 0.5
        sol = read_json(tmp_path / "solution.json")
        assert mid[5] == sol["route_string"]
        assert all(0.0 <= float(r.split(",")[2]) <= 1.0 for r in lines[1:])

    def test_bad_grid_exits_two(self, tmp_path, capsys):
        (tp, np_, dp), *_ = problem(tmp_path, seed=8)
        assert main(["simultaneous", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--c1-grid", "0.1,zz", "--out-dir", str(tmp_path)]) == 2
        assert "comma-separated numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [",", " , ", "0,-1", "0,nan", "0.1,zz", "0,,1", "0,1,"])
    def test_rejected_grid_writes_nothing(self, grid, tmp_path, capsys):
        (tp, np_, dp), *_ = problem(tmp_path, seed=8)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["simultaneous", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--c1-grid", grid, "--out-dir", str(out)]) == 2
        assert "error: --c1-grid" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_mismatched_test_columns_exit_two(self, tmp_path, capsys):
        (tp, np_, dp), *_ = problem(tmp_path, seed=8, d=2)
        bad_test, _, _ = write_problem(tmp_path, blobs(81, per_side=5, d=3),
                                       np.zeros((1, 3)), np.zeros((1, 1)), name="_bad")
        assert main(["simultaneous", "--train", tp, "--test", bad_test, "--nodes", np_,
                     "--distances", dp, "--c2", "0.2", "--c1-grid", "0,1",
                     "--out-dir", str(tmp_path)]) == 2
        assert "feature columns" in capsys.readouterr().err

    def test_test_without_grid_exits_two(self, tmp_path, capsys):
        # --test feeds only the sweep; without --c1-grid it is refused before
        # any file is read (the test file does not exist) or written.
        (tp, np_, dp), *_ = problem(tmp_path, seed=8)
        out = tmp_path / "out"
        assert main(["simultaneous", "--train", tp, "--test", str(tmp_path / "missing.csv"),
                     "--nodes", np_, "--distances", dp, "--c2", "0.2",
                     "--out-dir", str(out)]) == 2
        assert "--test is only used with --c1-grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("one_class", ["train", "test"])
    def test_one_class_sweep_set_exits_two_before_solving(self, one_class, tmp_path, capsys,
                                                          monkeypatch):
        # The sweep's AUC needs both labels in the training and the test set,
        # so a one-class set is refused before the main solve or any sweep solve.
        (tp, np_, dp), data, _, _ = problem(tmp_path, seed=8)
        pos = data.labels == 1
        one, _, _ = write_problem(tmp_path, LabeledDataset(data.features[pos], data.labels[pos]),
                                  np.zeros((1, 2)), np.zeros((1, 1)), name="_one")
        calls = []

        def spy_solve(*a, **k):
            calls.append(1)
            return solve(*a, **k)

        monkeypatch.setattr(cli_mod, "solve", spy_solve)
        monkeypatch.setattr(opt_mod, "solve", spy_solve)
        sets = {"train": ["--train", one], "test": ["--train", tp, "--test", one]}[one_class]
        out = tmp_path / "out"
        assert main(["simultaneous", *sets, "--nodes", np_, "--distances", dp, "--c2", "0.2",
                     "--c1-grid", "0,1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --{one_class} {one} has one class; the sweep's AUC needs both labels\n"
        )
        assert calls == []
        assert not out.exists()


class TestExportMilp:
    def run_export(self, tmp_path, out):
        for name, content in [("t", M2_TRAIN), ("n", M2_NODES), ("d", M2_DIST)]:
            (tmp_path / f"{name}.csv").write_text(content)
        return main(["export-milp", "--train", str(tmp_path / "t.csv"),
                     "--nodes", str(tmp_path / "n.csv"), "--distances", str(tmp_path / "d.csv"),
                     "--c2", "0.5", "--out-dir", str(out)])

    def test_golden_bytes(self, tmp_path):
        assert self.run_export(tmp_path, tmp_path / "out") == 0
        assert (tmp_path / "out" / "model.lp").read_bytes() == GOLDEN.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        target = tmp_path / "out" / "model.lp"
        assert self.run_export(tmp_path, tmp_path / "out") == 0
        first = target.read_bytes()
        assert self.run_export(tmp_path, tmp_path / "out") == 0
        assert target.read_bytes() == first

    def test_two_node_variable_count(self, tmp_path):
        target = tmp_path / "out" / "model.lp"
        assert self.run_export(tmp_path, tmp_path / "out") == 0
        text = target.read_text()
        names = {tok for tok in text.replace(":", " ").split() if tok[:2] in ("z_", "y_")}
        assert len(names) == 8

    def test_out_dir_default_path(self, tmp_path):
        for name, content in [("t", M2_TRAIN), ("n", M2_NODES), ("d", M2_DIST)]:
            (tmp_path / f"{name}.csv").write_text(content)
        assert main(["export-milp", "--train", str(tmp_path / "t.csv"),
                     "--nodes", str(tmp_path / "n.csv"), "--distances", str(tmp_path / "d.csv"),
                     "--c2", "0.5", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "model.lp").read_bytes() == GOLDEN.read_bytes()

    @pytest.mark.parametrize("model", ["cost1", "cost2"])
    def test_underflowed_weight_exits_two_without_lp(self, tmp_path, capsys, model):
        # Node 2's score is about -1e6, so its weight underflows to 0.
        for name, content in [("t", M2_TRAIN), ("n", "f1\n0.8\n-1e6\n"), ("d", M2_DIST)]:
            (tmp_path / f"{name}.csv").write_text(content)
        assert main(["export-milp", "--train", str(tmp_path / "t.csv"),
                     "--nodes", str(tmp_path / "n.csv"), "--distances", str(tmp_path / "d.csv"),
                     "--c2", "0.5", "--cost-model", model, "--out-dir", str(tmp_path)]) == 2
        assert "node 2 has weight 0" in capsys.readouterr().err
        assert not (tmp_path / "model.lp").exists()

    def test_requires_some_output_path(self, tmp_path, capsys):
        for name, content in [("t", M2_TRAIN), ("n", M2_NODES), ("d", M2_DIST)]:
            (tmp_path / f"{name}.csv").write_text(content)
        assert main(["export-milp", "--train", str(tmp_path / "t.csv"),
                     "--nodes", str(tmp_path / "n.csv"), "--distances", str(tmp_path / "d.csv"),
                     "--c2", "0.5"]) == 2
        assert capsys.readouterr().err == "error: --out-dir is required for this command\n"

    def test_both_output_paths_exit_two(self, tmp_path, capsys):
        # --out-dir is the one way to name the output; --lp-out is unknown.
        for name, content in [("t", M2_TRAIN), ("n", M2_NODES), ("d", M2_DIST)]:
            (tmp_path / f"{name}.csv").write_text(content)
        lp, out = tmp_path / "out.lp", tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["export-milp", "--train", str(tmp_path / "t.csv"),
                  "--nodes", str(tmp_path / "n.csv"), "--distances", str(tmp_path / "d.csv"),
                  "--c2", "0.5", "--lp-out", str(lp), "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lp-out" in capsys.readouterr().err
        assert not lp.exists() and not out.exists()


class TestDemo:
    def test_six_node_routes_differ_and_cost_drops(self, tmp_path):
        assert main(["demo", "--which", "six_node", "--out-dir", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "summary.json")
        seq = summary["sequential"]
        sim = summary["simultaneous"]
        assert seq["route"] != sim["route"]
        assert sim["cost1"] < seq["cost1"]
        assert summary["cost1_reduction_pct"] > 0.0
        assert summary["odd_node"] in seq["route"]

    def test_four_node_agrees_at_c1_zero(self, tmp_path):
        assert main(["demo", "--which", "four_node", "--c1", "0",
                     "--out-dir", str(tmp_path)]) == 0
        seq = read_json(tmp_path / "sequential.json")
        sim = read_json(tmp_path / "simultaneous.json")
        assert seq["route"] == sim["route"]
        assert read_json(tmp_path / "summary.json")["cost1_reduction_pct"] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_four_node_default_routes_differ(self, tmp_path):
        assert main(["demo", "--which", "four_node", "--out-dir", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["sequential"]["route"] != summary["simultaneous"]["route"]
        assert summary["cost1_reduction_pct"] > 0.0

    def test_method_sequential_runs_the_sequential_pipeline(self, tmp_path):
        assert main(["demo", "--which", "four_node", "--method", "sequential",
                     "--out-dir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "summary.json")["method"] == "sequential"
        assert (tmp_path / "simultaneous.json").read_bytes() == (
            tmp_path / "sequential.json"
        ).read_bytes()

    def test_cost_model_flag_is_used(self, tmp_path):
        assert main(["demo", "--which", "six_node", "--cost-model", "cost2",
                     "--out-dir", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["cost_model"] == "cost2"
        inst = INSTANCES["six_node"](seed=0)
        cfg = replace(inst.cfg, cost_model="cost2")
        sol = solve("am", inst.train, inst.nodes, inst.D, cfg)
        assert summary["simultaneous"]["route"] == list(sol.route)
        assert summary["simultaneous"]["training_error"] == sol.training_error

    @pytest.mark.parametrize("which", sorted(INSTANCES))
    @pytest.mark.parametrize("model", ["cost1", "cost2"])
    @pytest.mark.parametrize("method", ["nm", "am"])
    def test_route_documents_equal_the_public_functions(self, tmp_path, which, model, method):
        assert main(["demo", "--which", which, "--cost-model", model, "--method", method,
                     "--out-dir", str(tmp_path)]) == 0
        inst = INSTANCES[which](seed=0)
        cfg = replace(inst.cfg, cost_model=model)
        for name, how in (("sequential", "sequential"), ("simultaneous", method)):
            doc = read_json(tmp_path / f"{name}.json")
            sol = solve(how, inst.train, inst.nodes, inst.D, cfg)
            assert_priced(doc, sol.route, sol.lam, inst.nodes, inst.D)
            assert doc["training_error"] == sol.training_error
            assert doc["probabilities"] == node_weights(sol.lam, inst.nodes, "cost1").tolist()

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["demo", "--which", "six_node", "--out-dir", str(out)]) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("method", ["am", "nm", "sequential"])
    def test_fits_once(self, method, tmp_path, monkeypatch):
        # The joint solve starts from the sequential solve's fit, not a
        # refit, and sequential reuses that solve whole.
        fits = count_calls(monkeypatch, learn_mod, "fit_logistic")
        assert main(["demo", "--which", "four_node", "--method", method,
                     "--out-dir", str(tmp_path)]) == 0
        assert len(fits) == 1

    def test_emitted_files_load_back(self, tmp_path):
        assert main(["demo", "--which", "six_node", "--out-dir", str(tmp_path)]) == 0
        data = load_labeled_csv(tmp_path / "train.csv")
        nodes = load_nodes_csv(tmp_path / "nodes.csv")
        D = load_distances_csv(tmp_path / "distances.csv")
        assert data.d == nodes.shape[1]
        assert nodes.shape[0] == D.shape[0] == 6


class TestSimulate:
    def test_report_round_trip(self, tmp_path):
        (tp, np_, dp), data, nodes, D = problem(tmp_path, seed=3, M=4)
        di = np.rint(D).astype(float)  # integer latencies keep z exact
        np.fill_diagonal(di, 0.0)
        dp_int = tmp_path / "dint.csv"
        dp_int.write_text("\n".join(",".join(repr(v) for v in r) for r in di.tolist()) + "\n")
        assert main(["simulate", "--train", tp, "--nodes", np_, "--distances", str(dp_int),
                     "--c2", "0.2", "--trials", "20000", "--seed", "11",
                     "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "simulation.json")
        assert doc["model"] == "cost1"
        assert doc["trials"] == 20000
        assert doc["seed"] == 11
        fit = fit_logistic(data, 0.2)
        route = solve_weighted_trp_dp(sigmoid(nodes @ fit.lam), di).route
        assert doc["route"] == route
        assert doc["analytic"] == pytest.approx(cost1(route, sigmoid(nodes @ fit.lam), di), rel=1e-10)
        assert abs(doc["z_score"]) <= 4.0

    def test_simulation_json_keys(self, tmp_path):
        (tp, np_, dp), *_ = problem(tmp_path, seed=3, M=4)
        assert main(["simulate", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--trials", "100", "--out-dir", str(tmp_path)]) == 0
        assert set(read_json(tmp_path / "simulation.json")) == {
            "model", "trials", "seed", "steps_per_unit", "estimate", "std_error", "analytic",
            "analytic_discretized", "z_score", "route", "route_string",
        }

    @pytest.mark.parametrize("model, code", [("cost1", 2), ("cost2", 0)])
    def test_huge_latencies(self, tmp_path, capsys, model, code):
        # 1e19 unit steps exceed what the binomial count draw takes (2**63 - 1);
        # the first-failure draw has no such limit.
        data = blobs(3, per_side=10, d=2)
        D = np.full((3, 3), 1e19)
        np.fill_diagonal(D, 0.0)
        tp, np_, dp = write_problem(tmp_path, data, np.zeros((3, 2)), D)
        assert main(["simulate", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--cost-model", model, "--trials", "10",
                     "--out-dir", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert ("2**63 - 1" in err) == (code == 2)
        assert (tmp_path / "simulation.json").exists() == (code == 0)

    def test_first_failures_past_numpys_cap(self, tmp_path):
        # At 2**62 steps per unit every node of the golden five-node route is
        # reached after more than 2**63 - 1 steps, where numpy's geometric draw
        # saturates and would count every later first failure as landing.
        load_tool("cli_golden").write_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--train", str(tmp_path / "train.csv"), "--nodes",
                     str(tmp_path / "nodes.csv"), "--distances", str(tmp_path / "dist.csv"),
                     "--c2", "0.2", "--cost-model", "cost2", "--trials", "2000", "--seed", "3",
                     "--steps-per-unit", str(2**62), "--out-dir", str(out)]) == 0
        doc = read_json(out / "simulation.json")
        assert doc["steps_per_unit"] == 2**62
        assert abs(doc["z_score"]) <= 4.0

    @pytest.mark.parametrize("model", ["cost1", "cost2"])
    def test_steps_per_unit_past_63_bits_exits_two(self, tmp_path, capsys, model):
        (tp, np_, dp), *_ = problem(tmp_path, seed=3, M=4)
        out = tmp_path / "out"
        assert main(["simulate", "--train", tp, "--nodes", np_, "--distances", dp, "--c2", "0.2",
                     "--cost-model", model, "--trials", "10", "--steps-per-unit", str(10**400),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: steps_per_unit must be an integer from 1 to 2**63 - 1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("model", ["cost1", "cost2"])
    def test_step_count_past_a_float_exits_two(self, tmp_path, capsys, model):
        # Latencies of 1e300 units at 2**62 steps per unit: no float holds the count.
        data = blobs(3, per_side=10, d=2)
        D = np.full((3, 3), 1e300)
        np.fill_diagonal(D, 0.0)
        tp, np_, dp = write_problem(tmp_path, data, np.zeros((3, 2)), D)
        out = tmp_path / "out"
        assert main(["simulate", "--train", tp, "--nodes", np_, "--distances", dp, "--c2", "0.2",
                     "--cost-model", model, "--trials", "10", "--steps-per-unit", str(2**62),
                     "--out-dir", str(out)]) == 2
        assert "overflows the step count" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_trials_exit_two(self, tmp_path, capsys):
        (tp, np_, dp), *_ = problem(tmp_path, seed=3, M=4)
        assert main(["simulate", "--train", tp, "--nodes", np_, "--distances", dp,
                     "--c2", "0.2", "--trials", "0", "--out-dir", str(tmp_path)]) == 2
        assert "trials" in capsys.readouterr().err


class TestBound:
    def make_files(self, tmp_path, M=4, d=2, seed=0):
        rng = np.random.default_rng(seed)
        nodes = rng.normal(0.0, 0.5, size=(M, d))
        nodes *= min(1.0, 1.2 / float(np.linalg.norm(nodes, axis=1).max()))
        _, D = random_instance(seed, M)
        header = ",".join(f"f{k+1}" for k in range(d))
        np_ = tmp_path / "nodes.csv"
        np_.write_text("\n".join([header] + [",".join(repr(v) for v in r) for r in nodes.tolist()]) + "\n")
        dp = tmp_path / "dist.csv"
        dp.write_text("\n".join(",".join(repr(v) for v in r) for r in D.tolist()) + "\n")
        return str(np_), str(dp), nodes, D

    def test_report_factorization(self, tmp_path):
        np_, dp, nodes, D = self.make_files(tmp_path)
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "60",
                     "--eps", "0.5", "--m1", "2.0", "--m2", "1.5", "--m", "400",
                     "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "bound.json")
        assert doc["M1"] == 2.0 and doc["M2"] == 1.5 and doc["m"] == 400
        assert 0.5 <= doc["alpha"] <= 1.0
        assert doc["bound"] == pytest.approx(
            4.0 * doc["alpha"] * doc["covering_factor"] * doc["exp_factor"], rel=1e-10
        )
        assert doc["dimension"] == 2
        assert len(doc["shortest_distances"]) == 4

    def test_bound_json_keys(self, tmp_path):
        np_, dp, *_ = self.make_files(tmp_path)
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "60",
                     "--eps", "0.5", "--m1", "2.0", "--m2", "1.5", "--m", "400",
                     "--out-dir", str(tmp_path)]) == 0
        assert set(read_json(tmp_path / "bound.json")) == {
            "M1", "M2", "Cg", "eps", "m", "dimension", "shortest_distances", "m1_slope",
            "m0_intercept", "c_tilde", "c_tilde0", "c", "c_norm_inv", "z_prime", "r_prime",
            "alpha", "covering_factor", "exp_factor", "bound", "constraint_vacuous",
        }

    def test_m2_below_a_training_norm_exits_two(self, tmp_path, capsys):
        # The bound needs every training row within M2, like every node row.
        np_, dp, *_ = self.make_files(tmp_path, seed=1)  # node norms at most 1.2
        tp = tmp_path / "train_far.csv"
        tp.write_text("f1,f2,label\n5.0,5.0,+1\n-0.1,0.2,-1\n0.3,-0.2,+1\n-5.0,-4.0,-1\n")
        flags = ["bound", "--train", str(tp), "--c2", "0.3", "--nodes", np_, "--distances", dp,
                 "--cg", "60", "--eps", "0.5"]
        out = tmp_path / "out"
        assert main(flags + ["--m2", "1.5", "--out-dir", str(out)]) == 2
        assert "error: training feature norm 7.07107 exceeds the M2 cap 1.5" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        # A cap at the largest training norm is accepted.
        assert main(flags + ["--m2", repr(math.hypot(5.0, 5.0)), "--out-dir", str(out)]) == 0

    def test_train_supplies_caps(self, tmp_path):
        np_, dp, nodes, D = self.make_files(tmp_path, seed=1)
        data = blobs(1, per_side=10, d=2)
        tp, _, _ = write_problem(tmp_path, data, np.zeros((1, 2)), np.zeros((1, 1)), name="_t")
        assert main(["bound", "--train", tp, "--c2", "0.3", "--nodes", np_,
                     "--distances", dp, "--cg", "60", "--eps", "0.5",
                     "--out-dir", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "bound.json")
        fit = fit_logistic(data, 0.3)
        assert doc["M1"] == pytest.approx(float(np.linalg.norm(fit.lam)), rel=1e-12)
        assert doc["m"] == data.m
        feat_cap = max(
            float(np.linalg.norm(nodes, axis=1).max()),
            float(np.linalg.norm(data.features, axis=1).max()),
        )
        assert doc["M2"] == pytest.approx(feat_cap, rel=1e-12)

    def test_m1_below_the_fitted_norm_exits_two(self, tmp_path, capsys):
        # The bound needs the fitted coefficients within M1, so a lower --m1
        # is refused, not replaced by the fitted norm.
        np_, dp, *_ = self.make_files(tmp_path, seed=1)
        data = blobs(1, per_side=10, d=2)
        tp, _, _ = write_problem(tmp_path, data, np.zeros((1, 2)), np.zeros((1, 1)), name="_t")
        norm = float(np.linalg.norm(fit_logistic(data, 0.3).lam))
        flags = ["bound", "--train", tp, "--c2", "0.3", "--nodes", np_, "--distances", dp,
                 "--cg", "60", "--eps", "0.5"]
        out = tmp_path / "out"
        assert main(flags + ["--m1", "0.01", "--out-dir", str(out)]) == 2
        assert f"error: fitted coefficient norm {norm:.6g} exceeds the M1 cap 0.01" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        # A cap within the 1e-12 relative slack is accepted and kept as given.
        below = norm / (1 + 1e-13)
        assert main(flags + ["--m1", repr(below), "--out-dir", str(out)]) == 0
        assert read_json(out / "bound.json")["M1"] == below

    def test_train_with_nan_c2_exits_two(self, tmp_path, capsys):
        np_, dp, *_ = self.make_files(tmp_path, seed=1)
        tp, _, _ = write_problem(tmp_path, blobs(1, per_side=10, d=2), np.zeros((1, 2)),
                                 np.zeros((1, 1)), name="_t")
        out = tmp_path / "out"
        assert main(["bound", "--train", tp, "--c2", "nan", "--nodes", np_, "--distances", dp,
                     "--cg", "60", "--eps", "0.5", "--out-dir", str(out)]) == 2
        assert "error: C2 must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_c2_without_train_exits_two(self, tmp_path, capsys):
        # Without --train nothing is fitted, so a --c2 would be ignored.
        np_, dp, *_ = self.make_files(tmp_path, seed=2)
        out = tmp_path / "out"
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "2", "--eps", "0.5",
                     "--m1", "2", "--m2", "2", "--m", "64", "--c2", "0.3",
                     "--out-dir", str(out)]) == 2
        assert "error: --c2 is only used with --train" in capsys.readouterr().err
        assert not out.exists()

    def test_m_with_train_exits_two(self, tmp_path, capsys):
        # With --train the sample size is the training set's row count, so an
        # --m would be ignored or, worse, overstate the samples.
        np_, dp, *_ = self.make_files(tmp_path, seed=1)
        tp, _, _ = write_problem(tmp_path, blobs(1, per_side=10, d=2), np.zeros((1, 2)),
                                 np.zeros((1, 1)), name="_t")
        out = tmp_path / "out"
        assert main(["bound", "--train", tp, "--c2", "0.3", "--nodes", np_, "--distances", dp,
                     "--cg", "60", "--eps", "0.5", "--m", "1000000", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: --m is only used without --train\n"
        assert not out.exists()

    def test_missing_caps_exit_two(self, tmp_path, capsys):
        np_, dp, *_ = self.make_files(tmp_path, seed=2)
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "60",
                     "--eps", "0.5", "--m", "100", "--out-dir", str(tmp_path)]) == 2
        assert "--m1 or --train" in capsys.readouterr().err
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "60",
                     "--eps", "0.5", "--m1", "2.0", "--out-dir", str(tmp_path)]) == 2
        assert "--m or --train" in capsys.readouterr().err

    def test_tiny_budget_exit_two(self, tmp_path, capsys):
        np_, dp, *_ = self.make_files(tmp_path, seed=3)
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "1e-6",
                     "--eps", "0.5", "--m1", "2.0", "--m2", "1.5", "--m", "100",
                     "--out-dir", str(tmp_path)]) == 2
        assert "does not exceed" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["1e-200", "1e-320"], ids=["power_overflows", "base_is_inf"])
    def test_tiny_eps_exits_two_naming_eps(self, tmp_path, capsys, eps):
        # (32 M1 M2 / eps + 1)^d overflows: at 1e-200 in the power, at the
        # denormal 1e-320 already in the base.
        np_, dp, *_ = self.make_files(tmp_path, seed=3)
        out = tmp_path / "out"
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "60", "--eps", eps,
                     "--m1", "2", "--m2", "2", "--m", "64", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: M1 = 2.0, M2 = 2.0, eps = {eps} and d = 2 make the covering factor "
            "(32 M1 M2 / eps + 1)^d overflow\n"
        )
        assert not out.exists()

    def test_huge_caps_exit_two_naming_every_input(self, tmp_path, capsys):
        # eps is moderate; M1 * M2 alone sends the covering factor's base to inf.
        np_, dp, *_ = self.make_files(tmp_path, seed=3)
        out = tmp_path / "out"
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "60", "--eps", "0.5",
                     "--m1", "1e300", "--m2", "1e300", "--m", "64", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: M1 = 1e+300, M2 = 1e+300, eps = 0.5 and d = 2 make the covering factor "
            "(32 M1 M2 / eps + 1)^d overflow\n"
        )
        assert not out.exists()


class TestC1Overflow:
    @pytest.mark.parametrize("method", ["sequential", "nm", "am"])
    def test_overflowing_c1_exits_two_naming_c1(self, method, tmp_path, capsys):
        # Every input is moderate; only C1 times the route cost overflows.
        (tp, np_, dp), *_ = problem(tmp_path, seed=2, M=3)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simultaneous", "--train", tp, "--nodes", np_, "--distances", dp,
                         "--c2", "0.2", "--c1", "1e308", "--method", method,
                         "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: C1 = 1e+308 times the route cost ")
        assert err.endswith(" overflows\n")
        assert not out.exists()


class TestStandardJson:
    def test_simulate_without_failures_writes_null_z_score(self, tmp_path):
        # Every node's failure probability is about 1e-20, so no trial fails,
        # the standard error is 0 and the report's z score is -inf.
        data = blobs(4, per_side=10, d=2)
        lam = fit_logistic(data, 0.2).lam
        nodes = np.tile(-46.0 * lam / float(lam @ lam), (4, 1))
        _, D = random_instance(4, 4)
        tp, np_, dp = write_problem(tmp_path, data, nodes, D)
        assert main(["simulate", "--train", tp, "--nodes", np_, "--distances", dp, "--c2", "0.2",
                     "--trials", "100", "--out-dir", str(tmp_path / "out")]) == 0
        doc = read_standard_json(tmp_path / "out" / "simulation.json")
        assert doc["estimate"] == doc["std_error"] == 0.0
        assert 0.0 < doc["analytic_discretized"] < 1e-15
        assert doc["z_score"] is None

    def test_bound_with_zero_features_writes_nulls(self, tmp_path):
        # A zero constraint vector puts the half-space's plane at infinity.
        _, D = random_instance(0, 4)
        _, np_, dp = write_problem(tmp_path, blobs(0, per_side=2, d=2), np.zeros((4, 2)), D)
        assert main(["bound", "--nodes", np_, "--distances", dp, "--cg", "60", "--eps", "0.5",
                     "--m1", "2.0", "--m2", "1.5", "--m", "400",
                     "--out-dir", str(tmp_path / "out")]) == 0
        doc = read_standard_json(tmp_path / "out" / "bound.json")
        assert doc["c"] == [0.0, 0.0]
        assert doc["c_norm_inv"] is None and doc["z_prime"] is None
        assert doc["alpha"] == 1.0

    @pytest.mark.parametrize("case", ["simulate_low_risk_cost1", "bound_zero_features"])
    def test_golden_runs_write_standard_json(self, case, tmp_path, monkeypatch):
        golden = load_tool("cli_golden")
        golden.write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(golden.invocations()[case] + ["--out-dir", "out"]) == 0
        (path,) = (tmp_path / "out").iterdir()
        doc = read_standard_json(path)
        assert None in doc.values()


class TestUnusablePaths:
    """An input that cannot be read, or an output path that cannot be
    written, is bad input: exit 2 naming the path, and no file written."""

    def test_directory_as_input(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--train", str(tmp_path), "--c2", "0.1", "--out-dir", str(out)]) == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_dir_at_or_under_a_file(self, tmp_path, capsys, under):
        tp = tmp_path / "t.csv"
        tp.write_text(M2_TRAIN)
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        out = blocker / "x" if under else blocker
        assert main(["train", "--train", str(tp), "--c2", "0.1", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{out}'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "t.csv"]
        assert blocker.read_text() == "keep\n"

    def test_stdin_is_still_an_input(self, tmp_path):
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["train", "--train", "/dev/stdin", "--c2", "0.1", "--out-dir", str(tmp_path)]
        subprocess.run([sys.executable, "-m", "repairroute.cli", *argv], input=M2_TRAIN,
                       env=env, text=True, check=True)
        assert read_json(tmp_path / "model.json")["converged"] is True


class TestRejectedRunWritesNothing:
    @pytest.mark.parametrize("case", ["one_class_test", "one_class_train", "demo_am", "demo_nm"])
    def test_late_failure_leaves_no_out_dir(self, case, tmp_path, capsys):
        # The sweep's AUC needs both labels, which is checked before solving,
        # and C1 = 1e308 overflows the demo's objective only after its input
        # CSVs are built.
        (tp, np_, dp), data, _, _ = problem(tmp_path, seed=8)
        pos = data.labels == 1
        one, _, _ = write_problem(tmp_path, LabeledDataset(data.features[pos], data.labels[pos]),
                                  np.zeros((1, 2)), np.zeros((1, 1)), name="_one")
        graph = ["--nodes", np_, "--distances", dp, "--c2", "0.2", "--c1-grid", "0,1"]
        argv = {
            "one_class_test": ["simultaneous", "--train", tp, "--test", one, *graph],
            "one_class_train": ["simultaneous", "--train", one, *graph],
            "demo_am": ["demo", "--which", "six_node", "--c1", "1e308", "--method", "am"],
            "demo_nm": ["demo", "--which", "six_node", "--c1", "1e308", "--method", "nm"],
        }[case]
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_non_standard_number_in_a_later_document_leaves_no_out_dir(self, tmp_path, capsys,
                                                                       monkeypatch):
        # Every document is rendered before the first is written, so an inf
        # that reaches the JSON backstop in the last one writes nothing.
        def fake(args):
            out = Path(args.out_dir)
            return {out / "a.json": {"x": 1.0}, out / "b.txt": "text\n",
                    out / "c.json": {"x": math.inf}}

        _, help_text, flags, required = cli_mod._COMMANDS["train"]
        monkeypatch.setitem(cli_mod._COMMANDS, "train", (fake, help_text, flags, required))
        out = tmp_path / "out"
        assert main(["train", "--train", "t.csv", "--c2", "0.1", "--out-dir", str(out)]) == 2
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists()


class FailingWrite:
    """A file opened for writing whose write raises the error a full disk
    gives; closing it closes the real file."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        raise OSError(28, "No space left on device")


class TestAllOrNothingWrites:
    """main writes every output of a run or none (dataio.write_texts)."""

    def route_argv(self, tmp_path, out):
        (tp, np_, dp), _, _, _ = problem(tmp_path, seed=1)
        return ["route", "--train", tp, "--nodes", np_, "--distances", dp, "--c2", "0.2",
                "--out-dir", str(out)]

    def test_directory_target_exits_two_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "route.json").mkdir(parents=True)
        assert main(self.route_argv(tmp_path, out)) == 2
        assert f"error: output path is a directory: {out / 'route.json'}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["route.json"]
        assert not any((out / "route.json").iterdir())

    def test_failed_second_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        argv = self.route_argv(tmp_path, out)
        created = []

        def failing_open(file, mode="r", *a, **k):
            fh = open(file, mode, *a, **k)
            if mode == "x":
                created.append(Path(file))
                if len(created) == 2:
                    return FailingWrite(fh)
            return fh

        monkeypatch.setattr(dataio_mod, "open", failing_open, raising=False)
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert len(created) == 2 and all(p.parent == out for p in created)
        assert not any(out.iterdir())

    def test_existing_output_is_replaced(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "route.json").write_text("old\n")
        assert main(self.route_argv(tmp_path, out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["model.json", "route.json"]
        assert read_json(out / "route.json")["route"][0] == 1

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_modes_follow_the_umask(self, umask, mode, tmp_path):
        old = os.umask(umask)
        try:
            dataio_mod.write_texts({tmp_path / "a.json": "{}\n", tmp_path / "b.txt": "b\n"})
        finally:
            os.umask(old)
        for name in ("a.json", "b.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


# The flags each command requires, in the order main checks them.
REQUIRED = {
    "train": ("train", "c2", "out-dir"),
    "route": ("train", "nodes", "distances", "c2", "out-dir"),
    "simultaneous": ("train", "nodes", "distances", "c2", "out-dir"),
    "export-milp": ("train", "nodes", "distances", "c2", "out-dir"),
    "demo": ("out-dir",),
    "simulate": ("train", "nodes", "distances", "c2", "out-dir"),
    "bound": ("nodes", "distances", "cg", "eps", "out-dir"),
}
REQUIRED_VALUES = {"train": "t.csv", "nodes": "n.csv", "distances": "d.csv", "c2": "0.2",
                   "cg": "2", "eps": "0.5", "out-dir": "out"}


class TestParser:
    def test_required_table_names_every_command(self):
        assert set(REQUIRED) == set(cli_mod._COMMANDS)

    @pytest.mark.parametrize(
        "command, flag", [(cmd, flag) for cmd, flags in REQUIRED.items() for flag in flags]
    )
    def test_missing_required_flag_exits_two(self, command, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = [command]
        for other in REQUIRED[command]:
            if other != flag:
                argv += [f"--{other}", REQUIRED_VALUES[other]]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --{flag} is required for this command\n"
        assert not any(tmp_path.iterdir())

    def test_import_leaves_numpy_random_unloaded(self):
        # Only simulate and demo draw random numbers; a bare start must not
        # pay for importing numpy.random.
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        code = "import sys, repairroute.cli; print('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "repairroute" in capsys.readouterr().out

    def test_unknown_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--steps-per-unit", "2"],
            ["train", "--trials", "3"],
            ["train", "--method", "nm"],
            ["train", "--nodes", "n.csv"],
            ["train", "--cost-model", "cost2"],
            ["route", "--c1", "0.5"],
            ["route", "--seed", "1"],
            ["route", "--test", "t.csv"],
            ["export-milp", "--method", "nm"],
            ["export-milp", "--trials", "3"],
            ["simulate", "--c1-grid", "0,1"],
            ["simulate", "--which", "six_node"],
            ["simultaneous", "--seed", "1"],
            ["simultaneous", "--steps-per-unit", "2"],
            ["demo", "--train", "t.csv"],
            ["demo", "--trials", "5"],
            ["bound", "--cost-model", "cost2"],
            ["bound", "--method", "nm"],
            ["bound", "--c1", "1"],
        ],
    )
    def test_rejects_flags_the_command_does_not_read(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bound", "--train", "", "--nodes", "n.csv", "--distances", "d.csv", "--eps", "0.5",
              "--cg", "2", "--m1", "2", "--m2", "2", "--m", "64"], "train"),
            (["simultaneous", "--train", "t.csv", "--nodes", "n.csv", "--distances", "d.csv",
              "--c2", "0.2", "--test", ""], "test"),
            (["simultaneous", "--train", "t.csv", "--nodes", "n.csv", "--distances", "d.csv",
              "--c2", "0.2", "--c1-grid", ""], "c1-grid"),
            (["route", "--train", "t.csv", "--nodes", "", "--distances", "d.csv",
              "--c2", "0.2"], "nodes"),
            (["route", "--train", "t.csv", "--nodes", "n.csv", "--distances", "",
              "--c2", "0.2"], "distances"),
            (["export-milp", "--train", "t.csv", "--nodes", "n.csv", "--distances", "d.csv",
              "--c2", "0.2", "--out-dir", ""], "out-dir"),
            (["train", "--train", "t.csv", "--c2", "0.2", "--out-dir", ""], "out-dir"),
        ],
    )
    def test_empty_values_exit_two_naming_the_flag(self, argv, flag, tmp_path, monkeypatch, capsys):
        # An empty path or list is an error, not the same as leaving the flag out.
        monkeypatch.chdir(tmp_path)
        if "--out-dir" not in argv:
            argv = argv + ["--out-dir", "out"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument --{flag}: must not be empty" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_golden_invocations_parse(self):
        golden = load_tool("cli_golden")
        parser = cli_mod.build_parser()
        for name, argv in golden.invocations().items():
            args = parser.parse_args(argv + ["--out-dir", "out"])
            assert args.command == argv[0], name

    def test_main_builds_one_parser(self, tmp_path, monkeypatch):
        built = []
        build = cli_mod.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli_mod, "build_parser", counting)
        cli_mod._parser.cache_clear()
        for _ in range(3):
            assert main(["train", "--train", str(tmp_path / "none.csv"), "--c2", "0.1",
                         "--out-dir", str(tmp_path)]) == 2
        assert len(built) == 1


class TestGoldenTool:
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage_and_writes_nothing(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert load_tool("cli_golden").main([flag]) == 0
        assert "python3 tools/cli_golden.py OUT_DIR" in capsys.readouterr().out
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["-x"], ["--out"], [], ["a", "b"]])
    def test_other_flags_and_arg_counts_exit_two(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert load_tool("cli_golden").main(argv) == 2
        assert "OUT_DIR" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_non_empty_out_dir_exits_two_untouched(self, tmp_path, capsys):
        (tmp_path / "stale").mkdir()
        (tmp_path / "stale" / "route.json").write_text("old\n")
        assert load_tool("cli_golden").main([str(tmp_path)]) == 2
        assert "not a new or empty directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["route.json", "stale"]
        assert (tmp_path / "stale" / "route.json").read_text() == "old\n"


class TestCodeLinesTool:
    def test_counts_code_but_not_blanks_comments_or_docstrings(self):
        text = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring."""
        return """a string
that is code"""
'''
        # import, class, def, and the return's two lines
        assert load_tool("code_lines").code_lines(text) == 5

    def test_prints_each_module_and_the_total(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
        (tmp_path / "b.py").write_text('"""Doc."""\n# note\nz = 3\n')
        tool = load_tool("code_lines")
        monkeypatch.setattr(tool, "SRC", tmp_path)
        assert tool.main([]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines] == [["2", "a.py"], ["1", "b.py"], ["3", "total"]]
