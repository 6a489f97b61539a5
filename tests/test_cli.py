import hashlib
import json

import numpy as np
import pytest

from netepi import Network, SeirParams, dynamics, estimation, simulate
from netepi.cli import build_parser, load_scenario, main
from netepi.dynamics import trajectory_from_csv, trajectory_to_csv


NETWORK_20 = "\n".join(
    f"{i},{j},1.0"
    for i in range(20)
    for j in {i, (i + 1) % 20, (i - 1) % 20}
) + "\n"


def write_scenario(tmp_path, model="seir", steps=30, noise=None, **overrides):
    (tmp_path / "net.csv").write_text(NETWORK_20)
    if model == "seir":
        params = {"beta_e": 0.04, "beta": 0.06, "sigma": 0.4, "gamma": 0.3, "h": 1.0}
        initial = {"seeds": {"e": {"1": 0.02, "2": 0.03}, "p": {"1": 0.01}}}
    else:
        params = {"beta": 0.06, "gamma": 0.3, "h": 1.0}
        initial = {"seeds": {"p": {"1": 0.01}}}
    scenario = {
        "model": model,
        "n": 20,
        "network": "net.csv",
        "params": params,
        "initial": initial,
        "steps": steps,
        "seed": 0,
    }
    if noise is not None:
        scenario["noise"] = noise
    scenario.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def error_line(capsys) -> str:
    """The one stderr line of a refused run."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


class TestSimulate:
    def test_reference_scenario(self, tmp_path):
        sc = write_scenario(tmp_path, steps=30)
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        traj = trajectory_from_csv((tmp_path / "out" / "trajectory.csv").read_text())
        assert len(traj) == 31
        for st in traj.states:
            total = st.s + st.e + st.p + st.r
            assert total == pytest.approx(np.ones(20), abs=1e-9)
        summary = json.loads((tmp_path / "out" / "validation.json").read_text())
        assert summary["assumptions_ok"] is True

    @pytest.mark.parametrize("initial,message", [
        ({"s": 0.5, "e": 0.3, "p": 0.3, "r": 0.2}, "do not sum to 1"),
        ({"seeds": {"e": {"1": 0.6}, "p": {"1": 0.5}}}, "outside [0, 1]"),
    ], ids=["levels_sum_1.3", "seeds_above_1"])
    def test_malformed_initial_state_refused(self, tmp_path, capsys, initial, message):
        sc = write_scenario(tmp_path, steps=3, initial=initial)
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1
        assert message in error_line(capsys)
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert not (tmp_path / "out" / "trajectory.csv.levels").exists()
        assert not (tmp_path / "out" / "validation.json").exists()

    def test_zero_steps(self, tmp_path):
        sc = write_scenario(tmp_path, steps=0)
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        traj = trajectory_from_csv((tmp_path / "out" / "trajectory.csv").read_text())
        assert len(traj) == 1

    def test_assumption_violation_exits_nonzero(self, tmp_path, capsys):
        sc = write_scenario(tmp_path)
        data = json.loads(sc.read_text())
        data["params"]["gamma"] = 1.5
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1
        assert "assumption violation" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert not (tmp_path / "out" / "trajectory.csv.levels").exists()

    def test_nan_level_rejected(self, tmp_path, capsys):
        sc = write_scenario(tmp_path)
        data = json.loads(sc.read_text())
        data["initial"]["seeds"]["e"]["1"] = float("nan")
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1
        assert "NaN" in error_line(capsys)
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert not (tmp_path / "out" / "trajectory.csv.levels").exists()

    def test_missing_network_file(self, tmp_path):
        sc = write_scenario(tmp_path)
        (tmp_path / "net.csv").unlink()
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1

    def test_byte_reproducible(self, tmp_path):
        sc = write_scenario(tmp_path, steps=20,
                            noise={"start_k": 5, "seed": 7})
        for d in ("a", "b"):
            run("simulate", "--scenario", sc, "--out", tmp_path / d)
            run("perturb", "--scenario", sc, "--out", tmp_path / d,
                "--trajectory", tmp_path / d / "trajectory.csv")
        for name in ("trajectory.csv", "measured.csv", "noise.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_record_order_keeps_bytes(self, tmp_path):
        # a 300-node network at 1% steps over its edges, summed row by row in
        # column order whatever the order of the records
        rng = np.random.default_rng(12)
        n = 300
        a = np.where(rng.random((n, n)) < 0.01, rng.uniform(0.2, 1.0, (n, n)), 0.0)
        a[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.2, 1.0, n)
        rows, cols = np.nonzero(a)
        lines = [f"{i},{j},{w!r}\n"
                 for i, j, w in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())]
        outputs = []
        for name, order in (("sorted", lines), ("shuffled", rng.permutation(lines).tolist())):
            d = tmp_path / name
            d.mkdir()
            sc = write_scenario(d, steps=20, n=n, params={
                "beta_e": 0.3 / a.sum(axis=1).max(), "beta": 0.4 / a.sum(axis=1).max(),
                "sigma": 0.4, "gamma": 0.2, "h": 1.0})
            (d / "net.csv").write_text("".join(order))
            assert run("simulate", "--scenario", sc, "--out", d / "out") == 0
            outputs.append((d / "out" / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]


    def test_layered_network_keeps_loaded_edge_tables(self, tmp_path):
        # the layered network is built over the loaded matrices with the
        # tables sorted from their records: no rescan, same bytes
        rng = np.random.default_rng(14)
        n = 300
        files = {}
        for name in ("net.csv", "layer.csv"):
            a = np.where(rng.random((n, n)) < 0.01, rng.uniform(0.2, 1.0, (n, n)), 0.0)
            a[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.2, 1.0, n)
            rows, cols = np.nonzero(a)
            files[name] = rng.permutation([f"{i},{j},{w!r}\n" for i, j, w in zip(
                rows.tolist(), cols.tolist(), a[rows, cols].tolist())]).tolist()
        sc = write_scenario(tmp_path, steps=15, n=n, layers=["layer.csv"],
                            noise={"start_k": 3, "seed": 5}, params={
                                "beta_e": 0.04, "beta": 0.04, "sigma": 0.4, "gamma": 0.2,
                                "h": 1.0, "layer_beta_e": [0.04], "layer_beta": [0.04]})
        for name, lines in files.items():
            (tmp_path / name).write_text("".join(lines))
        loaded = load_scenario(sc)
        net = loaded["net"]
        assert "edges" in vars(net) and len(net.layers) == 1
        rebuilt = Network(net.adjacency, layers=net.layers)
        for mine, theirs in zip(net.edges, rebuilt.edges, strict=True):
            for x, y in zip(mine, theirs, strict=True):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        out = tmp_path / "out"
        assert run("simulate", "--scenario", sc, "--out", out) == 0
        assert run("perturb", "--scenario", sc, "--out", out,
                   "--trajectory", out / "trajectory.csv") == 0
        traj = simulate(loaded["initial"], loaded["params"], rebuilt, steps=15)
        assert (out / "trajectory.csv").read_text() == trajectory_to_csv(traj)
        measured = estimation.apply_noise(traj, loaded["noise"])
        assert (out / "measured.csv").read_text() == trajectory_to_csv(measured)


class TestGoldenBytes:
    """sha256 of the CLI outputs for fixed scenarios; a refactor of the step
    kernel, the trajectory storage, the noise draw, the Perron solve or the
    regression must keep these bytes. diagnose reads the clean trajectory;
    estimate reads it for SIR and the measured one for SEIR."""

    DIGESTS = {
        ("sir", "trajectory.csv"):
            "22e63bdfaf66862a0e93fc1d575ac6258f77cf0c3a805d001f825b98633b2613",
        ("sir", "lambda.csv"):
            "3b34fa2f31a88a3184f92b96e5e5d5fa3730500fb767ab52467f6c0fa81aa85c",
        ("sir", "convergence.json"):
            "4e45c82b1c43cca16fc489b6f7f0b8a1e4ddafbb4e7ae27f11778343c3799ae1",
        ("sir", "estimate.json"):
            "b7e7ef11860a30a90885a8b15998f13f9030f106bfa30f85634b2da465d9b020",
        ("seir", "trajectory.csv"):
            "8631efb41675f4cee4377ae566c8286fc6b6da7d20d6d533329793739714e82d",
        ("seir", "measured.csv"):
            "f496e69aca7a5bbf6a9c6e745ffbe9bae985bf572b3997a35cd30f7658758061",
        ("seir", "lambda.csv"):
            "13426c1e1a2cd97d1cefec6e9fdc6fdcac5825978e1f3295e37164dc13aac244",
        ("seir", "convergence.json"):
            "d696847dcf6d196e7eaafc661533cf864fade0b0a6ecd2b586297d03287c64e7",
        ("seir", "estimate.json"):
            "5b2a18d8fe6a89f78323ca111457159e35436b480f4ab25d4511208b1bca5465",
    }

    @pytest.mark.parametrize("cached", [True, False], ids=["levels", "parsed"])
    @pytest.mark.parametrize("model", ["sir", "seir"])
    def test_output_digests(self, tmp_path, monkeypatch, model, cached):
        # once reading every trajectory from its levels file, with the CSV
        # parser refused, once with the levels files deleted before each
        # reading command
        noise = {"start_k": 14, "seed": 3} if model == "seir" else None
        sc = write_scenario(tmp_path, model=model, steps=30, noise=noise)
        out = tmp_path / "out"
        if cached:
            monkeypatch.setattr(dynamics, "trajectory_from_csv", None)

        def reading(*argv):
            if not cached:
                for levels in out.glob("*.levels"):
                    levels.unlink()
            return run(*argv, "--scenario", sc, "--out", out)

        assert run("simulate", "--scenario", sc, "--out", out) == 0
        assert (out / "trajectory.csv.levels").is_file()
        if model == "seir":
            assert reading("perturb", "--trajectory", out / "trajectory.csv") == 0
            assert (out / "measured.csv.levels").is_file()
        assert reading("diagnose", "--trajectory", out / "trajectory.csv") == 0
        data = out / ("measured.csv" if model == "seir" else "trajectory.csv")
        assert reading("estimate", "--trajectory", data) == 0
        for (kind, name), digest in self.DIGESTS.items():
            if kind == model:
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestTrajectoryFiles:
    """The trajectory CSV is read as bytes: decoded as UTF-8 where its levels
    file does not match."""

    def test_crlf_line_endings_read_the_same(self, tmp_path):
        sc = write_scenario(tmp_path, model="sir", steps=12)
        lf = tmp_path / "out" / "trajectory.csv"
        assert run("simulate", "--scenario", sc, "--out", lf.parent) == 0
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = (dynamics._read_trajectory(path, 1.0) for path in (lf, crlf))
        for name in ("s", "p", "r"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        outputs = []
        for name, path in (("lf", lf), ("crlf", crlf)):
            for command in ("diagnose", "estimate"):
                assert run(command, "--scenario", sc, "--out", tmp_path / name,
                           "--trajectory", path) == 0
            outputs.append({f.name: f.read_bytes() for f in (tmp_path / name).iterdir()})
        assert sorted(outputs[0]) == ["convergence.json", "estimate.json", "lambda.csv"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["diagnose", "perturb", "estimate"])
    def test_not_utf8_refused(self, tmp_path, capsys, command):
        sc = write_scenario(tmp_path, steps=3, noise={"start_k": 0})
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"k,node,s,e,p,r\n0,0,0.9\xff,0,0.1,0\n")
        assert run(command, "--scenario", sc, "--out", tmp_path / "out",
                   "--trajectory", bad) == 1
        assert "can't decode byte 0xff" in error_line(capsys)


class TestDiagnose:
    def test_extinct_run(self, tmp_path):
        sc = write_scenario(tmp_path, steps=400)
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        assert run("diagnose", "--scenario", sc, "--out", tmp_path / "diag",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 0
        summary = json.loads((tmp_path / "diag" / "convergence.json").read_text())
        assert summary["monotone"] is True
        assert summary["k_bar"] is not None
        lam = (tmp_path / "diag" / "lambda.csv").read_text().splitlines()
        assert lam[0] == "k,lambda_max,p_norm"
        assert len(lam) == 402

    def test_no_infection_rate_undefined(self, tmp_path):
        sc = write_scenario(tmp_path, steps=5)
        data = json.loads(sc.read_text())
        data["initial"] = {"seeds": {}}
        sc.write_text(json.dumps(data))
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        run("diagnose", "--scenario", sc, "--out", tmp_path / "diag",
            "--trajectory", tmp_path / "out" / "trajectory.csv")
        summary = json.loads((tmp_path / "diag" / "convergence.json").read_text())
        assert summary["linear_rate_estimate"] is None

    def test_single_state_file_rejected(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=0)
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        assert run("diagnose", "--scenario", sc, "--out", tmp_path / "diag",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 1
        assert "short" in capsys.readouterr().err

    def test_noncontiguous_node_ids_rejected(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=2)
        lines = ["k,node,s,e,p,r"] + [f"{k},{node},0.9,0.05,0.05,0"
                                      for k in range(3) for node in (0, 2)]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        assert run("diagnose", "--scenario", sc, "--out", tmp_path / "diag",
                   "--trajectory", tmp_path / "bad.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "node ids" in err[0]

    @pytest.mark.parametrize("row,replaced,message", [
        ("0,0,0.5,,0.5,0", 0, "duplicate"),  # a second row for step 0, node 0
        ("0,1,nan,,0,0", 1, "finite"),
        ("0,1,1e20,,0,0", 1, "'s' level above 1"),
    ])
    def test_malformed_rows_rejected(self, tmp_path, capsys, row, replaced, message):
        sc = write_scenario(tmp_path, model="sir")
        rows = ["k,node,s,e,p,r"] + [f"{k},{node},1,,0,0" for k in range(2) for node in range(20)]
        rows[2:2 + replaced] = [row]
        (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
        assert run("diagnose", "--scenario", sc, "--out", tmp_path / "diag",
                   "--trajectory", tmp_path / "bad.csv") == 1
        assert message in error_line(capsys)
        assert not (tmp_path / "diag" / "lambda.csv").exists()

    def test_power_iteration_failure(self, tmp_path, capsys):
        # a weak coupling keeps the network irreducible; the spreading matrix
        # is then diag(1 - h*gamma) plus ~1e-10 off the diagonal, whose two
        # nearly equal eigenvalues stall power iteration
        (tmp_path / "weak.csv").write_text("0,1,1e-9\n1,0,1e-9\n")
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps({
            "model": "sir", "n": 2, "network": "weak.csv", "steps": 1,
            "params": {"beta": 0.1, "gamma": [0.3, 0.30000001], "h": 1.0},
            "initial": {"seeds": {"p": {"0": 0.1}}}}))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        assert run("diagnose", "--scenario", sc, "--out", tmp_path / "diag",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 1
        assert "power iteration did not converge" in error_line(capsys)

    @pytest.mark.parametrize("edges,gamma,steps", [
        # a directed chain 0 -> 1 -> 2: M is triangular with equal diagonal
        # entries, a defective root that power iteration converges to like 1/k
        ("1,0,1.0\n2,1,1.0\n", 0.2, 20),
        # no edges: M = diag(1 - h*gamma) with two nearly equal entries
        ("", [0.3, 0.30000001], 1),
    ], ids=["chain", "edgeless"])
    def test_reducible_network(self, tmp_path, edges, gamma, steps):
        (tmp_path / "net.csv").write_text(edges)
        n = 3 if edges else 2
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps({
            "model": "sir", "n": n, "network": "net.csv", "steps": steps,
            "params": {"beta": 0.3, "gamma": gamma, "h": 1.0},
            "initial": {"seeds": {"p": {"0": 0.1}}}}))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        assert run("diagnose", "--scenario", sc, "--out", tmp_path / "diag",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 0
        lam = np.loadtxt(tmp_path / "diag" / "lambda.csv", delimiter=",", skiprows=1,
                         usecols=1)
        assert lam.shape == (steps + 1,)
        assert np.all(lam == np.max(1 - np.asarray(gamma)))


class TestPerturb:
    def test_zero_noise_passthrough(self, tmp_path):
        sc = write_scenario(tmp_path, steps=10,
                            noise={"e_slope": 0, "e_floor": 0, "x_slope": 0,
                                   "x_floor": 0, "start_k": 0, "seed": 1})
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        assert run("perturb", "--scenario", sc, "--out", tmp_path / "out",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 0
        # s is recomputed from conservation, so compare numerically
        truth = trajectory_from_csv((tmp_path / "out" / "trajectory.csv").read_text())
        measured = trajectory_from_csv((tmp_path / "out" / "measured.csv").read_text())
        assert len(measured) == len(truth)
        for a, b in zip(measured.states, truth.states):
            assert a.e == pytest.approx(b.e, abs=0)
            assert a.p == pytest.approx(b.p, abs=0)
            assert a.r == pytest.approx(b.r, abs=0)
            assert a.s == pytest.approx(b.s, abs=1e-15)

    def test_paper_model_sidecar(self, tmp_path):
        sc = write_scenario(tmp_path, steps=30, noise={"start_k": 14, "seed": 3})
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        run("perturb", "--scenario", sc, "--out", tmp_path / "out",
            "--trajectory", tmp_path / "out" / "trajectory.csv")
        sidecar = json.loads((tmp_path / "out" / "noise.json").read_text())
        assert sidecar == {"seed": 3, "start_k": 14, "e_slope": 0.015,
                           "e_floor": 0.0001, "x_slope": 0.008,
                           "x_floor": 0.00001, "param_is_std": False}
        measured = trajectory_from_csv((tmp_path / "out" / "measured.csv").read_text())
        assert len(measured) == 31 - 14


    def test_scenario_files_left_unopened(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=10, noise={"start_k": 2, "seed": 1})
        out = tmp_path / "out"
        run("simulate", "--scenario", sc, "--out", out)
        argv = ["perturb", "--scenario", sc, "--trajectory", out / "trajectory.csv", "--out"]
        assert run(*argv, tmp_path / "a") == 0
        data = json.loads(sc.read_text())
        data["layers"] = ["missing.csv"]
        data["params"].update(beta="missing_rates.txt", layer_beta_e=[0.01],
                              layer_beta=["missing_rates.txt"])
        sc.write_text(json.dumps(data))
        (tmp_path / "net.csv").write_text("not an edge list\n")
        assert run(*argv, tmp_path / "b") == 0
        assert ((tmp_path / "b" / "measured.csv").read_bytes()
                == (tmp_path / "a" / "measured.csv").read_bytes())
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "c") == 1
        capsys.readouterr()
        # the document itself is still checked
        data["params"]["layer_beta"] = [{"x": 1}]
        sc.write_text(json.dumps(data))
        assert run(*argv, tmp_path / "d") == 1
        assert "parameter 'layer_beta' must be" in error_line(capsys)


class TestEstimate:
    def test_noiseless_exact_recovery(self, tmp_path):
        sc = write_scenario(tmp_path, steps=2)
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        assert run("estimate", "--scenario", sc, "--out", tmp_path / "est",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 0
        report = json.loads((tmp_path / "est" / "estimate.json").read_text())
        est = report["estimates"]
        assert est["beta_e"] == pytest.approx(0.04, rel=1e-8)
        assert est["beta"] == pytest.approx(0.06, rel=1e-8)
        assert est["sigma"] == pytest.approx(0.4, rel=1e-8)
        assert est["gamma"] == pytest.approx(0.3, rel=1e-8)

    def test_sir_recovery(self, tmp_path):
        sc = write_scenario(tmp_path, model="sir", steps=1)
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        assert run("estimate", "--scenario", sc, "--out", tmp_path / "est",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 0
        est = json.loads((tmp_path / "est" / "estimate.json").read_text())["estimates"]
        assert est["beta"] == pytest.approx(0.06, rel=1e-8)
        assert est["gamma"] == pytest.approx(0.3, rel=1e-8)

    def test_not_identifiable_exit_code(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=2)
        # fabricate a measured file whose exposed column is identically zero
        lines = ["k,node,s,e,p,r"]
        p = 0.1
        r = 0.0
        for k in range(3):
            for node in range(20):
                pk = p * (0.7 ** k) if node == 1 else 0.0
                rk = r if node != 1 else p * (1 - 0.7 ** k) * (0.3 / 0.3)
                lines.append(f"{k},{node},{1 - pk - rk},0,{pk},{rk}")
        (tmp_path / "measured.csv").write_text("\n".join(lines) + "\n")
        assert run("estimate", "--scenario", sc, "--out", tmp_path / "est",
                   "--trajectory", tmp_path / "measured.csv") == 2
        assert "not identifiable" in capsys.readouterr().err
        report = json.loads((tmp_path / "est" / "estimate.json").read_text())
        assert report["identifiable"] is False
        assert report["non_unique"] is True

    def test_per_node_estimate(self, tmp_path):
        sc = write_scenario(tmp_path, steps=4)
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        assert run("estimate", "--scenario", sc, "--out", tmp_path / "est",
                   "--trajectory", tmp_path / "out" / "trajectory.csv",
                   "--node", 1) == 0
        est = json.loads((tmp_path / "est" / "estimate.json").read_text())["estimates"]
        assert est["sigma"] == pytest.approx(0.4, rel=1e-6)

    def test_layered_scenario_refused(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=4)
        data = json.loads(sc.read_text())
        data["layers"] = ["net.csv"]
        data["params"].update(layer_beta_e=[0.01], layer_beta=[0.01])
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        capsys.readouterr()
        assert run("estimate", "--scenario", sc, "--out", tmp_path / "est",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "transport layers" in err[0]

    def test_per_node_errors_score_the_node(self, tmp_path):
        sc = write_scenario(tmp_path, steps=30, noise={"start_k": 14, "seed": 3})
        out = tmp_path / "out"
        run("simulate", "--scenario", sc, "--out", out)
        run("perturb", "--scenario", sc, "--out", out, "--trajectory", out / "trajectory.csv")
        assert run("estimate", "--scenario", sc, "--out", tmp_path / "est",
                   "--trajectory", out / "measured.csv", "--node", 1) == 0
        report = json.loads((tmp_path / "est" / "estimate.json").read_text())
        measured = trajectory_from_csv((out / "measured.csv").read_text())
        resim = simulate(measured.states[0], SeirParams(**report["estimates"], h=1.0),
                         load_scenario(sc)["net"], measured.transitions, strict=False)
        errors = {c: float(np.mean(np.abs(getattr(measured, c)[:, 1] - getattr(resim, c)[:, 1])))
                  for c in "sepr"}
        assert report["trajectory_errors"] == errors
        assert errors != {c: float(np.mean(np.abs(getattr(measured, c) - getattr(resim, c))))
                          for c in "sepr"}

    @pytest.mark.parametrize("n_traj,n", [(25, 20), (20, 25)])
    def test_trajectory_of_other_size_refused(self, tmp_path, capsys, n_traj, n):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        run("simulate", "--scenario", write_scenario(tmp_path / "a", steps=3, n=n_traj),
            "--out", tmp_path / "out")
        assert run("estimate", "--scenario", write_scenario(tmp_path / "b", steps=3, n=n),
                   "--out", tmp_path / "est",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 1
        assert f"trajectory has {n_traj} nodes, the network {n}" in error_line(capsys)

    @pytest.mark.parametrize("node", [99, -1])
    def test_node_out_of_range(self, tmp_path, capsys, node):
        sc = write_scenario(tmp_path, steps=2)
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        assert run("estimate", "--scenario", sc, "--out", tmp_path / "est",
                   "--trajectory", tmp_path / "out" / "trajectory.csv", "--node", node) == 1
        assert f"node {node} out of range" in error_line(capsys)

    def test_model_mismatch_refused(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=2)
        run("simulate", "--scenario", sc, "--out", tmp_path / "out")
        sir = write_scenario(tmp_path, model="sir", steps=2)
        assert run("estimate", "--scenario", sir, "--out", tmp_path / "est",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 1
        assert "'sir' does not match" in error_line(capsys)


class TestParser:
    @pytest.mark.parametrize("command,flag", [
        ("simulate", "--seed"), ("diagnose", "--seed"), ("perturb", "--seed"),
        ("estimate", "--seed"),
        ("simulate", "--strict"), ("simulate", "--no-strict"),
        ("diagnose", "--strict"), ("diagnose", "--no-strict"),
        ("perturb", "--strict"), ("perturb", "--no-strict"),
        ("estimate", "--strict"), ("estimate", "--no-strict"),
    ])
    def test_removed_flags_refused(self, command, flag, capsys):
        argv = [command, "--scenario", "s.json", "--out", "o"]
        if command != "simulate":
            argv += ["--trajectory", "t.csv"]
        argv += [flag] + (["3"] if flag == "--seed" else [])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_kept_flags_accepted(self):
        args = build_parser().parse_args(["estimate", "--scenario", "s.json", "--out",
                                          "o", "--trajectory", "t.csv", "--node", "3"])
        assert args.node == 3


class TestScenarioParsing:
    def test_explicit_initial_state(self, tmp_path):
        sc = write_scenario(tmp_path, steps=1)
        data = json.loads(sc.read_text())
        e = [0.0] * 20
        e[1] = 0.05
        data["initial"] = {"s": [1 - x for x in e], "e": e,
                           "p": [0.0] * 20, "r": [0.0] * 20}
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0

    def test_explicit_initial_scalars_fill_every_node(self, tmp_path):
        sc = write_scenario(tmp_path, model="sir", steps=1)
        data = json.loads(sc.read_text())
        data["initial"] = {"s": 0.9, "p": 0.1, "r": 0}
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        traj = trajectory_from_csv((tmp_path / "out" / "trajectory.csv").read_text())
        assert np.array_equal(traj.s[0], np.full(20, 0.9))

    def test_per_node_params_from_file(self, tmp_path):
        sc = write_scenario(tmp_path, steps=1)
        (tmp_path / "gamma.txt").write_text("\n".join(["0.3"] * 20))
        data = json.loads(sc.read_text())
        data["params"]["gamma"] = "gamma.txt"
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0

    @pytest.mark.parametrize("model,edit,message", [
        ("seir", lambda d: d.pop("n"), "missing 'n'"),
        ("seir", lambda d: d.pop("network"), "missing 'network'"),
        ("seir", lambda d: d.pop("params"), "missing 'params'"),
        ("seir", lambda d: d["params"].pop("sigma"), "params missing 'sigma'"),
        ("sir", lambda d: d["params"].pop("gamma"), "params missing 'gamma'"),
        ("seir", lambda d: d["params"].update(beta=float("nan")), "'beta' is NaN or infinite"),
        ("sir", lambda d: d["params"].update(gamma=[0.3] * 19 + [float("inf")]),
         "'gamma' is NaN or infinite"),
        ("seir", lambda d: d["params"].update(h=float("nan")), "'h' is NaN or infinite"),
        ("seir", lambda d: d["initial"]["seeds"]["e"].update({"1": float("nan")}),
         "initial 'e' level is NaN or infinite"),
        ("seir", lambda d: d["initial"]["seeds"]["p"].update({"20": 0.01}),
         "seed node 20 out of range"),
        ("sir", lambda d: d.update(initial={"s": [1.0] * 20, "p": [float("nan")] * 20,
                                            "r": [0.0] * 20}), "initial 'p' is NaN or infinite"),
        ("sir", lambda d: d.update(initial={"s": [1.0] * 20, "p": [0.0] * 20}),
         "initial state missing 'r'"),
        ("seir", lambda d: d.update(noise={"e_slop": 0.01}), "unknown keys ['e_slop']"),
        ("sir", lambda d: d["initial"].update(seeds=[1]),
         "initial 'seeds' must be a JSON object"),
        ("sir", lambda d: d["initial"]["seeds"].update(p=[1]), "seeds 'p' must be a JSON object"),
        ("seir", lambda d: d.update(initial=5), "scenario 'initial' must be a JSON object"),
        ("seir", lambda d: d.update(noise=[1]), "scenario 'noise' must be a JSON object"),
    ], ids=["n", "network", "params", "sigma", "gamma", "nan_beta", "inf_gamma", "nan_h",
            "nan_seed", "seed_node", "nan_initial", "initial_r", "noise_key", "seeds_list",
            "seed_levels_list", "initial_number", "noise_list"])
    def test_invalid_scenario_refused(self, tmp_path, capsys, model, edit, message):
        sc = write_scenario(tmp_path, model=model, steps=3)
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        data = json.loads(sc.read_text())
        edit(data)
        sc.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "bad") == 1
        assert message in error_line(capsys)
        assert not (tmp_path / "bad" / "trajectory.csv").exists()
        assert run("diagnose", "--scenario", sc, "--out", tmp_path / "diag",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 1
        assert message in error_line(capsys)

    def test_bad_model_rejected(self, tmp_path):
        sc = write_scenario(tmp_path)
        data = json.loads(sc.read_text())
        data["model"] = "sis"
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1

    @pytest.mark.parametrize("model,edit,message", [
        ("seir", lambda d: d.update(n=[3]), "scenario 'n' must be an integer"),
        ("seir", lambda d: d.update(steps=[2]), "scenario 'steps' must be an integer"),
        ("seir", lambda d: d.update(layers=5), "scenario 'layers' must be a list"),
        ("seir", lambda d: d["params"].update(beta={"x": 1}),
         "parameter 'beta' must be a number or a list of numbers"),
        ("seir", lambda d: d.update(network=5), "scenario 'network' must be a string"),
        ("seir", lambda d: d.update(layers=[5]), "scenario 'layers' entry must be a string"),
        ("sir", lambda d: d["params"].update(gamma=[0.3, [0.3]]),
         "parameter 'gamma' must be a number or a list of numbers"),
        ("seir", lambda d: d["params"].update(h=[1.0]), "parameter 'h' must be a number"),
        ("seir", lambda d: d["params"].update(layer_beta=0.1),
         "parameter 'layer_beta' must be a list"),
        ("sir", lambda d: d["initial"]["seeds"]["p"].update({"1": [0.01]}),
         "initial 'p' level must be a number"),
        ("sir", lambda d: d.update(initial={"s": {"x": 1}, "p": [0.0] * 20, "r": [0.0] * 20}),
         "initial 's' must be a number or a list of numbers"),
        ("seir", lambda d: d.update(noise={"e_slope": "x"}), "noise 'e_slope' must be a number"),
        ("seir", lambda d: d.update(noise={"start_k": 1.5}), "noise 'start_k' must be an integer"),
        ("seir", lambda d: d.update(noise={}, seed=[0]), "noise 'seed' must be an integer"),
        ("seir", lambda d: d.update(noise={"param_is_std": 1}),
         "noise 'param_is_std' must be a boolean"),
    ], ids=["n", "steps", "layers", "param_object", "network", "layer_entry", "param_nested",
            "h", "layer_rates", "seed_level", "initial_object", "noise_number", "noise_start_k",
            "noise_seed", "noise_flag"])
    def test_wrong_json_type_refused(self, tmp_path, capsys, model, edit, message):
        sc = write_scenario(tmp_path, model=model, steps=3)
        data = json.loads(sc.read_text())
        edit(data)
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1
        assert message in error_line(capsys)

    def test_empty_edge_list_is_quiet(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, model="sir", steps=2)
        (tmp_path / "net.csv").write_text("# no edges\n\n")
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        assert capsys.readouterr().err == ""


class TestScenarioSchema:
    """Every JSON object of a scenario refuses keys it does not know, and each
    number has a least value (levels also a greatest)."""

    def test_misspelt_steps_refused(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, model="sir")
        data = json.loads(sc.read_text())
        data["stesp"] = data.pop("steps")
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1
        assert "'stesp'" in error_line(capsys)
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    @pytest.mark.parametrize("model,edit,message", [
        ("sir", lambda d: d["params"].update(sigma=0.4), "params has unknown keys ['sigma']"),
        ("sir", lambda d: d["initial"].update(s=1.0), "initial has unknown keys ['s']"),
        ("sir", lambda d: d["initial"]["seeds"].update(e={}), "seeds has unknown keys ['e']"),
        ("sir", lambda d: d.update(initial={"s": 1.0, "p": 0.0, "r": 0.0, "x": 0.0}),
         "initial state has unknown keys ['x']"),
        ("seir", lambda d: d.update(n=0), "scenario 'n' must be >= 1"),
        ("seir", lambda d: d.update(steps=-1), "scenario 'steps' must be >= 0"),
        ("seir", lambda d: d["initial"]["seeds"]["p"].update({"1": 1.5}),
         "initial 'p' level must be in [0, 1]"),
        ("sir", lambda d: d.update(initial={"s": 1.5, "p": -0.5, "r": 0}),
         "initial 's' must be in [0, 1]"),
        ("seir", lambda d: d["initial"]["seeds"]["e"].update({"x": 0.1}), "seed node x"),
        ("seir", lambda d: d.update(noise={"start_k": -2}), "noise 'start_k' must be >= 0"),
        ("seir", lambda d: d.update(noise={"x_floor": -1e-5}), "noise 'x_floor' must be >= 0"),
        ("seir", lambda d: d.update(seed=-1), "noise 'seed' must be >= 0"),
        ("seir", lambda d: d.update(model="sis"), "scenario 'model' must be 'sir' or 'seir'"),
    ], ids=["params", "initial", "seeds", "levels", "n", "steps", "seed_level",
            "explicit_level", "seed_node", "start_k", "noise_floor", "seed", "model"])
    def test_refused(self, tmp_path, capsys, model, edit, message):
        sc = write_scenario(tmp_path, model=model, steps=3)
        data = json.loads(sc.read_text())
        edit(data)
        sc.write_text(json.dumps(data))
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1
        assert message in error_line(capsys)

    def test_negative_start_k_refused_by_perturb(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=5, noise={"start_k": -2})
        (tmp_path / "out").mkdir()
        text = "k,node,s,e,p,r\n" + "".join(f"{k},{i},1,0,0,0\n" for k in range(6)
                                            for i in range(20))
        (tmp_path / "out" / "trajectory.csv").write_text(text)
        assert run("perturb", "--scenario", sc, "--out", tmp_path / "out",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 1
        assert "'start_k'" in error_line(capsys)
        assert not (tmp_path / "out" / "measured.csv").exists()
        assert not (tmp_path / "out" / "measured.csv.levels").exists()

    def test_missing_initial_named_by_every_command(self, tmp_path, capsys):
        # the key is required: without it, every command names it instead of
        # the 's' of an empty initial state
        sc = write_scenario(tmp_path, steps=3, noise={"start_k": 1})
        out = tmp_path / "out"
        assert run("simulate", "--scenario", sc, "--out", out) == 0
        data = json.loads(sc.read_text())
        del data["initial"]
        sc.write_text(json.dumps(data))
        capsys.readouterr()
        for command in ("simulate", "diagnose", "perturb", "estimate"):
            extra = [] if command == "simulate" else ["--trajectory", out / "trajectory.csv"]
            assert run(command, "--scenario", sc, "--out", tmp_path / command, *extra) == 1
            assert error_line(capsys) == "error: scenario missing 'initial'", command
            assert not (tmp_path / command).exists()

    def test_network_too_large_to_allocate(self, tmp_path, capsys):
        # a dense 1e8 x 1e8 adjacency: the allocation fails at once
        sc = write_scenario(tmp_path, model="sir", n=100000000)
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 1
        assert "Unable to allocate" in error_line(capsys)


class TestEstimateInput:
    @pytest.mark.parametrize("steps", [4, 30])
    def test_level_out_of_range_refused(self, tmp_path, capsys, steps):
        # one r of 1e20 on a 5-node ring: the regression would return
        # estimates of order 1e18..1e21 at T = 4 and overflow at T = 30
        (tmp_path / "ring.csv").write_text("".join(f"{i},{(i + 1) % 5},1.0\n" for i in range(5)))
        sc = write_scenario(tmp_path, steps=steps, n=5, network="ring.csv")
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        traj = tmp_path / "out" / "trajectory.csv"
        lines = traj.read_text().splitlines()
        row = lines[8].split(",")
        row[5] = "1e20"
        lines[8] = ",".join(row)
        traj.write_text("\n".join(lines) + "\n")
        assert run("estimate", "--scenario", sc, "--out", tmp_path / "est",
                   "--trajectory", traj) == 1
        assert "'r' level outside [0, 1]" in error_line(capsys)
        assert not (tmp_path / "est" / "estimate.json").exists()


class TestPerturbInput:
    def test_level_out_of_range_refused(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=4, noise={"start_k": 0})
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        traj = tmp_path / "out" / "trajectory.csv"
        lines = traj.read_text().splitlines()
        row = lines[25].split(",")
        row[3] = "-1"
        lines[25] = ",".join(row)
        traj.write_text("\n".join(lines) + "\n")
        assert run("perturb", "--scenario", sc, "--out", tmp_path / "noisy",
                   "--trajectory", traj) == 1
        assert "'e' level outside [0, 1]" in error_line(capsys)
        assert not (tmp_path / "noisy" / "measured.csv").exists()
        assert not (tmp_path / "noisy" / "measured.csv.levels").exists()

    def test_no_noise_model(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, steps=2)
        assert run("simulate", "--scenario", sc, "--out", tmp_path / "out") == 0
        assert run("perturb", "--scenario", sc, "--out", tmp_path / "out",
                   "--trajectory", tmp_path / "out" / "trajectory.csv") == 1
        assert "no noise model" in error_line(capsys)
        assert not (tmp_path / "out" / "measured.csv").exists()
        assert not (tmp_path / "out" / "measured.csv.levels").exists()
