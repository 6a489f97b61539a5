import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import (Network, SeirParams, SirParams, Trajectory, estimation,
                    apply_noise, build_regression, check_identifiability,
                    estimate_pipeline, simulate, solve_least_squares)
from netepi.estimation import (NONZERO_TOL, NoiseModel, _g, _nonproportional_witness,
                               report_to_json)

from conftest import (fabricated_seir, g_value, least_squares_oracle,
                      nonproportional_pair_oracle, random_irreducible_network,
                      regression_seir_oracle, regression_sir_oracle, seeded_state)


@pytest.fixture
def sir_traj(sir_example):
    net, params, state = sir_example
    return net, params, simulate(state, params, net, 1)


@pytest.fixture
def seir_traj(seir_example):
    net, params, state = seir_example
    return net, params, simulate(state, params, net, 2)


def no_signal_sir(steps, h=0.1):
    """Two-node SIR trajectory with nobody infected at any step."""
    return Trajectory(s=np.ones((steps, 2)), p=np.zeros((steps, 2)),
                      r=np.zeros((steps, 2)), h=h)


def g_at(traj, net, i, k, x):
    """estimation._g of compartment ``x`` at node i and step k, checked
    against the conftest oracle."""
    val = _g(traj.s[k:k + 1], getattr(traj, x)[k:k + 1], net)[0, i]
    assert val == pytest.approx(g_value(traj, net, i, k, x), rel=1e-12, abs=1e-15)
    return val


class TestGValue:
    def test_direct_evaluation(self, seir_traj):
        net, _, traj = seir_traj
        assert g_at(traj, net, 1, 0, "e") == pytest.approx(0.02, abs=1e-15)

    def test_zero_neighbor_state(self, seir_traj):
        net, _, traj = seir_traj
        assert g_at(traj, net, 0, 0, "p") == 0.0

    def test_isolated_node(self, seir_traj):
        _, _, traj = seir_traj
        isolated = Network(np.zeros((2, 2)))
        assert g_at(traj, isolated, 0, 0, "e") == 0.0


class TestSirHomogIdentifiability:
    def test_example_identifiable(self, sir_traj):
        net, _, traj = sir_traj
        verdict = check_identifiability(traj, net)
        assert verdict.identifiable
        assert verdict.witnesses["p_nonzero"]["value"] == pytest.approx(0.1)
        w = verdict.witnesses["sAp_nonzero"]
        assert (w["i"], w["k"]) == (1, 0)
        assert w["value"] == pytest.approx(0.1)

    def test_no_signal(self, two_node_net):
        verdict = check_identifiability(no_signal_sir(3), two_node_net)
        assert not verdict.identifiable
        assert set(verdict.failed_conditions) == {"p_nonzero", "sAp_nonzero"}

    def test_zero_network(self, sir_traj):
        _, _, traj = sir_traj
        verdict = check_identifiability(traj, Network(np.zeros((2, 2))))
        assert verdict.failed_conditions == ("sAp_nonzero",)

    def test_per_node_witnesses_carry_no_node(self, sir_example):
        net, params, state = sir_example
        traj = simulate(state, params, net, 3)
        verdict = check_identifiability(traj, net, node=0)
        assert verdict.identifiable
        assert verdict.witnesses["p_i_nonzero"] == {"k": 0, "value": pytest.approx(0.1)}
        w = verdict.witnesses["g_i_p_nonzero"]
        assert set(w) == {"k", "value"} and w["k"] == 1
        assert w["value"] == pytest.approx(g_value(traj, net, 0, 1, "p"), rel=1e-12)


class TestSeirIdentifiability:
    def test_two_step_witness(self, seir_traj):
        net, _, traj = seir_traj
        verdict = check_identifiability(traj, net)
        assert verdict.identifiable
        pair = verdict.witnesses["g_pair"]
        lhs = g_value(traj, net, pair["i3"], pair["k3"], "e") * \
            g_value(traj, net, pair["i4"], pair["k4"], "p")
        rhs = g_value(traj, net, pair["i4"], pair["k4"], "e") * \
            g_value(traj, net, pair["i3"], pair["k3"], "p")
        assert abs(lhs - rhs) > 1e-12

    def test_single_step_fails_bilinear(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 1)
        verdict = check_identifiability(traj, net)
        assert not verdict.identifiable
        assert "g_pair_nonproportional" in verdict.failed_conditions

    def test_no_exposed_signal(self, two_node_net):
        traj = fabricated_seir(
            e=[np.zeros(2)] * 3,
            p=[[0.1, 0.0], [0.07, 0.0], [0.049, 0.0]],
            r=[[0.0, 0.0], [0.03, 0.0], [0.051, 0.0]])
        verdict = check_identifiability(traj, two_node_net)
        assert "e_nonzero" in verdict.failed_conditions

    def test_per_node_window(self, seir_example):
        net, params, state = seir_example
        # node 1 has p == 0 throughout the T=2 window, so it is not
        # identifiable there; node 0 becomes identifiable once T=3
        traj2 = simulate(state, params, net, 2)
        verdict = check_identifiability(traj2, net, node=1)
        assert not verdict.identifiable
        assert "p_nonzero" in verdict.failed_conditions
        traj3 = simulate(state, params, net, 3)
        verdict = check_identifiability(traj3, net, node=0)
        assert verdict.identifiable
        pair = verdict.witnesses["g_pair"]
        assert pair["i3"] == pair["i4"] == 0
        rep = solve_least_squares(build_regression(traj3, net, node=0))
        assert rep.rank == 4
        assert rep.estimates == pytest.approx([0.04, 0.06, 0.4, 0.3], rel=1e-8)

    def test_per_node_single_step_not_identifiable(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 1)
        verdict = check_identifiability(traj, net, node=0)
        assert not verdict.identifiable
        assert verdict.failed_conditions == ("horizon_T>1",)

    def test_single_node_network_rejected(self, seir_traj):
        _, _, traj = seir_traj
        with pytest.raises(ValueError, match="n > 1"):
            check_identifiability(
                fabricated_seir(e=[[0.1]] * 2, p=[[0.1]] * 2, r=[[0.0]] * 2),
                Network(np.ones((1, 1))))


class TestNonproportionalWitness:
    """The pivot scan against the all-pairs oracle: the same verdict, and a
    witness the oracle's test accepts, paired with a point of largest norm."""

    @staticmethod
    def _agree(ge, gp, nodes):
        got = _nonproportional_witness(ge, gp, nodes)
        assert (got is None) == (nonproportional_pair_oracle(ge, gp, nodes) is None)
        if got is not None:
            e3, p3 = ge[got["k3"], got["i3"]], gp[got["k3"], got["i3"]]
            e4, p4 = ge[got["k4"], got["i4"]], gp[got["k4"], got["i4"]]
            assert (got["lhs"], got["rhs"]) == (e3 * p4, e4 * p3)
            assert abs(e3 * p4 - e4 * p3) > NONZERO_TOL * max(1.0, abs(e3 * p4), abs(e4 * p3))
            sub = np.hypot(ge[:, nodes], gp[:, nodes])
            assert np.hypot(e3, p3) == sub.max()
        return got

    def test_random_point_sets(self):
        rng = np.random.default_rng(17)
        verdicts = {"generic": set(), "proportional": set(), "near": set()}
        for case in range(2400):
            t, n = rng.integers(1, 7), rng.integers(1, 6)
            ge = rng.random((t, n)) * 10.0 ** rng.uniform(-3, 1)
            ge[rng.random((t, n)) < 0.2] = 0.0
            kind = ("generic", "proportional", "near")[case % 3]
            if kind == "generic":
                gp = rng.random((t, n)) * 10.0 ** rng.uniform(-3, 1)
            else:
                gp = rng.uniform(0.1, 3.0) * ge
                if kind == "near":
                    gp = gp * (1.0 + 1e-13 * rng.standard_normal((t, n)))
            nodes = np.arange(n) if case % 2 else np.array([rng.integers(n)])
            verdicts[kind].add(self._agree(ge, gp, nodes) is None)
        # each family reaches the verdicts it is built for
        assert verdicts == {"generic": {False, True}, "proportional": {True}, "near": {True}}

    def test_criterion_5_cases(self, two_node_net):
        net = two_node_net
        truth = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
        initial = seeded_state(2, "seir", e_seeds=[(0, 0.02)], p_seeds=[(0, 0.03)])
        cases = [
            fabricated_seir(e=[[0.1, 0.0], [0.06, 0.0], [0.036, 0.0]],
                            p=[np.zeros(2)] * 3, r=[np.zeros(2)] * 3),
            fabricated_seir(e=[np.zeros(2)] * 3,
                            p=[[0.1, 0.0], [0.07, 0.0], [0.049, 0.0]],
                            r=[[0.0, 0.0], [0.03, 0.0], [0.051, 0.0]]),
            simulate(initial, truth, net, 1),
            simulate(initial, truth, net, 2),
        ]
        found = []
        for traj in cases:
            t = traj.transitions
            ge, gp = _g(traj.s[:t], traj.e[:t], net), _g(traj.s[:t], traj.p[:t], net)
            for nodes in (np.arange(2), np.array([0]), np.array([1])):
                found.append(self._agree(ge, gp, nodes) is not None)
        # only the two-step run has a pair, network-wide and at node 1
        assert found == [False] * 9 + [True, False, True]


class TestSirRegression:
    def test_hand_assembled_system(self, sir_traj):
        net, _, traj = sir_traj
        sys = build_regression(traj, net)
        expected_q = np.array([[0.0, -0.01], [0.01, 0.0], [0.0, 0.01], [0.0, 0.0]])
        expected_d = np.array([-0.002, 0.005, 0.002, 0.0])
        assert sys.q == pytest.approx(expected_q, abs=1e-15)
        assert sys.delta == pytest.approx(expected_d, abs=1e-15)

    def test_zero_trajectory(self, two_node_net):
        sys = build_regression(no_signal_sir(2), two_node_net)
        assert not sys.q.any() and not sys.delta.any()

    def test_substitution_identity(self, sir_traj):
        net, _, traj = sir_traj
        sys = build_regression(traj, net)
        assert sys.q @ np.array([0.5, 0.2]) == pytest.approx(sys.delta, abs=1e-15)

    def test_hetero_consistent_with_global(self, sir_example):
        net, params, state = sir_example
        traj = simulate(state, params, net, 3)
        for i in range(2):
            rep = solve_least_squares(build_regression(traj, net, i))
            assert rep.estimates == pytest.approx([0.5, 0.2], abs=1e-10)
            assert rep.rank == 2

    def test_hetero_rank_deficient_node(self, sir_traj):
        net, _, traj = sir_traj
        sys = build_regression(traj, net, 1)
        assert sys.q == pytest.approx(np.array([[0.01, 0.0], [0.0, 0.0]]), abs=1e-15)
        assert sys.delta == pytest.approx([0.005, 0.0], abs=1e-15)
        rep = solve_least_squares(sys)
        assert rep.rank == 1 and rep.non_unique
        assert rep.estimates[0] == pytest.approx(0.5, abs=1e-12)
        assert rep.estimates[1] == pytest.approx(0.0, abs=1e-12)  # minimum norm

    def test_model_follows_trajectory(self, sir_traj, seir_traj):
        # the SIR or SEIR system and conditions are chosen by the trajectory's columns
        net, _, sir = sir_traj
        _, _, seir = seir_traj
        assert build_regression(sir, net).q.shape[1] == 2
        assert build_regression(seir, net).q.shape[1] == 4
        assert build_regression(sir, net, 0).kind == "sir-hetero"
        assert "sAp_nonzero" in check_identifiability(sir, net).witnesses
        assert "g_pair" in check_identifiability(seir, net).witnesses


class TestSeirRegression:
    def test_hand_rows(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 1)
        sys = build_regression(traj, net)
        assert sys.q.shape == (6, 4)
        assert sys.q[1] == pytest.approx([0.02, 0.03, 0.0, 0.0], abs=1e-15)
        assert sys.q[2] == pytest.approx([0.0, 0.0, 0.02, -0.03], abs=1e-15)

    def test_substitution_identity(self, seir_traj):
        net, _, traj = seir_traj
        sys = build_regression(traj, net)
        theta = np.array([0.04, 0.06, 0.4, 0.3])
        assert sys.q @ theta == pytest.approx(sys.delta, abs=1e-15)

    def test_per_node_shape_and_substitution(self, seir_traj):
        net, _, traj = seir_traj
        sys = build_regression(traj, net, node=1)
        assert sys.q.shape == (6, 4)  # 3T x 4 with T = 2
        theta = np.array([0.04, 0.06, 0.4, 0.3])
        assert sys.q @ theta == pytest.approx(sys.delta, abs=1e-15)


class TestChainRegression:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31),
           st.sampled_from(["sir", "seir"]), st.integers(min_value=1, max_value=6))
    def test_matches_per_model_oracles(self, n, seed, kind, steps):
        # the one regression over the chain, bit for bit the per-model
        # systems it replaced, network-wide and at one node, on random
        # levels with some zeros
        rng = np.random.default_rng(seed)
        net = Network((rng.random((n, n)) < 0.5) * rng.random((n, n)))
        levels = rng.random((4, steps + 1, n))
        levels[rng.random(levels.shape) < 0.3] = 0.0
        s, e, p, r = levels
        traj = Trajectory(s=s, e=None if kind == "sir" else e, p=p, r=r, h=rng.uniform(0.1, 2.0))
        oracle = regression_sir_oracle if kind == "sir" else regression_seir_oracle
        for node in (None, int(rng.integers(n))):
            got = build_regression(traj, net, node)
            want = oracle(traj, net, node, estimation._window_g(traj, net))
            assert np.array_equal(got.q, want.q) and np.array_equal(got.delta, want.delta)
            assert (got.kind, got.t, got.node) == (want.kind, want.t, want.node)


class TestSolveLeastSquares:
    def test_sir_exact(self, sir_traj):
        net, _, traj = sir_traj
        rep = solve_least_squares(build_regression(traj, net))
        assert rep.estimates == pytest.approx([0.5, 0.2], abs=1e-12)
        assert rep.rank == 2 and not rep.non_unique
        assert rep.residual_norm <= 1e-10 * np.linalg.norm(
            build_regression(traj, net).delta)

    def test_seir_exact(self, seir_traj):
        net, _, traj = seir_traj
        rep = solve_least_squares(build_regression(traj, net))
        assert rep.estimates == pytest.approx([0.04, 0.06, 0.4, 0.3], rel=1e-8)
        assert rep.rank == 4

    def test_rank_deficiency_flagged(self, two_node_net):
        traj = fabricated_seir(
            e=[np.zeros(2)] * 3,
            p=[[0.1, 0.0], [0.07, 0.0], [0.049, 0.0]],
            r=[[0.0, 0.0], [0.03, 0.0], [0.051, 0.0]])
        rep = solve_least_squares(build_regression(traj, two_node_net))
        assert rep.non_unique and rep.rank < 4

    def test_empty_system_rejected(self):
        from netepi.estimation import RegressionSystem
        with pytest.raises(ValueError):
            solve_least_squares(RegressionSystem(((0, np.empty((0, 3))),), "sir-homog", 0))



class TestBlockSolve:
    """The solve on the regression's row blocks against the dense solve it
    replaced (conftest least_squares_oracle): the same rank and non-uniqueness,
    estimates within the perturbation bound of a least-squares solve, scaled by
    the condition number of Q on the singular values kept, and the same
    residual up to 1e-12 * |delta|."""

    @staticmethod
    def _agree(sys):
        got = solve_least_squares(sys)
        theta, rank, non_unique, residual, s = least_squares_oracle(sys)
        assert (got.rank, got.non_unique) == (rank, non_unique)
        assert abs(got.residual_norm - residual) <= 1e-12 * np.linalg.norm(sys.delta)
        if not rank:
            assert not got.estimates.any()
            return got
        # 100 eps kappa (|theta| + kappa |residual| / |Q|): the sensitivity
        # of least squares (Golub and Van Loan, 5.3.8); the cases here reach
        # about a twentieth of it
        kappa = s[0] / s[rank - 1]
        bound = 100 * np.finfo(float).eps * kappa * (
            np.linalg.norm(theta) + kappa * residual / s[0])
        assert np.linalg.norm(got.estimates - theta) <= bound
        return got

    @staticmethod
    def _trajectory(rng, kind, n, steps, case):
        levels = rng.random((4, steps + 1, n))
        if case == "zeros":
            levels[rng.random(levels.shape) < 0.3] = 0.0
        elif case == "e0":
            levels[1] = 0.0
        elif case == "proportional":
            # e = c * p makes the g(e) and g(p) columns proportional
            levels[1] = rng.uniform(0.1, 3.0) * levels[2]
        s, e, p, r = levels
        return Trajectory(s=s, e=None if kind == "sir" else e, p=p, r=r, h=rng.uniform(0.1, 2.0))

    @pytest.mark.parametrize("kind", ["sir", "seir"])
    @pytest.mark.parametrize("case", ["generic", "zeros", "e0", "proportional"])
    def test_random_systems(self, kind, case):
        rng = np.random.default_rng([17, len(kind), len(case)])
        ranks = {"wide": set(), "node": set()}
        for _ in range(60):
            n, steps = int(rng.integers(2, 7)), int(rng.integers(1, 7))
            net = Network((rng.random((n, n)) < 0.6) * rng.random((n, n)))
            traj = self._trajectory(rng, kind, n, steps, case)
            for node in (None, int(rng.integers(n))):
                got = self._agree(build_regression(traj, net, node))
                ranks["wide" if node is None else "node"].add(got.rank)
        full = 2 if kind == "sir" else 4
        if kind == "seir" and case in ("e0", "proportional"):
            # the conditions that fail there leave Q short of full rank
            assert max(ranks["wide"] | ranks["node"]) < full
        else:
            assert full in ranks["wide"] and full in ranks["node"]

    @pytest.mark.parametrize("kind,steps", [("sir", 1), ("sir", 2), ("seir", 1), ("seir", 2)])
    def test_short_windows(self, kind, steps):
        # a per-node system at T = 1 has fewer rows than columns, so the
        # stack of its triangles is padded to cols + 1 rows
        rng = np.random.default_rng([23, steps, len(kind)])
        ranks = set()
        for _ in range(40):
            n = int(rng.integers(2, 6))
            net = Network((rng.random((n, n)) < 0.6) * rng.random((n, n)))
            traj = self._trajectory(rng, kind, n, steps, "generic")
            for node in (None, *range(n)):
                sys = build_regression(traj, net, node)
                got = self._agree(sys)
                if node is not None:
                    ranks.add(got.rank)
                    assert len(sys.q) == (2 if kind == "sir" else 3) * steps
        # per node the rank reaches, and never passes, the smaller of the row
        # and column counts: at T = 1, SEIR's three rows
        assert max(ranks) == min((2 if kind == "sir" else 3) * steps, 2 if kind == "sir" else 4)

    def test_hand_built_systems(self):
        # a system built by hand is one block of all its columns
        rng = np.random.default_rng(29)
        for _ in range(200):
            m, c = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            q = rng.standard_normal((m, c)) * 10.0 ** rng.uniform(-3, 3)
            if c > 1 and rng.random() < 0.3:
                q[:, -1] = rng.uniform(-2, 2) * q[:, 0]
            if rng.random() < 0.2:
                q[:, int(rng.integers(c))] = 0.0
            block = np.column_stack([q, rng.standard_normal(m)])
            self._agree(estimation.RegressionSystem(((0, block),), "sir-homog", m))

    def test_hand_built_copy_of_a_built_system(self, seir_traj):
        net, _, traj = seir_traj
        built = build_regression(traj, net)
        want = solve_least_squares(built).estimates
        assert [col for col, _ in built.blocks] == [0, 2, 3]
        for _, block in built.blocks:
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 1.0
        # q and delta are new arrays on each read, so writing into one that
        # was read leaves the blocks, and the solve, as they were
        q, delta = built.q, built.delta
        q[:] = 1.0
        delta[:] = 1.0
        assert np.array_equal(solve_least_squares(built).estimates, want)
        copy = estimation.RegressionSystem(((0, np.column_stack([built.q, built.delta])),),
                                           built.kind, built.t)
        assert solve_least_squares(copy).estimates == pytest.approx(want, rel=1e-12)
        # a replace() copy keeps the blocks
        again = dataclasses.replace(built)
        assert again.blocks is built.blocks
        assert np.array_equal(solve_least_squares(again).estimates, want)

    def test_pipeline_builds_no_dense_system(self, monkeypatch):
        # neither q nor delta is read, and every factorisation is of a row
        # block, at most four columns and delta wide, or of the small
        # triangles
        rng = np.random.default_rng(31)
        net = random_irreducible_network(rng, 12)
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
        traj = simulate(seeded_state(12, "seir", e_seeds=[(0, 0.02)], p_seeds=[(3, 0.03)]),
                        params, net, 20)
        want = estimate_pipeline(traj, net)
        shapes = {"qr": [], "svd": []}
        for name in shapes:
            def recorded(a, *args, _name=name, _run=getattr(np.linalg, name), **kwargs):
                shapes[_name].append(a.shape)
                return _run(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)

        def dense(self):
            raise AssertionError("dense system read")
        for name in ("q", "delta"):
            monkeypatch.setattr(estimation.RegressionSystem, name, property(dense))
        got = estimate_pipeline(traj, net)
        assert np.array_equal(got.estimates, want.estimates)
        assert shapes == {"qr": [(240, 4), (240, 3), (240, 2), (9, 5)], "svd": [(4, 4)]}

    @pytest.mark.parametrize("kind,node", [("sir", None), ("seir", None), ("seir", 1)])
    def test_pipeline_solves_through_solve_least_squares(self, request, monkeypatch, kind,
                                                         node):
        # one call of the module's public solve, on the blocks that _blocks
        # builds for the same window
        net, params, state = request.getfixturevalue(f"{kind}_example")
        traj = simulate(state, params, net, 3)
        solve = estimation.solve_least_squares
        systems = []
        monkeypatch.setattr(estimation, "solve_least_squares",
                            lambda sys: systems.append(sys) or solve(sys))
        report = estimate_pipeline(traj, net, node)
        sys, = systems
        want = estimation._blocks(traj, net, node, estimation._window_g(traj, net))
        assert [col for col, _ in sys.blocks] == [col for col, _ in want]
        assert all(np.array_equal(got, block)
                   for (_, got), (_, block) in zip(sys.blocks, want, strict=True))
        assert (sys.kind, sys.t, sys.node) == (report.kind, 3, node)
        assert np.array_equal(report.estimates, solve(build_regression(traj, net, node)).estimates)

class TestApplyNoise:
    def test_zero_noise_passthrough(self, seir_traj):
        net, _, traj = seir_traj
        model = NoiseModel(e_slope=0, e_floor=0, x_slope=0, x_floor=0,
                           seed=1, start_k=1)
        out = apply_noise(traj, model)
        assert len(out) == len(traj) - 1
        for a, b in zip(out.states, traj.states[1:]):
            for comp in ("e", "p", "r"):
                assert np.array_equal(getattr(a, comp), getattr(b, comp))

    def test_deterministic_under_seed(self, seir_traj):
        net, _, traj = seir_traj
        model = NoiseModel(seed=42)
        a, b = apply_noise(traj, model), apply_noise(traj, model)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.e, sb.e)
            assert np.array_equal(sa.p, sb.p)

    def test_different_seed_differs(self, seir_traj):
        net, _, traj = seir_traj
        a = apply_noise(traj, NoiseModel(seed=1))
        b = apply_noise(traj, NoiseModel(seed=2))
        assert not np.array_equal(a.states[0].e, b.states[0].e)

    def test_clamped_to_unit_interval(self, seir_traj):
        net, _, traj = seir_traj
        out = apply_noise(traj, NoiseModel(e_slope=0, e_floor=4.0,
                                           x_slope=0, x_floor=4.0, seed=3))
        for st in out.states:
            for comp in ("e", "p", "r"):
                v = getattr(st, comp)
                assert np.all(v >= 0) and np.all(v <= 1)

    def test_std_interpretation_selectable(self, seir_traj):
        net, _, traj = seir_traj
        as_var = apply_noise(traj, NoiseModel(seed=5))
        as_std = apply_noise(traj, NoiseModel(seed=5, param_is_std=True))
        assert not np.array_equal(as_var.states[0].e, as_std.states[0].e)

    def test_start_beyond_horizon(self, seir_traj):
        net, _, traj = seir_traj
        with pytest.raises(ValueError):
            apply_noise(traj, NoiseModel(start_k=99))

    def test_rejects_sir(self, sir_traj):
        _, _, traj = sir_traj
        with pytest.raises(ValueError):
            apply_noise(traj, NoiseModel())

    def test_rejects_negative_model(self):
        with pytest.raises(ValueError):
            NoiseModel(e_slope=-1.0)

    def test_rejects_negative_start_k(self):
        # a negative start_k would slice the last states from the end
        with pytest.raises(ValueError, match="start_k"):
            NoiseModel(start_k=-2)

    @pytest.mark.parametrize("comp,value", [("e", -1.0), ("p", 2.0), ("r", np.nan),
                                            ("e", -1e-8)])
    def test_rejects_level_out_of_range(self, seir_traj, comp, value):
        _, _, traj = seir_traj
        levels = {c: getattr(traj, c).copy() for c in ("s", "e", "p", "r")}
        levels[comp][1, 0] = value
        with pytest.raises(ValueError, match=f"'{comp}' level outside"):
            apply_noise(Trajectory(**levels, h=traj.h), NoiseModel())

    def test_level_within_tolerance_scaled_as_clipped(self, seir_traj):
        _, _, traj = seir_traj
        levels = {c: getattr(traj, c).copy() for c in ("s", "e", "p", "r")}
        levels["e"][:, 0] = -1e-12  # with no floor, the scale of e itself is sqrt(< 0)
        levels["p"][:, 0] = 1 + 1e-12
        out = apply_noise(Trajectory(**levels, h=traj.h), NoiseModel(e_floor=0.0, seed=4))
        assert np.isfinite(out.p).all()
        assert not out.e[:, 0].any()  # a zero scale: e stays put, clamped to 0

    def test_rows_need_not_sum_to_one(self, seir_traj):
        # measured data with the exposed column zeroed, as a blind estimate feeds
        _, _, traj = seir_traj
        blind = Trajectory(s=traj.s, e=np.zeros_like(traj.e), p=traj.p, r=traj.r, h=traj.h)
        out = apply_noise(blind, NoiseModel(e_slope=0.0, e_floor=0.0, seed=2))
        assert not out.e.any()


class TestEstimatePipeline:
    def test_noiseless_exact_recovery(self, seir_traj):
        net, _, traj = seir_traj
        rep = estimate_pipeline(traj, net)
        assert rep.estimates == pytest.approx([0.04, 0.06, 0.4, 0.3], rel=1e-8)
        assert rep.trajectory_errors is not None
        assert max(rep.trajectory_errors.values()) < 1e-10

    def test_g_computed_once_per_compartment(self, monkeypatch, seir_traj, sir_traj):
        # the identifiability check and the regression share each g(x)
        calls = []

        def counted(s, x, net):
            calls.append(len(s))
            return _g(s, x, net)

        monkeypatch.setattr(estimation, "_g", counted)
        for (net, _, traj), computed in ((seir_traj, 2), (sir_traj, 1)):
            calls.clear()
            rep = estimate_pipeline(traj, net)
            assert calls == [traj.transitions] * computed
            assert rep.verdict == check_identifiability(traj, net)
            system = build_regression(traj, net)
            assert np.array_equal(rep.estimates, solve_least_squares(system).estimates)

    def test_resimulation_starts_from_the_first_state_alone(self, monkeypatch, seir_traj,
                                                             sir_traj):
        # the re-simulation builds its one initial state, not every per-step
        # state of the measurements, and starts from that state's levels
        starts, run = [], estimation.simulate

        def recorded(initial, *args, **kwargs):
            starts.append(initial)
            return run(initial, *args, **kwargs)

        monkeypatch.setattr(estimation, "simulate", recorded)
        for net, _, traj in (seir_traj, sir_traj):
            traj = Trajectory(s=traj.s, e=traj.e, p=traj.p, r=traj.r, h=traj.h)
            rep = estimate_pipeline(traj, net)
            assert "states" not in vars(traj) and rep.trajectory_errors is not None
            for comp in ("s", "e", "p", "r"):
                level = getattr(starts[-1], comp)
                assert (level is None) == (getattr(traj, comp) is None)
                if level is not None:
                    assert level.tobytes() == getattr(traj, comp)[0].tobytes()

    def test_not_identifiable_no_resimulation(self, two_node_net):
        traj = fabricated_seir(
            e=[np.zeros(2)] * 3,
            p=[[0.1, 0.0], [0.07, 0.0], [0.049, 0.0]],
            r=[[0.0, 0.0], [0.03, 0.0], [0.051, 0.0]])
        rep = estimate_pipeline(traj, two_node_net)
        assert rep.verdict is not None and not rep.verdict.identifiable
        assert rep.non_unique
        assert rep.trajectory_errors is None

    def test_sir_pipeline(self, sir_traj):
        net, _, traj = sir_traj
        rep = estimate_pipeline(traj, net)
        assert rep.estimates == pytest.approx([0.5, 0.2], abs=1e-10)

    def test_locality_of_per_node_estimates(self):
        # 4-node directed line: node 0 only sees node 1; perturbing node 3
        # (outside N_0 and not node 0) must leave node-0 estimates untouched
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 2] = a[2, 3] = a[3, 0] = 1.0
        net = Network(a)
        params = SeirParams(beta_e=0.05, beta=0.07, sigma=0.5, gamma=0.4, h=1.0)
        initial = seeded_state(4, "seir", e_seeds=[(1, 0.04), (3, 0.02)],
                               p_seeds=[(1, 0.03)])
        traj = simulate(initial, params, net, 4)
        base = estimate_pipeline(traj, net, node=0)
        rng = np.random.default_rng(0)
        comps = {c: getattr(traj, c).copy() for c in ("s", "e", "p", "r")}
        for x in comps.values():
            x[:, 2:] = rng.random((len(traj), 2))
        perturbed = Trajectory(h=traj.h, **comps)
        rep = estimate_pipeline(perturbed, net, node=0)
        assert np.array_equal(rep.estimates, base.estimates)

    def test_transport_layers_refused(self, seir_example, sir_traj):
        net, params, state = seir_example
        layered = Network(net.adjacency, layers=(net.adjacency,))
        lparams = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0,
                             layer_beta_e=(np.full(2, 0.04),),
                             layer_beta=(np.full(2, 0.06),))
        traj = simulate(state, lparams, layered, 3)
        for node in (None, 0):
            with pytest.raises(ValueError, match="transport layers"):
                estimate_pipeline(traj, layered, node=node)
        _, _, sir = sir_traj
        with pytest.raises(ValueError, match="transport layers"):
            estimate_pipeline(sir, layered)

    def test_single_state_refused(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 0)
        for call in (check_identifiability, build_regression, estimate_pipeline):
            with pytest.raises(ValueError, match="at least one transition"):
                call(traj, net)

    @pytest.mark.parametrize("n", [30, 50])
    def test_network_of_other_size_refused(self, n):
        # sparse rings, whose products run over the edge tables: a larger
        # trajectory than the network once gave estimates with exit 0
        def ring(size):
            a = np.zeros((size, size))
            a[np.arange(size), (np.arange(size) + 1) % size] = 1.0
            a[(np.arange(size) + 1) % size, np.arange(size)] = 0.5
            return Network(a)

        params = SeirParams(beta_e=0.1, beta=0.2, sigma=0.4, gamma=0.3, h=1.0)
        traj = simulate(seeded_state(40, "seir", e_seeds=[(1, 0.05)], p_seeds=[(2, 0.02)]),
                        params, ring(40), 5)
        net = ring(n)
        for call in (check_identifiability, build_regression, estimate_pipeline):
            for node in (None, 0):
                with pytest.raises(ValueError, match=f"trajectory has 40 nodes, the network {n}"):
                    call(traj, net, node=node)

    def test_report_json_round_trip(self, seir_traj):
        import json
        net, _, traj = seir_traj
        rep = estimate_pipeline(traj, net)
        payload = json.loads(report_to_json(rep))
        assert payload["identifiable"] is True
        assert payload["estimates"]["sigma"] == pytest.approx(0.4, rel=1e-8)


class TestNecessityDirection:
    """When a condition fails, the system must be rank deficient."""

    def test_p_zero_sir(self, two_node_net):
        traj = no_signal_sir(3)
        assert not check_identifiability(traj, two_node_net).identifiable
        rep = solve_least_squares(build_regression(traj, two_node_net))
        assert rep.rank < 2

    def test_proportional_g_columns(self, two_node_net):
        # e and p proportional at every step makes the first two columns of
        # the SEIR system proportional
        traj = fabricated_seir(
            e=[[0.1, 0.05], [0.08, 0.04]],
            p=[[0.2, 0.1], [0.16, 0.08]],
            r=[[0.0, 0.0], [0.01, 0.02]])
        verdict = check_identifiability(traj, two_node_net)
        assert "g_pair_nonproportional" in verdict.failed_conditions
        rep = solve_least_squares(build_regression(traj, two_node_net))
        assert rep.rank < 4
