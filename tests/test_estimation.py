import numpy as np
import pytest

from netepi import (Network, SeirParams, SirParams, Trajectory, estimation,
                    apply_noise, build_regression, check_identifiability,
                    estimate_pipeline, g_value, simulate, solve_least_squares)
from netepi.estimation import (NONZERO_TOL, NoiseModel, _g, _nonproportional_witness,
                               report_to_json)

from conftest import (fabricated_seir, nonproportional_pair_oracle,
                      random_irreducible_network, seeded_state)


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


class TestGValue:
    def test_direct_evaluation(self, seir_traj):
        net, _, traj = seir_traj
        assert g_value(traj, net, 1, 0, "e") == pytest.approx(0.02, abs=1e-15)

    def test_zero_neighbor_state(self, seir_traj):
        net, _, traj = seir_traj
        assert g_value(traj, net, 0, 0, "p") == 0.0

    def test_isolated_node(self, seir_traj):
        _, _, traj = seir_traj
        isolated = Network(np.zeros((2, 2)))
        assert g_value(traj, isolated, 0, 0, "e") == 0.0

    def test_out_of_range(self, seir_traj):
        net, _, traj = seir_traj
        with pytest.raises(IndexError):
            g_value(traj, net, 0, 99, "e")
        with pytest.raises(IndexError):
            g_value(traj, net, 9, 0, "e")


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
            solve_least_squares(RegressionSystem(np.empty((0, 2)), np.empty(0),
                                                 "sir-homog", 0))


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
