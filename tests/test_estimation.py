import numpy as np
import pytest

from netepi import (Network, SeirParams, SirParams, Trajectory,
                    apply_noise, build_regression_seir,
                    build_regression_sir_hetero, build_regression_sir_homog,
                    check_identifiability_seir, check_identifiability_sir_hetero,
                    check_identifiability_sir_homog, estimate_pipeline, g_value,
                    simulate, solve_least_squares)
from netepi.estimation import NoiseModel, report_to_json

from conftest import fabricated_seir, random_irreducible_network, seeded_state


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
        verdict = check_identifiability_sir_homog(traj, net)
        assert verdict.identifiable
        assert verdict.witnesses["p_nonzero"]["value"] == pytest.approx(0.1)
        w = verdict.witnesses["sAp_nonzero"]
        assert (w["i"], w["k"]) == (1, 0)
        assert w["value"] == pytest.approx(0.1)

    def test_no_signal(self, two_node_net):
        verdict = check_identifiability_sir_homog(no_signal_sir(3), two_node_net)
        assert not verdict.identifiable
        assert set(verdict.failed_conditions) == {"p_nonzero", "sAp_nonzero"}

    def test_zero_network(self, sir_traj):
        _, _, traj = sir_traj
        verdict = check_identifiability_sir_homog(traj, Network(np.zeros((2, 2))))
        assert verdict.failed_conditions == ("sAp_nonzero",)


class TestSeirIdentifiability:
    def test_two_step_witness(self, seir_traj):
        net, _, traj = seir_traj
        verdict = check_identifiability_seir(traj, net)
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
        verdict = check_identifiability_seir(traj, net)
        assert not verdict.identifiable
        assert "g_pair_nonproportional" in verdict.failed_conditions

    def test_no_exposed_signal(self, two_node_net):
        traj = fabricated_seir(
            e=[np.zeros(2)] * 3,
            p=[[0.1, 0.0], [0.07, 0.0], [0.049, 0.0]],
            r=[[0.0, 0.0], [0.03, 0.0], [0.051, 0.0]])
        verdict = check_identifiability_seir(traj, two_node_net)
        assert "e_nonzero" in verdict.failed_conditions

    def test_per_node_window(self, seir_example):
        net, params, state = seir_example
        # node 1 has p == 0 throughout the T=2 window, so it is not
        # identifiable there; node 0 becomes identifiable once T=3
        traj2 = simulate(state, params, net, 2)
        verdict = check_identifiability_seir(traj2, net, node=1)
        assert not verdict.identifiable
        assert "p_nonzero" in verdict.failed_conditions
        traj3 = simulate(state, params, net, 3)
        verdict = check_identifiability_seir(traj3, net, node=0)
        assert verdict.identifiable
        pair = verdict.witnesses["g_pair"]
        assert pair["i3"] == pair["i4"] == 0
        rep = solve_least_squares(build_regression_seir(traj3, net, node=0))
        assert rep.rank == 4
        assert rep.estimates == pytest.approx([0.04, 0.06, 0.4, 0.3], rel=1e-8)

    def test_per_node_single_step_not_identifiable(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 1)
        verdict = check_identifiability_seir(traj, net, node=0)
        assert not verdict.identifiable
        assert verdict.failed_conditions == ("horizon_T>1",)

    def test_single_node_network_rejected(self, seir_traj):
        _, _, traj = seir_traj
        with pytest.raises(ValueError, match="n > 1"):
            check_identifiability_seir(
                fabricated_seir(e=[[0.1]] * 2, p=[[0.1]] * 2, r=[[0.0]] * 2),
                Network(np.ones((1, 1))))


class TestSirRegression:
    def test_hand_assembled_system(self, sir_traj):
        net, _, traj = sir_traj
        sys = build_regression_sir_homog(traj, net)
        expected_q = np.array([[0.0, -0.01], [0.01, 0.0], [0.0, 0.01], [0.0, 0.0]])
        expected_d = np.array([-0.002, 0.005, 0.002, 0.0])
        assert sys.q == pytest.approx(expected_q, abs=1e-15)
        assert sys.delta == pytest.approx(expected_d, abs=1e-15)

    def test_zero_trajectory(self, two_node_net):
        sys = build_regression_sir_homog(no_signal_sir(2), two_node_net)
        assert not sys.q.any() and not sys.delta.any()

    def test_substitution_identity(self, sir_traj):
        net, _, traj = sir_traj
        sys = build_regression_sir_homog(traj, net)
        assert sys.q @ np.array([0.5, 0.2]) == pytest.approx(sys.delta, abs=1e-15)

    def test_hetero_consistent_with_global(self, sir_example):
        net, params, state = sir_example
        traj = simulate(state, params, net, 3)
        for i in range(2):
            rep = solve_least_squares(build_regression_sir_hetero(traj, net, i))
            assert rep.estimates == pytest.approx([0.5, 0.2], abs=1e-10)
            assert rep.rank == 2

    def test_hetero_rank_deficient_node(self, sir_traj):
        net, _, traj = sir_traj
        sys = build_regression_sir_hetero(traj, net, 1)
        assert sys.q == pytest.approx(np.array([[0.01, 0.0], [0.0, 0.0]]), abs=1e-15)
        assert sys.delta == pytest.approx([0.005, 0.0], abs=1e-15)
        rep = solve_least_squares(sys)
        assert rep.rank == 1 and rep.non_unique
        assert rep.estimates[0] == pytest.approx(0.5, abs=1e-12)
        assert rep.estimates[1] == pytest.approx(0.0, abs=1e-12)  # minimum norm

    def test_rejects_seir_trajectory(self, seir_traj):
        net, _, traj = seir_traj
        with pytest.raises(ValueError):
            build_regression_sir_homog(traj, net)


class TestSeirRegression:
    def test_hand_rows(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 1)
        sys = build_regression_seir(traj, net)
        assert sys.q.shape == (6, 4)
        assert sys.q[1] == pytest.approx([0.02, 0.03, 0.0, 0.0], abs=1e-15)
        assert sys.q[2] == pytest.approx([0.0, 0.0, 0.02, -0.03], abs=1e-15)

    def test_substitution_identity(self, seir_traj):
        net, _, traj = seir_traj
        sys = build_regression_seir(traj, net)
        theta = np.array([0.04, 0.06, 0.4, 0.3])
        assert sys.q @ theta == pytest.approx(sys.delta, abs=1e-15)

    def test_per_node_shape_and_substitution(self, seir_traj):
        net, _, traj = seir_traj
        sys = build_regression_seir(traj, net, node=1)
        assert sys.q.shape == (6, 4)  # 3T x 4 with T = 2
        theta = np.array([0.04, 0.06, 0.4, 0.3])
        assert sys.q @ theta == pytest.approx(sys.delta, abs=1e-15)


class TestSolveLeastSquares:
    def test_sir_exact(self, sir_traj):
        net, _, traj = sir_traj
        rep = solve_least_squares(build_regression_sir_homog(traj, net))
        assert rep.estimates == pytest.approx([0.5, 0.2], abs=1e-12)
        assert rep.rank == 2 and not rep.non_unique
        assert rep.residual_norm <= 1e-10 * np.linalg.norm(
            build_regression_sir_homog(traj, net).delta)

    def test_seir_exact(self, seir_traj):
        net, _, traj = seir_traj
        rep = solve_least_squares(build_regression_seir(traj, net))
        assert rep.estimates == pytest.approx([0.04, 0.06, 0.4, 0.3], rel=1e-8)
        assert rep.rank == 4

    def test_rank_deficiency_flagged(self, two_node_net):
        traj = fabricated_seir(
            e=[np.zeros(2)] * 3,
            p=[[0.1, 0.0], [0.07, 0.0], [0.049, 0.0]],
            r=[[0.0, 0.0], [0.03, 0.0], [0.051, 0.0]])
        rep = solve_least_squares(build_regression_seir(traj, two_node_net))
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


class TestEstimatePipeline:
    def test_noiseless_exact_recovery(self, seir_traj):
        net, _, traj = seir_traj
        rep = estimate_pipeline(traj, net, "seir")
        assert rep.estimates == pytest.approx([0.04, 0.06, 0.4, 0.3], rel=1e-8)
        assert rep.trajectory_errors is not None
        assert max(rep.trajectory_errors.values()) < 1e-10

    def test_not_identifiable_no_resimulation(self, two_node_net):
        traj = fabricated_seir(
            e=[np.zeros(2)] * 3,
            p=[[0.1, 0.0], [0.07, 0.0], [0.049, 0.0]],
            r=[[0.0, 0.0], [0.03, 0.0], [0.051, 0.0]])
        rep = estimate_pipeline(traj, two_node_net, "seir")
        assert rep.verdict is not None and not rep.verdict.identifiable
        assert rep.non_unique
        assert rep.trajectory_errors is None

    def test_sir_pipeline(self, sir_traj):
        net, _, traj = sir_traj
        rep = estimate_pipeline(traj, net, "sir")
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
        base = estimate_pipeline(traj, net, "seir", node=0, resimulate=False)
        rng = np.random.default_rng(0)
        comps = {c: getattr(traj, c).copy() for c in ("s", "e", "p", "r")}
        for x in comps.values():
            x[:, 2:] = rng.random((len(traj), 2))
        perturbed = Trajectory(h=traj.h, **comps)
        rep = estimate_pipeline(perturbed, net, "seir", node=0, resimulate=False)
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
                estimate_pipeline(traj, layered, "seir", node=node)
        _, _, sir = sir_traj
        with pytest.raises(ValueError, match="transport layers"):
            estimate_pipeline(sir, layered, "sir")

    def test_report_json_round_trip(self, seir_traj):
        import json
        net, _, traj = seir_traj
        rep = estimate_pipeline(traj, net, "seir")
        payload = json.loads(report_to_json(rep))
        assert payload["identifiable"] is True
        assert payload["estimates"]["sigma"] == pytest.approx(0.4, rel=1e-8)


class TestNecessityDirection:
    """When a condition fails, the system must be rank deficient."""

    def test_p_zero_sir(self, two_node_net):
        traj = no_signal_sir(3)
        assert not check_identifiability_sir_homog(traj, two_node_net).identifiable
        rep = solve_least_squares(build_regression_sir_homog(traj, two_node_net))
        assert rep.rank < 2

    def test_proportional_g_columns(self, two_node_net):
        # e and p proportional at every step makes the first two columns of
        # the SEIR system proportional
        traj = fabricated_seir(
            e=[[0.1, 0.05], [0.08, 0.04]],
            p=[[0.2, 0.1], [0.16, 0.08]],
            r=[[0.0, 0.0], [0.01, 0.02]])
        verdict = check_identifiability_seir(traj, two_node_net)
        assert "g_pair_nonproportional" in verdict.failed_conditions
        rep = solve_least_squares(build_regression_seir(traj, two_node_net))
        assert rep.rank < 4
