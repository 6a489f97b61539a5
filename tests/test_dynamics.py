import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import (EpidemicState, Network, SeirParams, SirParams,
                    check_assumption, simulate, step,
                    trajectory_from_csv, trajectory_to_csv)
from netepi.dynamics import AssumptionError, StateInvariantError, Trajectory

from conftest import (random_irreducible_network, random_seir_params,
                      random_simplex_state, random_sir_params, seeded_state,
                      seir_step_oracle, sir_step_oracle, trajectory_from_csv_oracle,
                      mutated_text, read_int_fields_through_float)


class TestAssumptionChecks:
    def test_sir_well_posed(self, two_node_net):
        report = check_assumption(SirParams(beta=0.5, gamma=0.2, h=0.1),
                                  two_node_net)
        assert report.ok

    def test_sir_gamma_boundary(self, two_node_net):
        report = check_assumption(SirParams(beta=0.1, gamma=1.0, h=1.0),
                                  two_node_net)
        assert not report.ok
        assert any(v.label == "h*gamma" for v in report.violations)

    def test_sir_transmission_boundary(self, two_node_net):
        report = check_assumption(SirParams(beta=1.0, gamma=0.2, h=1.0),
                                  two_node_net)
        nodes = {v.node for v in report.violations if v.label == "h*beta*row_sum"}
        assert nodes == {0, 1}

    def test_seir_well_posed(self, two_node_net):
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
        assert check_assumption(params, two_node_net).ok

    def test_seir_sigma_equality_permitted(self, two_node_net):
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=1.0, gamma=0.3, h=1.0)
        assert check_assumption(params, two_node_net).ok

    def test_seir_sigma_exceeded(self, two_node_net):
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=1.5, gamma=0.3, h=1.0)
        report = check_assumption(params, two_node_net)
        assert any(v.label == "h*sigma" and v.value == 1.5 for v in report.violations)

    def test_multilayer_bound_extends_over_layers(self, two_node_net):
        layered = Network(two_node_net.adjacency, layers=(two_node_net.adjacency,))
        # base rate alone fits under the bound, base + layer does not
        params = SeirParams(beta_e=0.3, beta=0.3, sigma=0.4, gamma=0.3, h=1.0,
                            layer_beta_e=(np.full(2, 0.3),),
                            layer_beta=(np.full(2, 0.3),))
        assert not check_assumption(params, layered).ok
        base_only = SeirParams(beta_e=0.3, beta=0.3, sigma=0.4, gamma=0.3, h=1.0)
        assert check_assumption(base_only, two_node_net).ok


class TestSirStep:
    def test_hand_values(self, sir_example):
        net, params, state = sir_example
        nxt = step(state, params, net)
        assert nxt.s == pytest.approx([0.9, 0.995], abs=1e-15)
        assert nxt.p == pytest.approx([0.098, 0.005], abs=1e-15)
        assert nxt.r == pytest.approx([0.002, 0.0], abs=1e-15)

    def test_disease_free_fixed_point(self, two_node_net):
        params = SirParams(beta=0.5, gamma=0.2, h=0.1)
        state = EpidemicState(s=np.array([0.7, 1.0]), p=np.zeros(2),
                              r=np.array([0.3, 0.0]))
        nxt = step(state, params, two_node_net)
        assert np.array_equal(nxt.s, state.s)
        assert np.array_equal(nxt.p, state.p)
        assert np.array_equal(nxt.r, state.r)

    def test_matrix_form_agrees(self, sir_example):
        net, params, state = sir_example
        a = sir_step_oracle(state, params, net)
        b = step(state, params, net)
        for comp in ("s", "p", "r"):
            assert getattr(a, comp) == pytest.approx(getattr(b, comp), abs=1e-14)

    def test_matrix_form_no_transmission(self, two_node_net):
        params = SirParams(beta=0.0, gamma=0.2, h=0.5)
        state = EpidemicState(s=np.array([0.5, 0.5]), p=np.array([0.3, 0.2]),
                              r=np.array([0.2, 0.3]))
        nxt = step(state, params, two_node_net)
        assert nxt.p == pytest.approx((1 - 0.5 * 0.2) * state.p, abs=1e-15)

    def test_gamma_zero_rejected(self, sir_example):
        net, _, state = sir_example
        with pytest.raises(AssumptionError):
            step(state, SirParams(beta=0.5, gamma=0.0, h=0.1), net)

    def test_off_simplex_rejected_when_strict(self, sir_example):
        net, params, _ = sir_example
        bad = EpidemicState(s=np.array([0.9, 1.0]), p=np.array([0.3, 0.0]),
                            r=np.zeros(2))
        with pytest.raises(StateInvariantError):
            step(bad, params, net)
        step(bad, params, net, strict=False)  # opt-out for measured data

    def test_seir_state_rejected(self, seir_example):
        net, _, state = seir_example
        with pytest.raises(ValueError):
            step(state, SirParams(beta=0.5, gamma=0.2, h=0.1), net)


class TestSeirStep:
    def test_hand_values(self, seir_example):
        net, params, state = seir_example
        nxt = step(state, params, net)
        assert nxt.s == pytest.approx([0.95, 0.9974], abs=1e-15)
        assert nxt.e == pytest.approx([0.012, 0.0026], abs=1e-15)
        assert nxt.p == pytest.approx([0.029, 0.0], abs=1e-15)
        assert nxt.r == pytest.approx([0.009, 0.0], abs=1e-15)

    def test_disease_free_fixed_point(self, seir_example):
        net, params, _ = seir_example
        state = EpidemicState(s=np.array([0.6, 1.0]), e=np.zeros(2),
                              p=np.zeros(2), r=np.array([0.4, 0.0]))
        nxt = step(state, params, net)
        for comp in ("s", "e", "p", "r"):
            assert np.array_equal(getattr(nxt, comp), getattr(state, comp))

    def test_matrix_form_agrees(self, seir_example):
        net, params, state = seir_example
        a = seir_step_oracle(state, params, net)
        b = step(state, params, net)
        for comp in ("s", "e", "p", "r"):
            assert getattr(a, comp) == pytest.approx(getattr(b, comp), abs=1e-14)

    def test_full_conversion_when_h_sigma_one(self, seir_example):
        net, _, state = seir_example
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=1.0, gamma=0.3, h=1.0)
        nxt = step(state, params, net)
        a = net.adjacency
        expected = state.s * (0.04 * (a @ state.e) + 0.06 * (a @ state.p))
        assert nxt.e == pytest.approx(expected, abs=1e-15)

    def test_no_transmission_geometric_decay(self, two_node_net):
        params = SeirParams(beta_e=0.0, beta=0.0, sigma=0.4, gamma=0.3, h=1.0)
        state = EpidemicState(s=np.array([0.8, 0.8]), e=np.array([0.1, 0.1]),
                              p=np.array([0.1, 0.1]), r=np.zeros(2))
        nxt = step(state, params, two_node_net)
        assert nxt.s == pytest.approx(state.s, abs=1e-15)
        assert nxt.e == pytest.approx((1 - 0.4) * state.e, abs=1e-15)


class TestSeirMultilayer:
    def test_zero_layers_bit_exact(self, seir_example):
        # without layers the step is the base-network matrix form, bit for bit
        net, params, state = seir_example
        a = net.adjacency
        s, e, p, r = state.s, state.e, state.p, state.r
        iota = 0.04 * (a @ e) + 0.06 * (a @ p)
        nxt = step(state, params, net)
        assert np.array_equal(nxt.s, s - 1.0 * s * iota)
        assert np.array_equal(nxt.e, e + 1.0 * s * iota - 1.0 * 0.4 * e)
        assert np.array_equal(nxt.p, p + 1.0 * (0.4 * e - 0.3 * p))
        assert np.array_equal(nxt.r, r + 1.0 * 0.3 * p)

    def test_duplicated_layer_doubles_pressure(self, seir_example):
        net, params, state = seir_example
        layered = Network(net.adjacency, layers=(net.adjacency,))
        lparams = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0,
                             layer_beta_e=(np.full(2, 0.04),),
                             layer_beta=(np.full(2, 0.06),))
        nxt = step(state, lparams, layered)
        a = net.adjacency
        iota = 0.04 * (a @ state.e) + 0.06 * (a @ state.p)
        expected_e = state.e + state.s * (2 * iota) - 0.4 * state.e
        assert nxt.e == pytest.approx(expected_e, abs=1e-15)

    def test_zero_weight_layer_equals_base(self, seir_example):
        net, _, state = seir_example
        layered = Network(net.adjacency, layers=(np.zeros((2, 2)),))
        lparams = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0,
                             layer_beta_e=(np.full(2, 0.5),),
                             layer_beta=(np.full(2, 0.5),))
        base = step(state, SeirParams(beta_e=0.04, beta=0.06, sigma=0.4,
                                      gamma=0.3, h=1.0), net)
        nxt = step(state, lparams, layered)
        for comp in ("s", "e", "p", "r"):
            assert np.array_equal(getattr(nxt, comp), getattr(base, comp))

    def test_layer_count_mismatch(self, seir_example):
        net, params, state = seir_example
        layered = Network(net.adjacency, layers=(net.adjacency,))
        with pytest.raises(ValueError, match="layer"):
            step(state, params, layered)
        with pytest.raises(ValueError, match="layer"):
            simulate(state, params, layered, 3)

    def test_sir_refuses_layers(self, sir_example):
        # SirParams carry no layer rates, so every path refuses a layered network
        net, params, state = sir_example
        layered = Network(net.adjacency, layers=(net.adjacency,))
        with pytest.raises(ValueError, match="transport layers"):
            step(state, params, layered)
        with pytest.raises(ValueError, match="transport layers"):
            simulate(state, params, layered, 0, strict=False)
        with pytest.raises(ValueError, match="transport layers"):
            check_assumption(params, layered)


class TestSimulate:
    def test_zero_steps(self, sir_example):
        net, params, state = sir_example
        traj = simulate(state, params, net, 0)
        assert len(traj) == 1
        for comp in ("s", "p", "r"):
            assert np.array_equal(getattr(traj.states[0], comp), getattr(state, comp))
        assert traj.states[0].e is None

    def test_sir_one_step_matches_hand_values(self, sir_example):
        net, params, state = sir_example
        traj = simulate(state, params, net, 1)
        assert traj.states[1].p == pytest.approx([0.098, 0.005], abs=1e-15)

    def test_reference_seeding_stays_on_simplex(self):
        rng = np.random.default_rng(11)
        net = random_irreducible_network(rng, 10)
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
        initial = seeded_state(10, "seir", e_seeds=[(1, 0.02), (2, 0.03)],
                               p_seeds=[(1, 0.01)])
        traj = simulate(initial, params, net, 200)  # strict validation per step
        assert len(traj) == 201

    def test_monotone_susceptibility_and_removal(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            net = random_irreducible_network(rng, 6)
            params = random_seir_params(rng, net)
            traj = simulate(random_simplex_state(rng, 6, "seir"), params, net, 100)
            for prev, cur in zip(traj.states, traj.states[1:]):
                assert np.all(cur.s <= prev.s + 1e-12)
                assert np.all(cur.r >= prev.r - 1e-12)

    def test_assumption_gate(self, sir_example):
        net, _, state = sir_example
        with pytest.raises(AssumptionError):
            simulate(state, SirParams(beta=0.5, gamma=2.0, h=1.0), net, 5)

    def test_nan_level_rejected(self, seir_example):
        net, params, state = seir_example
        e = state.e.copy()
        e[1] = np.nan
        bad = EpidemicState(s=1.0 - e - state.p - state.r, e=e, p=state.p, r=state.r)
        with pytest.raises(StateInvariantError):
            bad.validate()
        with pytest.raises(StateInvariantError):
            simulate(bad, params, net, 2)

    def test_params_state_kind_mismatch(self, sir_example, seir_example):
        net, sir_params, sir_state = sir_example
        _, seir_params, _ = seir_example
        with pytest.raises(ValueError):
            simulate(sir_state, seir_params, net, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=2**31),
           st.sampled_from(["sir", "seir"]))
    def test_step_preserves_simplex(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        net = random_irreducible_network(rng, n)
        params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
        state = random_simplex_state(rng, n, kind)
        traj = simulate(state, params, net, 50)  # validates every state
        last = traj.states[-1]
        total = last.s + last.p + last.r + (last.e if last.e is not None else 0)
        assert total == pytest.approx(np.ones(n), abs=1e-9)


class TestTrajectoryCsv:
    def test_round_trip_seir(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 7)
        again = trajectory_from_csv(trajectory_to_csv(traj), h=traj.h)
        assert again.kind == "seir"
        for a, b in zip(traj.states, again.states):
            for comp in ("s", "e", "p", "r"):
                assert np.array_equal(getattr(a, comp), getattr(b, comp))

    def test_round_trip_sir_blank_e_column(self, sir_example):
        net, params, state = sir_example
        traj = simulate(state, params, net, 3)
        text = trajectory_to_csv(traj)
        assert text.splitlines()[0] == "k,node,s,e,p,r"
        assert ",,", text.splitlines()[1]
        again = trajectory_from_csv(text, h=traj.h)
        assert again.kind == "sir"
        for a, b in zip(traj.states, again.states):
            assert np.array_equal(a.p, b.p)
            assert np.array_equal(a.r, b.r)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            trajectory_from_csv("k,node,s,e,p,r\n")

    @pytest.mark.parametrize("rows,message", [
        (["0,0,1,,0,0", "0,2,1,,0,0"], "node ids"),
        (["0,0,1,,0,0", "0,1,1,,0,0", "1,0,1,,0,0"], "step 1 missing"),
        (["0,0,1,,0,0", "2,0,1,,0,0"], "contiguous"),
        (["0,0,1,,0,0", "0,1,0.9,0.1,0,0"], "e column"),
        (["0,0,1,0,0"], "malformed"),
    ])
    def test_rejects_inconsistent_rows(self, rows, message):
        with pytest.raises(ValueError, match=message):
            trajectory_from_csv("\n".join(["k,node,s,e,p,r"] + rows))


class TestTrajectoryArrays:
    def test_states_are_read_only_row_views(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 4)
        assert traj.e.shape == (5, 2) and not traj.e.flags.writeable
        st = traj.states[3]
        assert traj.states is traj.states
        assert np.shares_memory(st.e, traj.e) and np.array_equal(st.p, traj.p[3])
        with pytest.raises(ValueError):
            st.s[0] = 0.5

    @pytest.mark.parametrize("example", ["sir_example", "seir_example"])
    def test_states_match_constructed_states(self, request, example):
        net, params, state = request.getfixturevalue(example)
        traj = simulate(state, params, net, 3)
        for k, view in enumerate(traj.states):
            built = EpidemicState(s=traj.s[k], p=traj.p[k], r=traj.r[k],
                                  e=None if traj.e is None else traj.e[k])
            assert type(view) is EpidemicState and vars(view).keys() == vars(built).keys()
            for name in ("s", "p", "r", "e"):
                mine, theirs = getattr(view, name), getattr(built, name)
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
            assert view.kind == traj.kind and view.n == traj.n
            view.validate()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(s=np.ones((2, 3)), p=np.zeros((2, 2)), r=np.zeros((2, 3)), h=1.0)
        with pytest.raises(ValueError, match="at least one state"):
            Trajectory(s=np.ones((0, 3)), p=np.zeros((0, 3)), r=np.zeros((0, 3)), h=1.0)


@st.composite
def trajectory_texts(draw):
    """A mutated SIR or SEIR trajectory CSV (n <= 3, T <= 3)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    levels = rng.dirichlet(np.ones(4), size=shape)
    e = None if draw(st.booleans()) else levels[..., 1]
    traj = Trajectory(s=levels[..., 0], e=e, p=levels[..., 2], r=levels[..., 3], h=1.0)
    return draw(mutated_text(trajectory_to_csv(traj)))


def _same_bits(a, b):
    assert a.kind == b.kind
    for name in ("s", "e", "p", "r"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestReaderAgainstPerLineReader:
    """np.loadtxt against the per-line reader it replaced (the oracle)."""

    @settings(max_examples=400, deadline=None)
    @given(trajectory_texts())
    def test_mutated_trajectories(self, text):
        try:
            want = trajectory_from_csv_oracle(text)
        except ValueError:
            with pytest.raises(ValueError):
                trajectory_from_csv(text)
            return
        _same_bits(trajectory_from_csv(text), want)

    @pytest.mark.parametrize("row", ["0_0,0,1,,0,0", "0,0,1_0,,0,0", "0,0,1,,0,0_0",
                                     "0,0,\u0661,,0,0"])
    def test_python_only_literals_refused(self, row):
        # int() and float() accept digit-group underscores and non-ASCII
        # digits; numpy does not
        text = "k,node,s,e,p,r\n" + row + "\n"
        trajectory_from_csv_oracle(text)
        with pytest.raises(ValueError, match="could not convert"):
            trajectory_from_csv(text)

    @pytest.mark.parametrize("ident", ["1e0", "1.0", "0.5"])
    def test_non_integer_ids_refused(self, ident):
        text = f"k,node,s,e,p,r\n0,0,1,,0,0\n{ident},0,1,,0,0\n"
        with pytest.raises(ValueError, match="could not convert"):
            trajectory_from_csv(text)

    @pytest.mark.parametrize("through_float", [False, True])
    @pytest.mark.parametrize("ident", ["1e0", "1.5", "1.0"])
    def test_non_integer_ids_refused_whatever_the_warning_filters(
            self, monkeypatch, ident, through_float):
        # numpy releases from 1.23 may read such an id through float and only
        # warn; outside the test suite DeprecationWarning is ignored by default
        if through_float:
            read_int_fields_through_float(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="could not convert"):
                trajectory_from_csv(f"k,node,s,e,p,r\n0,0,1,,0,0\n{ident},0,1,,0,0\n")
            with pytest.raises(ValueError, match="could not convert"):
                trajectory_from_csv(f"0,0,1,,0,0\n0,{ident},1,,0,0\n")

    @pytest.mark.parametrize("row,message", [
        ("99999999999,0,1,,0,0", "steps must be contiguous"),
        ("0,99999999999,1,,0,0", "node ids"),
        ("99999999999999999999,0,1,,0,0", "could not convert"),
    ])
    def test_huge_ids_refused_before_counting(self, row, message):
        # the per-line reader passed such ids to bincount, which allocated a
        # count for every id up to them
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                trajectory_from_csv(f"0,0,1,,0,0\n{row}\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_blank_lines_whitespace_and_repeated_headers(self):
        text = ("\n  k,node,s,e,p,r\n 0,0,0.5,0.25,0.25,0 \n\t\nk,node,s,e,p,r\n"
                "0,1,1,0,0,0\n1,0,0.5,0.25,0.25,0\n1,1,1,0,0,0\n")
        want = trajectory_from_csv_oracle(text)
        _same_bits(trajectory_from_csv(text), want)
        _same_bits(trajectory_from_csv(text.splitlines()), want)

    def test_failures_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"malformed trajectory row: '# a comment'"):
            trajectory_from_csv("k,node,s,e,p,r\n# a comment\n0,0,1,,0,0\n")
        with pytest.raises(ValueError, match="e column"):
            trajectory_from_csv("0,0,0.5,0.5,0,0\n0,1,1,,0,0\n")


class TestFloatExtremes:
    VALUES = [5e-324, 2.2250738585072014e-308, 1 - 2**-53, 0.1 + 0.2]

    @pytest.mark.parametrize("kind", ["sir", "seir"])
    def test_trajectory_round_trip(self, kind):
        grid = np.array([self.VALUES, self.VALUES[::-1]])
        traj = Trajectory(s=grid, p=grid[::-1], r=1 - grid,
                          e=None if kind == "sir" else grid[:, ::-1], h=1.0)
        again = trajectory_from_csv(trajectory_to_csv(traj), h=traj.h)
        _same_bits(again, traj)
