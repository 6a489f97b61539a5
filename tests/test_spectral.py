import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import (EpidemicState, Network, SeirParams, SirParams,
                    build_spreading_matrix, convergence_diagnostics,
                    dominant_eigenvalue, simulate, spectral, step)
from netepi.dynamics import Trajectory
from netepi.spectral import PowerIterationError, report_to_csv, report_to_json

from conftest import (charpoly_spectral_radius, fabricated_seir, random_irreducible_network,
                      random_layered_seir, random_seir_params, random_sir_params,
                      random_simplex_state, seeded_state)


class TestBuildSpreadingMatrix:
    def test_depleted_susceptibles_block_triangular(self, two_node_net):
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
        state = EpidemicState(s=np.zeros(2), e=np.array([0.5, 0.5]),
                              p=np.array([0.2, 0.2]), r=np.array([0.3, 0.3]))
        m = build_spreading_matrix(state, params, two_node_net).m
        assert np.array_equal(m[:2, 2:], np.zeros((2, 2)))
        assert m[0, 0] == pytest.approx(0.6) and m[1, 1] == pytest.approx(0.6)
        assert m[2, 2] == pytest.approx(0.7) and m[3, 3] == pytest.approx(0.7)
        assert m[2, 0] == pytest.approx(0.4)

    def test_hand_entry(self, seir_example):
        net, params, state = seir_example
        m = build_spreading_matrix(state, params, net).m
        # upper-left block off-diagonal: h * s_0 * beta_e * a_01
        assert m[0, 1] == pytest.approx(0.95 * 0.04, abs=1e-15)

    def test_propagates_infectious_coordinates(self, seir_example):
        net, params, state = seir_example
        m = build_spreading_matrix(state, params, net).m
        z = np.concatenate([state.e, state.p])
        nxt = step(state, params, net)
        z_next = np.concatenate([nxt.e, nxt.p])
        assert m @ z == pytest.approx(z_next, abs=1e-13)

    def test_propagates_through_transport_layers(self, seir_example):
        net, _, state = seir_example
        layered = Network(net.adjacency, layers=(net.adjacency,))
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0,
                            layer_beta_e=(np.full(2, 0.04),),
                            layer_beta=(np.full(2, 0.06),))
        rng = np.random.default_rng(31)
        cases = [(layered, params, state)]
        for _ in range(50):
            n = int(rng.integers(2, 9))
            lnet, lparams = random_layered_seir(rng, n)
            cases.append((lnet, lparams, random_simplex_state(rng, n, "seir")))
        for lnet, lparams, st in cases:
            m = build_spreading_matrix(st, lparams, lnet).m
            nxt = step(st, lparams, lnet)
            z_next = np.concatenate([nxt.e, nxt.p])
            assert np.abs(m @ np.concatenate([st.e, st.p]) - z_next).max() <= 1e-13

    def test_sir_refuses_layers(self, sir_example):
        net, params, state = sir_example
        layered = Network(net.adjacency, layers=(net.adjacency,))
        with pytest.raises(ValueError, match="transport layers"):
            build_spreading_matrix(state, params, layered)

    def test_sir_matrix_propagates_p(self, sir_example):
        net, params, state = sir_example
        m = build_spreading_matrix(state, params, net).m
        assert m.shape == (2, 2)
        nxt = step(state, params, net)
        assert m @ state.p == pytest.approx(nxt.p, abs=1e-13)

    def test_dimension_mismatch(self, seir_example):
        _, params, state = seir_example
        with pytest.raises(ValueError):
            build_spreading_matrix(state, params, Network(np.zeros((3, 3))))


class TestDominantEigenvalue:
    def test_triangular(self):
        val, vec = dominant_eigenvalue(np.array([[0.6, 0.0], [0.4, 0.7]]))
        assert val == pytest.approx(0.7, abs=1e-10)
        assert vec.sum() == pytest.approx(1.0)
        assert np.all(vec >= 0)

    def test_permutation(self):
        val, _ = dominant_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_zero_matrix(self):
        val, _ = dominant_eigenvalue(np.zeros((3, 3)))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            dominant_eigenvalue(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dominant_eigenvalue(np.array([[0.5, np.nan], [0.1, 0.5]]))

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(2, 5)
            m = rng.random((n, n))
            val, _ = dominant_eigenvalue(m)
            assert val == pytest.approx(charpoly_spectral_radius(m), abs=1e-8)

    def test_left_eigenvector_residual(self):
        rng = np.random.default_rng(2)
        m = rng.random((5, 5))
        val, vec = dominant_eigenvalue(m)
        assert np.abs(vec @ m - val * vec).max() < 1e-9

    def test_monotone_in_entries(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = rng.integers(2, 6)
            m = rng.random((n, n)) + 0.05
            val, _ = dominant_eigenvalue(m)
            bumped = m.copy()
            bumped[rng.integers(n), rng.integers(n)] += rng.uniform(0.1, 1.0)
            val2, _ = dominant_eigenvalue(bumped)
            assert val2 >= val - 1e-10


class TestStackedSolve:
    def test_stack_agrees_with_single_and_eigvals(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 7, 12):
            # sparse but primitive: a ring keeps each irreducible, a positive
            # diagonal keeps it aperiodic
            stack = rng.random((9, n, n)) * (rng.random((9, n, n)) < 0.4) + 0.1 * np.eye(n)
            stack[:, np.arange(n), (np.arange(n) + 1) % n] += 0.5
            stack[0] = np.eye(n)[rng.permutation(n)]
            stack[1] = 0.0
            vals, vecs = dominant_eigenvalue(stack)
            assert vals.shape == (9,) and vecs.shape == (9, n)
            for m, val, vec in zip(stack, vals, vecs):
                alone, alone_vec = dominant_eigenvalue(m)
                assert abs(val - alone) <= 1e-12
                assert np.abs(vec - alone_vec).max() <= 1e-12
                assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10

    def test_mixed_convergence_keeps_each_value(self):
        # a rank-one matrix converges at once; nearly equal diagonal entries
        # with a weak coupling take thousands of iterations
        fast = np.full((3, 3), 0.2)
        slow = np.array([[0.7, 1e-4, 0.0], [0.0, 0.699, 0.0], [0.0, 0.0, 0.3]])
        vals, _ = dominant_eigenvalue(np.stack([slow, fast, slow.T, fast * 2]))
        for m, val in zip([slow, fast, slow.T, fast * 2], vals):
            assert abs(val - dominant_eigenvalue(m)[0]) <= 1e-12
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10

    def test_stalled_matrix_fails_the_stack(self):
        stalled = np.diag([0.7, 0.69999999])
        with pytest.raises(PowerIterationError, match="did not converge"):
            dominant_eigenvalue(np.stack([np.full((2, 2), 0.4), stalled]))


def _dense_roots(traj, params, net):
    return np.array([dominant_eigenvalue(build_spreading_matrix(st, params, net).m)[0]
                     for st in traj.states])


class TestMatrixFreeSolve:
    @pytest.mark.parametrize("kind", ["sir", "seir", "layered"])
    def test_matches_dense_solve_without_building(self, monkeypatch, kind):
        def refuse(*args):
            raise AssertionError("convergence_diagnostics built a spreading matrix")

        monkeypatch.setattr(spectral, "build_spreading_matrix", refuse)
        rng = np.random.default_rng({"sir": 61, "seir": 62, "layered": 63}[kind])
        for _ in range(5):
            n = int(rng.integers(2, 10))
            if kind == "layered":
                net, params = random_layered_seir(rng, n)
            else:
                net = random_irreducible_network(rng, n)
                params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
            initial = seeded_state(n, "sir" if kind == "sir" else "seir",
                                   e_seeds=[] if kind == "sir" else [(0, 0.05)],
                                   p_seeds=[(1 % n, 0.02)])
            traj = simulate(initial, params, net, 60)
            lam = convergence_diagnostics(traj, params, net).lambda_seq
            assert np.abs(lam - _dense_roots(traj, params, net)).max() <= 1e-12

    def test_each_state_stops_at_its_own_convergence(self, monkeypatch):
        # s falls from 0.95 to 0.001: fresh states converge in tens of
        # iterations, while near s = 0 the roots close in on 1 - h*sigma and
        # 1 - h*gamma, 0.02 apart, and take hundreds
        net = Network(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]]))
        params = SeirParams(beta_e=0.2, beta=0.25, sigma=0.3, gamma=0.32, h=1.0)
        s = np.repeat(np.linspace(0.95, 0.001, 40)[:, None], 3, axis=1)
        traj = fabricated_seir(np.zeros((40, 3)), np.zeros((40, 3)), 1 - s)
        rows = []
        solve = spectral._power_iteration

        def counted(apply, data, size):
            def recorded(w, *d):
                rows.append(len(w))
                return apply(w, *d)
            return solve(recorded, data, size)

        monkeypatch.setattr(spectral, "_power_iteration", counted)
        lam = convergence_diagnostics(traj, params, net).lambda_seq
        assert np.abs(lam - _dense_roots(traj, params, net)).max() <= 1e-12
        assert rows[0] == 40 and np.all(np.diff(rows) <= 0)
        # the first states leave within 60 iterations, the last one runs
        # alone for over half of the 500+
        assert rows.count(40) < 60 and len(rows) > 500
        assert rows.index(1) < len(rows) // 2

    def test_zero_susceptibles_solved_on_their_own_blocks(self, monkeypatch):
        # the states of test_each_state_stops_at_its_own_convergence, down to
        # s = 0: there every block is a singleton, so that state's root is its
        # diagonal entry 1 - h*sigma, exactly, and it enters no power iteration
        net = Network(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]]))
        params = SeirParams(beta_e=0.2, beta=0.25, sigma=0.3, gamma=0.32, h=1.0)
        s = np.repeat(np.linspace(0.95, 0.0, 40)[:, None], 3, axis=1)
        traj = fabricated_seir(np.zeros((40, 3)), np.zeros((40, 3)), 1 - s)
        rows, labelled = [], []
        solve, label = spectral._power_iteration, spectral._components

        def counted_solve(apply, data, size):
            rows.append(len(data[0]))
            return solve(apply, data, size)

        def counted_label(*args):
            labelled.append(args)
            return label(*args)

        monkeypatch.setattr(spectral, "_power_iteration", counted_solve)
        monkeypatch.setattr(spectral, "_components", counted_label)
        lam = convergence_diagnostics(traj, params, net).lambda_seq
        assert lam[-1] == 0.7
        for state, val in zip(traj.states, lam):
            m = build_spreading_matrix(state, params, net).m
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-12
        assert rows == [39]
        # one labelling per set of nodes with s = 0: none, and all three
        assert len(labelled) == 2
        labelled.clear()
        positive = fabricated_seir(np.zeros((39, 3)), np.zeros((39, 3)), 1 - s[:-1])
        convergence_diagnostics(positive, params, net)
        assert len(labelled) == 1

    def test_reducible_network_matches_eigvals(self):
        # two strongly connected rings joined by one-way edges, so M is block
        # triangular; the root is the larger of the two blocks' roots
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = np.zeros((2 * n, 2 * n))
            a[:n, :n] = random_irreducible_network(rng, n).adjacency
            a[n:, n:] = random_irreducible_network(rng, n).adjacency
            a[n:, :n] = (rng.random((n, n)) < 0.3) * rng.random((n, n))
            net = Network(a)
            for params in (random_sir_params(rng, net), random_seir_params(rng, net)):
                kind = "sir" if isinstance(params, SirParams) else "seir"
                initial = seeded_state(2 * n, kind, p_seeds=[(n + 1, 0.05)])
                traj = simulate(initial, params, net, 30)
                lam = convergence_diagnostics(traj, params, net).lambda_seq
                for st, val in zip(traj.states, lam):
                    m = build_spreading_matrix(st, params, net).m
                    assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10

    def test_defective_chain(self):
        # a directed chain with equal rates: M is triangular with one diagonal
        # value, a defective root on which plain power iteration stalls
        net = Network(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        params = SeirParams(beta_e=0.1, beta=0.2, sigma=0.5, gamma=0.5, h=1.0)
        traj = simulate(seeded_state(3, "seir", p_seeds=[(0, 0.1)]), params, net, 10)
        assert np.all(convergence_diagnostics(traj, params, net).lambda_seq == 0.5)

    def test_zero_rate_cuts_the_ring(self):
        # a ring 0 -> 1 -> 2 -> 0 whose node 0 spreads nothing (beta_0 = 0):
        # the pattern is a chain, and with homogeneous gamma M's root 0.8 is
        # defective, so the blocks must follow the rates, not the adjacency
        net = Network(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        params = SirParams(beta=np.array([0.0, 0.3, 0.3]), gamma=0.2, h=1.0)
        traj = simulate(seeded_state(3, "sir", p_seeds=[(1, 0.1)]), params, net, 5)
        assert np.all(convergence_diagnostics(traj, params, net).lambda_seq == 0.8)

    def test_block_split_by_zero_susceptibles(self, two_node_net):
        # 0 <-> 1 is one block while s > 0; at s = 0 the infection edges
        # vanish and, with sigma = gamma, the root 0.7 is defective
        params = SeirParams(beta_e=0.2, beta=0.25, sigma=0.3, gamma=0.3, h=1.0)
        traj = fabricated_seir(e=[[0.25, 0.25], [0.5, 0.5]], p=[[0.25, 0.25], [0.5, 0.5]],
                               r=np.zeros((2, 2)))
        assert np.array_equal(traj.s, [[0.5, 0.5], [0.0, 0.0]])
        start = time.perf_counter()
        lam = convergence_diagnostics(traj, params, two_node_net).lambda_seq
        assert time.perf_counter() - start < 1.0
        for st, val in zip(traj.states, lam):
            m = build_spreading_matrix(st, params, two_node_net).m
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-12

    def test_defective_block_below_the_state_root(self):
        # two nodes with self-loops and no edge between them: at node 0,
        # s = 0 and sigma = gamma leave the root 0.7 of {e_0, p_0} defective,
        # while the state's root, 1.07, is node 1's
        net = Network(np.diag([1.0, 1.0]))
        rates = np.array([0.3, 0.1])
        params = SeirParams(beta_e=0.2, beta=0.25, sigma=rates, gamma=rates, h=1.0)
        traj = fabricated_seir(np.zeros((2, 2)), np.zeros((2, 2)), [[1.0, 0.5], [1.0, 0.5]])
        lam = convergence_diagnostics(traj, params, net).lambda_seq
        for state, val in zip(traj.states, lam):
            m = build_spreading_matrix(state, params, net).m
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-12

    def test_roots_as_s_falls_to_zero(self):
        # test_zero_susceptibles_solved_on_their_own_blocks with sigma = gamma:
        # at s = 0 the blocks split into the nodes' e and p, and the root
        # 1 - h*sigma, shared by p_i and the e_i it reaches, is defective
        net = Network(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]]))
        params = SeirParams(beta_e=0.2, beta=0.25, sigma=0.3, gamma=0.3, h=1.0)
        s = np.repeat(np.linspace(0.95, 0.0, 40)[:, None], 3, axis=1)
        traj = fabricated_seir(np.zeros((40, 3)), np.zeros((40, 3)), 1 - s)
        start = time.perf_counter()
        lam = convergence_diagnostics(traj, params, net).lambda_seq
        assert time.perf_counter() - start < 1.0
        for st, val in zip(traj.states, lam):
            m = build_spreading_matrix(st, params, net).m
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31),
           st.sampled_from(["sir", "seir"]), st.booleans())
    def test_roots_over_mixed_zero_sets(self, n, seed, kind, tie):
        # a random, often reducible, network and states whose nodes with
        # s = 0 differ, so one call solves several groups of blocks; with
        # tie, sigma = gamma and a node with s = 0 has a defective root
        rng = np.random.default_rng(seed)
        a = (rng.random((n, n)) < 0.4) * rng.uniform(0.2, 1.0, (n, n))
        rowmax = max(a.sum(axis=1).max(), 1.0)
        gamma = rng.uniform(0.1, 0.9, n)
        if kind == "sir":
            params = SirParams(beta=rng.uniform(0.05, 0.9, n) / rowmax, gamma=gamma, h=1.0)
        else:
            total, split = rng.uniform(0.05, 0.9, n) / rowmax, rng.uniform(0.1, 0.9, n)
            sigma = gamma if tie else rng.uniform(0.1, 1.0, n)
            params = SeirParams(beta_e=total * split, beta=total * (1 - split),
                                sigma=sigma, gamma=gamma, h=1.0)
        steps = int(rng.integers(2, 9))
        s = rng.uniform(0.1, 1.0, (steps, n))
        s[1:][rng.random((steps - 1, n)) < 0.4] = 0.0
        s[1, rng.integers(n)] = 0.0  # state 0 has s > 0 everywhere, state 1 not
        zero = np.zeros((steps, n))
        traj = (Trajectory(s=s, p=zero, r=1 - s, h=1.0) if kind == "sir"
                else fabricated_seir(zero, zero, 1 - s))
        net = Network(a)
        start = time.perf_counter()
        lam = convergence_diagnostics(traj, params, net).lambda_seq
        assert time.perf_counter() - start < 1.0
        for state, val in zip(traj.states, lam):
            m = build_spreading_matrix(state, params, net).m
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10

    def test_refuses_negative_spreading_matrix(self, sir_example):
        net, params, state = sir_example
        traj = simulate(state, params, net, 3)
        negative = Trajectory(s=-traj.s, p=traj.p, r=traj.r, h=traj.h)
        with pytest.raises(ValueError, match="nonnegative"):
            convergence_diagnostics(negative, params, net)

    def test_memory_stays_below_one_dense_matrix(self):
        n = 1000
        rng = np.random.default_rng(71)
        net = random_irreducible_network(rng, n, extra_prob=0.005)
        params = random_seir_params(rng, net)
        traj = simulate(seeded_state(n, "seir", e_seeds=[(0, 0.05)], p_seeds=[(1, 0.02)]),
                        params, net, 2)
        tracemalloc.start()
        try:
            convergence_diagnostics(traj, params, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 * n) ** 2, f"peak {peak / 2**20:.1f} MB"


def _edge_case(kind):
    """(net, params, traj) on n = 8 nodes for the edge-product tests."""
    rng = np.random.default_rng({"sir": 81, "seir": 82, "layered": 83, "empty_columns": 84,
                                 "edgeless_layer": 85, "zero_sets": 86}[kind])
    n = 8
    net = random_irreducible_network(rng, n)
    if kind == "layered":
        net, params = random_layered_seir(rng, n)
    elif kind == "edgeless_layer":
        net = Network(net.adjacency, layers=(np.zeros((n, n)),))
        pr = random_seir_params(rng, net)
        params = SeirParams(beta_e=pr.beta_e, beta=pr.beta, sigma=pr.sigma, gamma=pr.gamma,
                            h=1.0, layer_beta_e=(np.full(n, 0.1),), layer_beta=(np.full(n, 0.1),))
    else:
        if kind == "empty_columns":
            # nodes 0, 3 and 7 influence nobody: the first, an inner and the
            # last column are empty
            a = net.adjacency.copy()
            a[:, [0, 3, n - 1]] = 0.0
            net = Network(a)
        params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
    model = "sir" if kind == "sir" else "seir"
    if kind == "zero_sets":
        # s = 0 on different nodes from state to state: several groups of blocks
        s = rng.uniform(0.1, 1.0, (6, n))
        s[1:][rng.random((5, n)) < 0.4] = 0.0
        s[1, 2] = 0.0
        zero = np.zeros((6, n))
        return net, params, fabricated_seir(zero, zero, 1 - s)
    initial = seeded_state(n, model, e_seeds=[] if model == "sir" else [(1, 0.05)],
                           p_seeds=[(2, 0.03)])
    return net, params, simulate(initial, params, net, 20)


def _forced_roots(monkeypatch, product, net, params, traj):
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_left_product", product)
        return convergence_diagnostics(traj, params, net).lambda_seq


def _edges_only(x, a, edges):
    return spectral._edge_product(x, edges, len(a))


def _dense_only(x, a, edges):
    return x @ a


class TestEdgeProduct:
    """The left product over a layer's edges, which ``_left_product`` picks
    for sparse adjacencies and few rows, against the dense one."""

    def test_kernel_matches_dense(self):
        rng = np.random.default_rng(87)
        mats = [np.zeros((5, 5)), np.diag([0.0, 2.0, 0.0])]
        for kind in ("sir", "empty_columns", "edgeless_layer"):
            net = _edge_case(kind)[0]
            mats += [net.adjacency, *net.layers]
        for _ in range(20):
            n = int(rng.integers(1, 30))
            mats.append((rng.random((n, n)) < rng.uniform(0.0, 0.3)) * rng.random((n, n)))
        for a in mats:
            edges = spectral._column_edges(a)
            for rows in (1, 3, 16):
                x = rng.random((rows, len(a)))
                assert np.abs(spectral._edge_product(x, edges, len(a)) - x @ a).max(
                    initial=0.0) <= 1e-12

    @pytest.mark.parametrize("kind", ["sir", "seir", "layered", "empty_columns",
                                      "edgeless_layer", "zero_sets"])
    def test_roots_match_dense_and_eigvals(self, monkeypatch, kind):
        net, params, traj = _edge_case(kind)
        lam = _forced_roots(monkeypatch, _edges_only, net, params, traj)
        dense = _forced_roots(monkeypatch, _dense_only, net, params, traj)
        assert np.abs(lam - dense).max() <= 1e-12
        for state, val in zip(traj.states, lam):
            m = build_spreading_matrix(state, params, net).m
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10

    @staticmethod
    def _ring(rng, n, density):
        """Directed ring plus random edges, at about ``density`` in all."""
        a = (rng.random((n, n)) < density - 1 / n) * rng.uniform(0.2, 1.0, (n, n))
        a[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.2, 1.0, n)
        return Network(a)

    @staticmethod
    def _edge_rows(monkeypatch):
        """The row counts of the edge products run from now on."""
        rows, product = [], spectral._edge_product

        def recorded(x, edges, n):
            rows.append(len(x))
            return product(x, edges, n)

        monkeypatch.setattr(spectral, "_edge_product", recorded)
        return rows

    def test_rule_picks_edges_at_n_300(self, monkeypatch):
        rng = np.random.default_rng(88)
        net = self._ring(rng, 300, 0.01)
        for params in (random_sir_params(rng, net), random_seir_params(rng, net)):
            kind = "sir" if isinstance(params, SirParams) else "seir"
            initial = seeded_state(300, kind, p_seeds=[(0, 0.05)])
            traj = simulate(initial, params, net, 1)
            rows = self._edge_rows(monkeypatch)
            lam = convergence_diagnostics(traj, params, net).lambda_seq
            assert rows and rows[0] == len(traj) * (1 if kind == "sir" else 2)
            dense = _forced_roots(monkeypatch, _dense_only, net, params, traj)
            assert np.abs(lam - dense).max() <= 1e-12
            for state, val in zip(traj.states, lam):
                m = build_spreading_matrix(state, params, net).m
                assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10

    def test_rule_keeps_small_dense_networks_dense(self, monkeypatch):
        rng = np.random.default_rng(89)
        a = np.zeros(400)
        a[rng.choice(400, 80, replace=False)] = rng.uniform(0.2, 1.0, 80)
        net = Network(a.reshape(20, 20))  # density 0.2
        params = random_seir_params(rng, net)
        traj = simulate(seeded_state(20, "seir", p_seeds=[(0, 0.05)]), params, net, 40)
        rows = self._edge_rows(monkeypatch)
        convergence_diagnostics(traj, params, net)
        assert rows == []

    def test_rule_picks_edges_for_a_sparse_2000_node_ring(self, monkeypatch):
        rng = np.random.default_rng(90)
        net = self._ring(rng, 2000, 0.0055)
        params = random_seir_params(rng, net)
        traj = simulate(seeded_state(2000, "seir", e_seeds=[(0, 0.05)]), params, net, 1)
        rows = self._edge_rows(monkeypatch)
        convergence_diagnostics(traj, params, net)
        assert rows[0] == 4 and set(rows) <= {2, 4}


class TestConvergenceDiagnostics:
    def test_no_infection_rate_undefined(self, two_node_net):
        params = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
        state = EpidemicState(s=np.ones(2), e=np.zeros(2), p=np.zeros(2),
                              r=np.zeros(2))
        traj = simulate(state, params, two_node_net, 5)
        report = convergence_diagnostics(traj, params, two_node_net)
        assert report.linear_rate_estimate is None
        assert np.ptp(report.lambda_seq) < 1e-10
        assert report.extinction_step == 0

    def test_irreducible_run_monotone_with_kbar(self):
        rng = np.random.default_rng(9)
        net = random_irreducible_network(rng, 6)
        params = random_seir_params(rng, net)
        initial = seeded_state(6, "seir", e_seeds=[(0, 0.05)], p_seeds=[(1, 0.02)])
        traj = simulate(initial, params, net, 800)
        report = convergence_diagnostics(traj, params, net)
        assert report.monotone
        assert report.k_bar is not None
        assert report.lambda_seq[report.k_bar] < 1.0
        if report.extinction_step is not None:
            assert report.linear_rate_estimate is not None
            assert 0 < report.linear_rate_estimate < 1

    def test_depleted_limit_eigenvalue(self):
        # heavy seeding + strong transmission drives s toward 0, where the
        # dominant eigenvalue approaches max(1 - h*sigma, 1 - h*gamma)
        net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        params = SeirParams(beta_e=0.45, beta=0.45, sigma=0.9, gamma=0.25, h=1.0)
        initial = EpidemicState(s=np.array([0.05, 0.05]), e=np.array([0.7, 0.7]),
                                p=np.array([0.25, 0.25]), r=np.zeros(2))
        traj = simulate(initial, params, net, 200)
        report = convergence_diagnostics(traj, params, net)
        # residual susceptibles keep the terminal value a few e-3 above the limit
        limit = max(1 - 0.9, 1 - 0.25)
        assert limit - 1e-9 <= report.lambda_seq[-1] <= limit + 5e-3

    @pytest.mark.parametrize("level", [1e20, np.nan, 1 + 2e-9])
    def test_refuses_s_above_one(self, two_node_net, level):
        # an s of 1e20 made the infection edges dwarf the shift, and power
        # iteration ended in "did not converge"
        params = SeirParams(beta_e=0.2, beta=0.25, sigma=0.3, gamma=0.3, h=1.0)
        traj = fabricated_seir(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        s = traj.s.copy()
        s[0, 1] = level
        with pytest.raises(ValueError, match="'s' level above 1 or NaN"):
            convergence_diagnostics(Trajectory(s=s, e=traj.e, p=traj.p, r=traj.r, h=1.0),
                                    params, two_node_net)
        s[0, 1] = 1 + 1e-10  # within SUM_TOL
        convergence_diagnostics(Trajectory(s=s, e=traj.e, p=traj.p, r=traj.r, h=1.0),
                                params, two_node_net)

    def test_too_short(self, seir_example):
        net, params, state = seir_example
        single = Trajectory(s=state.s[None], e=state.e[None], p=state.p[None],
                            r=state.r[None], h=1.0)
        with pytest.raises(ValueError, match="short"):
            convergence_diagnostics(single, params, net)

    def test_serialization(self, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 10)
        report = convergence_diagnostics(traj, params, net)
        csv = report_to_csv(report)
        assert csv.splitlines()[0] == "k,lambda_max,p_norm"
        assert len(csv.splitlines()) == len(traj) + 1
        import json
        summary = json.loads(report_to_json(report))
        assert set(summary) == {"k_bar", "monotone", "linear_rate_estimate",
                                "extinction_step"}
