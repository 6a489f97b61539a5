import logging
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import (EpidemicState, Network, SeirParams, SirParams,
                    build_spreading_matrix, convergence_diagnostics,
                    dominant_eigenvalue, dynamics, simulate, spectral, step)
from netepi.dynamics import Trajectory
from netepi.spectral import PowerIterationError, report_to_csv, report_to_json

from conftest import (charpoly_spectral_radius, fabricated_seir, random_irreducible_network,
                      random_layered_seir, random_seir_params, random_sir_params,
                      random_simplex_state, seeded_state, spreading_matrix_oracle)


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

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31),
           st.sampled_from(["sir", "seir", "layered"]))
    def test_chain_matches_per_model_oracle(self, n, seed, kind):
        # one block per stage of the chain, bit for bit the per-model build,
        # on random networks, per-node rates and states, some with s = 0
        rng = np.random.default_rng(seed)

        def sparse():
            return (rng.random((n, n)) < 0.5) * rng.random((n, n))

        def rate():
            return rng.uniform(0.0, 1.0, n)

        layers = (sparse(),) if kind == "layered" else ()
        net = Network(sparse(), layers=layers)
        h = rng.uniform(0.1, 2.0)
        if kind == "sir":
            params = SirParams(beta=rate(), gamma=rate(), h=h)
        else:
            params = SeirParams(beta_e=rate(), beta=rate(), sigma=rate(), gamma=rate(), h=h,
                                layer_beta_e=tuple(rate() for _ in layers),
                                layer_beta=tuple(rate() for _ in layers))
        state = random_simplex_state(rng, n, "sir" if kind == "sir" else "seir")
        state.s[rng.random(n) < 0.3] = 0.0
        m = build_spreading_matrix(state, params, net).m
        assert np.array_equal(m, spreading_matrix_oracle(state, params, net))

    @pytest.mark.parametrize("kind", ["sir", "seir", "layered"])
    def test_trajectory_stack_matches_per_state(self, kind):
        # the (T+1, N, N) stack of a Trajectory, bit for bit the per-state build
        rng = np.random.default_rng({"sir": 11, "seir": 12, "layered": 13}[kind])
        for _ in range(5):
            n = int(rng.integers(1, 12))
            if kind == "layered":
                net, params = random_layered_seir(rng, n)
            else:
                net = random_irreducible_network(rng, n)
                params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
            initial = seeded_state(n, "sir" if kind == "sir" else "seir",
                                   p_seeds=[(0, 0.05)])
            traj = simulate(initial, params, net, 12)
            stack = build_spreading_matrix(traj, params, net).m
            assert stack.shape == (13, *build_spreading_matrix(initial, params, net).m.shape)
            assert np.array_equal(stack, np.stack([build_spreading_matrix(st, params, net).m
                                                   for st in traj.states]))


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

    @pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3), (0, 0), (3, 0, 0), (2, 2, 2, 2), (3,)],
                             ids=["nonsquare", "nonsquare_stack", "empty", "empty_stack",
                                  "4d", "vector"])
    def test_rejects_shape(self, shape):
        with pytest.raises(ValueError, match="square and nonempty"):
            dominant_eigenvalue(np.ones(shape))

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

        # the matrix-free path, which networks of more than DENSE_NODES nodes take
        monkeypatch.setattr(spectral, "DENSE_NODES", 0)
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
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_spreading_stack", refuse)
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

        def counted(apply, data, start):
            def recorded(w, *d):
                rows.append(len(w))
                return apply(w, *d)
            return solve(recorded, data, start)

        monkeypatch.setattr(spectral, "DENSE_NODES", 0)
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

        def counted_solve(apply, data, start):
            rows.append(len(data[0]))
            return solve(apply, data, start)

        def counted_label(*args):
            labelled.append(args)
            return label(*args)

        monkeypatch.setattr(spectral, "DENSE_NODES", 0)
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

    @pytest.mark.parametrize("krylov", [False, True])
    def test_memory_stays_below_one_dense_matrix(self, monkeypatch, krylov):
        # T = 60: unchunked, the Krylov bases of the 61 states would take
        # 61 * (KRYLOV_STEPS + 1) * 2n entries, 24 MB, besides the iterates
        n = 1000
        monkeypatch.setattr(spectral, "KRYLOV_NODES", n - 1 if krylov else n)
        rng = np.random.default_rng(71)
        net = random_irreducible_network(rng, n, extra_prob=0.005)
        params = random_seir_params(rng, net)
        traj = simulate(seeded_state(n, "seir", e_seeds=[(0, 0.05)], p_seeds=[(1, 0.02)]),
                        params, net, 60)
        blocks = _spy(monkeypatch, "_krylov_roots")
        tracemalloc.start()
        try:
            convergence_diagnostics(traj, params, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bool(blocks) == krylov
        assert peak < 8 * (2 * n) ** 2, f"peak {peak / 2**20:.1f} MB"


def _left_actions(monkeypatch, fraction, traj, params, net):
    """Roots of convergence_diagnostics with DIAGONAL_SHIFT = ``fraction``,
    and the left actions (one per state per iteration) that its power
    iteration and its shift bounds took."""
    rows = {"power": 0, "probe": 0}
    solve, shift = spectral._power_iteration, spectral._diagonal_shift

    def counting(key, apply):
        def recorded(w, *d):
            rows[key] += len(w)
            return apply(w, *d)
        return recorded

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_power_iteration",
                      lambda apply, *a: solve(counting("power", apply), *a))
        patch.setattr(spectral, "_diagonal_shift",
                      lambda act, *a: shift(counting("probe", act), *a))
        patch.setattr(spectral, "DIAGONAL_SHIFT", fraction)
        lam = convergence_diagnostics(traj, params, net).lambda_seq
    return lam, rows["power"], rows["probe"]


class TestDiagonalShift:
    @pytest.mark.parametrize("kind", ["sir", "seir", "layered"])
    def test_shifted_roots_match_eigvals(self, kind):
        # s from about 1 down to about 0, node by node: the smallest diagonal
        # entry, and with it the shift, moves from state to state
        rng = np.random.default_rng({"sir": 91, "seir": 92, "layered": 93}[kind])
        for _ in range(4):
            n = int(rng.integers(3, 9))
            if kind == "layered":
                net, params = random_layered_seir(rng, n)
            else:
                net = random_irreducible_network(rng, n)
                params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
            s = np.linspace(0.99, 0.01, 30)[:, None] * rng.uniform(0.9, 1.0, n)
            zero = np.zeros_like(s)
            traj = (Trajectory(s=s, p=zero, r=1 - s, h=1.0) if kind == "sir"
                    else fabricated_seir(zero, zero, 1 - s))
            lam = convergence_diagnostics(traj, params, net).lambda_seq
            for state, val in zip(traj.states, lam):
                m = build_spreading_matrix(state, params, net).m
                assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10

    def test_directed_ring_with_uniform_diagonal(self, monkeypatch):
        # a weighted directed SIR ring with equal gamma and uniform s: the
        # block's diagonal is uniform, so a full shift would leave h*s*beta*A,
        # a weighted permutation whose iteration never settles
        n = 12
        a = np.zeros((n, n))
        a[(np.arange(n) + 1) % n, np.arange(n)] = np.random.default_rng(94).uniform(0.3, 1.5, n)
        net = Network(a)
        params = SirParams(beta=0.3, gamma=0.2, h=1.0)
        s = np.repeat(np.linspace(1.0, 0.01, 12)[:, None], n, axis=1)
        traj = Trajectory(s=s, p=np.zeros_like(s), r=1 - s, h=1.0)
        lam, actions, _ = _left_actions(monkeypatch, spectral.DIAGONAL_SHIFT, traj, params, net)
        for state, val in zip(traj.states, lam):
            m = build_spreading_matrix(state, params, net).m
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10
        assert actions <= _left_actions(monkeypatch, 0.0, traj, params, net)[1]

    @pytest.mark.parametrize("h_gamma", [0.5, 0.999])
    @pytest.mark.parametrize("shape", ["star", "even_ring"])
    def test_bipartite_blocks_not_slowed(self, monkeypatch, shape, h_gamma):
        # SIR with equal gamma on an undirected bipartite network: M is
        # d*I + h*beta*diag(s)*A with d = 1 - h*gamma, and diag(s)*A has a
        # spectrum symmetric about 0, so M has the eigenvalue d - mu next to
        # lambda_1 = d + mu. Shifting by 0.9*d slowed every state with
        # mu > d (about 8x on the star at h*gamma = 0.5) and ran past
        # POWER_MAX_ITER at h*gamma = 0.999; the bound leaves those states
        # unshifted
        n = 10
        a = np.zeros((n, n))
        if shape == "star":
            a[0, 1:] = a[1:, 0] = 1.0
            beta = 0.5
        else:
            a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
            a += a.T
            beta = 0.6
        net = Network(a)
        params = SirParams(beta=beta, gamma=h_gamma, h=1.0)
        s = np.linspace(1.0, 0.0, 11)[:, None] * np.random.default_rng(96).uniform(0.7, 1.0, n)
        traj = Trajectory(s=s, p=np.zeros_like(s), r=1 - s, h=1.0)
        lam, actions, _ = _left_actions(monkeypatch, spectral.DIAGONAL_SHIFT, traj, params, net)
        plain, plain_actions, _ = _left_actions(monkeypatch, 0.0, traj, params, net)
        for state, val in zip(traj.states, lam):
            m = build_spreading_matrix(state, params, net).m
            assert abs(val - np.abs(np.linalg.eigvals(m)).max()) <= 1e-10
        assert actions <= plain_actions, (actions, plain_actions)

    def test_shift_cuts_left_actions(self, monkeypatch):
        # a sweep-like SEIR run: n = 12, 80 steps, a directed ring plus 20%
        # extra edges, and mid-range rates of the benchmark's sweep. Over 30
        # such networks the shift and its bounds took 64-78% of the unshifted
        # left actions, this one 70%
        rng = np.random.default_rng(95)
        n = 12
        a = (rng.random((n, n)) < 0.2) * rng.uniform(0.2, 1.0, (n, n))
        np.fill_diagonal(a, 0.0)
        a[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.2, 1.0, n)
        net = Network(a)
        rowmax = a.sum(axis=1).max()
        params = SeirParams(beta_e=0.275 / rowmax, beta=0.375 / rowmax, sigma=0.45, gamma=0.25,
                            h=1.0)
        traj = simulate(seeded_state(n, "seir", e_seeds=[(0, 0.02)], p_seeds=[(5, 0.01)]),
                        params, net, 80)
        monkeypatch.setattr(spectral, "DENSE_NODES", 0)
        shifted, actions, probe = _left_actions(monkeypatch, spectral.DIAGONAL_SHIFT, traj,
                                                params, net)
        plain, plain_actions, _ = _left_actions(monkeypatch, 0.0, traj, params, net)
        assert np.abs(shifted - plain).max() <= 1e-12
        assert actions + probe <= 0.75 * plain_actions, (actions, probe, plain_actions)


def _krylov(monkeypatch):
    """Send networks of more than DENSE_NODES nodes to the Krylov solve."""
    monkeypatch.setattr(spectral, "KRYLOV_NODES", spectral.DENSE_NODES)


def _spy(monkeypatch, name):
    """The argument tuples of every call to spectral.``name`` from now on."""
    calls, func = [], getattr(spectral, name)

    def recorded(*args):
        calls.append(args)
        return func(*args)

    monkeypatch.setattr(spectral, name, recorded)
    return calls


def _checked_against_eigvals(traj, params, net, bound):
    """convergence_diagnostics' roots, checked within ``bound`` (relative to
    the smallest root) of ``np.linalg.eigvals``."""
    lam = convergence_diagnostics(traj, params, net).lambda_seq
    assert _eigvals_gap(traj, params, net, lam) <= bound * lam.min()
    return lam


class TestKrylovSolve:
    """Networks of more than KRYLOV_NODES nodes: batched Arnoldi on each
    block's left action. Every case here has more than DENSE_NODES nodes and
    lowers KRYLOV_NODES to DENSE_NODES, so that small networks take it."""

    @pytest.mark.parametrize("kind", ["sir", "seir", "layered"])
    def test_matches_eigvals_without_building(self, monkeypatch, kind):
        _krylov(monkeypatch)
        rng = np.random.default_rng({"sir": 111, "seir": 112, "layered": 113}[kind])
        for _ in range(2):
            n = int(rng.integers(spectral.DENSE_NODES + 1, 40))
            if kind == "layered":
                net, params = random_layered_seir(rng, n)
            else:
                net = random_irreducible_network(rng, n, extra_prob=0.1)
                params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
            initial = seeded_state(n, "sir" if kind == "sir" else "seir",
                                   e_seeds=[] if kind == "sir" else [(0, 0.05)],
                                   p_seeds=[(1, 0.02)])
            traj = simulate(initial, params, net, 40)
            built = _spy(monkeypatch, "_spreading_stack")
            lam = convergence_diagnostics(traj, params, net).lambda_seq
            assert not built
            assert _eigvals_gap(traj, params, net, lam) <= 1e-12 * lam.min()

    def test_breakdown_mid_cycle_while_others_run_on(self, monkeypatch):
        # an undirected ring of unit weights has equal column sums, so with
        # uniform s the uniform start is a left eigenvector: those states
        # break down at their first step, and leave the arrays of the
        # others, whose s varies and which run on to their residual test
        _krylov(monkeypatch)
        n = 30
        a = np.zeros((n, n))
        a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        a += a.T
        net = Network(a)
        params = SirParams(beta=0.2, gamma=0.3, h=1.0)
        rng = np.random.default_rng(114)
        s = rng.uniform(0.3, 1.0, (8, n))
        s[[1, 4, 5]] = [[0.9], [0.5], [0.2]]
        traj = Trajectory(s=s, p=np.zeros_like(s), r=1 - s, h=1.0)
        ritz = _spy(monkeypatch, "_ritz")
        lam = _checked_against_eigvals(traj, params, net, 1e-13)
        assert np.allclose(lam[[1, 4, 5]], 0.7 + 0.2 * 2 * np.array([0.9, 0.5, 0.2]),
                           rtol=1e-15, atol=0)
        # the first check is the breakdown, at one step for all 8 states;
        # the next has the 5 others alone
        assert [h.shape for (h,) in ritz[:2]] == [(8, 2, 1), (5, 5, 4)]

    def test_directed_ring_with_uniform_diagonal_grows_its_cycle(self, monkeypatch):
        # TestDiagonalShift's ring above DENSE_NODES: M = d*I + h*beta*s*W for
        # a weighted cyclic permutation W, whose eigenvalues lie on a circle
        # about d; restarts after KRYLOV_STEPS steps barely resolve them, so
        # the cycle grows to the ring's order, where the space is invariant
        _krylov(monkeypatch)
        n = 30
        a = np.zeros((n, n))
        a[(np.arange(n) + 1) % n, np.arange(n)] = np.random.default_rng(94).uniform(0.3, 1.5, n)
        net = Network(a)
        params = SirParams(beta=0.3, gamma=0.2, h=1.0)
        s = np.repeat(np.linspace(1.0, 0.01, 12)[:, None], n, axis=1)
        traj = Trajectory(s=s, p=np.zeros_like(s), r=1 - s, h=1.0)
        cycles = _spy(monkeypatch, "_arnoldi")
        _checked_against_eigvals(traj, params, net, 1e-12)
        lengths = [args[3] for args in cycles]
        assert lengths[0] == spectral.KRYLOV_STEPS and max(lengths) == n

    @pytest.mark.parametrize("h_gamma", [0.5, 0.999])
    def test_undirected_star_closed_form(self, monkeypatch, h_gamma):
        # SIR with equal gamma on an undirected star: M = d*I + h*beta*diag(s)*A
        # with d = 1 - h*gamma has the root d + h*beta*sqrt(s_0 * sum_j s_j)
        # and the eigenvalue d - h*beta*sqrt(...) next to it, on which power
        # iteration's stopping rule leaves an error near 1e-12 at
        # h*gamma = 0.999 (TestDenseSolve.test_bipartite_star); the Krylov
        # space of the star has order 3 at most, so its Ritz value is exact
        _krylov(monkeypatch)
        n, beta = 30, 0.5
        a = np.zeros((n, n))
        a[0, 1:] = a[1:, 0] = 1.0
        net = Network(a)
        params = SirParams(beta=beta, gamma=h_gamma, h=1.0)
        s = np.linspace(1.0, 0.0, 11)[:, None] * np.random.default_rng(96).uniform(0.7, 1.0, n)
        traj = Trajectory(s=s, p=np.zeros_like(s), r=1 - s, h=1.0)
        lam = convergence_diagnostics(traj, params, net).lambda_seq
        exact = 1 - h_gamma + beta * np.sqrt(s[:, 0] * s[:, 1:].sum(axis=1))
        assert np.all(np.abs(lam - exact) <= 1e-14 * exact)

    def test_unconverged_solve_raises_with_its_residual(self, monkeypatch):
        _krylov(monkeypatch)
        monkeypatch.setattr(spectral, "KRYLOV_RTOL", 0.0)
        monkeypatch.setattr(spectral, "POWER_MAX_ITER", spectral.KRYLOV_STEPS)
        rng = np.random.default_rng(115)
        net = random_irreducible_network(rng, 30, extra_prob=0.1)
        params = random_seir_params(rng, net)
        traj = simulate(seeded_state(30, "seir", e_seeds=[(0, 0.05)]), params, net, 5)
        with pytest.raises(PowerIterationError, match="Krylov solve did not converge") as exc:
            convergence_diagnostics(traj, params, net)
        assert 0 < exc.value.residual < 1e-3

    @pytest.mark.parametrize("kind", ["sir", "seir"])
    def test_reducible_network_matches_eigvals(self, monkeypatch, kind):
        # TestMatrixFreeSolve's two rings joined one way, above DENSE_NODES:
        # each block is solved through the restricted left action
        _krylov(monkeypatch)
        rng = np.random.default_rng({"sir": 116, "seir": 117}[kind])
        n = 14
        a = np.zeros((2 * n, 2 * n))
        a[:n, :n] = random_irreducible_network(rng, n).adjacency
        a[n:, n:] = random_irreducible_network(rng, n).adjacency
        a[n:, :n] = (rng.random((n, n)) < 0.1) * rng.random((n, n))
        net = Network(a)
        params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
        traj = simulate(seeded_state(2 * n, kind, p_seeds=[(n + 1, 0.05)]), params, net, 30)
        blocks = _spy(monkeypatch, "_krylov_roots")
        _checked_against_eigvals(traj, params, net, 1e-12)
        assert len(blocks) == 2 and {args[2] for args in blocks} == {n * (kind == "sir" or 2)}

    @pytest.mark.parametrize("tie", [False, True])
    def test_zero_susceptibles_match_eigvals(self, monkeypatch, tie):
        # s = 0 at different nodes from state to state, so one call solves
        # several groups of blocks; with tie, sigma = gamma and a node with
        # s = 0 has a defective root 1 - h*sigma, which stays out of the solve
        _krylov(monkeypatch)
        rng = np.random.default_rng(118 + tie)
        n = 28
        net = random_irreducible_network(rng, n, extra_prob=0.1)
        pr = random_seir_params(rng, net)
        params = SeirParams(beta_e=pr.beta_e, beta=pr.beta, sigma=pr.gamma if tie else pr.sigma,
                            gamma=pr.gamma, h=1.0)
        s = rng.uniform(0.1, 1.0, (8, n))
        s[1:][rng.random((7, n)) < 0.3] = 0.0
        s[-1] = 0.0
        zero = np.zeros_like(s)
        lam = _checked_against_eigvals(fabricated_seir(zero, zero, 1 - s), params, net, 1e-10)
        assert lam[-1] == np.max(1 - params.sigma)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_node_limit_boundary(self, monkeypatch, caplog, offset):
        # KRYLOV_NODES nodes take power iteration, one more the Krylov solve
        monkeypatch.setattr(spectral, "KRYLOV_NODES", 30)
        n = 30 + offset
        rng = np.random.default_rng(119)
        net = random_irreducible_network(rng, n, extra_prob=0.1)
        params = random_sir_params(rng, net)
        traj = simulate(seeded_state(n, "sir", p_seeds=[(0, 0.05)]), params, net, 20)
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            lam = convergence_diagnostics(traj, params, net).lambda_seq
        assert ("krylov regime" if offset else "power regime") in caplog.text
        assert _eigvals_gap(traj, params, net, lam) <= 1e-12


class TestSolveLog:
    """convergence_diagnostics logs its solve once per call, at DEBUG."""

    @pytest.mark.parametrize("regime", ["squaring", "krylov"])
    def test_one_line_per_call(self, monkeypatch, caplog, regime):
        n = 12 if regime == "squaring" else 30
        if regime == "krylov":
            _krylov(monkeypatch)
        rng = np.random.default_rng(120)
        net = random_irreducible_network(rng, n)
        params = random_seir_params(rng, net)
        traj = simulate(seeded_state(n, "seir", e_seeds=[(0, 0.05)]), params, net, 20)
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            convergence_diagnostics(traj, params, net)
        (record,) = [r for r in caplog.records if r.name == "netepi.spectral"]
        assert record.levelno == logging.DEBUG
        match = re.fullmatch(r"perron solve: (\w+) regime, (\d+) states, (\d+) left actions, "
                             r"worst relative residual (\S+)", record.getMessage())
        assert match and match[1] == regime and int(match[2]) == len(traj)
        tol = spectral.POWER_RTOL if regime == "squaring" else spectral.KRYLOV_RTOL
        assert int(match[3]) >= len(traj) and 0 <= float(match[4]) <= tol


def _roots_and_stacks(monkeypatch, traj, params, net):
    """convergence_diagnostics' roots and the stacks of matrices it built."""
    built, stack = [], spectral._spreading_stack

    def recorded(*args):
        built.append(stack(*args))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_spreading_stack", recorded)
        lam = convergence_diagnostics(traj, params, net).lambda_seq
    return lam, built


def _checked_dense_roots(monkeypatch, traj, params, net):
    """convergence_diagnostics' roots, checked to come from the dense path:
    it built the states' matrices, as chunks of CHUNK_ENTRIES at most."""
    lam, built = _roots_and_stacks(monkeypatch, traj, params, net)
    assert sum(map(len, built)) == len(traj)
    assert all(m.size <= max(spectral.CHUNK_ENTRIES, m[0].size) for m in built)
    return lam


def _eigvals_gap(traj, params, net, lam):
    """The largest |lambda - eigvals root| over the states."""
    ms = build_spreading_matrix(traj, params, net).m
    return np.abs(lam - np.abs(np.linalg.eigvals(ms)).max(axis=1)).max()


class TestDenseSolve:
    """States of up to DENSE_NODES nodes: power iteration on each block
    itself, started from the vectors of the block's repeated square."""

    @pytest.mark.parametrize("kind", ["sir", "seir", "layered"])
    def test_trajectories_match_eigvals(self, monkeypatch, kind):
        rng = np.random.default_rng({"sir": 101, "seir": 102, "layered": 103}[kind])
        for _ in range(6):
            n = int(rng.integers(2, spectral.DENSE_NODES + 1))
            if kind == "layered":
                net, params = random_layered_seir(rng, n)
            else:
                net = random_irreducible_network(rng, n)
                params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
            initial = seeded_state(n, "sir" if kind == "sir" else "seir",
                                   e_seeds=[] if kind == "sir" else [(0, 0.05)],
                                   p_seeds=[(1, 0.02)])
            traj = simulate(initial, params, net, 60)
            lam = _checked_dense_roots(monkeypatch, traj, params, net)
            assert _eigvals_gap(traj, params, net, lam) <= 5e-14

    @pytest.mark.parametrize("case", ["seir_low", "sir_near_zero"])
    def test_tiny_roots(self, monkeypatch, case):
        # the 32nd power of M + SHIFT*I falls far below SHIFT (lambda = 0.5
        # gives 2e-10, lambda = 2e-6 gives 1e-186), where power iteration on
        # it only moves with the SHIFT it adds and returns its uniform start;
        # the squarings rescale it. No self-loops: the built diagonal
        # 1 + h*s*beta*a_ii - h*gamma would lose digits against 1 - h*gamma
        rng = np.random.default_rng(104)
        a = random_irreducible_network(rng, 12).adjacency.copy()
        np.fill_diagonal(a, 0.0)
        net = Network(a)
        rowmax = a.sum(axis=1).max()
        if case == "seir_low":
            params = SeirParams(beta_e=0.04 / rowmax, beta=0.08 / rowmax, sigma=0.7, gamma=0.75,
                                h=1.0)
            s = np.linspace(1.0, 0.05, 30)[:, None] * rng.uniform(0.8, 1.0, 12)
            zero = np.zeros_like(s)
            traj = fabricated_seir(zero, zero, 1 - s)
        else:
            params = SirParams(beta=1e-6 / rowmax, gamma=1 - 1e-6, h=1.0)
            s = np.linspace(1.0, 0.05, 30)[:, None] * rng.uniform(0.8, 1.0, 12)
            traj = Trajectory(s=s, p=np.zeros_like(s), r=1 - s, h=1.0)
        lam = _checked_dense_roots(monkeypatch, traj, params, net)
        assert 0 < lam.min() and lam.max() <= (0.5 if case == "seir_low" else 3e-6)
        assert _eigvals_gap(traj, params, net, lam) <= 5e-14 * lam.min()

    @pytest.mark.parametrize("h_gamma", [0.5, 0.999])
    def test_bipartite_star(self, monkeypatch, h_gamma):
        # g <= 0: M has the eigenvalue d - mu next to lambda_1 = d + mu
        # (test_bipartite_blocks_not_slowed), which the bounded shift is for.
        # At h*gamma = 0.999 their ratio is 0.9985 (0.953 in the 32nd power),
        # so each stage stops on POWER_RTOL with an alternating error in its
        # iterate, which leaves the root 9.3e-13 off, as on the matrix-free path
        n = 10
        a = np.zeros((n, n))
        a[0, 1:] = a[1:, 0] = 1.0
        net = Network(a)
        params = SirParams(beta=0.5, gamma=h_gamma, h=1.0)
        s = np.linspace(1.0, 0.0, 11)[:, None] * np.random.default_rng(96).uniform(0.7, 1.0, n)
        traj = Trajectory(s=s, p=np.zeros_like(s), r=1 - s, h=1.0)
        lam = _checked_dense_roots(monkeypatch, traj, params, net)
        assert _eigvals_gap(traj, params, net, lam) <= (5e-14 if h_gamma == 0.5 else 1e-12)

    @pytest.mark.parametrize("kind", ["sir", "seir"])
    def test_directed_chain(self, monkeypatch, kind):
        # a reducible pattern: each node's compartments are a block of their own
        n = 6
        a = np.zeros((n, n))
        a[np.arange(1, n), np.arange(n - 1)] = np.linspace(0.5, 1.0, n - 1)
        net = Network(a)
        rates = np.linspace(0.2, 0.5, n)
        params = (SirParams(beta=0.3, gamma=rates, h=1.0) if kind == "sir" else
                  SeirParams(beta_e=0.1, beta=0.2, sigma=rates[::-1], gamma=rates, h=1.0))
        traj = simulate(seeded_state(n, kind, p_seeds=[(0, 0.1)]), params, net, 20)
        lam = _checked_dense_roots(monkeypatch, traj, params, net)
        assert _eigvals_gap(traj, params, net, lam) <= 5e-14

    @pytest.mark.parametrize("test", [
        "test_reducible_network_matches_eigvals", "test_defective_chain",
        "test_zero_rate_cuts_the_ring", "test_block_split_by_zero_susceptibles",
        "test_defective_block_below_the_state_root", "test_roots_as_s_falls_to_zero"])
    def test_split_cases_take_dense_path(self, monkeypatch, two_node_net, test):
        # TestMatrixFreeSolve's block-split cases, all of up to DENSE_NODES
        # nodes, each state built for the dense path
        built, stack = [], spectral._spreading_stack

        def recorded(pr, op, s):
            built.append(len(s))
            return stack(pr, op, s)

        monkeypatch.setattr(spectral, "_spreading_stack", recorded)
        args = (two_node_net,) if test == "test_block_split_by_zero_susceptibles" else ()
        getattr(TestMatrixFreeSolve(), test)(*args)
        assert built

    @pytest.mark.parametrize("offset", [0, 1])
    def test_node_limit_boundary(self, monkeypatch, offset):
        # DENSE_NODES nodes take the dense path, one more the matrix-free one;
        # both agree with eigvals
        n = spectral.DENSE_NODES + offset
        rng = np.random.default_rng(105)
        net = random_irreducible_network(rng, n, extra_prob=0.1)
        params = random_seir_params(rng, net)
        traj = simulate(seeded_state(n, "seir", e_seeds=[(0, 0.05)]), params, net, 40)
        lam, built = _roots_and_stacks(monkeypatch, traj, params, net)
        assert bool(built) == (offset == 0)
        assert _eigvals_gap(traj, params, net, lam) <= (5e-14 if offset == 0 else 1e-12)

    def test_long_run_memory_chunked(self):
        # T = 20 000 states of an n = 20 SEIR run: unchunked, the stack alone
        # would be 256 MB; the matrix-free regime (DENSE_NODES = 0) peaks at
        # 63.3 MB on this input, the chunked dense one at 35.8 MB
        rng = np.random.default_rng(106)
        n = 20
        a = (rng.random((n, n)) < 0.2) * rng.uniform(0.2, 1.0, (n, n))
        np.fill_diagonal(a, 0.0)
        a[(np.arange(n) + 1) % n, np.arange(n)] = rng.uniform(0.2, 1.0, n)
        rowmax = a.sum(axis=1).max()
        net = Network(a)
        params = SeirParams(beta_e=0.27 / rowmax, beta=0.37 / rowmax, sigma=0.45, gamma=0.25,
                            h=1.0)
        traj = simulate(seeded_state(n, "seir", e_seeds=[(0, 0.02)]), params, net, 20_000)
        tracemalloc.start()
        try:
            lam = convergence_diagnostics(traj, params, net).lambda_seq
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 63 * 2**20, f"peak {peak / 2**20:.1f} MB"
        picks = np.arange(0, len(traj), 997)
        ms = np.stack([build_spreading_matrix(traj.states[k], params, net).m for k in picks])
        assert np.abs(lam[picks] - np.abs(np.linalg.eigvals(ms)).max(axis=1)).max() <= 5e-14


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
    return dynamics._edge_product(x, edges)


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
            edges = spectral._column_edges(Network(a).edges[0])
            for rows in (1, 3, 16):
                x = rng.random((rows, len(a)))
                assert np.abs(dynamics._edge_product(x, edges) - x @ a).max(
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

        def recorded(x, edges):
            rows.append(len(x))
            return product(x, edges)

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
