import hashlib
import io
import json
import logging
import math
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netepi import (EpidemicState, Network, SeirParams, SirParams,
                    check_assumption, cli, dynamics, estimation, graph, load_network, simulate,
                    spectral, step, trajectory_from_csv, trajectory_to_csv)
from netepi.dynamics import AssumptionError, StateInvariantError, Trajectory

from conftest import (random_irreducible_network, random_layered_seir, random_seir_params,
                      random_simplex_state, random_sir_params, seeded_state,
                      seir_step_oracle, simulate_reference, sir_step_oracle,
                      trajectory_from_csv_oracle,
                      trajectory_to_csv_oracle, mutated_text, read_int_fields_through_float)


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

    def test_error_carries_its_report(self, sir_example):
        net, _, state = sir_example
        params = SirParams(beta=0.5, gamma=0.0, h=0.1)
        report = check_assumption(params, net)
        with pytest.raises(AssumptionError) as info:
            simulate(state, params, net, 3)
        assert info.value.report == report and len(report.violations) == 2
        assert str(info.value) == ("well-posedness violated: "
                                   + "; ".join(str(v) for v in report.violations))

    def test_off_simplex_rejected_when_strict(self, sir_example):
        net, params, _ = sir_example
        bad = EpidemicState(s=np.array([0.9, 1.0]), p=np.array([0.3, 0.0]),
                            r=np.zeros(2))
        with pytest.raises(StateInvariantError):
            step(bad, params, net)

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


class TestStepIsSimulate:
    """step is the second state of a one-step simulate, checked as simulate
    checks its input."""

    @pytest.mark.parametrize("example", ["sir_example", "seir_example"])
    def test_same_bytes_as_simulate(self, request, example):
        net, params, state = request.getfixturevalue(example)
        nxt = step(state, params, net)
        ref = simulate(state, params, net, 1).states[1]
        for comp in ("s", "e", "p", "r"):
            a, b = getattr(nxt, comp), getattr(ref, comp)
            assert (a is None) == (b is None) == (comp == "e" and example == "sir_example")
            if a is not None:
                assert a.tobytes() == b.tobytes() and not a.flags.writeable

    @pytest.mark.parametrize("levels", [
        {"s": [0.9, 1.0], "p": [0.3, 0.0], "r": [0.0, 0.0]},
        {"s": [0.9, 1.0], "p": [np.nan, 0.0], "r": [0.0, 0.0]},
        {"s": [-0.2, 1.0], "p": [1.2, 0.0], "r": [0.0, 0.0]},
    ], ids=["sum", "nan", "outside"])
    def test_malformed_state_never_reaches_kernel(self, monkeypatch, sir_example, levels):
        net, params, _ = sir_example
        calls = []
        monkeypatch.setattr(dynamics, "_kernel", lambda *args: calls.append(args))
        bad = EpidemicState(**{c: np.array(v) for c, v in levels.items()})
        with pytest.raises(StateInvariantError):
            step(bad, params, net)
        with pytest.raises(StateInvariantError):
            simulate(bad, params, net, 3)
        assert calls == []

    def test_params_of_neither_type_refused(self, sir_example):
        net, _, state = sir_example
        for params in ({"beta": 0.5, "gamma": 0.2, "h": 0.1}, None):
            with pytest.raises(TypeError, match="SirParams or SeirParams"):
                step(state, params, net)

    def test_negative_steps_refused(self, sir_example):
        net, params, state = sir_example
        with pytest.raises(ValueError, match="steps must be >= 0"):
            simulate(state, params, net, -1)

    def test_compartments_of_unequal_length_refused(self):
        with pytest.raises(ValueError, match="share one length"):
            EpidemicState(s=np.ones(3), p=np.zeros(2), r=np.zeros(3))
        with pytest.raises(ValueError, match="share one length"):
            EpidemicState(s=np.ones(2), e=np.zeros(3), p=np.zeros(2), r=np.zeros(2))


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


def sparse_ring(rng, n, edges):
    """Directed ring plus random off-ring edges, ``edges`` in all, weights in [0.2, 1)."""
    a = np.zeros((n, n))
    a[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    extra = rng.choice(np.flatnonzero(a.ravel() == 0), edges - n, replace=False)
    a.ravel()[extra] = 1.0
    return a * rng.uniform(0.2, 1.0, (n, n))


def _edge_shapes(monkeypatch):
    """The shapes of the x of every right product over edges run from now on."""
    shapes, product = [], dynamics._edge_product

    def recorded(x, edges):
        shapes.append(x.shape)
        return product(x, edges)

    monkeypatch.setattr(dynamics, "_edge_product", recorded)
    return shapes


class TestEdgeOperator:
    """The right product A x over a layer's edge table, which ``_operator``
    picks for sparse layers, against the dense one."""

    def test_kernel_matches_dense(self):
        rng = np.random.default_rng(91)
        a = random_irreducible_network(rng, 8).adjacency.copy()
        a[[0, 3, 7]] = 0.0  # nodes 0, 3 and 7 have no neighbours: empty rows
        layered, _ = random_layered_seir(rng, 6)
        nets = [Network(a), Network(np.zeros((5, 5))), Network(np.ones((1, 1))),
                Network(np.zeros((1, 1))), layered,
                Network(a, layers=(np.zeros((8, 8)),))]
        for _ in range(20):
            n = int(rng.integers(1, 30))
            nets.append(Network((rng.random((n, n)) < rng.uniform(0.0, 0.3)) * rng.random((n, n))))
        for net in nets:
            for m, edges in zip((net.adjacency, *net.layers), net.edges, strict=True):
                v = rng.random(net.n)
                assert np.abs(dynamics._edge_product(v, edges) - m @ v).max() <= 1e-12
                for rows in (1, 3, 35):
                    x = rng.random((rows, net.n))
                    assert np.abs(dynamics._edge_product(x, edges) - x @ m.T).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 16, 17, 40]), st.integers(1, 30), st.floats(0.0, 0.5),
           st.integers(0, 2**32 - 1))
    def test_blocks_match_one_pass_bit_for_bit(self, rows, n, density, seed):
        # EDGE_BLOCK rows at a time against the whole stack in one pass: each
        # row sums the same edges in the same order, so the bytes agree
        rng = np.random.default_rng(seed)
        m = (rng.random((n, n)) < density) * rng.random((n, n))
        m[rng.random(n) < 0.2] = 0.0  # some empty rows
        edges = Network(m).edges[0]
        x = rng.standard_normal((rows, n))
        one_pass = dynamics._edge_pass(x, edges)
        assert dynamics._edge_product(x, edges).tobytes() == one_pass.tobytes()
        assert dynamics._edge_product(x[0], edges).tobytes() == one_pass[0].tobytes()

    @pytest.mark.parametrize("kind", ["sir", "seir", "layered"])
    def test_forced_edges_match_dense(self, monkeypatch, kind):
        rng = np.random.default_rng({"sir": 92, "seir": 93, "layered": 94}[kind])
        n = 12
        if kind == "layered":
            net, params = random_layered_seir(rng, n)
        else:
            net = random_irreducible_network(rng, n)
            params = (random_sir_params if kind == "sir" else random_seir_params)(rng, net)
        model = "sir" if kind == "sir" else "seir"
        initial = seeded_state(n, model, e_seeds=[] if model == "sir" else [(1, 0.05)],
                               p_seeds=[(2, 0.03)])
        base = Network(net.adjacency)
        dense = simulate(initial, params, net, 40)
        g_dense = [estimation._g(dense.s, x, base) for x in (dense.p, dense.e) if x is not None]
        shapes = _edge_shapes(monkeypatch)
        assert not any(dynamics._use_edges(net.n, edges, 1)
                       for _, edges, _ in dynamics._operator(net, params.rates, 1))
        monkeypatch.setattr(dynamics, "EDGE_FACTOR", 0)
        edged = simulate(initial, params, net, 40)
        g_edged = [estimation._g(edged.s, x, base) for x in (edged.p, edged.e) if x is not None]
        assert shapes
        for comp in ("s", "e", "p", "r"):
            if getattr(dense, comp) is not None:
                assert np.abs(getattr(edged, comp) - getattr(dense, comp)).max() <= 1e-14
        for ge, gd in zip(g_edged, g_dense, strict=True):
            assert np.abs(ge - gd).max() <= 1e-14

    def test_rule_keeps_small_dense_networks_dense(self):
        # the 20-node golden ring of the CLI tests: 60 edges, 8 * 60 >= 400
        ring = load_network("".join(f"{i},{j},1.0\n" for i in range(20)
                                    for j in sorted({i, (i + 1) % 20, (i - 1) % 20})), 20)
        rng = np.random.default_rng(95)
        nets = [ring]
        for n in range(6, 21):
            a = np.zeros(n * n)
            a[rng.choice(n * n, int(np.ceil(0.2 * n * n)), replace=False)] = 1.0
            nets.append(Network(a.reshape(n, n), layers=(a.reshape(n, n),)))
        for net in nets:
            rates = ((1.0, 1.0),) * (1 + len(net.layers))
            assert not any(dynamics._use_edges(net.n, edges, 1)
                           for _, edges, _ in dynamics._operator(net, rates, 1))

    def test_rule_picks_edges_for_a_sparse_2000_node_ring(self, monkeypatch):
        rng = np.random.default_rng(96)
        n = 2000
        net = Network(sparse_ring(rng, n, 24_000))  # 0.6%
        params = random_seir_params(rng, net)
        shapes = _edge_shapes(monkeypatch)
        traj = simulate(seeded_state(n, "seir", e_seeds=[(0, 0.05)]), params, net, 35)
        # two products (e and p) a step, plus the row sums of check_assumption
        assert shapes == [(n,)] * (2 + 2 * 35)
        del shapes[:]
        estimation._g(traj.s[:35], traj.e[:35], net)
        assert shapes == [(35, n)]
        # the Perron solve's left product takes the edges below
        # n*n / (8 * 24 000) = 20.8 rows
        edges = spectral._column_edges(net.n, net.edges[0])
        rows = []
        monkeypatch.setattr(spectral, "_edge_product",
                            lambda x, edges: rows.append(len(x)) or x @ net.adjacency)
        for b in (1, 20, 21, 72):
            spectral._left_product(rng.random((b, n)), net.adjacency, edges)
        assert rows == [1, 20]


class TestNoDenseMatrixOnSparseNetworks:
    """On a sparse network loaded from its file, every product runs over the
    edge table, so no command builds the n x n adjacency."""

    def test_commands_build_no_dense_matrix(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(104)
        n = 2000
        a = sparse_ring(rng, n, 24_000)
        i, j = np.nonzero(a)
        (tmp_path / "net.csv").write_text("".join(
            f"{r},{c},{w!r}\n" for r, c, w in zip(i.tolist(), j.tolist(), a[i, j].tolist())))
        rowmax = a.sum(axis=1).max()
        sc = tmp_path / "scenario.json"
        sc.write_text(json.dumps({
            "model": "seir", "n": n, "network": "net.csv", "steps": 10,
            "params": {"beta_e": 0.3 / rowmax, "beta": 0.5 / rowmax, "sigma": 0.4, "gamma": 0.2},
            "initial": {"seeds": {"e": {"0": 0.05, "7": 0.02}}}, "noise": {"start_k": 2}}))
        built = []
        dense = graph._dense
        monkeypatch.setattr(graph, "_dense", lambda *args: built.append(args) or dense(*args))
        out = tmp_path / "out"
        excerpt = tmp_path / "excerpt.csv"
        commands = [("simulate", None), ("perturb", out / "trajectory.csv"),
                    ("estimate", out / "measured.csv"), ("diagnose", excerpt)]
        for command, trajectory in commands:
            argv = [command, "--scenario", str(sc), "--out", str(out)]
            if trajectory is not None:
                argv += ["--trajectory", str(trajectory)]
            tracemalloc.start()
            try:
                assert cli.main(argv) in (0, 2), command  # 2: not identifiable
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert built == [], command
            assert peak < n * n * 8, f"{command}: peak {peak / 2**20:.1f} MB"
            if command == "simulate":
                # the first two states, as the bench's diagnose excerpt
                lines = (out / "trajectory.csv").read_text().splitlines(keepends=True)
                excerpt.write_text("".join(lines[:1 + 2 * n]))
        assert (tmp_path / "net.csv.edges").is_file()
        assert (out / "lambda.csv").is_file() and (out / "estimate.json").is_file()


REFERENCE_CASES = ["sir", "seir", "layered", "sir-h", "seir-h", "vector", "ring", "noisy"]


def _reference_case(case):
    """(initial, params, net, steps, strict) of one case of TestInPlaceStepLoop."""
    rng = np.random.default_rng(REFERENCE_CASES.index(case) + 97)
    if case == "ring":
        net = Network(sparse_ring(rng, 2000, 24_000))
        params = random_seir_params(rng, net)
        return seeded_state(2000, "seir", e_seeds=[(0, 0.05), (7, 0.02)]), params, net, 35, True
    n = 13
    net = random_irreducible_network(rng, n)
    h = 0.3 if case.endswith("-h") else 1.0
    if case == "layered":
        net, params = random_layered_seir(rng, n)
    elif case == "vector":
        # per-node rates, as a scenario's rate files give them
        rowmax = net.adjacency.sum(axis=1).max()
        params = SeirParams(beta_e=rng.uniform(0.05, 0.3, n) / rowmax,
                            beta=rng.uniform(0.05, 0.5, n) / rowmax,
                            sigma=rng.uniform(0.1, 1.0, n), gamma=rng.uniform(0.1, 0.9, n), h=1.0)
    else:
        params = (random_sir_params if case.startswith("sir") else random_seir_params)(rng, net, h)
    kind = "sir" if case.startswith("sir") else "seir"
    initial = seeded_state(n, kind, e_seeds=[] if kind == "sir" else [(1, 0.04)],
                           p_seeds=[(5, 0.02)])
    if case != "noisy":
        return initial, params, net, 80, True
    # a state of independently measured levels: off the simplex, run with strict off
    later = simulate(initial, params, net, 20).states[-1]
    noisy = EpidemicState(**{c: np.clip(getattr(later, c) + rng.normal(0, 0.02, n), 0, 1)
                             for c in ("s", "e", "p", "r")})
    assert np.abs(noisy.s + noisy.e + noisy.p + noisy.r - 1).max() > dynamics.SUM_TOL
    return noisy, params, net, 60, False


class TestInPlaceStepLoop:
    """simulate steps in place in one (c, T+1, n) block; its levels are
    those of the per-step tuples and final stack of the loop it replaced
    (conftest.simulate_reference), byte for byte."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_bytes_match_reference(self, case):
        initial, params, net, steps, strict = _reference_case(case)
        if case == "ring":
            assert all(dynamics._use_edges(net.n, edges, 1)
                       for _, edges, _ in dynamics._operator(net, params.rates, 1))
        traj = simulate(initial, params, net, steps, strict=strict)
        ref = simulate_reference(initial, params, net, steps)
        for comp, want in zip(("s", "p", "r", "e"), ref, strict=True):
            got = getattr(traj, comp)
            assert (got is None) == (want is None) == (comp == "e" and case.startswith("sir"))
            if got is not None:
                assert got.shape == (steps + 1, net.n)
                assert got.tobytes() == want.tobytes(), comp


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
        assert ",," in text.splitlines()[1]
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


def _written(values):
    """trajectory_to_csv's text of each value, written as the s levels of
    one SIR state."""
    v = np.asarray(values, dtype=float)
    zeros = np.zeros((1, len(v)))
    rows = trajectory_to_csv(Trajectory(s=v[None], p=zeros, r=zeros, h=1.0)).splitlines()[1:]
    return [row.split(",")[2] for row in rows]


def _exact_ties():
    """Doubles whose exact decimal value has 18 significant digits, the last
    a 5: m * 2**-(k+1) for odd m with m * 5**k / 2 in [1e16, 1e17). The
    three least and the three greatest m for each k = 16 - X of the fast
    path."""
    ties = []
    for k in range(16 - dynamics.X_MOST, 16 - dynamics.X_LEAST + 1):
        least = -(-2 * 10 ** 16 // 5 ** k) | 1
        most = min(-(-2 * 10 ** 17 // 5 ** k), 2 ** 53)
        odd = range(least, most, 2)
        ties += [math.ldexp(m, -(k + 1)) for m in sorted({*odd[:3], *odd[-3:]})]
    return ties


def _edge_values():
    """Values that reach every branch of the writer: powers of ten and their
    neighbours (log10 one off, the X = -5/-4 and 16/17 notation boundaries,
    1e-14's round up to the next power of ten), exact rounding ties, the
    ends of the fast range, zeros, subnormals and non-finite values."""
    values = [0.99999999999999999, 9.9999999999999999e-5, 2.0 ** -25, 2.0 ** -30,
              1 - 2 ** -53, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              0.0, -0.0, math.nan, math.inf, -math.inf, 0.1 + 0.2, 1.5, 123.25, 1e-14]
    for e in range(-25, 18):
        for p in {float(f"1e{e}"), 10.0 ** e}:
            below = np.nextafter(p, 0)
            values += [p, below, np.nextafter(below, 0), np.nextafter(p, math.inf)]
    values += _exact_ties()
    values += [dynamics.FAST_LEAST, np.nextafter(dynamics.FAST_LEAST, 0),
               dynamics.FAST_BOUND, np.nextafter(dynamics.FAST_BOUND, 0)]
    return [float(x) for x in values] + [-float(x) for x in values]


@st.composite
def trajectories(draw):
    """An SIR or SEIR trajectory (n <= 6, T <= 5) of levels spread over many
    decades; a noisy SEIR one (estimation.apply_noise) has s slightly below
    0 or above 1 at some nodes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    levels = rng.dirichlet(np.ones(4), size=shape) ** draw(st.sampled_from([1, 3, 30]))
    levels[rng.random(shape) < 0.2] = 0.0
    kind = draw(st.sampled_from(["sir", "seir", "noisy"]))
    traj = Trajectory(s=levels[..., 0], e=None if kind == "sir" else levels[..., 1],
                      p=levels[..., 2], r=levels[..., 3], h=1.0)
    if kind == "noisy":
        traj = estimation.apply_noise(traj, estimation.NoiseModel(seed=draw(st.integers(0, 99))))
    return traj


def _same_rows(text: str, want: str) -> None:
    """Assert that the CSV ``text`` is ``want``, failing on the first row in
    which they differ, with its index and both rows: pytest's diff of two
    whole texts of megabytes runs for minutes."""
    rows, want_rows = text.splitlines(keepends=True), want.splitlines(keepends=True)
    for k, (row, want_row) in enumerate(zip(rows, want_rows)):
        if row != want_row:
            pytest.fail(f"row {k} differs: {row!r}, not {want_row!r}")
    if len(rows) != len(want_rows):
        pytest.fail(f"{len(rows)} rows, not {len(want_rows)}")


class TestWriterAgainstTemplateWriter:
    """The writer against the '%.17g' template writer it replaced (the
    oracle): byte for byte, value by value."""

    def test_edge_values(self):
        values = _edge_values()
        assert _written(values) == ["%.17g" % x for x in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(-1e16, 1e16)), min_size=1, max_size=40))
    def test_drawn_values(self, values):
        assert _written(values) == ["%.17g" % x for x in values]

    def test_ties_go_in_as_literals(self):
        # np.rint rounds an exact tie half to even, as '%.17g' does, but a
        # value within TIE_GUARD of a tie is never decided from the digits
        ties = np.array(_exact_ties())
        _, _, certain = dynamics._digits(ties)
        assert not certain.any()
        assert _written(ties) == ["%.17g" % x for x in ties.tolist()]
        _, _, certain = dynamics._digits(np.array([0.1, 1 - 2 ** -53, 0.3]))
        assert certain.all()

    @settings(max_examples=300, deadline=None)
    @given(trajectories())
    def test_drawn_trajectories(self, traj):
        _same_rows(trajectory_to_csv(traj), trajectory_to_csv_oracle(traj))

    @pytest.mark.parametrize("steps,n", [(36, 300), (3, 2 * dynamics.BLOCK + 5)])
    def test_trajectories_over_several_blocks(self, steps, n):
        rng = np.random.default_rng(13)
        levels = rng.dirichlet(np.ones(4), size=(steps, n)) ** 3
        traj = Trajectory(s=levels[..., 0], e=levels[..., 1], p=levels[..., 2],
                          r=levels[..., 3], h=1.0)
        _same_rows(trajectory_to_csv(traj), trajectory_to_csv_oracle(traj))

    @pytest.mark.parametrize("kind", ["sir", "seir"])
    @pytest.mark.parametrize("steps,n", [
        (1, dynamics.BLOCK - 1), (1, dynamics.BLOCK), (1, dynamics.BLOCK + 1),
        (dynamics.BLOCK + 1, 1), (101, 3), (2, 1000), (101, 1001), (3, 0)])
    def test_block_boundaries_and_id_widths(self, kind, steps, n):
        # one row short of a block, a block and one row past it; 'k,' and
        # 'node,' of 2 to 5 bytes each, 6 to 9 together; no rows at all
        rng = np.random.default_rng(steps * n)
        levels = rng.dirichlet(np.ones(4), size=(steps, n)) ** 3
        levels[rng.random(levels.shape) < 0.1] = 0.0
        traj = Trajectory(s=levels[..., 0], e=None if kind == "sir" else levels[..., 1],
                          p=levels[..., 2], r=levels[..., 3], h=1.0)
        _same_rows(trajectory_to_csv(traj), trajectory_to_csv_oracle(traj))

    @pytest.mark.parametrize("kind", ["sir", "seir"])
    def test_mostly_literals(self, kind):
        # values below 1e-24, in [1, 10) and from 10 up, exact ties, -0 and
        # the negative s that apply_noise leaves where e + p + r is near 1
        rng = np.random.default_rng(22)
        third = np.full((6, 50), 0.333)
        noisy = estimation.apply_noise(Trajectory(s=1 - 3 * third, e=third, p=third, r=third,
                                                  h=1.0), estimation.NoiseModel(seed=3))
        negatives = noisy.s[noisy.s < 0]
        assert negatives.size > 50
        pool = np.concatenate([10.0 ** rng.uniform(-320, -24.01, 400), rng.uniform(1, 10, 200),
                               10.0 ** rng.uniform(1, 308, 400), _exact_ties(),
                               np.full(50, -0.0), np.zeros(50), negatives])
        levels = rng.choice(pool, size=(5, 80, 4))
        assert np.mean(~dynamics._from_digits(levels)[0]) > 0.6
        traj = Trajectory(s=levels[..., 0], e=None if kind == "sir" else levels[..., 1],
                          p=levels[..., 2], r=levels[..., 3], h=1.0)
        _same_rows(trajectory_to_csv(traj), trajectory_to_csv_oracle(traj))


def _in_place(view: np.ndarray, part: np.ndarray) -> bool:
    """Whether ``view`` is the array ``part``: the same memory, shape,
    strides, dtype and write flag."""
    return view.__array_interface__ == part.__array_interface__


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
    def test_equality_and_hash_are_identity(self, request, example):
        # the generated __eq__ compared tuples of arrays, which raised
        # ValueError; equal levels in two objects are still two objects
        net, params, state = request.getfixturevalue(example)
        traj = simulate(state, params, net, 3)
        twin = Trajectory(s=traj.s, e=traj.e, p=traj.p, r=traj.r, h=traj.h)
        for one, other in ((state, traj.states[0]), (traj, twin)):
            assert one == one and not one != one
            assert one != other and not one == other
            assert hash(one) == hash(one) and len({one, other, one}) == 2
        assert {traj.states[2]: 2}[traj.states[2]] == 2

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

    @pytest.mark.parametrize("example,source", [
        ("sir_example", "simulate"), ("seir_example", "simulate"),
        ("sir_example", "csv"), ("seir_example", "csv"),
        ("sir_example", "levels_file"), ("seir_example", "levels_file"),
        ("seir_example", "noise")])
    def test_compartments_are_views_of_one_read_only_block(self, request, tmp_path, monkeypatch,
                                                          example, source):
        net, params, state = request.getfixturevalue(example)
        traj = simulate(state, params, net, 4)
        if source == "csv":
            traj = trajectory_from_csv(trajectory_to_csv(traj))
        elif source == "levels_file":
            path, _ = _written_pair(tmp_path, traj)
            traj, parses = _reads(monkeypatch, path)
            assert parses == 0
        elif source == "noise":
            traj = estimation.apply_noise(traj, estimation.NoiseModel(seed=3, start_k=1))
        names = "spr" if traj.e is None else "sepr"
        assert traj.levels.shape == (len(names), len(traj), traj.n)
        assert not traj.levels.flags.writeable
        for k, name in enumerate(names):
            assert _in_place(getattr(traj, name), traj.levels[k])

    @pytest.mark.parametrize("example", ["sir_example", "seir_example"])
    def test_states_are_views_of_the_block(self, request, example):
        net, params, state = request.getfixturevalue(example)
        traj = simulate(state, params, net, 3)
        for k, view in enumerate(traj.states):
            assert _in_place(view.levels, traj.levels[:, k])
            for row, name in zip(view.levels, "sepr" if view.e is not None else "spr"):
                assert _in_place(getattr(view, name), row)
        later = step(traj.states[3], params, net)
        assert not later.levels.flags.writeable and _in_place(later.s, later.levels[0])
        assert later.levels.tobytes() == simulate(state, params, net, 4).levels[:, 4].tobytes()

    def test_levels_file_payload_is_the_block(self, tmp_path, seir_example):
        net, params, state = seir_example
        traj = simulate(state, params, net, 4)
        _, levels = _written_pair(tmp_path, traj)
        payload = np.load(io.BytesIO(levels.read_bytes()[graph.DIGEST_BYTES:]))
        assert payload.shape == traj.levels.shape
        assert payload.tobytes() == traj.levels.tobytes()

    def test_keyword_state_is_one_writable_block(self):
        state = EpidemicState(s=[0.9, 1.0], e=[0.05, 0.0], p=[0.05, 0.0], r=[0.0, 0.0])
        assert state.levels.shape == (4, 2) and state.levels.flags.writeable
        for row, name in zip(state.levels, "sepr"):
            assert _in_place(getattr(state, name), row)
        state.s[0] = 0.5
        assert state.levels[0, 0] == 0.5

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

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["sir", "seir"]), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_drawn_round_trip(self, kind, steps, n, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        s, e, p, r = (data.draw(hnp.arrays(np.float64, (steps, n), elements=finite))
                      for _ in range(4))
        traj = Trajectory(s=s, p=p, r=r, e=None if kind == "sir" else e, h=1.0)
        _same_bits(trajectory_from_csv(trajectory_to_csv(traj)), traj)


# ---------------------------------------------------------------------------
# The levels file beside a trajectory CSV.

def _written_pair(tmp: Path, traj: Trajectory) -> tuple[Path, Path]:
    """The CSV and levels file _write_trajectory writes for ``traj`` in ``tmp``."""
    path = tmp / "trajectory.csv"
    dynamics._write_trajectory(path, traj)
    return path, tmp / "trajectory.csv.levels"


def _levels_file(csv: bytes, levels: np.ndarray, **save) -> bytes:
    """A levels file of the CSV bytes ``csv`` with the .npy bytes np.save
    gives ``levels``: their digest, as _write_sidecar makes it, then those."""
    buf = io.BytesIO()
    np.save(buf, levels, **save)
    return hashlib.sha256(csv + buf.getvalue()).digest() + buf.getvalue()


def _parsed(path: Path, h: float = 1.0) -> Trajectory:
    return trajectory_from_csv(path.read_text(), h)


def _reads(monkeypatch, path: Path) -> tuple[Trajectory, int]:
    """_read_trajectory of ``path`` and how many times it parsed the CSV."""
    calls = []
    parse = dynamics.trajectory_from_csv
    monkeypatch.setattr(dynamics, "trajectory_from_csv",
                        lambda text, h: calls.append(1) or parse(text, h))
    return dynamics._read_trajectory(path, 1.0), len(calls)


_SPECIAL = [x for x in _edge_values() if math.isfinite(x)]
_UNPICKLED = []


def _unpickle_trap():
    _UNPICKLED.append(1)


class _Trap:
    """An object whose unpickling leaves a mark in _UNPICKLED."""

    def __reduce__(self):
        return _unpickle_trap, ()


class TestLevelsFile:
    """A hit returns the parsed levels bit for bit; every other case parses."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["sir", "seir"]), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_hit_is_the_parse_bit_for_bit(self, kind, steps, n, data):
        # +-0, subnormals, the ends of the fast range and exact ties among them
        values = st.sampled_from(_SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
        s, e, p, r = (data.draw(hnp.arrays(np.float64, (steps, n), elements=values))
                      for _ in range(4))
        traj = Trajectory(s=s, p=p, r=r, e=None if kind == "sir" else e, h=0.5)
        with tempfile.TemporaryDirectory() as tmp:
            path, levels = _written_pair(Path(tmp), traj)
            blob = levels.read_bytes()
            assert blob[:32] == hashlib.sha256(path.read_bytes() + blob[32:]).digest()
            with mock.patch.object(dynamics, "trajectory_from_csv", side_effect=AssertionError):
                got = dynamics._read_trajectory(path, 0.5)
            want = _parsed(path, 0.5)
        _same_bits(got, want)
        _same_bits(got, traj)
        assert got.h == 0.5 and not got.s.flags.writeable

    def test_edited_digit_is_parsed(self, tmp_path, monkeypatch, seir_example):
        net, params, state = seir_example
        path, _ = _written_pair(tmp_path, simulate(state, params, net, 4))
        text = path.read_text()
        at = text.index("0.9") + 2
        path.write_text(text[:at] + ("1" if text[at] == "0" else "0") + text[at + 1:])
        got, parses = _reads(monkeypatch, path)
        assert parses == 1
        _same_bits(got, _parsed(path))

    @pytest.mark.parametrize("cut", [0, 16, 32, 40, 100, 160, -8, -1])
    def test_truncated_file_is_a_miss(self, tmp_path, monkeypatch, seir_example, cut):
        net, params, state = seir_example
        path, levels = _written_pair(tmp_path, simulate(state, params, net, 4))
        levels.write_bytes(levels.read_bytes()[:cut])
        got, parses = _reads(monkeypatch, path)
        assert parses == 1
        _same_bits(got, _parsed(path))

    @pytest.mark.parametrize("garbage", ["all", "payload", "trailing"])
    def test_garbage_is_a_miss(self, tmp_path, monkeypatch, sir_example, garbage):
        net, params, state = sir_example
        path, levels = _written_pair(tmp_path, simulate(state, params, net, 4))
        data = levels.read_bytes()
        noise = np.random.default_rng(2).bytes(len(data))
        levels.write_bytes({"all": noise, "payload": data[:32] + noise[32:],
                            "trailing": data + b"\0"}[garbage])
        got, parses = _reads(monkeypatch, path)
        assert parses == 1
        _same_bits(got, _parsed(path))

    @pytest.mark.parametrize("shape,save", [
        ((5, 5, 2), {}), ((2, 5, 2), {}), ((4, 10), {}), ((1, 4, 5, 2), {}),
        ((4, 0, 2), {}), ((4, 5, 0), {}),
        ((4, 5, 2), {"dtype": np.float32}), ((4, 5, 2), {"dtype": ">f8"}),
        ((4, 5, 2), {"order": "F"}),
    ], ids=["c5", "c2", "2d", "4d", "no_steps", "no_nodes", "float32", "big_endian", "fortran"])
    def test_wrongly_shaped_payload_is_a_miss(self, tmp_path, monkeypatch, seir_example,
                                              shape, save):
        net, params, state = seir_example
        path, levels = _written_pair(tmp_path, simulate(state, params, net, 4))
        payload = _parsed(path).levels.ravel()
        payload = np.resize(payload, shape).astype(save.get("dtype", np.float64))
        if save.get("order") == "F":
            payload = np.asfortranarray(payload)
        levels.write_bytes(_levels_file(path.read_bytes(), payload))
        got, parses = _reads(monkeypatch, path)
        assert parses == 1
        _same_bits(got, _parsed(path))

    def test_object_array_is_never_unpickled(self, tmp_path, monkeypatch, sir_example):
        net, params, state = sir_example
        path, levels = _written_pair(tmp_path, simulate(state, params, net, 4))
        payload = np.empty((3, 5, 2), dtype=object)
        payload[...] = _Trap()
        levels.write_bytes(_levels_file(path.read_bytes(), payload, allow_pickle=True))
        _UNPICKLED.clear()
        got, parses = _reads(monkeypatch, path)
        assert parses == 1 and _UNPICKLED == []
        _same_bits(got, _parsed(path))
        # np.load with pickles allowed would run the trap
        with open(levels, "rb") as f:
            f.seek(32)
            np.load(f, allow_pickle=True)
        assert _UNPICKLED

    def test_missing_file_is_a_miss_logged(self, tmp_path, monkeypatch, caplog, sir_example):
        net, params, state = sir_example
        path, levels = _written_pair(tmp_path, simulate(state, params, net, 4))
        levels.unlink()
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            got, parses = _reads(monkeypatch, path)
        assert parses == 1
        _same_bits(got, _parsed(path))
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert "trajectory.csv.levels not used" in caplog.records[0].getMessage()

    def test_untrimmed_shorter_file_is_a_logged_miss(self, tmp_path, monkeypatch, caplog,
                                                     seir_example):
        # a shorter levels file written over a longer one and not cut to its
        # length, as a write stopped before the cut leaves it: the stale
        # tail is part of the digested payload
        net, params, state = seir_example
        _, levels = _written_pair(tmp_path, simulate(state, params, net, 8))
        longer = levels.read_bytes()

        def untrimmed(path, pieces):
            with open(path, "r+b") as f:
                f.writelines(pieces)

        with monkeypatch.context() as m:
            m.setattr(graph, "_write_file", untrimmed)
            path, _ = _written_pair(tmp_path, simulate(state, params, net, 4))
        assert len(levels.read_bytes()) == len(longer) and levels.read_bytes() != longer
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            got, parses = _reads(monkeypatch, path)
        assert parses == 1
        _same_bits(got, _parsed(path))
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert "trajectory.csv.levels not used: its digest" in caplog.records[0].getMessage()

    def test_write_logs_one_debug_line(self, tmp_path, caplog):
        # 1e-30, 12.5 and the exact tie 2**-25 go through '%.17g'; 0.5, 0
        # and -0 are written from their digits
        s = np.array([[0.5, 1e-30, 12.5], [2.0 ** -25, 0.0, -0.0]])
        traj = Trajectory(s=s, p=np.zeros((2, 3)), r=np.zeros((2, 3)), h=1.0)
        path = tmp_path / "trajectory.csv"
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            dynamics._write_trajectory(path, traj)
        size = path.stat().st_size
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, f"trajectory {path}: {size} bytes, 18 levels, 3 written by '%.17g'")]

    def test_matching_digest_with_nan_refused(self, tmp_path, seir_example):
        net, params, state = seir_example
        path, levels = _written_pair(tmp_path, simulate(state, params, net, 4))
        payload = _parsed(path).levels.copy()
        payload[2, 3, 1] = math.nan
        levels.write_bytes(_levels_file(path.read_bytes(), payload))
        with pytest.raises(ValueError, match="^trajectory values must be finite$"):
            dynamics._read_trajectory(path, 1.0)
        # the same message as the CSV path's
        with pytest.raises(ValueError, match="^trajectory values must be finite$"):
            trajectory_from_csv("k,node,s,e,p,r\n0,0,nan,0,0,1\n")

    def test_missing_levels_file_costs_no_hash(self, tmp_path, monkeypatch, caplog,
                                               sir_example):
        # a miss on a sidecar that does not exist hashes nothing, and logs
        # the same DEBUG line as before
        net, params, state = sir_example
        traj = simulate(state, params, net, 4)
        path = tmp_path / "trajectory.csv"
        path.write_text(trajectory_to_csv(traj))
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda *args: calls.append(1) or sha256(*args))
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            got, parses = _reads(monkeypatch, path)
        assert calls == [] and parses == 1
        _same_bits(got, traj)
        assert [r.getMessage() for r in caplog.records] == [
            f"sidecar {path}.levels not used: [Errno 2] No such file or directory: "
            f"'{path}.levels'"]

    def test_unwritable_levels_file_left_out(self, tmp_path, monkeypatch, sir_example):
        # a directory in its place: the CSV is written, the levels file is
        # not, and the CSV is parsed
        net, params, state = sir_example
        traj = simulate(state, params, net, 4)
        (tmp_path / "trajectory.csv.levels").mkdir()
        dynamics._write_trajectory(tmp_path / "trajectory.csv", traj)
        assert (tmp_path / "trajectory.csv").read_text() == trajectory_to_csv(traj)
        got, parses = _reads(monkeypatch, tmp_path / "trajectory.csv")
        assert parses == 1
        _same_bits(got, traj)


# ---------------------------------------------------------------------------
# The edge-table sidecar beside a network file.

def _edges_scenario(tmp: Path, n: int, layers: int) -> Path:
    """A SEIR scenario of ``n`` nodes on net.csv with ``layers`` transport
    layers layer0.csv, ...; the network files are left to the caller."""
    sc = {"model": "seir", "n": n, "network": "net.csv", "steps": 3,
          "layers": [f"layer{k}.csv" for k in range(layers)],
          "params": {"beta_e": 0.1, "beta": 0.1, "sigma": 0.4, "gamma": 0.3,
                     "layer_beta_e": [0.05] * layers, "layer_beta": [0.05] * layers},
          "initial": {"seeds": {"p": {"0": 0.01}}}}
    (tmp / "scenario.json").write_text(json.dumps(sc))
    return tmp / "scenario.json"


def _same_network(a: Network, b: Network) -> None:
    mats = [(a.adjacency, b.adjacency)] + list(zip(a.layers, b.layers, strict=True))
    for x, y in mats:
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    for x, y in zip(a.edges, b.edges, strict=True):
        for u, v in zip(x, y, strict=True):  # rows, columns, weights, starts
            assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


class TestEdgesFile:
    """A network file's sidecar: a hit gives the parse's network bit for bit,
    whatever the scenario's n, and every other case parses."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2), st.data())
    def test_hit_is_the_parse_bit_for_bit(self, n, layers, data):
        # records in any order, with comments, blank lines and weights of
        # every magnitude; the cached load must never parse
        weights = st.floats(min_value=5e-324, max_value=1e300)
        texts = []
        for _ in range(1 + layers):
            cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       unique=True, max_size=n * n))
            texts.append("# i,j,w\n\n" + "".join(f"{i},{j},{data.draw(weights)!r}\n"
                                                 for i, j in cells))
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            for name, text in zip(["net.csv"] + [f"layer{k}.csv" for k in range(layers)], texts):
                (d / name).write_text(text)
            sc = _edges_scenario(d, n, layers)
            parsed = cli.load_scenario(sc)["net"]
            assert (d / "net.csv.edges").is_file()
            with mock.patch.object(graph, "load_network", side_effect=AssertionError):
                cached = cli.load_scenario(sc)["net"]
        _same_network(cached, parsed)
        want = [load_network(text, n) for text in texts]
        _same_network(parsed, graph._loaded(n, tuple(x.edges[0] for x in want)))

    def test_file_written_under_a_larger_n_refused_as_parsed(self, tmp_path, caplog):
        path = tmp_path / "net.csv"
        path.write_text("0,1,0.5\n6,7,1.5\n1,0,2.0\n")
        big = graph._read_network(path, 8)
        sidecar = (tmp_path / "net.csv.edges").read_bytes()
        with pytest.raises(graph.NetworkError) as parsed:
            load_network(path.read_text(), 5)
        assert str(parsed.value) == "line 2: index out of range for n=5"
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            with pytest.raises(graph.NetworkError) as cached:
                graph._read_network(path, 5)
        assert str(cached.value) == str(parsed.value)
        assert "out of range for n=5" in caplog.records[0].getMessage()
        # left as it was, and still a hit for n = 8 and above
        assert (tmp_path / "net.csv.edges").read_bytes() == sidecar
        with mock.patch.object(graph, "load_network", side_effect=AssertionError):
            _same_network(graph._read_network(path, 8), big)
            assert graph._read_network(path, 9).adjacency[:8, :8].tobytes() == \
                big.adjacency.tobytes()

    @pytest.mark.parametrize("forged", ["out_of_order", "repeated", "zero_weight", "nan_weight",
                                        "negative_index", "float_payload"])
    def test_forged_payload_with_its_digest_is_a_miss(self, tmp_path, forged):
        # a payload whose digest was made for it passes the digest check;
        # the array checks still send it to the parser
        path = tmp_path / "net.csv"
        path.write_text("0,1,0.5\n1,2,1.5\n2,0,2.0\n")
        want = graph._read_network(path, 3)
        rec = np.load(io.BytesIO((tmp_path / "net.csv.edges").read_bytes()[32:]))
        if forged == "out_of_order":
            rec = rec[::-1]
        elif forged == "repeated":
            rec[1] = rec[0]
        elif forged == "zero_weight":
            rec["w"][2] = 0.0
        elif forged == "nan_weight":
            rec["w"][2] = math.nan
        elif forged == "negative_index":
            rec["j"][0] = -1
        else:
            rec = np.stack([rec["i"], rec["j"], rec["w"]]).astype(float)
        (tmp_path / "net.csv.edges").unlink()
        graph._write_sidecar(tmp_path / "net.csv.edges", path.read_bytes(), rec)
        parses = []
        parse = graph.load_network
        with mock.patch.object(graph, "load_network",
                               side_effect=lambda text, n: parses.append(1) or parse(text, n)):
            _same_network(graph._read_network(path, 3), want)
        assert parses == [1]

    def test_unwritable_directory_is_a_logged_miss(self, tmp_path, monkeypatch, caplog, capsys):
        # a directory that refuses new files: root ignores a chmod, so the
        # refusal is made by failing every os.open for writing in it, the
        # call under every file netepi writes
        d = tmp_path / "ro"
        d.mkdir()
        (d / "net.csv").write_text("".join(f"{i},{(i + 1) % 4},1.0\n" for i in range(4)))
        sc = _edges_scenario(d, 4, 0)
        os_open = os.open

        def refusing(file, flags, *args, **kwargs):
            if flags & (os.O_WRONLY | os.O_RDWR) and Path(file).parent == d:
                raise PermissionError(13, "Permission denied", str(file))
            return os_open(file, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing)
        out = tmp_path / "out"
        with caplog.at_level(logging.DEBUG, logger="netepi"):
            for command in ("simulate", "diagnose"):
                argv = [command, "--scenario", str(sc), "--out", str(out)]
                if command == "diagnose":
                    argv += ["--trajectory", str(out / "trajectory.csv")]
                assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert not (d / "net.csv.edges").exists()
        logged = [(r.levelno, " not used: " in r.getMessage(), " not written: " in r.getMessage())
                  for r in caplog.records if "net.csv.edges" in r.getMessage()]
        assert logged == [(logging.DEBUG, True, False), (logging.DEBUG, False, True)] * 2
