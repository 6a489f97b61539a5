"""Acceptance gate: one test per release criterion, tolerances pinned inline.

Each test prints a single ``[ACCEPTANCE] criterion N: PASS/FAIL`` line. The
infection-norm sub-check of criterion 2 is its own test: after the step k_bar
at which the dominant eigenvalue lambda of the spreading matrix M_k drops
below one, the infection decays at rate lambda_{k_bar} in the norm weighted by
the left Perron vector of M_{k_bar}. The bound rests on s being nonincreasing,
so that M_k <= M_{k_bar} entrywise for every k >= k_bar (see that test's
comment). The variance-scaled sub-check of criterion 4 is kept red on purpose
(see its comment).
"""

import numpy as np
import pytest

from netepi import (EpidemicState, Network, SeirParams, SirParams,
                    build_spreading_matrix, convergence_diagnostics,
                    dominant_eigenvalue, simulate, step)
from netepi.dynamics import Trajectory
from netepi.estimation import (NoiseModel, apply_noise, build_regression,
                               check_identifiability, estimate_pipeline,
                               solve_least_squares)

from conftest import (charpoly_spectral_radius, fabricated_seir,
                      random_irreducible_network, random_layered_seir,
                      random_seir_params, random_simplex_state,
                      random_sir_params, seeded_state, seir_step_oracle,
                      sir_step_oracle)


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {status}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


def _simulate_until_quiet(initial, params, net, horizon, chunk=250,
                          threshold=1e-8):
    """Simulate in chunks up to ``horizon`` steps, stopping once the maximum
    infectious/exposed level drops below ``threshold``. Returns the full
    concatenated trajectory."""
    comps = ("s", "p", "r") if initial.e is None else ("s", "e", "p", "r")
    chunks = {c: [getattr(initial, c)[None]] for c in comps}
    cur = initial
    done = 0
    while done < horizon:
        k = min(chunk, horizon - done)
        traj = simulate(cur, params, net, k, strict=False)
        for c in comps:
            chunks[c].append(getattr(traj, c)[1:])
        cur = traj.states[-1]
        done += k
        peak = cur.p.max() if cur.e is None else max(cur.e.max(), cur.p.max())
        if peak < threshold:
            break
    return Trajectory(h=params.h, **{c: np.concatenate(v) for c, v in chunks.items()})


# ---------------------------------------------------------------------------
# Criterion 1: simplex preservation over randomized long runs.

def test_criterion_1_simplex_preservation():
    rng = np.random.default_rng(101)
    worst_sum = 0.0
    worst_entry = (0.0, 1.0)
    for run in range(1000):
        kind = "sir" if run % 2 == 0 else "seir"
        n = int(rng.integers(2, 51))
        net = random_irreducible_network(rng, n)
        params = (random_sir_params(rng, net) if kind == "sir"
                  else random_seir_params(rng, net))
        initial = random_simplex_state(rng, n, kind)
        traj = simulate(initial, params, net, 500, strict=False)
        comps = ("s", "p", "r") if kind == "sir" else ("s", "e", "p", "r")
        stacked = np.stack([
            np.stack([getattr(st, c) for c in comps]) for st in traj.states])
        totals = stacked.sum(axis=1)
        worst_sum = max(worst_sum, float(np.abs(totals - 1.0).max()))
        worst_entry = (min(worst_entry[0], float(stacked.min())),
                       max(worst_entry[1], float(stacked.max())))
    ok = (worst_sum <= 1e-9
          and worst_entry[0] >= 0.0 and worst_entry[1] <= 1.0)
    _report(1, ok, f"max |sum-1| = {worst_sum:.2e}, "
                   f"entry range [{worst_entry[0]:.2e}, {worst_entry[1]:.6f}]")


# ---------------------------------------------------------------------------
# Criterion 2: eigenvalue convergence diagnostics on randomized scenarios.

def _criterion_2_scenarios(kind, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 9))
        net = random_irreducible_network(rng, n)
        params = (random_sir_params(rng, net) if kind == "sir"
                  else random_seir_params(rng, net))
        if kind == "sir":
            initial = seeded_state(n, kind, p_seeds=[(0, 0.05)])
        else:
            initial = seeded_state(n, kind, e_seeds=[(0, 0.05)],
                                   p_seeds=[(1, 0.02)])
        out.append((net, params, initial))
    return out


def _check_criterion_2(kind, count, seed):
    failures = []
    for idx, (net, params, initial) in enumerate(
            _criterion_2_scenarios(kind, count, seed)):
        traj = _simulate_until_quiet(initial, params, net, 5000)
        s_seq = np.stack([st.s for st in traj.states])
        if np.any(np.diff(s_seq, axis=0) > 1e-12):
            failures.append(f"{idx}: s not monotone")
            continue
        last = traj.states[-1]
        peak = last.p.max() if kind == "sir" else max(last.e.max(),
                                                      last.p.max())
        if peak >= 1e-8 or len(traj) > 5001:
            failures.append(f"{idx}: no extinction before 5000")
            continue
        report = convergence_diagnostics(traj, params, net)
        lam = report.lambda_seq
        if np.any(np.diff(lam) > 1e-10):
            failures.append(f"{idx}: lambda not nonincreasing")
        if report.k_bar is None:
            failures.append(f"{idx}: no subcritical step found")
    return failures


def test_criterion_2_seir_convergence():
    failures = _check_criterion_2("seir", 100, 211)
    _report(2, not failures, "; ".join(failures) or "100 SEIR scenarios")


def test_criterion_2_sir_convergence():
    failures = _check_criterion_2("sir", 100, 223)
    _report(2, not failures, "; ".join(failures) or "100 SIR scenarios")


def test_criterion_2_infection_norm_ratio_bound():
    # Geometric decay of the infection after the eigenvalue crosses one,
    # checked in the norm where it holds: the weighted sum w^T z^k of the
    # stacked state z = (e, p), with w the nonnegative left Perron vector of
    # M_{k_bar} (w^T M_{k_bar} = lambda w^T, lambda = lambda_{k_bar}).
    # Since s is nonincreasing, M_k <= M_{k_bar} entrywise for k >= k_bar;
    # with z^{k+1} = M_k z^k and z >= 0 this gives
    #     w^T z^{k+1} <= w^T M_{k_bar} z^k = lambda w^T z^k,
    # with equality at k = k_bar, which pins lambda and w from both sides.
    # The Euclidean ratio ||p^{k+1}|| / ||p^k|| is not bounded by lambda_k:
    # M_k acts on (e, p), not on p alone, and even on z the Euclidean ratio
    # can reach ||M_k||_2 >= rho(M_k).
    violations = 0
    checked = 0
    worst = 0.0
    for net, params, initial in _criterion_2_scenarios("seir", 100, 211):
        traj = _simulate_until_quiet(initial, params, net, 5000)
        report = convergence_diagnostics(traj, params, net)
        k_bar = report.k_bar
        if k_bar is None:
            continue
        checked += 1
        lam = report.lambda_seq[k_bar]
        _, w = dominant_eigenvalue(
            build_spreading_matrix(traj.states[k_bar], params, net).m)
        weighted = np.array([w @ np.concatenate([st.e, st.p])
                             for st in traj.states])
        excesses = [abs(weighted[k_bar + 1] - lam * weighted[k_bar])
                    / weighted[k_bar]]
        excesses += [weighted[k + 1] / weighted[k] - lam
                     for k in range(k_bar + 1, len(traj) - 1)
                     if weighted[k] > 0.0]
        excess = max(excesses)
        worst = max(worst, excess)
        if excess > 1e-6:
            violations += 1
    _report(2, violations == 0,
            f"weighted-norm bound violated in {violations}/{checked} "
            f"scenarios, worst excess {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: exact parameter recovery from noiseless snapshots.

def _ring_network(n, offsets=(1,)):
    a = np.zeros((n, n))
    for i in range(n):
        for d in offsets:
            a[i, (i + d) % n] = 1.0
            a[i, (i - d) % n] = 1.0
    return Network(a)


def test_criterion_3_exact_recovery():
    net = _ring_network(20)
    truth = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
    initial = seeded_state(20, "seir", e_seeds=[(1, 0.02), (2, 0.03)],
                           p_seeds=[(1, 0.01)])
    traj = simulate(initial, truth, net, 2)
    report = estimate_pipeline(traj, net)
    seir_ok = (report.verdict.identifiable
               and report.estimates == pytest.approx([0.04, 0.06, 0.4, 0.3],
                                                     rel=1e-8))

    sir_truth = SirParams(beta=0.06, gamma=0.3, h=1.0)
    sir_initial = seeded_state(20, "sir", p_seeds=[(1, 0.01)])
    sir_traj = simulate(sir_initial, sir_truth, net, 1)
    sir_report = estimate_pipeline(sir_traj, net)
    sir_ok = (sir_report.verdict.identifiable
              and sir_report.estimates == pytest.approx([0.06, 0.3],
                                                        rel=1e-8))
    _report(3, seir_ok and sir_ok,
            f"seir={report.estimates.tolist()}, "
            f"sir={sir_report.estimates.tolist()}")


# ---------------------------------------------------------------------------
# Criterion 4: recovery under the measurement-noise model, averaged over 20
# noise seeds. The noise second parameter slope*x + floor can be read as a
# variance or as a standard deviation; both readings are exercised below on
# the same scenario: a dense 50-node network (row sums just under the
# well-posedness bound) with a small localized seeding, measured from k=14.

def _noisy_recovery(param_is_std):
    a = np.full((50, 50), 0.194)
    np.fill_diagonal(a, 0.0)
    net = Network(a)
    truth = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
    initial = seeded_state(50, "seir", e_seeds=[(1, 0.02), (2, 0.03)],
                           p_seeds=[(1, 0.01)])
    traj = simulate(initial, truth, net, 32)

    estimates = []
    maes = []
    for seed in range(20):
        measured = apply_noise(traj, NoiseModel(seed=seed, start_k=14,
                                                param_is_std=param_is_std))
        report = estimate_pipeline(measured, net)
        assert report.verdict.identifiable
        estimates.append(report.estimates)
        maes.append(report.trajectory_errors)
    mean_est = np.mean(estimates, axis=0)
    rel_err = np.abs(mean_est - [0.04, 0.06, 0.4, 0.3]) / np.array(
        [0.04, 0.06, 0.4, 0.3])
    mean_mae = {c: float(np.mean([m[c] for m in maes]))
                for c in ("s", "e", "p", "r")}
    return mean_est, float(rel_err.max()), max(mean_mae.values())


def test_criterion_4_noisy_recovery_std_scaled():
    mean_est, rel, mae = _noisy_recovery(param_is_std=True)
    ok = rel < 0.05 and mae < 0.05
    _report(4, ok, f"std-scaled noise: mean estimates {mean_est.tolist()}, "
                   f"max rel err {rel:.4f}, max MAE {mae:.4f}")


def test_criterion_4_noisy_recovery_variance_scaled():
    # With slope*x + floor read as a variance, the per-measurement noise is
    # large enough that two systematic effects put both thresholds out of
    # reach for any 50-node scenario: (a) differenced noisy states correlate
    # with the noisy regressors, biasing the drain-rate estimates upward by
    # ~5-6% at the amplitude ceiling the dynamics allow, and (b) the
    # recomputed susceptible column of the measured trajectory inherits the
    # removed state's noise, whose mean absolute value alone exceeds 0.05
    # once the outbreak is large enough to support the 5% parameter check.
    # This sub-check is therefore expected to fail; the standard-deviation
    # reading above reproduces the reported recovery quality.
    mean_est, rel, mae = _noisy_recovery(param_is_std=False)
    ok = rel < 0.05 and mae < 0.05
    _report(4, ok, f"variance-scaled noise: mean estimates "
                   f"{mean_est.tolist()}, max rel err {rel:.4f}, "
                   f"max MAE {mae:.4f}")


# ---------------------------------------------------------------------------
# Criterion 5: identifiability verdict agrees with numerical rank.

def test_criterion_5_identifiability_iff():
    net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
    checks = []

    # degenerate: infectious levels identically zero
    traj = fabricated_seir(e=[[0.1, 0.0], [0.06, 0.0], [0.036, 0.0]],
                           p=[np.zeros(2)] * 3, r=[np.zeros(2)] * 3)
    verdict = check_identifiability(traj, net)
    rep = solve_least_squares(build_regression(traj, net))
    checks.append(("p==0", not verdict.identifiable and rep.rank < 4))

    # degenerate: exposed levels identically zero
    traj = fabricated_seir(e=[np.zeros(2)] * 3,
                           p=[[0.1, 0.0], [0.07, 0.0], [0.049, 0.0]],
                           r=[[0.0, 0.0], [0.03, 0.0], [0.051, 0.0]])
    verdict = check_identifiability(traj, net)
    rep = solve_least_squares(build_regression(traj, net))
    checks.append(("e==0", not verdict.identifiable and rep.rank < 4))

    # degenerate: one transition only, bilinear condition unsatisfiable
    truth = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3, h=1.0)
    initial = EpidemicState(s=np.array([0.95, 1.0]), e=np.array([0.02, 0.0]),
                            p=np.array([0.03, 0.0]), r=np.zeros(2))
    traj = simulate(initial, truth, net, 1)
    verdict = check_identifiability(traj, net)
    rep = solve_least_squares(build_regression(traj, net))
    checks.append(("single-step", not verdict.identifiable and rep.rank < 4))

    # degenerate: per-node estimation needs more than one transition
    verdict = check_identifiability(traj, net, node=0)
    rep = solve_least_squares(build_regression(traj, net, node=0))
    checks.append(("per-node T=1", not verdict.identifiable and rep.rank < 4))

    # degenerate SIR: infection present but no susceptible exposure anywhere
    sir_traj = Trajectory(s=np.zeros((2, 2)), p=[[0.6, 0.5], [0.48, 0.4]],
                          r=[[0.4, 0.5], [0.52, 0.6]], h=1.0)
    verdict = check_identifiability(sir_traj, net)
    rep = solve_least_squares(build_regression(sir_traj, net))
    checks.append(("sir no exposure", not verdict.identifiable
                   and rep.rank < 2))

    # witnessed positive: two-node two-step dataset
    traj2 = simulate(initial, truth, net, 2)
    verdict = check_identifiability(traj2, net)
    rep = solve_least_squares(build_regression(traj2, net))
    checks.append(("seir witness", verdict.identifiable and rep.rank == 4))

    sir_truth = SirParams(beta=0.5, gamma=0.2, h=0.1)
    sir_initial = EpidemicState(s=np.array([0.9, 1.0]),
                                p=np.array([0.1, 0.0]), r=np.zeros(2))
    sir_pos = simulate(sir_initial, sir_truth, net, 1)
    verdict = check_identifiability(sir_pos, net)
    rep = solve_least_squares(build_regression(sir_pos, net))
    checks.append(("sir witness", verdict.identifiable and rep.rank == 2))

    failed = [name for name, ok in checks if not ok]
    _report(5, not failed, "; ".join(failed) or f"{len(checks)} cases")


# ---------------------------------------------------------------------------
# Criterion 6: independent-oracle equivalence.

def _oracle_deviations(state, params, net):
    """Largest deviation of the production step from the per-node oracle, and
    of the spreading matrix's (e, p) propagation from the step (SEIR only)."""
    if state.e is None:
        a, comps = sir_step_oracle(state, params, net), ("s", "p", "r")
    else:
        a, comps = seir_step_oracle(state, params, net), ("s", "e", "p", "r")
    b = step(state, params, net)
    dev_step = max(float(np.abs(getattr(a, c) - getattr(b, c)).max())
                   for c in comps)
    dev_prop = 0.0
    if state.e is not None:
        m = build_spreading_matrix(state, params, net).m
        z_next = m @ np.concatenate([state.e, state.p])
        dev_prop = float(np.abs(z_next - np.concatenate([b.e, b.p])).max())
    return dev_step, dev_prop


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(601)
    worst_step = 0.0
    worst_prop = 0.0
    for trial in range(10000):
        kind = "sir" if trial % 2 == 0 else "seir"
        n = int(rng.integers(2, 9))
        net = random_irreducible_network(rng, n)
        state = random_simplex_state(rng, n, kind)
        params = (random_sir_params(rng, net) if kind == "sir"
                  else random_seir_params(rng, net))
        dev_step, dev_prop = _oracle_deviations(state, params, net)
        worst_step = max(worst_step, dev_step)
        worst_prop = max(worst_prop, dev_prop)

    worst_eig = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        m = rng.random((n, n))
        val, _ = dominant_eigenvalue(m)
        worst_eig = max(worst_eig, abs(val - charpoly_spectral_radius(m)))

    # transport layers: drawn after the cases above, which keep their draws
    for _ in range(200):
        n = int(rng.integers(2, 9))
        net, params = random_layered_seir(rng, n)
        dev_step, dev_prop = _oracle_deviations(
            random_simplex_state(rng, n, "seir"), params, net)
        worst_step = max(worst_step, dev_step)
        worst_prop = max(worst_prop, dev_prop)

    ok = worst_step <= 1e-13 and worst_prop <= 1e-13 and worst_eig <= 1e-8
    _report(6, ok, f"step dev {worst_step:.2e}, matrix-form dev "
                   f"{worst_prop:.2e}, eigenvalue dev {worst_eig:.2e}")


# ---------------------------------------------------------------------------
# Criterion 7: hand-derived goldens.

def test_criterion_7_hand_goldens():
    net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
    checks = []

    sir_params = SirParams(beta=0.5, gamma=0.2, h=0.1)
    sir_state = EpidemicState(s=np.array([0.9, 1.0]), p=np.array([0.1, 0.0]),
                              r=np.zeros(2))
    nxt = step(sir_state, sir_params, net)
    checks.append(("sir step",
                   nxt.s == pytest.approx([0.9, 0.995], abs=1e-15)
                   and nxt.p == pytest.approx([0.098, 0.005], abs=1e-15)
                   and nxt.r == pytest.approx([0.002, 0.0], abs=1e-15)))

    seir_params = SeirParams(beta_e=0.04, beta=0.06, sigma=0.4, gamma=0.3,
                             h=1.0)
    seir_state = EpidemicState(s=np.array([0.95, 1.0]),
                               e=np.array([0.02, 0.0]),
                               p=np.array([0.03, 0.0]), r=np.zeros(2))
    nxt = step(seir_state, seir_params, net)
    checks.append(("seir step",
                   nxt.s == pytest.approx([0.95, 0.9974], abs=1e-15)
                   and nxt.e == pytest.approx([0.012, 0.0026], abs=1e-15)
                   and nxt.p == pytest.approx([0.029, 0.0], abs=1e-15)
                   and nxt.r == pytest.approx([0.009, 0.0], abs=1e-15)))

    traj = simulate(sir_state, sir_params, net, 1)
    sys = build_regression(traj, net)
    # rows: phi_0, phi_1, gamma_0, gamma_1 with g = s * (A p), h folded in
    q_expected = np.array([[0.1 * 0.9 * 0.0, -0.1 * 0.1],
                           [0.1 * 1.0 * 0.1, -0.1 * 0.0],
                           [0.0, 0.1 * 0.1],
                           [0.0, 0.1 * 0.0]])
    rep = solve_least_squares(sys)
    checks.append(("sir regression",
                   sys.q == pytest.approx(q_expected, abs=1e-15)
                   and rep.estimates == pytest.approx([0.5, 0.2], abs=1e-12)))

    failed = [name for name, ok in checks if not ok]
    _report(7, not failed, "; ".join(failed) or "all goldens exact")
