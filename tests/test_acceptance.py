"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

Each check prints one pass/fail line (bypassing capture) so a suite run shows
the acceptance status at a glance:

    pytest tests/test_acceptance.py
"""

import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from reference import arm_model, kinetic_energy, rk4_step, task_space_terms
from safefl.clbf import HalfPlaneUnsafe, WeakCLBF, check_c_omega_subset, verify_weak_clbf
from safefl.cli import main, write_trajectory_csv
from safefl.manipulator import (
    ManipulatorParams,
    ManipulatorPlant,
    _axis,
    _axis_law,
    forward_kinematics,
    jacobian,
)
from safefl.numerics import solve_lyapunov_2x2
from safefl.scenario import run_case


def _emit(num: int, label: str, status: str) -> None:
    print(
        f"[acceptance] criterion {num:02d} {status}  {label}",
        file=sys.__stdout__,
        flush=True,
    )


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        _emit(num, label, "FAIL")
        raise
    _emit(num, label, "PASS")


def best_of_three(fn) -> float:
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


@pytest.fixture(scope="module")
def scenario_runs(default_bundle):
    start = time.perf_counter()
    runs = {k: run_case(default_bundle, k) for k in (0.0, 0.2, 0.5, 1.5)}
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_01_lyapunov_solver():
    A = np.array([[0.0, 1.0], [-1.5, -1.0]])
    Q = np.array([[1.0, -0.9], [-0.9, 1.0]])
    with criterion(1, "closed-form Lyapunov solution with positive coupling"):
        P = solve_lyapunov_2x2(A, Q)
        expected = np.array(
            [[0.9 + 1.0 / 3.0 + 1.25, 1.0 / 3.0], [1.0 / 3.0, 5.0 / 6.0]]
        )
        assert np.abs(P - expected).max() < 1e-9
        assert P[0, 1] > 0.0
        assert best_of_three(lambda: solve_lyapunov_2x2(A, Q)) < 1e-3


def test_criterion_02_parameter_bounds(default_bundle):
    sub = default_bundle.subsystems[0]
    with criterion(2, "selection bounds admit the published parameter row"):
        from safefl.clbf import parameter_bounds

        start = time.perf_counter()
        unsafe = HalfPlaneUnsafe(sub.certificate.shape.d)
        bounds = parameter_bounds(sub.clf, sub.region, unsafe, v2=2.0)
        l_max = bounds.l_max
        delta_min = bounds.delta_min(4.0)
        theta_min = bounds.theta_min(4.0, 0.28)
        elapsed = time.perf_counter() - start
        assert l_max == pytest.approx(4.0, abs=1e-12)
        assert delta_min == pytest.approx(0.266, abs=1e-3)
        assert theta_min == pytest.approx(39.8, abs=0.1)
        # published row: l = 4, delta = 0.28, theta = 50
        assert 0.0 < 4.0 <= l_max
        assert 0.28 > delta_min
        assert 50.0 > theta_min
        assert elapsed < 1e-3


def test_criterion_03_certificate_verification(default_bundle):
    label = "certificate conditions verified on both axes; mutations rejected"
    with criterion(3, label):
        start = time.perf_counter()
        reports = []
        for sub in default_bundle.subsystems:
            report = verify_weak_clbf(sub.certificate, sub.region, grid_resolution=400)
            reports.append((sub, report))
            assert report.positive_on_unsafe.passed
            assert report.line_decrease.passed
            assert report.admissible_nonempty.passed
            assert report.stationary_unique.passed

        sub0, _ = reports[0]
        cert = sub0.certificate
        unscaled = WeakCLBF(
            clf=cert.clf, shape=cert.shape, theta=0.0,
            k=cert.bounds.v2, bounds=cert.bounds,
        )
        broken = verify_weak_clbf(unscaled, sub0.region, 400)
        assert not broken.positive_on_unsafe.passed
        # the minimizer of V on the unsafe set, exactly
        d = cert.shape.d
        expected_witness = (d, -cert.clf.p12 / cert.clf.p22 * d)
        assert broken.positive_on_unsafe.witness == expected_witness

        negated = replace(cert, k=-1.0)
        broken2 = verify_weak_clbf(negated, sub0.region, 400)
        assert not broken2.admissible_nonempty.passed
        # the minimum sits at the origin, where W = -k = +1
        assert broken2.admissible_nonempty.margin == 1.0
        assert broken2.admissible_nonempty.witness == (0.0, 0.0)
        assert time.perf_counter() - start < 10.0


def test_criterion_04_margin_set_containment(default_bundle):
    with criterion(4, "certified margin set contained in the admissible set"):
        start = time.perf_counter()
        for sub in default_bundle.subsystems:
            cert = sub.certificate
            result = check_c_omega_subset(cert, sub.region)
            assert result.passed and result.margin <= 1e-9
            x1 = cert.shape.d + cert.shape.delta
            disc = 2.0 * cert.clf.p22 * cert.bounds.v2 - cert.clf.det * x1 * x1
            x2 = (-cert.clf.p12 * x1 + math.sqrt(disc)) / cert.clf.p22
            assert abs(cert.value_and_grad(x1, x2)[0]) < 1e-9
        assert time.perf_counter() - start < 2.0


def test_criterion_05_universal_formula_identity(default_bundle):
    with criterion(5, "universal-formula decrease identity of the law's safety input"):
        sub = default_bundle.subsystems[0]
        cert = sub.certificate
        # sign 1, goal 0 and k_safe 1: the law's safety input is kappa(a, b)
        # at x = (p, v)
        axis = _axis(1.0, 0.0, sub.kp, sub.kd, 1.0, cert)
        rng = np.random.default_rng(20240805)
        x1 = rng.uniform(sub.region.x1_min, sub.region.x1_max, size=10_000).tolist()
        x2 = rng.uniform(sub.region.x2_min, sub.region.x2_max, size=10_000).tolist()
        start = time.perf_counter()
        kappa = [_axis_law(axis, p, v, False)[1] for p, v in zip(x1, x2)]
        elapsed = time.perf_counter() - start
        worst = 0.0
        for p, v, k in zip(x1, x2, kappa):
            _, g1, b = cert.value_and_grad(p, v)
            a = g1 * v + b * (-sub.kp * p - sub.kd * v)
            target = -math.hypot(a, b * b)
            worst = max(worst, abs(a + b * k - target) / abs(target))
        assert worst < 1e-9
        # where b = dW/dx2 vanishes (the origin, the line x2 = -c x1) the
        # input is zero
        c = cert.line_slope
        for p in (0.0, -0.8, 0.4):
            assert _axis_law(axis, p, -c * p, False)[1] == 0.0
        assert elapsed < 0.1


def test_criterion_06_manipulator_model():
    params = ManipulatorParams(m1=0.8, m2=0.8, L1=1.0, L2=1.0, gravity=9.81)
    with criterion(6, "arm kinematics, task-space reassembly, energy budget"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240806)
        h = 1e-6
        checked = 0
        while checked < 1000:
            q = rng.uniform(-math.pi, math.pi, size=2)
            J = jacobian(params, q)
            for j in range(2):
                dq = np.zeros(2)
                dq[j] = h
                fd = (
                    forward_kinematics(params, q + dq)
                    - forward_kinematics(params, q - dq)
                ) / (2 * h)
                assert np.abs(J[:, j] - fd).max() < 1e-6
            if abs(math.sin(q[1])) > 0.05:
                qd = rng.uniform(-2, 2, size=2)
                m_p, _, _ = task_space_terms(params, q, qd)
                assert np.abs(J.T @ m_p @ J - arm_model(params, q, qd)[3]).max() < 1e-9
            checked += 1

        free = ManipulatorParams(m1=0.8, m2=0.8, L1=1.0, L2=1.0, gravity=0.0)
        plant = ManipulatorPlant(free)
        torque_free = lambda t, x: plant.derivative(t, x, (0.0, 0.0))
        x = (0.3, 0.8, 0.4, -0.3)
        energy = [kinetic_energy(free, x[:2], x[2:])]
        for step in range(10000):
            x = rk4_step(torque_free, step * 1e-3, x, 1e-3)
            energy.append(kinetic_energy(free, x[:2], x[2:]))
        energy = np.array(energy)
        assert np.abs(energy - energy[0]).max() / energy[0] < 1e-6
        assert time.perf_counter() - start < 10.0


def test_criterion_07_reach_avoid_scenario(default_bundle, scenario_runs):
    runs, elapsed = scenario_runs
    goal = default_bundle.config.goal
    with criterion(7, "safe gains avoid the keep-out bands and reach the goal"):
        for k_safe in (0.2, 0.5, 1.5):
            traj = runs[k_safe]
            assert not traj.failed
            assert np.all(traj.pos[:, 0] < 1.3)
            assert np.all(traj.pos[:, 1] > -0.3)
            assert np.linalg.norm(traj.pos[-1] - goal) < 0.01
        baseline = runs[0.0]
        violated = np.any(baseline.pos[:, 0] >= 1.3) or np.any(
            baseline.pos[:, 1] <= -0.3
        )
        assert violated
        assert elapsed < 10.0


def test_criterion_08_certificate_forward_invariance(scenario_runs, tmp_path):
    runs, _ = scenario_runs
    with criterion(8, "certificates never recross zero along safe runs"):
        start = time.perf_counter()
        for k_safe in (0.2, 0.5, 1.5):
            path = tmp_path / f"run_{k_safe:g}.csv"
            write_trajectory_csv(runs[k_safe], path)
            table = np.genfromtxt(path, delimiter=",", names=True)
            for column in ("W1", "W2"):
                w = table[column]
                assert w[0] <= 0.0
                crossed = (w[:-1] <= 0.0) & (w[1:] > 0.0)
                assert not np.any(crossed)
        assert time.perf_counter() - start < 1.0


def test_criterion_09_safety_force_transient(scenario_runs):
    runs, _ = scenario_runs
    with criterion(9, "safety force acts only in the initial transient"):
        start = time.perf_counter()
        for k_safe in (0.2, 0.5, 1.5):
            traj = runs[k_safe]
            phi_norm = np.linalg.norm(traj.force - traj.force_safe, axis=1)
            safe_norm = np.linalg.norm(traj.force_safe, axis=1)
            horizon = traj.t[-1]
            active = traj.t[safe_norm >= 0.10 * phi_norm]
            if active.size:
                assert active.max() <= 0.5 * horizon
            late = traj.t >= 0.5 * horizon
            assert safe_norm[late].max() < 0.01 * safe_norm.max()
        assert time.perf_counter() - start < 1.0


def test_criterion_10_reproducibility(tmp_path, monkeypatch):
    with criterion(10, "repeated scenario reproduction is byte-identical"):
        start = time.perf_counter()
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_one = tmp_path / "one_cpu"
        assert main(["reproduce-paper", "--out", str(out_a)]) == 0
        assert main(["reproduce-paper", "--out", str(out_b)]) == 0
        # the runs are forked children, one per usable CPU; one CPU runs them
        # one at a time and gives the same bytes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["reproduce-paper", "--out", str(out_one)]) == 0
        names = ["baseline.csv", "ksafe_0.2.csv", "ksafe_0.5.csv", "ksafe_1.5.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in names + ["summary.json", "trajectories.svg", "input_norms.svg"]:
            assert (out_one / name).read_bytes() == (out_a / name).read_bytes()
        assert time.perf_counter() - start < 20.0
