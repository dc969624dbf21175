"""Independent references the benchmark checks the program's outputs against.

Nothing here imports safefl. The certificate parameters, the closed-form
truth of the unsafe-set condition, the grid conditions and the closed-loop
arm are written again from their formulas, so a wrong output of the program
cannot also be the reference it is compared with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ONE_BELOW = float(np.nextafter(1.0, 0.0))
_EXP_CLAMP = 700.0

# Closed-loop comparisons: min margin and final state agree when
# |a - b| <= ATOL + RTOL * |b|. The program's CSVs carry 9 significant digits.
ATOL = 1e-6
RTOL = 1e-6


def close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= ATOL + RTOL * np.abs(b)))


# ---------------------------------------------------------------------------
# certificate parameters from a configuration dictionary


def lyapunov_2x2(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """P with A'P + PA = -Q, from the Kronecker form of the equation."""
    eye = np.eye(2)
    K = np.kron(A.T, eye) + np.kron(eye, A.T)
    P = np.linalg.solve(K, -Q.reshape(-1)).reshape(2, 2)
    return 0.5 * (P + P.T)


@dataclass(frozen=True)
class AxisCert:
    """One constrained task axis in canonical error coordinates, with its W."""

    axis: int
    sign: float
    goal: float
    kp: float
    kd: float
    p11: float
    p12: float
    p22: float
    d: float
    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    v1: float
    v2: float
    l: float
    delta: float
    theta: float
    k: float

    def sigma(self, x1):
        z = np.clip(self.l * (np.asarray(x1, dtype=float) - self.d - 0.5 * self.delta), -_EXP_CLAMP, _EXP_CLAMP)
        return np.minimum(1.0 / (1.0 + np.exp(z)), _ONE_BELOW)

    def V(self, x1, x2):
        return 0.5 * (self.p11 * x1 * x1 + 2.0 * self.p12 * x1 * x2 + self.p22 * x2 * x2)

    def W(self, x1, x2):
        return (1.0 + self.theta * self.sigma(x1)) * self.V(x1, x2) - self.k

    def grad(self, x1, x2):
        s = self.sigma(x1)
        scale = 1.0 + self.theta * s
        g1 = self.theta * self.V(x1, x2) * (-self.l * s * (1.0 - s)) + scale * (self.p11 * x1 + self.p12 * x2)
        return g1, scale * (self.p12 * x1 + self.p22 * x2)

    def unsafe_minimum(self) -> float:
        """Exact min of W over the unsafe part of the region: on x1 = d, W is a
        scaled quadratic in x2, minimal at the V minimizer clipped to the region."""
        x2 = min(max(-(self.p12 / self.p22) * self.d, self.x2_min), self.x2_max)
        return float(self.W(self.d, x2))


def sigma_endpoints(l: float, delta: float) -> tuple[float, float]:
    return 1.0 / (1.0 + math.exp(-0.5 * l * delta)), 1.0 / (1.0 + math.exp(0.5 * l * delta))


def delta_min(l: float, v1: float, v2: float) -> float:
    return (2.0 / l) * math.log(v2 / v1)


def theta_min(l: float, delta: float, v1: float, v2: float) -> float:
    s1, s2 = sigma_endpoints(l, delta)
    denom = s1 * v1 - s2 * v2
    return (v2 - v1) / denom if denom > 0.0 else math.inf


def axis_certs(cfg: dict) -> list[AxisCert]:
    """The certificate of every constrained axis, as the configuration defines it.

    Auto mode inflates the slope, margin and scaling bounds by the configured
    factors; explicit mode takes l, delta, theta (and k) as given.
    """
    goal = cfg["goal"]
    region = (cfg["region"]["p1"], cfg["region"]["p2"])
    speed = cfg["region"]["speed_limit"]
    kp, kd = cfg["gains"]["kp"], cfg["gains"]["kd"]
    Q = np.array(cfg["lyapunov_q"], dtype=float)
    clbf = cfg["clbf"]
    p0, v0 = cfg["initial"]["position"], cfg["initial"]["velocity"]
    out = []
    for idx, spec in enumerate(sorted(cfg["constraints"], key=lambda c: c["axis"])):
        axis = spec["axis"]
        sign = -1.0 if spec["side"] == "max" else 1.0
        d = sign * (spec["bound"] - goal[axis])
        lo, hi = sorted((sign * (region[axis][0] - goal[axis]), sign * (region[axis][1] - goal[axis])))
        P = lyapunov_2x2(np.array([[0.0, 1.0], [-kp[axis], -kd[axis]]]), Q)
        p11, p12, p22 = float(P[0, 0]), float(P[0, 1]), float(P[1, 1])
        v1 = (p11 * p22 - p12 * p12) * d * d / (2.0 * p22)
        v2 = (clbf.get("v2") or [None, None])[idx]
        if v2 is None:
            e0, ed0 = sign * (p0[axis] - goal[axis]), sign * v0[axis]
            v2 = max(0.5 * (p11 * e0 * e0 + 2.0 * p12 * e0 * ed0 + p22 * ed0 * ed0), 1.5 * v1)
        if clbf.get("mode", "auto") == "auto":
            if hi <= 0.0:
                raise ValueError("the reference covers regions with x1_max > 0 only")
            l = 2.0 / hi
            delta = clbf.get("delta_margin", 1.05) * delta_min(l, v1, v2)
            theta = clbf.get("theta_margin", 1.05) * theta_min(l, delta, v1, v2)
            k = None
        else:
            entry = clbf["params"][idx]
            l, delta, theta, k = entry["l"], entry["delta"], entry["theta"], entry.get("k")
        if k is None:
            k = (1.0 + theta * sigma_endpoints(l, delta)[1]) * v2
        out.append(
            AxisCert(
                axis=axis, sign=sign, goal=goal[axis], kp=kp[axis], kd=kd[axis],
                p11=p11, p12=p12, p22=p22, d=d, x1_min=lo, x1_max=hi,
                x2_min=-speed, x2_max=speed, v1=v1, v2=v2,
                l=l, delta=delta, theta=theta, k=k,
            )
        )
    return out


# ---------------------------------------------------------------------------
# certificate verdicts


def grid_verdicts(c: AxisCert, n: int, c_omega_n: int) -> dict:
    """Verdicts of the four sampled conditions, by the grid rules of the
    verifier: nodes of an n x n grid over the region, the line where dW/dx2
    vanishes sampled at n points, and the margin set on a c_omega_n grid.
    A margin set with no sample raises ValueError (the verifier raises
    EmptyCOmega there)."""
    a1 = np.linspace(c.x1_min, c.x1_max, n)
    a2 = np.linspace(c.x2_min, c.x2_max, n)
    X1, X2 = np.meshgrid(a1, a2, indexing="ij")
    Wg = c.W(X1, X2)
    eps = 1e-3 * math.hypot(c.x1_max - c.x1_min, c.x2_max - c.x2_min)

    slope = c.p12 / c.p22
    lo, hi = c.x1_min, c.x1_max
    if slope != 0.0:
        ends = (-c.x2_max / slope, -c.x2_min / slope)
        lo, hi = max(lo, min(ends)), min(hi, max(ends))
    x1 = np.linspace(lo, hi, n)
    x1 = x1[(x1 > c.d) & (np.abs(x1) * math.hypot(1.0, slope) >= eps)]
    x2 = -slope * x1
    g1, g2 = c.grad(x1, x2)
    lie = g1 * x2 + g2 * (-c.kp * x1 - c.kd * x2)

    G1, G2 = c.grad(X1, X2)
    level = (Wg <= 0.0) & (np.hypot(X1, X2) >= eps)

    b1 = np.linspace(c.x1_min, c.x1_max, c_omega_n)
    b2 = np.linspace(c.x2_min, c.x2_max, c_omega_n)
    Y1, Y2 = np.meshgrid(b1, b2, indexing="ij")
    omega = (c.V(Y1, Y2) <= c.v2) & (Y1 >= c.d + c.delta)
    return {
        "line_decrease": bool(x1.size == 0 or lie.max() < 0.0),
        "admissible_set_nonempty": bool(Wg.min() <= 0.0),
        "stationary_point_unique": bool(not level.any() or np.hypot(G1, G2)[level].min() > 0.0),
        "margin_set_contained": bool(c.W(Y1, Y2)[omega].max() <= 1e-9),
    }


# ---------------------------------------------------------------------------
# batched closed loop of the safe task-space controller on the two-link arm


def _closed_loop_field(m: dict, X: np.ndarray):
    """State derivative of every member under its safe controller, the
    per-axis margins, and the singular-Jacobian mask."""
    L1, L2, m1, m2, g = m["L1"], m["L2"], m["m1"], m["m2"], m["g"]
    q1, q2, w1, w2 = X
    s1, c1, s2, c2 = np.sin(q1), np.cos(q1), np.sin(q2), np.cos(q2)
    s12, c12 = np.sin(q1 + q2), np.cos(q1 + q2)
    j11, j12 = -L1 * s1 - L2 * s12, -L2 * s12
    j21, j22 = L1 * c1 + L2 * c12, L2 * c12
    det = j11 * j22 - j12 * j21
    singular = np.abs(det) <= 1e-4 * L1 * L2
    i11, i12, i21, i22 = j22 / det, -j12 / det, -j21 / det, j11 / det

    m11 = (m1 + m2) * L1 * L1 + m2 * L2 * L2 + 2.0 * m2 * L1 * L2 * c2
    m12 = m2 * L2 * L2 + m2 * L1 * L2 * c2
    m22 = m2 * L2 * L2
    h = m2 * L1 * L2 * s2
    cv1, cv2 = -h * (2.0 * w1 * w2 + w2 * w2), h * w1 * w1
    gv2 = m2 * g * L2 * c12
    gv1 = (m1 + m2) * L1 * g * c1 + gv2

    # task-space inertia Jinv' M Jinv, and its velocity and gravity terms
    a11, a12 = m11 * i11 + m12 * i21, m11 * i12 + m12 * i22
    a21, a22 = m12 * i11 + m22 * i21, m12 * i12 + m22 * i22
    mp11, mp12 = i11 * a11 + i21 * a21, i11 * a12 + i21 * a22
    mp21, mp22 = i12 * a11 + i22 * a21, i12 * a12 + i22 * a22
    w12 = w1 + w2
    jd11 = -L1 * c1 * w1 - L2 * c12 * w12
    jd12 = -L2 * c12 * w12
    jd21 = -L1 * s1 * w1 - L2 * s12 * w12
    jd22 = -L2 * s12 * w12
    u1, u2 = jd11 * w1 + jd12 * w2, jd21 * w1 + jd22 * w2
    cp1 = -(mp11 * u1 + mp12 * u2) + i11 * cv1 + i21 * cv2
    cp2 = -(mp21 * u1 + mp22 * u2) + i12 * cv1 + i22 * cv2
    gp1, gp2 = i11 * gv1 + i21 * gv2, i12 * gv1 + i22 * gv2

    pos = (L1 * c1 + L2 * c12, L1 * s1 + L2 * s12)
    vel = (j11 * w1 + j12 * w2, j21 * w1 + j22 * w2)
    acc, safe, margins = [], [], []
    for i, c in enumerate(m["certs"]):
        x1 = c["sign"] * (pos[i] - c["goal"])
        x2 = c["sign"] * vel[i]
        a = -c["kp"] * x1 - c["kd"] * x2
        s = np.minimum(1.0 / (1.0 + np.exp(np.clip(c["l"] * (x1 - c["center"]), -_EXP_CLAMP, _EXP_CLAMP))), _ONE_BELOW)
        scale = 1.0 + c["theta"] * s
        gv_1 = c["p11"] * x1 + c["p12"] * x2
        gv_2 = c["p12"] * x1 + c["p22"] * x2
        V = 0.5 * (gv_1 * x1 + gv_2 * x2)
        G1 = c["theta"] * V * (-c["l"] * s * (1.0 - s)) + scale * gv_1
        G2 = scale * gv_2
        lie_a = G1 * x2 + G2 * a
        dead = np.abs(G2) < 1e-12 * (1.0 + np.abs(lie_a))
        kappa = np.where(dead, 0.0, -(lie_a + np.hypot(lie_a, G2 * G2)) / np.where(dead, 1.0, G2))
        acc.append(c["sign"] * a)
        safe.append(c["sign"] * m["k_safe"] * kappa)
        margins.append(x1 - c["d"])
    fs1 = mp11 * safe[0] + mp12 * safe[1]
    fs2 = mp21 * safe[0] + mp22 * safe[1]
    f1 = mp11 * acc[0] + mp12 * acc[1] + cp1 + gp1 + fs1
    f2 = mp21 * acc[0] + mp22 * acc[1] + cp2 + gp2 + fs2
    tau1, tau2 = j11 * f1 + j21 * f2, j12 * f1 + j22 * f2
    r1, r2 = tau1 - cv1 - gv1, tau2 - cv2 - gv2
    det_m = m11 * m22 - m12 * m12
    deriv = np.array([w1, w2, (m22 * r1 - m12 * r2) / det_m, (m11 * r2 - m12 * r1) / det_m])
    return deriv, np.array(margins), singular


def _members(cfgs: list[dict], k_safe: list[float]) -> tuple[dict, np.ndarray]:
    """Per-member parameter arrays and initial joint states (elbow-up IK)."""
    arm = cfgs[0]["manipulator"]
    L1, L2 = arm["L1"], arm["L2"]
    certs = [axis_certs(cfg) for cfg in cfgs]
    stacked = []
    for i in range(len(certs[0])):
        col = [row[i] for row in certs]
        stacked.append(
            {
                "sign": np.array([c.sign for c in col]),
                "goal": np.array([c.goal for c in col]),
                "kp": np.array([c.kp for c in col]),
                "kd": np.array([c.kd for c in col]),
                "p11": np.array([c.p11 for c in col]),
                "p12": np.array([c.p12 for c in col]),
                "p22": np.array([c.p22 for c in col]),
                "d": np.array([c.d for c in col]),
                "l": np.array([c.l for c in col]),
                "center": np.array([c.d + 0.5 * c.delta for c in col]),
                "theta": np.array([c.theta for c in col]),
            }
        )
    model = {
        "L1": L1, "L2": L2, "m1": arm["m1"], "m2": arm["m2"], "g": arm.get("gravity", 9.81),
        "certs": stacked, "k_safe": np.asarray(k_safe, dtype=float),
    }
    x0 = []
    for cfg in cfgs:
        p, v = cfg["initial"]["position"], cfg["initial"]["velocity"]
        t2 = math.acos((p[0] ** 2 + p[1] ** 2 - L1 * L1 - L2 * L2) / (2.0 * L1 * L2))
        t1 = math.atan2(p[1], p[0]) - math.atan2(L2 * math.sin(t2), L1 + L2 * math.cos(t2))
        J = np.array(
            [
                [-L1 * math.sin(t1) - L2 * math.sin(t1 + t2), -L2 * math.sin(t1 + t2)],
                [L1 * math.cos(t1) + L2 * math.cos(t1 + t2), L2 * math.cos(t1 + t2)],
            ]
        )
        x0.append([t1, t2, *np.linalg.solve(J, v)])
    return model, np.array(x0).T


def closed_loop_outcomes(cfgs: list[dict], k_safe: list[float]) -> list[dict]:
    """Outcome, recorded min margin and final recorded state of every start,
    integrating all of them together with RK4 (controller at every stage) at
    the configurations' shared dt, horizon and record stride."""
    sim = cfgs[0]["simulation"]
    dt, stride = sim["dt"], sim["record_stride"]
    n_steps = math.ceil(sim["horizon"] / dt)
    if any(c["simulation"] != sim for c in cfgs):
        raise ValueError("batched starts must share their simulation settings")
    model, X = _members(cfgs, k_safe)
    alive = np.ones(X.shape[1], dtype=bool)
    min_margin = np.full(X.shape[1], np.inf)
    last_state = X.copy()
    with np.errstate(all="ignore"):
        for step in range(n_steps + 1):
            # a singular Jacobian at the recorded stage stops a start before
            # that record; at a later stage, or a non-finite value, after it
            k1, margins, singular = _closed_loop_field(model, X)
            alive &= ~singular
            if step % stride == 0 or step == n_steps:
                min_margin = np.where(alive, np.minimum(min_margin, margins.min(axis=0)), min_margin)
                last_state = np.where(alive, X, last_state)
            if step == n_steps:
                break
            k2, _, sing2 = _closed_loop_field(model, X + 0.5 * dt * k1)
            k3, _, sing3 = _closed_loop_field(model, X + 0.5 * dt * k2)
            k4, _, sing4 = _closed_loop_field(model, X + dt * k3)
            X_next = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            finite = np.isfinite(np.concatenate([k1, k2, k3, k4, X_next])).all(axis=0)
            alive &= ~(sing2 | sing3 | sing4) & finite
            X = np.where(alive, X_next, X)
    return [
        {
            "outcome": "aborted" if not alive[b] else "safe" if min_margin[b] > 0.0 else "violation",
            "min_margin": float(min_margin[b]),
            "final_state": last_state[:, b].tolist(),
        }
        for b in range(X.shape[1])
    ]


# ---------------------------------------------------------------------------
# trajectory CSVs


CSV_STRIDE = 25  # reference rows kept: every 25th, the last, and per-column sums of all


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def _sample_index(rows: int) -> np.ndarray:
    idx = np.arange(0, rows, CSV_STRIDE)
    return idx if idx[-1] == rows - 1 else np.append(idx, rows - 1)


def csv_reference(header: list[str], data: np.ndarray) -> dict:
    return {
        "columns": header,
        "rows": int(data.shape[0]),
        "sampled": data[_sample_index(data.shape[0])].tolist(),
        "col_sum": data.sum(axis=0).tolist(),
        "col_abs_sum": np.abs(data).sum(axis=0).tolist(),
    }


def csv_mismatches(ref: dict, header: list[str], data: np.ndarray) -> list[str]:
    """Column-by-column differences from a reference CSV beyond ATOL/RTOL;
    safe_flag must match exactly."""
    if header != ref["columns"]:
        return [f"columns {header} != {ref['columns']}"]
    if data.shape[0] != ref["rows"]:
        return [f"{data.shape[0]} rows != {ref['rows']}"]
    got = data[_sample_index(data.shape[0])]
    want = np.array(ref["sampled"])
    sums_tol = ATOL * data.shape[0] + RTOL * np.array(ref["col_abs_sum"])
    sums_bad = np.abs(data.sum(axis=0) - np.array(ref["col_sum"])) > sums_tol
    bad = []
    for j, name in enumerate(header):
        if name == "safe_flag":
            ok = np.array_equal(got[:, j], want[:, j]) and data[:, j].sum() == ref["col_sum"][j]
        else:
            ok = close(got[:, j], want[:, j]) and not sums_bad[j]
        if not ok:
            bad.append(f"column {name} differs")
    return bad
