"""The four workloads: their populations, ops, per-op checks and traced calls.

Each workload is a class whose constructor is the set-up the benchmark times
(population, files, fields, validation).  ``op(i, tr)`` runs population item
``i`` through nsflow's public functions and returns what they produced;
``check(i, out)`` returns None when that output is right and a reason when it
is not.  ``prepare()`` computes the independent references before the timed
loop, and ``constituents(i, out, tr)`` re-times the public parts of a composite
call on the same inputs, in traced runs only.

Population sizes are odd multiples of five (5, 15, 25, 65) so that with equal
repeats of every item the median and the 90th percentile fall in the middle
of one item's samples, never on the edge between two items.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import tempfile
import time

import numpy as np

from nsflow import (
    CornerModel,
    SignVector,
    apps,
    b_evaluate,
    barycentric_piece,
    build_triangulation,
    cli,
    corner_model_from_json,
    corner_model_to_json,
    flow_bderivative,
    integrate,
    lineality_split,
    oracle,
    rho_minus,
    saltation_matrix,
    sampled_flow,
    time_to_impact_sampled,
)
from nsflow.core import SmoothField

import reference
from tracing import OFF

# Tolerances: the reference prototype agreed with b_evaluate to 1.4e-12 on
# table models, so 1e-9 leaves room for conditioning without hiding a wrong
# crossing order, whose error is O(1).
REF_TOL = 1e-9
LINEAR_TOL = 1e-12  # criterion 1
SAMPLED_TOL = 1e-11  # criterion 2
ROUTE_TOL = 1e-9  # criterion 3
FD_BAND = (5.0, 20.0)  # criterion 4, error ratio per decade of alpha
PROPERTY_TOL = 1e-9


def _sigma_key(sigma) -> str:
    return "-".join(map(str, sigma.order))


def _orthant_values(m):
    """The model's orthant values as the reference's ``gamma(signs)``."""
    return lambda signs: m.gamma_vec(SignVector(signs))


# -- ball ----------------------------------------------------------------------

BALL_POINTS = 360


@dataclasses.dataclass
class BallItem:
    kind: str  # "pwc", "pwc-linear" or "model"
    d: int
    argv: list
    delta: float = 0.0
    seed: int = 0
    model_path: str = ""


class Ball:
    """``nsflow ball`` calls over presets at d=2, pwc-linear at d=3..6 and
    table-backed random models with n=1..8 read from JSON."""

    name = "ball"
    setup_builds = 25
    passes_per_second = 2.7

    def __init__(self, seed: int, tmp: str, tr=OFF):
        rng = np.random.default_rng([seed, 1])
        # Every build writes into a directory of its own and every op to a
        # file that does not exist yet: on ext4, truncating and rewriting a
        # file starts its writeback at close and makes the next truncation
        # wait for the disk, which would put the host's disk load into the
        # timings.
        tmp = tempfile.mkdtemp(prefix="ball-", dir=tmp)
        self.out_path = os.path.join(tmp, "ball.csv")
        items = []

        def argv(*model_args, item_seed):
            return ["ball", *model_args, "--seed", str(item_seed),
                    "--points", str(BALL_POINTS), "--out", self.out_path]

        for k in range(2):
            s = int(rng.integers(1 << 30))
            items.append(BallItem("pwc", 2, argv("--preset", "pwc", item_seed=s), seed=s))
        for d in range(2, 7):
            delta = float(rng.uniform(0.1, 0.9))
            s = int(rng.integers(1 << 30))
            items.append(BallItem(
                "pwc-linear", d,
                argv("--preset", "pwc-linear", "--dim", str(d), "--delta", repr(delta), item_seed=s),
                delta=delta, seed=s,
            ))
        for n in range(1, 9):
            with tr.span("oracle.random_corner_model", n=n):
                m = oracle.random_corner_model(rng, n, n + 1)
            path = os.path.join(tmp, f"model-n{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(corner_model_to_json(m))
            s = int(rng.integers(1 << 30))
            items.append(BallItem("model", n + 1, argv("--model", path, item_seed=s),
                                  seed=s, model_path=path))
        self.items = items
        self.size = len(items)
        self.first = {}  # item -> (output bytes, failure reason or None)
        self.notices = 0  # captured stderr warnings of the command

    def op(self, i, tr):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), tr.span("cli.main"):
            code = cli.main(self.items[i].argv)
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        os.unlink(self.out_path)
        return code, data, err.getvalue()

    def prepare(self):
        pass

    def _library_model(self, item):
        if item.kind == "model":
            with open(item.model_path, encoding="utf-8") as fh:
                return corner_model_from_json(fh.read())
        return apps.preset(item.kind, d=item.d, delta=item.delta, seed=item.seed)[1]

    def check(self, i, out):
        code, data, err = out
        self.notices += err.count("warning:")
        if i in self.first:
            first_data, reason = self.first[i]
            if data != first_data:
                return "output bytes differ from the first call on the same input"
            return reason
        reason = self._verify(self.items[i], code, data, err)
        self.first[i] = (data, reason)
        return reason

    def _verify(self, item, code, data, err):
        if code != 0:
            return f"exit code {code}"
        if (item.d != 2) != ("intended for d = 2" in err):
            return f"unexpected stderr for d={item.d}: {err!r}"
        lines = data.decode("utf-8").splitlines()
        d = item.d
        header = [f"in_{k + 1}" for k in range(d)] + [f"out_{k + 1}" for k in range(d)] + ["sigma"]
        if lines[0].split(",") != header or len(lines) != BALL_POINTS + 1:
            return "bad header or row count"
        m = self._library_model(item)
        if item.kind == "model":
            with open(item.model_path, encoding="utf-8") as fh:
                eta, gamma = reference.model_from_json(fh.read())
        elif item.kind == "pwc-linear":
            eta, gamma = np.eye(d), reference.pwc_linear_gamma(item.delta)
        else:
            eta, gamma = np.eye(d), _orthant_values(m)
        factor = (1.0 - item.delta) / (1.0 + item.delta)
        for line in lines[1:]:
            cols = line.split(",")
            v = np.array([float(x) for x in cols[:d]])
            printed = [float(x) for x in cols[d:2 * d]]
            if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
                return f"input direction {v} is not a unit vector"
            lib = b_evaluate(m, v)
            if printed != lib.delta_rho_plus.tolist() or cols[2 * d] != _sigma_key(lib.sigma):
                return f"printed row {line!r} does not parse back to b_evaluate"
            if reference.relative_error(reference.corner_derivative(eta, gamma, v), printed) > REF_TOL:
                return f"row {line!r} disagrees with the reference"
            if item.kind == "pwc-linear" and np.max(np.abs(np.array(printed) - factor * v)) > LINEAR_TOL:
                return f"row {line!r} is not (1-delta)/(1+delta) v"
        return None

    def constituents(self, i, out, tr):
        item = self.items[i]
        if item.kind == "model":
            with tr.span("core.corner_model_from_json"):
                with open(item.model_path, encoding="utf-8") as fh:
                    m = corner_model_from_json(fh.read())
        else:
            with tr.span("apps.preset"):
                m = apps.preset(item.kind, d=item.d, delta=item.delta, seed=item.seed)[1]
        with tr.span("core.require_valid"):
            m.require_valid()
        rows = out[1].decode("utf-8").splitlines()[1:]
        dirs = np.array([[float(x) for x in r.split(",")[:item.d]] for r in rows])
        with tr.span("bderiv.b_evaluate", calls=len(dirs), n=m.n):
            for v in dirs:
                b_evaluate(m, v)


# -- scaling -------------------------------------------------------------------

LAZY_SIZES = (8, 16, 32)
SCALING_DIRECTIONS = 65
PROPERTY_EVERY = 8


class _TimedGamma:
    """Counts and times a lazy gamma callable during ops (traced runs only)."""

    def __init__(self, fn, tr, n):
        self.fn, self.tr = fn, tr
        self.calls_key, self.ns_key = f"gamma_calls.n{n}", f"gamma_ns.n{n}"

    def __call__(self, b):
        if self.tr.op < 0:
            return self.fn(b)
        start = time.perf_counter_ns()
        out = self.fn(b)
        self.tr.count(self.ns_key, time.perf_counter_ns() - start)
        self.tr.count(self.calls_key)
        return out


class Scaling:
    """One op evaluates one direction on each lazy model, n = 8, 16, 32 and
    d = n + 2: the paper's polynomial-time claim on models whose 2^n table
    never exists."""

    name = "scaling"
    setup_builds = 3
    passes_per_second = 2.5

    def __init__(self, seed: int, tmp: str, tr=OFF):
        base = int(np.random.default_rng([seed, 2]).integers(1 << 30))
        self.plain = [oracle.lazy_corner_model(base + n, n, n + 2) for n in LAZY_SIZES]
        self.models = self.plain
        if tr.enabled:
            self.models = [
                CornerModel.create(m.rho, m.eta, _TimedGamma(m.gamma, tr, m.n),
                                   f_min=m.f_min, presumed_valid=True)
                for m in self.plain
            ]
        for m in self.models:
            with tr.span("core.require_valid", n=m.n, lazy=True):
                m.require_valid()
        rng = np.random.default_rng([seed, 6])
        self.dirs = [rng.normal(size=(SCALING_DIRECTIONS, m.d)) for m in self.models]
        self.size = SCALING_DIRECTIONS
        self.refs = None
        self.checked = set()

    def op(self, i, tr):
        out = []
        for m, dirs in zip(self.models, self.dirs):
            with tr.span("bderiv.b_evaluate", n=m.n, lazy=True):
                out.append(b_evaluate(m, dirs[i]))
        return out

    def prepare(self):
        self.refs = [
            [reference.corner_derivative(m.eta, _orthant_values(m), v) for v in dirs]
            for m, dirs in zip(self.plain, self.dirs)
        ]

    def check(self, i, out):
        for m, refs, res in zip(self.plain, self.refs, out):
            if reference.relative_error(refs[i], res.delta_rho_plus) > REF_TOL:
                return f"n={m.n} direction {i} disagrees with the reference"
        if i % PROPERTY_EVERY or i in self.checked:
            return None
        self.checked.add(i)
        for m, dirs, res in zip(self.plain, self.dirs, out):
            reason = _linearity_properties(m, dirs[i], res.delta_rho_plus)
            if reason:
                return f"n={m.n} direction {i}: {reason}"
        return None

    def constituents(self, i, out, tr):
        pass


def _linearity_properties(m, v, bv):
    """Positive homogeneity, linearity along the entry field, and kernel
    pass-through of B at v; returns the first violated property."""
    g_minus = m.gamma_vec(SignVector.minus_ones(m.n))
    g_plus = m.gamma_vec(SignVector.plus_ones(m.n))
    if reference.relative_error(2.5 * bv, b_evaluate(m, 2.5 * v).delta_rho_plus) > PROPERTY_TOL:
        return "not positively homogeneous"
    got = b_evaluate(m, v + 0.7 * g_minus).delta_rho_plus
    if reference.relative_error(bv + 0.7 * g_plus, got) > PROPERTY_TOL:
        return "B(v + a f-) != B(v) + a f+"
    xi = reference.kernel_basis(m.eta) @ np.array([0.8, -0.6])
    if reference.relative_error(bv + xi, b_evaluate(m, v + xi).delta_rho_plus) > PROPERTY_TOL:
        return "kernel vector does not pass through"
    return None


# -- oracle --------------------------------------------------------------------

ORACLE_MODELS = 25
ORACLE_SAMPLES = 16  # directions per verify_* call
CHECK_DIRECTIONS = 8


class Oracle:
    """Criteria 2 and 3 on one model per op: both randomized verifiers, then
    the saltation and barycentric routes of every crossing order the check
    directions locate."""

    name = "oracle"
    setup_builds = 35
    passes_per_second = 2.3

    def __init__(self, seed: int, tmp: str, tr=OFF):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.models = []
        for k in range(ORACLE_MODELS):
            # k -> (k % 6, k % 5) is one-to-one for k < 30: 25 of the 30
            # pairs with n in 1..6 and d in n..n+4, the same in every run
            n, d = 1 + k % 6, 1 + k % 6 + k % 5
            with tr.span("oracle.random_corner_model", n=n):
                self.models.append(oracle.random_corner_model(rng, n, d))
        self.check_dirs = [rng.normal(size=(CHECK_DIRECTIONS, m.d)) for m in self.models]
        self.size = ORACLE_MODELS
        self.refs = None

    def _verify_rng(self, i):
        return np.random.default_rng([self.seed, 4, i])

    def op(self, i, tr):
        m = self.models[i]
        rng = self._verify_rng(i)
        with tr.span("oracle.verify_b_against_sampled"):
            sampled = oracle.verify_b_against_sampled(m, ORACLE_SAMPLES, rng, tol=SAMPLED_TOL)
        with tr.span("oracle.verify_cone_partition"):
            cones = oracle.verify_cone_partition(m, ORACLE_SAMPLES, rng, tol=ROUTE_TOL)
        with tr.span("bderiv.b_evaluate", calls=CHECK_DIRECTIONS):
            results = [b_evaluate(m, v) for v in self.check_dirs[i]]
        with tr.span("bderiv.build_triangulation"):
            tri = build_triangulation(m)
        with tr.span("bderiv.lineality_split"):
            split = lineality_split(m)
        routes = {}
        for res in results:
            if res.sigma in routes:
                continue
            with tr.span("bderiv.saltation_matrix"):
                mat = saltation_matrix(m, res.sigma)
            with tr.span("bderiv.barycentric_piece"):
                routes[res.sigma] = (mat, *barycentric_piece(m, tri, res.sigma, split=split))
        return sampled, cones, results, split, routes

    def prepare(self):
        self.refs = [
            [reference.corner_derivative(m.eta, _orthant_values(m), v) for v in dirs]
            for m, dirs in zip(self.models, self.check_dirs)
        ]

    def check(self, i, out):
        sampled, cones, results, split, routes = out
        if not (sampled.ok and cones.ok):
            return f"verifier reports failures: {sampled.failures[:1]} {cones.failures[:1]}"
        if sampled.samples != ORACLE_SAMPLES + 1 or cones.samples != ORACLE_SAMPLES:
            return "verifiers checked the wrong number of directions"
        if not sampled.max_rel_error <= SAMPLED_TOL:
            return f"sampled-oracle error {sampled.max_rel_error:.3g}"
        for v, res, ref in zip(self.check_dirs[i], results, self.refs[i]):
            bv = res.delta_rho_plus
            if reference.relative_error(ref, bv) > REF_TOL:
                return "check direction disagrees with the reference"
            mat, z_minus, z_plus = routes[res.sigma]
            via_bary = split.lin_map @ (split.proj_L @ v)
            if z_minus.shape[1]:
                coeffs = np.linalg.pinv(z_minus, rcond=1e-12) @ (split.proj_L_perp @ v)
                via_bary = via_bary + z_plus @ coeffs
            if max(reference.relative_error(bv, mat @ v),
                   reference.relative_error(bv, via_bary)) > ROUTE_TOL:
                return f"piece routes disagree for order {_sigma_key(res.sigma)}"
        return None

    def constituents(self, i, out, tr):
        """Replay both verifiers' loops call by call on the same directions."""
        m = self.models[i]
        rng = self._verify_rng(i)
        start = rho_minus(m)
        for _ in range(ORACLE_SAMPLES):
            v = rng.normal(size=m.d)
            with tr.span("oracle.safe_direction_scale"):
                v *= oracle.safe_direction_scale(m, v)
            with tr.span("sampled.sampled_flow"):
                sampled_flow(m, 1.0, start + v)
            with tr.span("bderiv.b_evaluate"):
                b_evaluate(m, v)
        with tr.span("sampled.sampled_flow"):
            sampled_flow(m, 1.0, start)
        with tr.span("bderiv.b_evaluate"):
            b_evaluate(m, np.zeros(m.d))
        seen = set()
        for _ in range(ORACLE_SAMPLES):
            v = rng.normal(size=m.d)
            with tr.span("oracle.safe_direction_scale"):
                v *= oracle.safe_direction_scale(m, v)
            with tr.span("bderiv.b_evaluate"):
                sigma = b_evaluate(m, v).sigma
            if sigma not in seen:
                seen.add(sigma)
                with tr.span("bderiv.saltation_matrix"):
                    saltation_matrix(m, sigma)
            with tr.span("sampled.time_to_impact_sampled"):
                time_to_impact_sampled(m, start + v)


# -- trajectory ----------------------------------------------------------------

LINEAR_STEPS = 512
BIPED_STEPS = 128
S_PRE, S_POST = 0.4, 0.5
BIPED_Y0, BIPED_T = -0.6, 0.9
ALPHAS = (1e-2, 1e-3, 1e-4)
APPLY_DIRECTIONS = 3
PWC_FD_TOL = 1e-6
# Richardson-extrapolated quotients of the two smallest alphas; the biped's
# worst error over 8 directions was 2.8e-5, set by RK4 error over alpha.
EXTRAPOLATED_TOL = 3e-4


@dataclasses.dataclass
class TrajectoryItem:
    kind: str  # "linear", "pwc-linear" or "biped"
    field: object
    x0: np.ndarray
    t: float
    steps: int
    t_corner: float
    dirs: np.ndarray
    delta: float = 0.0


def _counted(field, tr):
    """The same field with every selection value evaluation counted."""

    def selection(b):
        sf = field.selection(b)

        def value(x, _v=sf.value):
            if tr.op >= 0:
                tr.count("field_values")
            return _v(x)

        return SmoothField(value=value, jacobian=sf.jacobian)

    return dataclasses.replace(field, selection=selection)


class Trajectory:
    """Derivatives of whole trajectories through a corner: three random
    linear event fields, a pwc-linear field from the diagonal and the
    biped-xor double touchdown per pass.  Sorted by cost these are one
    cheap, three middle and one dear op, so the median falls in the middle
    of the random linear fields and the 90th percentile on the biped."""

    name = "trajectory"
    setup_builds = 9
    passes_per_second = 1.0

    def __init__(self, seed: int, tmp: str, tr=OFF):
        rng = np.random.default_rng([seed, 5])

        def unit_dirs(d):
            v = rng.normal(size=(APPLY_DIRECTIONS, d))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        items = []
        for _ in range(3):
            with tr.span("oracle.random_linear_event_field"):
                field, x0, t = oracle.random_linear_event_field(rng, s_pre=S_PRE, s_post=S_POST)
            items.append(TrajectoryItem("linear", field, x0, t, LINEAR_STEPS, S_PRE, unit_dirs(3)))
        delta = float(rng.uniform(0.1, 0.9))
        field, _ = apps.pwc_model(2, apps.pwc_linear_delta(2, delta))
        x0 = np.full(2, -(1.0 + delta) * S_PRE)
        items.append(TrajectoryItem("pwc-linear", field, x0, S_PRE + S_POST, LINEAR_STEPS,
                                    S_PRE, unit_dirs(2), delta=delta))
        mm = apps.biped_model(psi=0.1, damping_policy="xor")
        field = apps.soft_constraint_field(mm, dissipative=True)
        q_star, _ = apps.biped_corner_state(psi=0.1)
        x0 = np.array([0.0, BIPED_Y0, 0.0, 0.0, 0.0, 0.0])
        items.append(TrajectoryItem("biped", field, x0, BIPED_T, BIPED_STEPS,
                                    math.sqrt(2.0 * (BIPED_Y0 - q_star[1])), unit_dirs(6)))
        if tr.enabled:
            for it in items:
                it.field = _counted(it.field, tr)
        self.items = items
        self.size = len(items)
        self.refs = {}

    def op(self, i, tr):
        it = self.items[i]
        with tr.span("flow.integrate", counter="field_values", kind=it.kind):
            res = integrate(it.field, it.x0, it.t, steps=it.steps)
        with tr.span("flow.flow_bderivative", kind=it.kind):
            bfd = flow_bderivative(it.field, it.x0, it.t, result=res, steps=it.steps)
        with tr.span("flow.bderivative_apply", calls=len(it.dirs), kind=it.kind):
            applied = [bfd(v) for v in it.dirs]
        with tr.span("oracle.finite_difference_flow", kind=it.kind):
            quotients = oracle.finite_difference_flow(it.field, it.x0, it.t, it.dirs[0], ALPHAS,
                                                      steps=it.steps)
        return res, bfd, applied, quotients

    def prepare(self):
        """Exact flow derivatives of the random linear fields: matrix
        exponentials around the reference corner update at the true corner."""
        for i, it in enumerate(self.items):
            if it.kind != "linear":
                continue
            f, rho = it.field, it.field.rho
            eta = np.asarray(f.dh(rho), dtype=float)
            value = lambda s: f.selection(SignVector(s)).value(rho)
            jac = lambda s: f.selection(SignVector(s)).jacobian(rho)
            self.refs[i] = [
                reference.linear_field_flow_derivative(eta, value, jac, it.t_corner, it.t, v)
                for v in it.dirs
            ]

    def check(self, i, out):
        it = self.items[i]
        res, _, applied, quotients = out
        events = res.events
        if len(events) != 1 or events[0].surfaces != (1, 2):
            return f"expected one corner event on surfaces (1, 2), got {events}"
        if abs(events[0].time - it.t_corner) > 1e-9:
            return f"corner at t={events[0].time!r}, expected {it.t_corner!r}"
        if it.kind == "pwc-linear":
            factor = (1.0 - it.delta) / (1.0 + it.delta)
            for v, got in zip(it.dirs, applied):
                if np.max(np.abs(got - factor * v)) > LINEAR_TOL:
                    return "flow derivative is not (1-delta)/(1+delta) v"
            if max(float(np.max(np.abs(q - applied[0]))) for q in quotients) > PWC_FD_TOL:
                return "difference quotients of a piecewise-affine flow are not exact"
            return None
        if it.kind == "linear":
            for ref, got in zip(self.refs[i], applied):
                if reference.relative_error(ref, got) > REF_TOL:
                    return "flow derivative disagrees with the exact linear-field reference"
        errors = [float(np.linalg.norm(q - applied[0])) for q in quotients]
        ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
        if not all(FD_BAND[0] <= r <= FD_BAND[1] for r in ratios):
            return f"difference-quotient error ratios {ratios} outside {FD_BAND}"
        extrapolated = (10.0 * quotients[-1] - quotients[-2]) / 9.0
        if reference.relative_error(extrapolated, applied[0]) > EXTRAPOLATED_TOL:
            return "extrapolated difference quotients disagree with the flow derivative"
        return None

    def constituents(self, i, out, tr):
        """Replay the difference quotients' integrations and the corner
        stages' evaluations on the same inputs."""
        it = self.items[i]
        with tr.span("flow.integrate", counter="field_values", kind=it.kind):
            integrate(it.field, it.x0, it.t, steps=it.steps)
        for alpha in ALPHAS:
            with tr.span("flow.integrate", counter="field_values", kind=it.kind):
                integrate(it.field, it.x0 + alpha * it.dirs[0], it.t, steps=it.steps)
        bfd = out[1]
        for v in it.dirs:
            for kind, payload in bfd.stages:
                if kind == "linear":
                    v = payload @ v
                else:
                    with tr.span("bderiv.b_evaluate"):
                        v = b_evaluate(payload, v).delta_rho_plus


WORKLOADS = {cls.name: cls for cls in (Ball, Scaling, Oracle, Trajectory)}
