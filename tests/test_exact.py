"""The kernels checked against the exact references of ``tests/exact.py``.

The tolerances are set from measurement: ``b_evaluate`` was within 4.8e-15
of the exact image on the 600 evaluations of tables below.  On lazy models,
where ``b_exact`` reads the model's gamma callable by mask as ``b_evaluate``
does, the worst relative errors were 0.26 n u at n = 32 (10 directions) and
2.61 n u at n = 64 (3 directions), u = 2**-53, under a bound of 4 n u.
``flow_bderivative`` was
within 3.5e-12 of the closed form on the 100 directions through a corner of
two surfaces below, and within 8.2e-12 on the 240 through corners of 3 to 6
surfaces, with event times within 5.8e-12 of the corner.  Scaling the RK4
increment by (1 + 1e-9) moves the flow derivative by up to 2.7e-10 on the
two-surface directions, so the 1e-10 bound catches that error without a
digest.  ``variational`` was within 3.1e-15 of the matrix exponential on the
68 segments below, and that mutant moves it by 1.6e-10, past the 1e-12
bound.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from exact import b_exact, linear_flow_derivative

from nsflow.bderiv import b_evaluate
from nsflow.core import SignVector
from nsflow.flow import flow_bderivative, integrate, variational
from nsflow.oracle import lazy_corner_model, random_corner_model, random_linear_event_field

B_RTOL = 5e-14
LAZY_B_NU = 4.0  # lazy models: relative error bound in units of n u
FLOW_RTOL = 1e-10
EVENT_TIME_TOL = 1e-10
VARIATIONAL_ATOL = 1e-12


def relative_error(exact, got):
    return float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))


def test_the_exact_references_import_nothing_from_nsflow():
    tree = ast.parse(Path(__file__).with_name("exact.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported == {"fractions", "numpy", "scipy"}


@pytest.mark.parametrize("n", range(1, 7))
def test_b_evaluate_matches_exact_arithmetic(n):
    # 10 random tables x 10 directions for each n: the same crossing order as
    # the exact loop, and the image to within a few ulps of the exact one
    rng = np.random.default_rng(400 + n)
    for _ in range(10):
        m = random_corner_model(rng, n, n + 2)
        for v in rng.normal(size=(10, m.d)):
            image, order = b_exact(m.eta, m.table, v)
            r = b_evaluate(m, v)
            assert r.sigma.order == order
            assert relative_error(image, r.delta_rho_plus) <= B_RTOL


@pytest.mark.parametrize("n, k", [(32, 10), (64, 3)])
def test_b_evaluate_matches_exact_arithmetic_on_lazy_models(n, k):
    # no 2^n table exists: the exact loop calls the gamma on the n + 1 orthants it visits
    m = lazy_corner_model(300 + n, n, n + 2)
    for v in np.random.default_rng(n).normal(size=(k, m.d)):
        image, order = b_exact(m.eta, m.gamma, v)
        r = b_evaluate(m, v)
        assert r.sigma.order == order
        assert relative_error(image, r.delta_rho_plus) <= LAZY_B_NU * n * 2.0**-53


@pytest.mark.parametrize("n, fields", [(2, 10)] + [(n, 6) for n in range(3, 7)])
def test_flow_bderivative_matches_the_closed_form(n, fields):
    # each field's trajectory meets its n-surface corner at t = 0.4 from the
    # all-minus orthant, one event of every surface, so integrate bisects n
    # surfaces in one step; the corner data are read at the event's state
    rng = np.random.default_rng(500)
    for _ in range(fields):
        field, x0, t = random_linear_event_field(rng, n, n + 1)
        res = integrate(field, x0, t, steps=512)
        (event,) = res.events
        assert event.surfaces == tuple(range(1, n + 1))
        assert abs(event.time - 0.4) <= EVENT_TIME_TOL
        bfd = flow_bderivative(field, x0, t, result=res)
        for seg in res.segments:
            # each selection is affine, so its smooth flow derivative is a matrix exponential
            a_b = field.selection(SignVector.from_mask(seg.active_orthant, field.n)).jacobian(seg.x_start)
            exact = scipy.linalg.expm(a_b * (seg.times[-1] - seg.times[0]))
            assert np.max(np.abs(variational(field, seg) - exact)) <= VARIATIONAL_ATOL
        selections = [field.selection(SignVector.from_mask(k, field.n)) for k in range(2**field.n)]
        gamma = [sel.value(event.state) for sel in selections]
        a_minus, a_plus = selections[0].jacobian(event.state), selections[-1].jacobian(event.state)
        eta = field.dh(event.state)
        for v in rng.normal(size=(10, field.d)):
            image, order = linear_flow_derivative(a_minus, a_plus, 0.4, t, eta, gamma, v)
            assert bfd.crossing_orders(v) == (order,)
            assert relative_error(image, bfd(v)) <= FLOW_RTOL
