import numpy as np
import pytest

from polyscat.geometry import CellPartition
from polyscat.medium import CellMedium, IncidentField, NestMedium, incident_eval


def test_nest_medium_rejects_nonpositive_re_q(nested_squares):
    with pytest.raises(ValueError, match="Re q must be positive"):
        NestMedium(nested_squares, q=[2.0, -1.0], lam=[0.0, 0.0], k=1.0)


def test_nest_medium_rejects_bad_lambda(nested_squares):
    with pytest.raises(ValueError):
        NestMedium(nested_squares, q=[2.0, 3.0], lam=[-1.0 - 1.0j, 0.0], k=1.0)
    # zero and one-sided-cone values are fine
    NestMedium(nested_squares, q=[2.0, 3.0], lam=[0.0, -2.0 + 0.5j], k=1.0)


def test_nest_medium_rejects_length_mismatch(nested_squares):
    with pytest.raises(ValueError):
        NestMedium(nested_squares, q=[2.0], lam=[0.0, 0.0], k=1.0)


def test_cell_medium_requires_nonneg_im_q(unit_square):
    part = CellPartition([unit_square], unit_square)
    with pytest.raises(ValueError):
        CellMedium(part, q=[2.0 - 0.1j], lambda_star=0.0, k=1.0)
    CellMedium(part, q=[2.0 + 0.1j], lambda_star=0.5j, k=1.0)


def test_incident_plane_values():
    inc = IncidentField("plane", direction=[1.0, 0.0])
    v, g = incident_eval(inc, 1.0, np.array([0.0, 0.0]))
    assert v == pytest.approx(1.0)
    v, _ = incident_eval(inc, np.pi, np.array([1.0, 0.0]))
    assert v == pytest.approx(-1.0)
    assert np.allclose(g, [1j, 0.0])


def test_incident_direction_must_be_unit():
    with pytest.raises(ValueError):
        IncidentField("plane", direction=[2.0, 0.0])


def test_point_source_log_divergence():
    z0 = np.array([0.3, -0.2])
    inc = IncidentField("point", location=z0)
    k = 1.3
    euler = 0.5772156649015329
    for r in (1e-3, 1e-5, 1e-7):
        v, _ = incident_eval(inc, k, z0 + [r, 0.0])
        series = 0.25j * (1 + 2j / np.pi * (np.log(k * r / 2) + euler))
        assert v == pytest.approx(series, rel=5e-5)
    with pytest.raises(ValueError):
        incident_eval(inc, k, z0)


def test_point_source_outside_requirement(unit_square):
    inc = IncidentField("point", location=[0.1, 0.0])
    with pytest.raises(ValueError, match="strictly outside"):
        inc.validate_against(unit_square)
    IncidentField("point", location=[3.0, 0.0]).validate_against(unit_square)


@pytest.mark.parametrize("kind,kwargs", [
    ("plane", {"direction": [0.6, 0.8]}),
    ("point", {"location": [2.0, 1.0]}),
])
def test_incident_satisfies_helmholtz(kind, kwargs):
    inc = IncidentField(kind, **kwargs)
    k = 1.7
    rng = np.random.default_rng(9)
    for _ in range(6):
        x = rng.uniform(-0.8, 0.8, 2)
        h = 1e-4
        pts = np.array([x, x + [h, 0], x - [h, 0], x + [0, h], x - [0, h]])
        vals, _ = incident_eval(inc, k, pts)
        lap = (vals[1:].sum() - 4 * vals[0]) / h**2
        resid = abs(lap + k**2 * vals[0])
        assert resid < 1e-5 * max(abs(vals[0]), 1.0)


def test_incident_gradient_consistent_with_fd():
    inc = IncidentField("point", location=[2.0, 1.0])
    k, x = 0.9, np.array([0.3, -0.4])
    v, g = incident_eval(inc, k, x)
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        vp, _ = incident_eval(inc, k, x + e)
        vm, _ = incident_eval(inc, k, x - e)
        assert g[axis] == pytest.approx((vp - vm) / (2 * h), rel=1e-7)


def test_amplitude_scaling():
    inc1 = IncidentField("plane", direction=[1.0, 0.0], amplitude=1.0)
    inc2 = IncidentField("plane", direction=[1.0, 0.0], amplitude=2.0 - 1.0j)
    x = np.array([0.4, 0.7])
    v1, _ = incident_eval(inc1, 1.0, x)
    v2, _ = incident_eval(inc2, 1.0, x)
    assert v2 == pytest.approx((2 - 1j) * v1)
