"""Material data on a polygonal partition and incident fields.

Sign conventions: the exterior background has potential 1 and real
wavenumber k > 0.  Each region carries a constant complex potential q with
Re q > 0; each interface carries a constant complex conductive parameter
lambda with Re lambda >= 0 or Im lambda >= 0 (zero allowed).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import hankel1

from .geometry import CellPartition, NestPartition


def sqrt_im_nonneg(z):
    """The square root of z with Im >= 0: sqrt(q) of a potential, so that
    k sqrt(q) is the wavenumber of a region."""
    root = np.sqrt(complex(z))
    return -root if root.imag < 0 else root


def _check_potentials(q, require_im_nonneg=False):
    q = tuple(complex(x) for x in q)
    for i, qi in enumerate(q, start=1):
        if not qi.real > 0:
            raise ValueError(f"Re q must be positive (region {i}: {qi})")
        if require_im_nonneg and qi.imag < 0:
            raise ValueError(f"Im q must be nonnegative (region {i}: {qi})")
    return q


def _check_lambda(lam, where):
    lam = complex(lam)
    if lam != 0 and not (lam.real >= 0 or lam.imag >= 0):
        raise ValueError(f"conductive parameter on {where} must have Re >= 0 or Im >= 0: {lam}")
    return lam


@dataclass(frozen=True)
class NestMedium:
    """Nest partition with per-annulus potentials q_ell and per-interface lambda_ell."""

    partition: NestPartition
    q: tuple
    lam: tuple
    k: float

    def __init__(self, partition, q, lam, k):
        if len(q) != partition.n_layers or len(lam) != partition.n_layers:
            raise ValueError("q and lambda lists must match the number of layers")
        if not (np.isreal(k) and float(np.real(k)) > 0):
            raise ValueError("exterior wavenumber k must be real and positive")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "q", _check_potentials(q))
        object.__setattr__(self, "lam", tuple(_check_lambda(l, f"interface {i+1}") for i, l in enumerate(lam)))
        object.__setattr__(self, "k", float(np.real(k)))


@dataclass(frozen=True)
class CellMedium:
    """Cell partition with per-cell potentials and one lambda* on every interface."""

    partition: CellPartition
    q: tuple
    lambda_star: complex
    k: float

    def __init__(self, partition, q, lambda_star, k):
        if len(q) != partition.n_cells:
            raise ValueError("q list must match the number of cells")
        if not (np.isreal(k) and float(np.real(k)) > 0):
            raise ValueError("exterior wavenumber k must be real and positive")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "q", _check_potentials(q, require_im_nonneg=True))
        object.__setattr__(self, "lambda_star", _check_lambda(lambda_star, "cell interfaces"))
        object.__setattr__(self, "k", float(np.real(k)))


@dataclass(frozen=True)
class IncidentField:
    """Plane wave, point source, or no excitation (pure source problems)."""

    kind: str  # 'plane' | 'point' | 'none'
    direction: np.ndarray | None = None
    location: np.ndarray | None = None
    amplitude: complex = 1.0 + 0.0j

    def __init__(self, kind, direction=None, location=None, amplitude=1.0):
        if kind not in ("plane", "point", "none"):
            raise ValueError(f"unknown incident field kind {kind!r}")
        if kind == "plane":
            d = np.asarray(direction, dtype=float)
            if d.shape != (2,) or abs(np.hypot(*d) - 1.0) > 1e-12:
                raise ValueError("plane-wave direction must be a 2D unit vector")
            object.__setattr__(self, "direction", d)
            d.setflags(write=False)
            object.__setattr__(self, "location", None)
        elif kind == "point":
            z = np.asarray(location, dtype=float)
            if z.shape != (2,):
                raise ValueError("point-source location must be a 2D point")
            object.__setattr__(self, "location", z)
            z.setflags(write=False)
            object.__setattr__(self, "direction", None)
        else:
            object.__setattr__(self, "direction", None)
            object.__setattr__(self, "location", None)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "amplitude", complex(amplitude))

    def validate_against(self, hull):
        """Point sources must lie strictly outside the closure of the hull."""
        if self.kind == "point":
            tol = 0.0 if hull is None else 1e-12 * hull.bbox_diag()
            if hull is not None and hull.contains(self.location, tol) != "outside":
                raise ValueError("point source must lie strictly outside the medium")


def incident_eval(f: IncidentField, k, x):
    """Incident field value and gradient at x (single point or (n,2) array).

    Plane wave: A exp(i k d.x).  Point source: A (i/4) H0^(1)(k|x-z0|), the
    outgoing fundamental solution normalized so (Laplacian + k^2) u = -delta.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if f.kind == "none":
        vals = np.zeros(len(pts), dtype=complex)
        grads = np.zeros((len(pts), 2), dtype=complex)
    elif f.kind == "plane":
        phase = np.exp(1j * k * (pts[:, 0] * f.direction[0] + pts[:, 1] * f.direction[1]))
        vals = f.amplitude * phase
        grads = 1j * k * f.direction[None, :] * vals[:, None]
    else:
        d = pts - f.location[None, :]
        r = np.hypot(d[:, 0], d[:, 1])
        if np.any(r == 0.0):
            raise ValueError("point-source field is singular at the source location")
        vals = f.amplitude * 0.25j * hankel1(0, k * r)
        dr = f.amplitude * 0.25j * (-k) * hankel1(1, k * r)
        grads = (dr / r)[:, None] * d
    if single:
        return complex(vals[0]), grads[0]
    return vals, grads
