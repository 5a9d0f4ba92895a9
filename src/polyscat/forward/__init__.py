from .cellsolver import assemble_cell
from .diskoracle import disk_series_oracle
from .mesh import BoundaryMesh, CurveMesh, build_mesh, polygon_edges
from .solver import (
    FarFieldPattern,
    NestSolveResult,
    Solution,
    assemble_nest,
    farfield_diff,
    incident_jumps,
    region_wavenumbers,
    solve_assembled,
    solve_scatter,
    uniform_directions,
)

__all__ = [
    "BoundaryMesh", "CurveMesh", "build_mesh", "polygon_edges", "FarFieldPattern",
    "NestSolveResult", "Solution", "assemble_cell", "assemble_nest", "farfield_diff",
    "incident_jumps", "region_wavenumbers",
    "solve_assembled", "solve_scatter", "uniform_directions", "disk_series_oracle",
]
