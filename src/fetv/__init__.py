"""Discrete total variation for piecewise-polynomial images on triangular
meshes, with the dual constraint-set machinery and TV-L2 / TV-L1 solvers."""

from .dtv import (
    ConstraintSetSpec,
    dtv,
    infeasibility,
    project_feasible,
    tv_exact,
)
from .images import Raster, dg_to_raster, load_mask, load_pgm, raster_to_dg, save_pgm
from .mesh import Mesh, build_crossed_mesh, load_mesh, save_mesh
from .metrics import NoiseSpec, add_noise, psnr
from .operators import DgFunction, GradJumpOperator, divergence
from .solvers import (
    ProblemSpec,
    SolverParams,
    SolverReport,
    admm_l1,
    chambolle_pock_l1,
    chambolle_pock_l2,
    chambolle_projection_l2,
    gap,
    prox_vector,
    shrink,
    solve,
    split_bregman_l2,
)
from .spaces import FeSpace

__version__ = "0.1.0"
