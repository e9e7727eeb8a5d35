"""Point-defect profiles of 2D nematic liquid crystals (Landau-de Gennes).

The package computes, verifies and renders index-k/2 defect profiles on a
disk: exact Q-tensor algebra, minimisation of the reduced radial energy of
the two-mode ansatz, the closed-form harmonic-map limit solutions, full 2D
energy/residual/stability checks, and an SVG renderer behind the
``qdefect`` command-line tool.

Every layer handles a tensor as its five coordinates in one orthonormal
basis, coordinates first: ``(5,)`` for one tensor, ``(5, N+1, M)`` for a
field (see :mod:`qdefect.tensor`), the package's one representation.
"""

from .errors import CsvFormatError, GridError, InvalidParams, NonConvergence, QDefectError
from .field import (
    Field2D,
    EnergyGapResult,
    SecondVariationResult,
    el_residual_2d,
    energy_gap,
    hm_residual,
    ldg_energy_2d,
    ldg_energy_spectral,
    lift,
    random_perturbation,
    second_variation,
)
from .grid import PolarGrid, RadialGrid
from .harmonic import (
    Branch,
    DirichletEnergy,
    E0Result,
    PsiProfile,
    closed_form_dirichlet,
    dirichlet_energy_2d,
    e0_energy,
    explicit_profile,
    first_integral_defect,
    psi_of_branch,
    uniaxial_escape_components,
)
from .params import ModelParams, equilibrium_order_parameter
from .reduced import (
    OdeResidual,
    Profile,
    SolveReport,
    apply_boundary,
    continuation_in_b2,
    minimize,
    ode_residual,
    read_profile_csv,
    reduced_energy,
    reduced_gradient,
    write_profile_csv,
)
from .render import RenderSpec, eigenvalue_chart_svg, glyph_svg
from .tensor import ansatz_components, ansatz_eigenvalues

__version__ = "0.1.0"
