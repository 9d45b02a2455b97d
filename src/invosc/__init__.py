"""Exact states of a charged oscillator with an inverse-square core in a
time-dependent magnetic field, plus the machinery to distrust them.

The package is organized as a pipeline:

  params        time-dependent coefficients and config scanning
  ode           the transformation chain (rotation angle, Riccati width,
                scale factor, accumulated phase)
  bessel        the radial pair J_nu / N_nu of real order, complex argument
  wavefunction  assembly of the full field, residual checks, convention scan
  oracle        an independent Crank-Nicolson radial propagator
  artifacts     the text of every artifact but the oracle's
  cli           config-driven commands emitting CSV artifacts

Import the pieces you need from the submodules; this namespace re-exports
the everyday surface.  ``cli_main`` is resolved on first access, so that
``python -m invosc.cli`` does not find its module already imported.
"""

from .errors import (BlowUp, ConfigError, DomainTooLarge, FallToCenter,
                     GridTooCoarse, Inconclusive, InvoscError,
                     MismatchedGrids, NonFinite, NonPositiveArgument,
                     OriginUndefined, OutOfDomain, Overflow, ToleranceNotMet,
                     Unstable, ZeroCrossing, ZeroNorm)
from .params import CoefficientSet, TimeFunction
from .ode import (IntegratorConfig, MU_COUPLINGS, TransformTrajectory,
                  default_alpha0, solve_chain)
from .artifacts import write_trajectory_csv
from .bessel import bessel_j, bessel_n
from .wavefunction import (CartesianGrid, ConventionFlags, GridGeometry,
                           ModeSpec, PolarGrid, ResidualReport, ScanOutcome,
                           WaveField, assemble_psi, convention_scan,
                           order_from_coupling, sample_field,
                           schrodinger_residual, sector_winding,
                           theta_from_xy)
from .oracle import (PropagationResult, RadialProblem, effective_potential,
                     fidelity, propagate)

__version__ = "0.1.0"

__all__ = [
    "BlowUp", "ConfigError", "DomainTooLarge", "FallToCenter",
    "GridTooCoarse", "Inconclusive", "InvoscError", "MismatchedGrids",
    "NonFinite", "NonPositiveArgument", "OriginUndefined", "OutOfDomain",
    "Overflow", "ToleranceNotMet", "Unstable", "ZeroCrossing", "ZeroNorm",
    "CoefficientSet", "TimeFunction",
    "IntegratorConfig", "MU_COUPLINGS", "TransformTrajectory",
    "default_alpha0", "solve_chain", "write_trajectory_csv",
    "bessel_j", "bessel_n",
    "CartesianGrid", "ConventionFlags", "GridGeometry", "ModeSpec",
    "PolarGrid", "ResidualReport", "ScanOutcome", "WaveField",
    "assemble_psi", "convention_scan", "order_from_coupling",
    "sample_field", "schrodinger_residual", "sector_winding",
    "theta_from_xy",
    "PropagationResult", "RadialProblem", "effective_potential", "fidelity",
    "propagate",
    "cli_main",
    "__version__",
]


def __getattr__(name):
    if name == "cli_main":
        from .cli import main
        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
