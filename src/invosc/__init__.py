"""Exact states of a charged oscillator with an inverse-square core in a
time-dependent magnetic field, plus the machinery to distrust them.

The package is organized as a pipeline:

  params        time-dependent coefficients and config scanning
  ode           the transformation chain (rotation angle, Riccati width,
                scale factor, accumulated phase)
  bessel        the radial pair: J_nu of real order at complex argument,
                N_nu at positive real argument
  wavefunction  assembly of the full field, residual checks, convention scan
  oracle        an independent Crank-Nicolson radial propagator
  artifacts     the text of every artifact but the oracle's
  cli           config-driven commands emitting CSV artifacts

Import each name from its submodule: this namespace holds only
``__version__``, so importing it loads nothing else.
"""

__version__ = "0.1.0"
