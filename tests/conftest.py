"""Shared fixtures: the standard coefficient sets and solved chains.

The expensive chains are session-scoped; tests must treat them as
read-only.
"""

import pytest

from invosc.ode import default_alpha0, solve_chain
from invosc.params import CoefficientSet, TimeFunction
from invosc.wavefunction import ConventionFlags, ModeSpec

SPAN = (0.0, 1.0)

# The convention reading every scan in this suite selects.
WINNER = ConventionFlags(exponent_sign=-1, exponent_half=0.5, alpha_branch=+1)


def make_coeffs(m=1.0, w=1.0, B=1.0, q=1.0, C=1.5, span=SPAN):
    """CoefficientSet from scalars or ready TimeFunctions."""
    def fn(v):
        return v if isinstance(v, TimeFunction) else TimeFunction.constant(v, span)
    return CoefficientSet(mass=fn(m), frequency=fn(w), magnetic_field=fn(B),
                          charge=q, coupling=C)


def count_calls(monkeypatch, owner, names):
    """Wrap each named attribute of ``owner`` to count its calls.

    Returns {name: calls so far}; the wrappers pass every call through.
    """
    seen = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return seen


def make_chain(coeffs, k=1.0, branch=+1, **kw):
    alpha0 = default_alpha0(coeffs, coeffs.span[0], branch=branch)
    return solve_chain(coeffs, k, span=coeffs.span, alpha0=alpha0, **kw)


@pytest.fixture(scope="session")
def coeffs_c15():
    return make_coeffs()


@pytest.fixture(scope="session")
def coeffs_c0():
    return make_coeffs(C=0.0)


@pytest.fixture(scope="session")
def coeffs_ramp():
    return make_coeffs(m=TimeFunction.linear(1.0, 0.1, SPAN))


@pytest.fixture(scope="session")
def chain_c15(coeffs_c15):
    return make_chain(coeffs_c15)


@pytest.fixture(scope="session")
def chain_ramp(coeffs_ramp):
    return make_chain(coeffs_ramp)


@pytest.fixture(scope="session")
def mode_c15():
    return ModeSpec.from_coupling(k=1.0, n=1, C=1.5, conventions=WINNER)
