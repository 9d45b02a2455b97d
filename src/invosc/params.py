"""Time-dependent physical coefficients and the constants built from them.

The model is a charged particle in the plane with Hamiltonian pieces driven
by three scalar functions of time: the mass m(t), the trap frequency
omega(t), and the magnetic field B(t) in symmetric gauge, plus the constant
charge q and the inverse-square coupling C.  Everything downstream (the
transformation chain, the residual operator, the radial propagator) pulls
its coefficients from here, so the evaluators must be cheap and
vectorized.

Natural units throughout: hbar = c = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvoscError, NonFinite, OutOfDomain

# Past this phase |angular_frequency t|, adjacent float times are a radian
# or more apart, so a sinusoid there is float noise.
_MAX_PHASE = 2.0 ** 52

# Points used when a positivity check has no closed form.
_POSITIVITY_SAMPLES = 1024


def _span_bounds(span):
    """(lo, hi) that every span check accepts: ``span`` widened by 1e-12
    of its largest endpoint magnitude (at least 1e-12), so that adaptive
    integrators probing an endpoint do not trip on representation error."""
    t0, t1 = span
    slack = 1e-12 * max(1.0, abs(t0), abs(t1))
    return t0 - slack, t1 + slack


def within_span(t, span):
    """Whether every time in ``t`` lies in ``span`` up to its slack; NaN
    does not."""
    lo, hi = _span_bounds(span)
    t = np.asarray(t, dtype=float)
    return bool(np.all((t >= lo) & (t <= hi)))


@dataclass(frozen=True)
class TimeFunction:
    """One scalar coefficient of time on a fixed span.

    Instances are built through the family constructors (``constant``,
    ``linear``, ...) rather than directly; the constructors validate the
    family parameters and precompute whatever ``value`` needs.  ``value``
    accepts scalars or numpy arrays and is pure; out-of-span input raises
    ``OutOfDomain``.
    """

    family: str
    span: tuple[float, float]
    params: tuple = ()
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        t0, t1 = self.span
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise ValueError(f"degenerate span {self.span}")
        if any(not math.isfinite(p) for p in self.params):
            raise NonFinite(f"{self.family} family has non-finite parameters")
        gam = self.params[1] if self.family == "sinusoidal" else 0.0
        if max(abs(gam * t0), abs(gam * t1)) >= _MAX_PHASE:
            raise NonFinite(f"sinusoidal family's phase reaches 2^52 on the "
                            f"span {self.span}")
        object.__setattr__(self, "_bounds", _span_bounds(self.span))

    # -- family constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, span):
        return cls("constant", tuple(span), (float(value),))

    @classmethod
    def linear(cls, intercept, slope, span):
        """intercept + slope * t."""
        return cls("linear", tuple(span), (float(intercept), float(slope)))

    @classmethod
    def exponential(cls, base, rate, span):
        """base * exp(rate * t)."""
        return cls("exponential", tuple(span), (float(base), float(rate)))

    @classmethod
    def sinusoidal(cls, amplitude, angular_frequency, span, offset=0.0):
        """offset + amplitude * cos(angular_frequency * t)."""
        return cls("sinusoidal", tuple(span),
                   (float(amplitude), float(angular_frequency), float(offset)))

    @classmethod
    def polynomial(cls, coeffs, span):
        """Polynomial in t with coefficients in ascending order."""
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            raise ValueError("polynomial needs at least one coefficient")
        return cls("polynomial", tuple(span), cs)

    @classmethod
    def tabulated(cls, times, values, span=None):
        """Natural cubic spline through the samples; exact at the nodes.

        The span defaults to the sample range.  Sample times must be
        strictly increasing.
        """
        # Imported here: no bundled config tabulates, and scipy.interpolate
        # (with scipy.optimize behind it) adds ~40% to ``import invosc``.
        from scipy.interpolate import CubicSpline

        ts = np.asarray(times, dtype=float)
        vs = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 2:
            raise ValueError("tabulated family needs matching 1-d time/value arrays")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("tabulated sample times must be strictly increasing")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
            raise NonFinite("tabulated samples contain non-finite entries")
        spline = CubicSpline(ts, vs, bc_type="natural")
        if span is None:
            span = (float(ts[0]), float(ts[-1]))
        return cls("tabulated", tuple(span), tuple(ts) + tuple(vs), spline)

    # -- evaluation -----------------------------------------------------------

    def _check_span(self, t):
        """t as float64, checked against the span.

        A scalar comes back as a numpy float64 and is checked with float
        comparisons: the transformation chain calls the evaluators once per
        scalar time, and there numpy's reductions cost ten times the
        formula.  Arrays keep the vectorized check.  Both tests are
        written so that a NaN time fails them.
        """
        t = np.asarray(t, dtype=float)
        t0, t1 = self.span
        lo, hi = self._bounds
        if t.ndim == 0:
            t = t[()]
            if not lo <= t <= hi:
                raise OutOfDomain(f"t={float(t)} outside span [{t0}, {t1}]")
            return t
        bad = ~((t >= lo) & (t <= hi))
        if np.any(bad):
            first = float(t[bad][0])
            raise OutOfDomain(f"t={first} outside span [{t0}, {t1}]")
        return t

    def value(self, t):
        """The function at t, or NonFinite; a scalar t gives a Python float."""
        t = self._check_span(t)
        out = self._raw_value(t)
        scalar = t.ndim == 0
        if not (math.isfinite(out) if scalar else np.all(np.isfinite(out))):
            raise NonFinite(f"{self.family} evaluation produced non-finite values")
        return float(out) if scalar else out

    __call__ = value

    def _raw_value(self, t):
        p = self.params
        if self.family == "constant":
            return np.broadcast_to(p[0], t.shape).copy() if t.ndim else np.asarray(p[0])
        if self.family == "linear":
            return p[0] + p[1] * t
        if self.family == "exponential":
            return p[0] * np.exp(p[1] * t)
        if self.family == "sinusoidal":
            amp, gam, off = p
            return off + amp * np.cos(gam * t)
        if self.family == "polynomial":
            return np.polynomial.polynomial.polyval(t, p)
        return self._spline(t)

    def knots(self):
        """Where the coefficient's third derivative jumps: a tabulated
        coefficient's interior sample times, else ()."""
        if self.family != "tabulated":
            return ()
        return self.params[1:len(self.params) // 2 - 1]

    # -- sign analysis --------------------------------------------------------

    def minimum_on_span(self):
        """A certified lower bound for the function on its span.

        The function at its endpoints and interior critical points: the
        real roots of a polynomial's derivative, the exact piecewise roots
        of the spline's derivative.  This backs the construction-time mass
        positivity check, where between-sample dips must not slip through.
        A value that overflows is NonFinite.
        """
        t0, t1 = self.span
        p = self.params
        cands = [t0, t1]
        if self.family == "sinusoidal":
            amp, gam, off = p
            if gam != 0.0:
                # cos extrema at gam*t = j*pi; two consecutive ones hold
                # both cos = 1 and cos = -1, so the minimum is reached
                lo, hi = sorted((gam * t0, gam * t1))
                j0, j1 = math.ceil(lo / math.pi), math.floor(hi / math.pi)
                if j1 > j0:
                    return off - abs(amp)
                if j1 == j0:
                    cands.append(j0 * math.pi / gam)
            return min(off + amp * math.cos(gam * tc) for tc in cands)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == "polynomial" and len(p) > 2:
                # the roots do not depend on the coefficients' scale, and
                # at unit scale the derivative cannot overflow
                poly = np.polynomial.polynomial
                unit = np.divide(p, max(map(abs, p)) or 1.0)
                try:
                    roots = poly.polyroots(poly.polyder(unit))
                except np.linalg.LinAlgError:
                    # a leading coefficient this small against the others
                    # overflows the companion matrix
                    raise NonFinite("polynomial family's critical points "
                                    "overflow: its leading coefficient is "
                                    "negligible against the others") from None
                cands += [float(r.real) for r in roots
                          if abs(r.imag) < 1e-12 and t0 <= r.real <= t1]
            elif self.family == "tabulated":
                cands += [float(r) for r in
                          self._spline.derivative().roots(extrapolate=False)
                          if t0 <= r <= t1]
            vals = self._raw_value(np.asarray(cands))
        if not np.isfinite(vals).all():
            raise NonFinite(f"{self.family} family overflows on the span "
                            f"{self.span}")
        return float(vals.min())


# Each family's constructor and the Section.read table of the keys it
# reads besides ``family``, each named after the constructor's parameter.
FAMILIES = {
    "constant": (TimeFunction.constant, {"value": "float"}),
    "linear": (TimeFunction.linear, {"intercept": "float", "slope": "float"}),
    "exponential": (TimeFunction.exponential,
                    {"base": "float", "rate": "float"}),
    "sinusoidal": (TimeFunction.sinusoidal,
                   {"amplitude": "float", "angular_frequency": "float",
                    "offset": ("float", 0.0)}),
    "polynomial": (TimeFunction.polynomial, {"coeffs": "floats"}),
    "tabulated": (TimeFunction.tabulated,
                  {"times": "floats", "values": "floats"}),
}


def _sample_sign_ok(f, lo, strict):
    """Secondary sampled check backing the closed-form bound."""
    ts = np.linspace(f.span[0], f.span[1], _POSITIVITY_SAMPLES)
    vals = np.asarray(f.value(ts))
    return bool(np.all(vals > 0) if strict else np.all(vals >= lo))


class CoefficientRangeError(ValueError):
    """A coefficient leaves its allowed range on the span; ``coefficient``
    names the CoefficientSet field at fault (also its config section)."""

    def __init__(self, coefficient, message):
        super().__init__(message)
        self.coefficient = coefficient


@dataclass(frozen=True)
class CoefficientSet:
    """The full physical input: m(t), omega(t), B(t), q, C.

    The scalar potential is zero by the gauge choice.  Mass positivity and frequency nonnegativity are enforced at construction by
    exact per-family bounds plus a 1024-point sample sweep.
    """

    mass: TimeFunction
    frequency: TimeFunction
    magnetic_field: TimeFunction
    charge: float
    coupling: float

    def __post_init__(self):
        if not (math.isfinite(self.charge) and math.isfinite(self.coupling)):
            raise NonFinite("charge and coupling must be finite")
        span = self.span
        if span[0] >= span[1]:
            raise ValueError("coefficient spans have an empty intersection")
        self._check_sign("mass", True, "nonpositive mass")
        self._check_sign("frequency", False, "negative frequency")

    def _check_sign(self, name, strict, what):
        """Refuse the coefficient ``name`` where it is <= 0 (``strict``) or
        < 0 on the span, and where the check overflows: either way a
        CoefficientRangeError names it, an overflow with its cause."""
        f = getattr(self, name)
        try:
            low = f.minimum_on_span()
            ok = low > 0.0 if strict else low >= 0.0
            ok = ok and _sample_sign_ok(f, 0.0, strict)
        except NonFinite as exc:
            raise CoefficientRangeError(name, f"{name}: {exc}") from exc
        if not ok:
            raise CoefficientRangeError(name, f"{what} on the configured span")

    @property
    def span(self):
        t0 = max(f.span[0] for f in (self.mass, self.frequency, self.magnetic_field))
        t1 = min(f.span[1] for f in (self.mass, self.frequency, self.magnetic_field))
        return (t0, t1)

    def describe(self):
        """Canonical one-line description, as the run summary records it."""
        def one(f):
            ps = ",".join(f"{p!r}" for p in f.params)
            return f"{f.family}({ps})@[{f.span[0]!r},{f.span[1]!r}]"
        return (f"m={one(self.mass)};w={one(self.frequency)};"
                f"B={one(self.magnetic_field)};q={self.charge!r};C={self.coupling!r}")


def coefficient_terms(coeffs: CoefficientSet, t):
    """(m, W^2, r) at t from one value() call per coefficient.

    W^2 = omega^2 + q^2 B^2 / (4 m^2) is the trap frequency squared after
    the magnetic term is folded in, and r = q B / (4 m) the angular rate
    of the frame rotation that cancels the velocity-dependent cross
    term.  This single definition feeds the chain, the rotation angle
    quadrature, the residual operator's cross term and the radial
    sector shift, so they stay mutually consistent by construction.
    """
    m = coeffs.mass.value(t)
    w = coeffs.frequency.value(t)
    qb = coeffs.charge * coeffs.magnetic_field.value(t)
    try:
        w2 = w * w + qb * qb / (4.0 * m * m)
    except ZeroDivisionError:   # float 4 m^2 is 0 below m ~ 1e-162
        w2 = math.inf
    # a finite W^2 bounds |r| by W / 2; value() gives a float for a scalar
    # t, which gets the cheap test once per chain stage
    scalar = isinstance(w2, float)
    if not (math.isfinite(w2) if scalar else np.all(np.isfinite(w2))):
        at = t if scalar else np.asarray(t, dtype=float)[~np.isfinite(w2)][0]
        raise NonFinite(f"W^2 = omega^2 + (q B)^2 / (4 m^2) is not finite "
                        f"at t={at}")
    return m, w2, qb / (4.0 * m)


# -- config file scanning -----------------------------------------------------

def _floats(raw):
    values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    if not values:
        raise ValueError("empty list")
    return values


# Each reader name of a Section.read table: (parse, what a value must be
# for parse to take it, whether the value must also be finite).
_READERS = {
    "float": (float, "a number", True),
    "int": (int, "an integer", False),
    "complex": (lambda raw: complex(raw.replace(" ", "")), "a complex number",
                True),
    "str": (str, "a string", False),
    "floats": (_floats, "a non-empty number list", True),
}


class Section:
    """One parsed config section with typed key lookups.

    ``items`` maps each key to its (raw value, line number).  Every read
    that fails raises ConfigError carrying the offending line, or the
    header line when a required key is missing.  No key means anything
    with a non-finite value, so the number reads (``float``, ``floats``,
    ``complex``) refuse nan, inf and a literal that overflows to inf.
    """

    _MISSING = object()

    def __init__(self, name, header_line):
        self.name = name
        self.header_line = header_line
        self.items: dict[str, tuple[str, int]] = {}

    def _parse(self, key, reader, default=_MISSING):
        parse, what, finite = _READERS[reader]
        if key not in self.items:
            if default is self._MISSING:
                raise ConfigError(f"missing key {key!r} in [{self.name}]",
                                  self.header_line)
            return default
        raw, line = self.items[key]
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"{key} = {raw!r} is not {what}", line) from None
        if finite and not np.all(np.isfinite(value)):
            raise ConfigError(f"{key} = {raw!r} is not finite", line)
        return value

    def read(self, keys):
        """The values of ``keys`` as a dict, read in its order.

        ``keys`` maps each key to a reader name (``"float"``, ``"int"``,
        ``"complex"``, ``"str"``, ``"floats"``), or to ``(reader,
        default)`` for an optional key.  A key of the section that
        ``keys`` lacks is refused first, at its line.
        """
        for key, (_, line) in self.items.items():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{self.name}]", line)
        values = {}
        for key, spec in keys.items():
            values[key] = self._parse(key, *(
                (spec,) if isinstance(spec, str) else spec))
        return values

    def variant(self, tag, variants, **fixed):
        """The variant that key ``tag`` names, built from this section.

        ``variants`` maps each name to ``(make, keys)``.  A name it lacks
        is refused at the tag's line; otherwise the section is read
        through ``read`` from ``tag`` and ``keys``, and the variant is
        ``make(**fixed, **values)`` through ``build``.
        """
        name = self._parse(tag, "str")
        if name not in variants:
            raise ConfigError(f"unknown {tag} {name!r} in [{self.name}]",
                              self.items[tag][1])
        make, keys = variants[name]
        values = self.read({tag: "str", **keys})
        del values[tag]
        return self.build(make, **fixed, **values)

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``; a ValueError or package error that
        it raises becomes a ConfigError at this section's header."""
        try:
            return make(*args, **kwargs)
        except (ValueError, InvoscError) as exc:
            raise ConfigError(f"[{self.name}]: {exc}",
                              self.header_line) from exc


def parse_sections(text):
    """Parse the key = value config format into {name: Section}.

    The format is deliberately small: section headers in brackets, one
    key = value per line, '#' or ';' comments, blank lines.  Anything else
    is a ConfigError carrying the line number.
    """
    sections: dict[str, Section] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            current = sections[name] = Section(name, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise ConfigError("key = value before any [section]", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.split("#", 1)[0].split(";", 1)[0].strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current.items:
            raise ConfigError(f"duplicate key {key!r} in [{current.name}]",
                              lineno)
        current.items[key] = (val, lineno)
    return sections
