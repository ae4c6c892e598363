"""One rule per parameter name, checked over the cross product of every export.

Each exported callable is called at one valid point, and then each of its
parameters (named by inspect.signature) is replaced in turn by every value
of a fixed corpus of bad values.  A scalar parameter has the rule of its
name, written out below independently of the package: the rule says
whether it refuses the value, and if so with which error class and
message.  A refused value must raise exactly that; a value the rule lets
through must still end in an answer or in a FluxRingError (a range,
table-size or cross-parameter check of its route).  The class matches on
every route except FieldConfig, whose every field raises ConfigError.

Choice parameters (case, geometry, convention, method) and record-typed
ones (config, f, g, problem, metadata) carry their own messages.  Array
parameters (h, computed, reference, laguerre_gen's x, a profile's r)
have no scalar rule: they refuse text with their route's "... must hold
numbers", and any other value only has to end in an answer or a typed
error.  A grid that is not iterable is a UsageError.  Left out: the
enums (a lookup by value), the row and result records the package
builds itself, GenEig2's arrays (tests/test_superposition.py) and
compute_vectors.
"""

import inspect
import math
import time

import pytest

import fluxring
from fluxring import (CaseError, ConfigError, DomainError, FieldConfig, FluxCase,
                      FluxRingError, SingularOverlapError, UsageError, ValidationError)

HUGE = 10**5000  # past Python's 4300-digit limit on int-to-str conversion
CORPUS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "text": "1", "none": None,
          "complex": 1j, "2^1100": 2**1100, "10^5000": HUGE, "-10^5000": -HUGE,
          "4.5": 4.5, "-3": -3}


def shown(value, text=repr) -> str:
    """text(value), or the size of an integer too long for it."""
    try:
        return text(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def real(value):
    """The float a real rule tests: None for text, None or complex, and the
    infinity of its sign for an integer past the float range."""
    if value is None or isinstance(value, (str, complex)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# integer rules: name -> (lowest, highest, error class); a route may tighten the bounds
INTEGERS = {
    "ell": (0, None, DomainError),
    "m": (None, None, DomainError),
    "n": (0, None, DomainError),
    "m_window": (1, None, UsageError),
    "n_grid": (None, None, UsageError),
    "k_lowest": (1, None, UsageError),
}

# real rules: name -> (test on the float, rule); NaN fails every test but alpha's
REALS = {
    "sigma_ell": (math.isfinite, "must be finite"),
    "theta": (math.isfinite, "must be finite"),
    "alpha_plus": (math.isfinite, "must be finite"),
    "alpha_minus": (math.isfinite, "must be finite"),
    "epsilon": (lambda x: x >= 0.0, "must be >= 0"),
    "delta_alpha": (lambda x: x >= 0.0, "must be >= 0"),
    "sigma": (lambda x: -1.0 <= x <= 1.0, "must lie in [-1, 1]"),
    "sigma_plus": (lambda x: -1.0 - 1e-12 <= x <= 1.0 + 1e-12, "must be in [-1, 1]"),
    "sigma_minus": (lambda x: -1.0 - 1e-12 <= x <= 1.0 + 1e-12, "must be in [-1, 1]"),
    "residual": (lambda x: x >= 0.0, "must be >= 0"),
    "alpha": (lambda x: True, "must be a real number"),
    "beta_mag2": (lambda x: x >= 0.0, "must be >= 0"),
    "a": (lambda x: math.isfinite(x) and x > -1.0, "must be finite and > -1"),
    "x": (lambda x: x > 0.0, "must be > 0"),
    "tolerance_scale": (lambda x: math.isfinite(x) and x >= 0.0, "must be finite and >= 0"),
}


def expected(name: str, value, lo=None, hi=None):
    """(error class, message) of the rule of name for value, or None when it passes."""
    if name in INTEGERS:
        low, high, error = INTEGERS[name]
        low, high = low if lo is None else lo, high if hi is None else hi
        if not isinstance(value, int):
            return error, f"{name} must be an integer, got {shown(value)}"
        if (low is not None and value < low) or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            return error, f"{name} must be {bounds}, got {shown(value)}"
        return None
    if name == "beta":
        if value is None or isinstance(value, str):
            return DomainError, f"beta must be a complex number, got {shown(value)}"
        weight = abs(complex(real(value) if isinstance(value, int) else value)) ** 2
        if not math.isfinite(weight):
            return DomainError, f"beta and |beta|^2 must be finite, got {shown(value)}"
        return None
    test, rule = REALS[name]
    number = real(value)
    if number is None or not test(number):
        return DomainError, f"{name} {rule}, got {shown(value)}"
    if name == "epsilon" and number >= 1.0:
        return SingularOverlapError, f"epsilon = {shown(value, str)} >= 1"
    return None


class Rule:
    """A parameter with the scalar rule of `name`, within a route's bounds.
    A grid takes the value as its one entry; none_ok lets a None default through."""

    def __init__(self, name, lo=None, hi=None, grid=False, none_ok=False):
        self.name, self.lo, self.hi, self.grid, self.none_ok = name, lo, hi, grid, none_ok

    def given(self, value):
        return [value] if self.grid else value

    def outcome(self, value):
        if value is None and self.none_ok:
            return None
        return expected(self.name, value, self.lo, self.hi)


class Own:
    """A choice or record-typed parameter: every corpus value is refused with its
    message; none_ok lets a None default through."""

    def __init__(self, error, message, none_ok=False):
        self.error, self.message, self.none_ok = error, message, none_ok

    def given(self, value):
        return value

    def outcome(self, value):
        if value is None and self.none_ok:
            return None
        return self.error, self.message.format(shown(value))


class Array:
    """An array parameter of the route that names it `what`: text is refused with
    the route's error, and any other value may end in an answer or a typed error."""

    def __init__(self, error, what):
        self.error, self.message = error, f"{what} must hold numbers"

    def given(self, value):
        return value

    def outcome(self, value):
        return (self.error, self.message) if isinstance(value, str) else None


CASE = Own(CaseError, "unknown flux case {}")
GEOMETRY = Own(ConfigError, "unknown geometry {}")
CONVENTION = Own(UsageError, "unknown overlap convention {}")
PROFILE = fluxring.radial_wavefunction(4, 1.0, 0, -1)
BLOCK = fluxring.build_block("i", "ring", 4, 1.0, 0.1)
POINT = dict(case="i", ell=4, sigma_ell=1.0, epsilon=0.1, theta=0.0)

# export -> (callable, its valid point, a spec for each parameter that differs from
# Rule(parameter name)); the point names every parameter the cross product covers
EXPORTS = {
    "FieldConfig": (FieldConfig, dict(alpha_plus=2.0, alpha_minus=0.5, beta=1.0, theta=0.0,
                                      ell=4), {}),
    "CaseClassification": (fluxring.CaseClassification,
                           dict(case=FluxCase.CASE_I, residual=0.0),
                           {"case": Own(CaseError, "case must be a FluxCase, got {}")}),
    "SpinPair": (fluxring.SpinPair, dict(sigma_plus=0.6, sigma_minus=-0.6), {}),
    "case_of": (fluxring.case_of, dict(case="i"), {"case": CASE}),
    "as_geometry_kind": (fluxring.as_geometry_kind, dict(value="ring"), {"value": GEOMETRY}),
    "mean_spin": (fluxring.mean_spin, dict(alpha=2.0, beta_mag2=1.0), {}),
    "classify_flux_case": (fluxring.classify_flux_case,
                           dict(config=FieldConfig(2.0, 0.5, 1.0, ell=4)),
                           {"config": Own(ConfigError, "config must be a FieldConfig, got {}")}),
    "epsilon_param": (fluxring.epsilon_param, dict(delta_alpha=1.0, sigma=0.6,
                                                   convention="paper"),
                      {"convention": CONVENTION}),
    "ring_energy": (fluxring.ring_energy, dict(ell=4, sigma_ell=1.0, m=-1), {}),
    "ground_m": (fluxring.ground_m, dict(sigma_ell=1.0), {}),
    "ring_gap": (fluxring.ring_gap, dict(ell=4, sigma_ell=1.0), {}),
    "ring_spectrum_sweep": (fluxring.ring_spectrum_sweep,
                            dict(ell=4, sigma_ell_values=[1.0], m_window=3),
                            {"sigma_ell_values": Rule("sigma_ell", grid=True),
                             "m_window": Rule("m_window", none_ok=True)}),
    "mu": (fluxring.mu, dict(ell=4, sigma_ell=1.0, m=-1), {}),
    "harmonic_energy": (fluxring.harmonic_energy, dict(ell=4, sigma_ell=1.0, n=0, m=-1), {}),
    "ground_quantum_numbers": (fluxring.ground_quantum_numbers, dict(sigma_ell=1.0), {}),
    "harmonic_gap": (fluxring.harmonic_gap, dict(ell=4, sigma_ell=1.0), {}),
    "harmonic_spectrum_sweep": (fluxring.harmonic_spectrum_sweep,
                                dict(ell=4, sigma_ell_values=[1.0], m_window=3),
                                {"sigma_ell_values": Rule("sigma_ell", grid=True),
                                 "m_window": Rule("m_window", none_ok=True)}),
    "laguerre_gen": (fluxring.laguerre_gen, dict(n=2, a=1.0, x=2.0),
                     {"x": Array(DomainError, "x")}),
    "log_gamma": (fluxring.log_gamma, dict(x=2.5), {}),
    "radial_wavefunction": (fluxring.radial_wavefunction,
                            dict(ell=4, sigma_ell=1.0, n=0, m=-1), {}),
    "RadialFunction.__call__": (PROFILE, dict(r=1.0), {"r": Array(DomainError, "r")}),
    "superpose_ring": (fluxring.superpose_ring, POINT, {"case": CASE}),
    "superpose_harmonic": (fluxring.superpose_harmonic, POINT, {"case": CASE}),
    "small_eps_delta_e": (fluxring.small_eps_delta_e,
                          dict(case="i", geometry="ring", ell=4, sigma_ell=1.0, epsilon=0.1),
                          {"case": CASE, "geometry": GEOMETRY}),
    "feasibility_sweep": (fluxring.feasibility_sweep,
                          dict(case="i", geometry="ring", ell=4, sigma_ell_values=[1.0],
                               delta_alpha_values=[1.0], theta=0.0, convention="paper"),
                          {"case": CASE, "geometry": GEOMETRY, "convention": CONVENTION,
                           "sigma_ell_values": Rule("sigma_ell", grid=True),
                           "delta_alpha_values": Rule("delta_alpha", grid=True)}),
    "feasibility_boundary": (fluxring.feasibility_boundary,
                             dict(case="i", geometry="ring", ell=4, sigma_ell=1.0, theta=0.0,
                                  convention="paper"),
                             {"case": CASE, "geometry": GEOMETRY, "convention": CONVENTION}),
    "build_block": (fluxring.build_block, dict(POINT, geometry="ring", m=-1),
                    {"case": CASE, "geometry": GEOMETRY, "m": Rule("m", none_ok=True)}),
    "gen_eig_2x2": (fluxring.gen_eig_2x2, dict(problem=BLOCK),
                    {"problem": Own(DomainError,
                                    "problem must be a GenEig2 or an (h, a) pair, got {}")}),
    "OracleReport.from_arrays": (fluxring.OracleReport.from_arrays,
                                 dict(computed=[1.0], reference=[1.0], metadata=None),
                                 {"computed": Array(ValidationError, "computed and reference"),
                                  "reference": Array(ValidationError, "computed and reference"),
                                  "metadata": Own(ValidationError,
                                                  "metadata must be a mapping or None, got {}",
                                                  none_ok=True)}),
    "hermitian_eigs": (fluxring.hermitian_eigs, dict(h=[[1.0]]),
                       {"h": Array(ValidationError, "h")}),
    "ring_fd_spectrum": (fluxring.ring_fd_spectrum,
                         dict(ell=4, sigma_ell=1.2, n_grid=64, k_lowest=9, method="circulant"),
                         {"n_grid": Rule("n_grid", lo=64), "k_lowest": Rule("k_lowest", hi=64),
                          "method": Own(UsageError, "unknown method {}")}),
    "radial_fd_spectrum": (fluxring.radial_fd_spectrum,
                           dict(ell=4, sigma_ell=1.0, m=-1, n_grid=2000, k_lowest=2),
                           {"n_grid": Rule("n_grid", lo=2000),
                            "k_lowest": Rule("k_lowest", hi=1999)}),
    "superposition_block_scan": (fluxring.superposition_block_scan,
                                 dict(POINT, geometry="ring"),
                                 {"case": CASE, "geometry": GEOMETRY}),
    "quadrature_norm": (fluxring.quadrature_norm, dict(f=PROFILE),
                        {"f": Own(DomainError, "f must be a RadialFunction, got {}")}),
    "quadrature_overlap": (fluxring.quadrature_overlap, dict(f=PROFILE, g=PROFILE),
                           {"f": Own(DomainError, "f must be a RadialFunction, got {}"),
                            "g": Own(DomainError, "g must be a RadialFunction, got {}")}),
    "run_verification": (fluxring.run_verification,
                         dict(ring_grid=64, radial_grid=2000, tolerance_scale=1.0),
                         {"ring_grid": Rule("n_grid", lo=64),
                          "radial_grid": Rule("n_grid", lo=2000)}),
}

def _parameters(call) -> list[str]:
    """The parameter names of call, a record's fields for a record."""
    if isinstance(call, type) and hasattr(call, "_SETTERS"):
        return list(call.__slots__)
    return list(inspect.signature(call).parameters)


def _cases():
    for export, (call, point, specs) in EXPORTS.items():
        covered = [name for name in _parameters(call) if name in point]
        for name in covered:
            spec = specs.get(name) or Rule(name)
            for label, value in CORPUS.items():
                yield pytest.param(export, name, spec, value, id=f"{export}-{name}-{label}")


def _call(export: str, name: str, value):
    call, point, specs = EXPORTS[export]
    spec = specs.get(name) or Rule(name)
    return call(**dict(point, **{name: spec.given(value)}))


@pytest.mark.parametrize("export", sorted(EXPORTS))
def test_every_export_covers_its_parameters_and_returns_at_its_point(export):
    call, point, specs = EXPORTS[export]
    left_out = {"compute_vectors"}
    assert set(point) == set(_parameters(call)) - left_out
    assert set(specs) <= set(point)
    call(**point)


@pytest.mark.filterwarnings("ignore::fluxring.ExpansionWarning")
@pytest.mark.parametrize("export, name, spec, value", list(_cases()))
def test_bad_value_ends_in_its_rule(export, name, spec, value):
    want = spec.outcome(value)
    start = time.perf_counter()
    try:
        _call(export, name, value)
    except FluxRingError as exc:
        got = (type(exc), str(exc))
    else:
        got = None
    assert time.perf_counter() - start < 1.0
    if want is None:
        return  # an answer or a typed error of the route
    error, message = want
    if export == "FieldConfig":
        error = ConfigError
    assert got == (error, message)


def _takers() -> dict:
    """Each scalar rule name without route bounds, with the (export, parameter,
    spec) triples that take it."""
    takers: dict = {}
    for export, (call, point, specs) in EXPORTS.items():
        for name in point:
            spec = specs.get(name) or Rule(name)
            if isinstance(spec, Rule) and spec.lo is None and spec.hi is None:
                takers.setdefault(spec.name, []).append((export, name, spec))
    return {name: triples for name, triples in takers.items() if len(triples) > 1}


@pytest.mark.filterwarnings("ignore::fluxring.ExpansionWarning")
@pytest.mark.parametrize("name", sorted(_takers()))
def test_a_name_refuses_a_value_with_one_message_on_every_route(name):
    """Where the rule of a name refuses a value, every export that takes the name
    raises the same message, and the same class outside FieldConfig."""
    for label, value in CORPUS.items():
        messages, classes = set(), set()
        for export, parameter, spec in _takers()[name]:
            if spec.outcome(value) is None:  # a None default
                continue
            with pytest.raises(FluxRingError) as caught:
                _call(export, parameter, value)
            messages.add(str(caught.value))
            if export != "FieldConfig":
                classes.add(type(caught.value))
        assert len(messages) <= 1 and len(classes) <= 1, (label, messages, classes)


SWEEP_ORDER = {
    "boundary-text-ell": (lambda: fluxring.feasibility_boundary("i", "ring", "4", 1.0),
                          "ell must be an integer, got '4'"),
    "sweep-text-ell": (lambda: fluxring.feasibility_sweep("i", "ring", "4", [1.0], [1.0]),
                       "ell must be an integer, got '4'"),
    "boundary-none-sigma_ell": (lambda: fluxring.feasibility_boundary("i", "ring", 4, None),
                                "sigma_ell must be finite, got None"),
    "sweep-none-sigma_ell": (lambda: fluxring.feasibility_sweep("i", "ring", 4, [None], [1.0]),
                             "sigma_ell must be finite, got None"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_ORDER))
def test_sweeps_check_each_parameter_by_its_rule_before_comparing_them(case):
    """|sigma_ell| < ell was compared before either had faced its rule: a text ell
    raised a UsageError naming sigma_ell, and a None sigma_ell a bare TypeError."""
    call, message = SWEEP_ORDER[case]
    with pytest.raises(FluxRingError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (DomainError, message)


GRIDS = [("ring_spectrum_sweep", "sigma_ell_values", "sigma_ell"),
         ("harmonic_spectrum_sweep", "sigma_ell_values", "sigma_ell"),
         ("feasibility_sweep", "sigma_ell_values", "sigma_ell"),
         ("feasibility_sweep", "delta_alpha_values", "delta_alpha")]


@pytest.mark.parametrize("label", sorted(set(CORPUS) - {"text"}))  # text is a grid of letters
@pytest.mark.parametrize("export, parameter, grid", GRIDS,
                         ids=[f"{export}-{parameter}" for export, parameter, _ in GRIDS])
def test_a_grid_that_is_not_iterable_is_a_usage_error(export, parameter, grid, label):
    """Iterating None or a number raised a bare TypeError."""
    call, point, _ = EXPORTS[export]
    value = CORPUS[label]
    with pytest.raises(FluxRingError) as caught:
        call(**dict(point, **{parameter: value}))
    assert (type(caught.value), str(caught.value)) == (
        UsageError, f"{grid} grid must be iterable, got {shown(value)}")


@pytest.mark.parametrize("call, error, message", [
    (lambda: fluxring.hermitian_eigs("x"), ValidationError, "h must hold numbers"),
    (lambda: fluxring.OracleReport.from_arrays("a", "b"), ValidationError,
     "computed and reference must hold numbers"),
    (lambda: PROFILE("x"), DomainError, "r must hold numbers"),
    (lambda: fluxring.laguerre_gen(1, 1.0, "x"), DomainError, "x must hold numbers"),
    (lambda: PROFILE([1.0, math.inf]), DomainError, "r must be in [0, 1.8961503816218352e+154]"),
    (lambda: fluxring.laguerre_gen(1, 1.0, "1"), DomainError, "x must hold numbers"),
    (lambda: fluxring.hermitian_eigs([["2"]]), ValidationError, "h must hold numbers"),
    (lambda: PROFILE("1"), DomainError, "r must hold numbers"),
    (lambda: fluxring.GenEig2([["1", "0"], ["0", "2"]], [[1.0, 0.0], [0.0, 1.0]]),
     DomainError, "h and a must hold numbers"),
    (lambda: fluxring.OracleReport.from_arrays(["1"], ["1"]), ValidationError,
     "computed and reference must hold numbers"),
], ids=["hermitian_eigs", "from_arrays", "profile", "laguerre_gen", "profile-inf",
        "laguerre_gen-text", "hermitian_eigs-text", "profile-text", "GenEig2-text",
        "from_arrays-text"])
def test_an_array_that_holds_no_numbers_is_a_typed_error(call, error, message):
    """The first four raised a bare ValueError from np.asarray, and an infinite
    radius an invalid-value RuntimeWarning with a NaN profile.  The text cases
    answered: numpy parses "1" as the number 1."""
    with pytest.raises(FluxRingError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)
