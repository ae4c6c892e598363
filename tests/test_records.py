"""The contract of the package's frozen records.

Each record is a fixed tuple of named fields: it prints them, compares
and hashes by them, refuses to change, pickles by value, and takes its
fields positionally, by keyword or (where it has them) by default.
"""

import math
import pickle

import pytest

from fluxring import (CaseClassification, FieldConfig, FluxCase, GeometryKind, RadialFunction,
                      SpinPair, SuperpositionResult)

XI = ((-0.1 + 0j), (0.005 + 0j))
ZETA = ((-0.1 + 0j), (1.995 + 0j))
XI_UNIT = ((-0.99 + 0j), (0.05 + 0j))
ZETA_UNIT = ((-0.05 + 0j), (0.99 + 0j))

# record, its fields in order, every field's value, the same with one field
# changed, and the literal repr of the first
RECORDS = {
    "SuperpositionResult": (
        SuperpositionResult,
        ("case", "geometry", "ell", "sigma_ell", "epsilon", "theta", "m_check", "e_zero",
         "e_plus", "e_minus", "delta_e", "gap", "mixing_ratio", "feasible", "boundary",
         "xi", "zeta", "xi_unit", "zeta_unit"),
        (FluxCase.CASE_I, GeometryKind.RING, 4, 1.0, 0.1, 0.0, -1, 15.0, 14.99, 19.01,
         -0.01, 1.0, 0.0025, True, False, XI, ZETA, XI_UNIT, ZETA_UNIT),
        (FluxCase.CASE_I, GeometryKind.RING, 4, 1.0, 0.1, 0.0, -1, 15.0, 14.99, 19.01,
         -0.01, 1.0, 0.0025, True, False, XI, ZETA, XI_UNIT, ZETA),
        "SuperpositionResult(case=<FluxCase.CASE_I: 'i'>, geometry=<GeometryKind.RING: "
        "'ring'>, ell=4, sigma_ell=1.0, epsilon=0.1, theta=0.0, m_check=-1, e_zero=15.0, "
        "e_plus=14.99, e_minus=19.01, delta_e=-0.01, gap=1.0, mixing_ratio=0.0025, "
        "feasible=True, boundary=False)"),
    "CaseClassification": (
        CaseClassification, ("case", "residual"),
        (FluxCase.CASE_II, 0.0), (FluxCase.CASE_II, 1e-12),
        "CaseClassification(case=<FluxCase.CASE_II: 'ii'>, residual=0.0)"),
    "SpinPair": (
        SpinPair, ("sigma_plus", "sigma_minus"),
        (0.6, -0.6), (0.6, -0.5),
        "SpinPair(sigma_plus=0.6, sigma_minus=-0.6)"),
    "FieldConfig": (
        FieldConfig, ("alpha_plus", "alpha_minus", "beta", "theta", "ell"),
        (2.0, 0.5, 1j, 0.5, 3), (2.0, 0.5, 1j, 0.5, 4),
        "FieldConfig(alpha_plus=2.0, alpha_minus=0.5, beta=1j, theta=0.5, ell=3)"),
    "RadialFunction": (
        RadialFunction, ("ell", "sigma_ell", "n", "m", "mu", "log_norm"),
        (4, 1.0, 0, -1, 3.5, -2.25), (4, 1.0, 0, -1, 3.5, -2.5),
        "RadialFunction(ell=4, sigma_ell=1.0, n=0, m=-1, mu=3.5)"),
}

record_cases = pytest.mark.parametrize("name", list(RECORDS))


@record_cases
def test_repr_names_the_shown_fields(name):
    cls, _, values, _, text = RECORDS[name]
    assert repr(cls(*values)) == text


@record_cases
def test_equality_and_hash_follow_the_fields(name):
    cls, fields, values, changed, _ = RECORDS[name]
    record = cls(*values)
    twin, other = cls(*values), cls(*changed)
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values)
    assert record != other and not record == other
    assert tuple(getattr(record, f) for f in fields) == values
    assert tuple(getattr(other, f) for f in fields) == changed


@record_cases
def test_another_class_is_never_equal(name):
    cls, _, values, _, _ = RECORDS[name]
    record = cls(*values)
    assert record.__eq__(values) is NotImplemented
    assert record != values and record != object()
    for other_name, (other_cls, _, other_values, _, _) in RECORDS.items():
        if other_name != name:
            assert record != other_cls(*other_values)
            assert record.__eq__(other_cls(*other_values)) is NotImplemented


@record_cases
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, fields, values, changed, _ = RECORDS[name]
    record = cls(*values)
    for field, value in zip(fields, changed):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert tuple(getattr(record, f) for f in fields) == values


@record_cases
def test_pickle_round_trip(name):
    cls, _, values, _, text = RECORDS[name]
    record = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls
        assert copy == record and hash(copy) == hash(record) and repr(copy) == text


@record_cases
def test_positional_and_keyword_construction_agree(name):
    cls, fields, values, _, _ = RECORDS[name]
    record = cls(*values)
    assert cls(**dict(zip(fields, values))) == record
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == record
    assert cls(**dict(reversed(list(zip(fields, values))))) == record


def test_field_config_defaults_theta_and_ell():
    config = FieldConfig(2.0, 0.5, 1j)
    assert (config.theta, config.ell) == (0.0, 1)
    assert config == FieldConfig(2.0, 0.5, 1j, 0.0, 1)
    assert FieldConfig(2.0, 0.5, 1j, ell=3) == FieldConfig(2.0, 0.5, 1j, 0.0, 3)
    assert FieldConfig(beta=1j, alpha_minus=0.5, alpha_plus=2.0, theta=0.5) == FieldConfig(
        2.0, 0.5, 1j, 0.5)


@record_cases
def test_a_bad_argument_list_is_a_type_error(name):
    cls, fields, values, _, _ = RECORDS[name]
    keywords = dict(zip(fields, values))
    required = 3 if cls is FieldConfig else len(fields)
    bad_calls = {
        "none": ((), {}),
        "missing": (values[:required - 1], {}),
        "missing keyword": ((), {f: v for f, v in keywords.items() if f != fields[1]}),
        "extra": ((*values, values[0]), {}),
        "unknown": (values, {"no_such_field": 1}),
        "repeated": (values[:1], {fields[0]: values[0], **dict(zip(fields[1:], values[1:]))}),
    }
    for label, (args, kwargs) in bad_calls.items():
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
            pytest.fail(f"{label} call built a record")


def test_records_keep_their_checks():
    """Every way of building a record runs its field checks."""
    from fluxring import CaseError, ConfigError, DomainError

    with pytest.raises(DomainError):
        SpinPair(sigma_plus=math.nan, sigma_minus=0.0)
    with pytest.raises(CaseError):
        CaseClassification(residual=0.0, case="i")
    with pytest.raises(ConfigError):
        FieldConfig(2.0, 0.5, 1j, ell=-1)
    assert FieldConfig(alpha_plus=2, alpha_minus=1, beta=3).beta == 3 + 0j
