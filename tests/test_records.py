"""Contracts every record of the package keeps: immutable, a ``Name(field=value, ...)``
repr, and the checks of the two records that validate on every way of building one."""

import copy
import math
import pickle

import pytest

from simpbound import BoundInputs, PhiInterval, cli, integrate_01, parse
from simpbound.cli import RunConfig, cmd_sweep, cmd_verify


def _records():
    """One instance of every record type, each named by its type."""
    report = cmd_verify(RunConfig("x^4 + sin(x)", 0.0, 1.0, qs=(1.0, 2.0), certificate_samples=11))
    sweep = cmd_sweep([RunConfig("x^2", 0.0, 1.0, 0.0, (2.0,), certificate_samples=11)])
    tree = parse("-exp(x) + 2")
    records = [tree, tree.left, tree.left.arg, tree.left.arg.arg, tree.right,
               integrate_01(lambda t: t), report.identity, report.certificates[0],
               BoundInputs(1.0, 2.0, 3.0, q=2.0), report.rows_per_q[0][0],
               PhiInterval(0.0, 2.0, phi=math.pi / 4), report.config, report,
               sweep.cells[0], sweep.summary, sweep]
    return {type(record).__name__: record for record in records}


RECORDS = _records()


def _fields(record):
    return ("a", "b", "phi") if type(record) is PhiInterval else record._fields


def test_every_record_type_is_covered():
    assert sorted(RECORDS) == sorted([
        "Binary", "Unary", "Var", "Const", "QuadratureResult", "IdentityReport",
        "ConvexityCertificate", "BoundInputs", "BoundReport", "PhiInterval", "RunConfig",
        "RunReport", "SweepCell", "SweepSummary", "SweepReport"])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_refuses_attribute_assignment(name):
    record = RECORDS[name]
    for field in (*_fields(record), "chord", "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_each_field(name):
    record = RECORDS[name]
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in _fields(record))
    assert repr(record) == f"{name}({fields})"


PHI_ERRORS = [
    ((0.0, math.inf, 0.0), "interval endpoints must be finite"),
    ((2.0, 1.0, 0.0), "need a < b, got a=2.0, b=1.0"),
    ((-1e308, 1e308, 0.0), "segment length b - a must be finite, got inf"),
    ((0.0, 2.0, 2.0), "phi must lie in [0, pi/2], got 2.0"),
]


@pytest.mark.parametrize("args,message", PHI_ERRORS)
def test_phi_interval_checks_positional_and_keyword_construction(args, message):
    a, b, phi = args
    for build in (lambda: PhiInterval(a, b, phi), lambda: PhiInterval(a=a, b=b, phi=phi),
                  lambda: PhiInterval(a, b, phi=phi)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_phi_interval_stores_its_chord_and_compares_by_its_fields():
    iv = PhiInterval(0.0, 2.0, phi=math.pi / 4)
    assert "chord" in PhiInterval.__slots__
    assert iv.chord == complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) * 2.0
    same = PhiInterval(0.0, 2.0, math.pi / 4)
    assert iv == same and hash(iv) == hash(same)
    assert iv != PhiInterval(0.0, 2.0) and iv != (0.0, 2.0, math.pi / 4)
    assert copy.copy(iv) == iv == pickle.loads(pickle.dumps(iv))


BOUND_ERRORS = [
    ((-1.0, 0.0, 1.0, 1.0), "deriv_a must be finite and >= 0, got -1.0"),
    ((0.0, math.nan, 1.0, 1.0), "deriv_b must be finite and >= 0, got nan"),
    ((0.0, 0.0, 0.0, 1.0), "length must be positive, got 0.0"),
    ((0.0, 0.0, 1.0, 0.5), "q must be >= 1, got 0.5"),
    ((1000.0, 1000.0, 1.0, math.inf), "q must be finite, got inf"),
    ((0.0, 0.0, 1.0, math.nan), "q must be finite, got nan"),
]


@pytest.mark.parametrize("args,message", BOUND_ERRORS)
def test_bound_inputs_check_every_way_of_building_one(args, message):
    keywords = dict(zip(BoundInputs._fields, args))
    valid = BoundInputs(1.0, 1.0, 1.0)
    for build in (lambda: BoundInputs(*args), lambda: BoundInputs(**keywords),
                  lambda: valid._replace(**keywords), lambda: BoundInputs._make(args)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_the_per_q_inputs_in_cmd_verify_are_checked(monkeypatch):
    certify = cli.certify_phi_convexity

    def with_a_bad_q(f, iv, qs, **kwargs):
        return tuple(cert._replace(q=0.5) for cert in certify(f, iv, qs, **kwargs))

    monkeypatch.setattr(cli, "certify_phi_convexity", with_a_bad_q)
    with pytest.raises(ValueError, match=r"^q must be >= 1, got 0\.5$"):
        cmd_verify(RunConfig("x^2", 0.0, 1.0, qs=(2.0,), certificate_samples=11))


def test_from_function_stays_a_classmethod():
    # the benchmark's tracer rewraps it as a classmethod on cli.BoundInputs
    assert cli.BoundInputs is BoundInputs
    assert isinstance(vars(BoundInputs)["from_function"], classmethod)
