"""The value types: records, which are named tuples, and the slotted
immutable values of ``qbary.exactnum.Immutable``.

Each public type keeps the constructor, the equality, the hash and the
``repr`` it had as a frozen dataclass; a value cannot be assigned to and
survives a pickle.  Importing the command line loads neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path
import pickle
import subprocess
import sys

import pytest

import qbary as qb
from qbary.exactnum import Immutable
from qbary.toric import delzant_fan


@lru_cache(maxsize=1)
def instances() -> dict:
    """One value of each public type, by type name, all from P^2.

    Built on first use, not at import, so a library fault that one of them
    meets fails each test that reads them, and collection still succeeds."""
    t = qb.toric_data([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
    p = t.polytope
    report = qb.reciprocity_check(p, 1)
    delta = qb.delta_sequence(t, [1, 2], order=2)
    return {
        "Polynomial": qb.Polynomial.of([1, qb.Rational(3, 2)]),
        "RationalFunction": qb.RationalFunction.of(qb.Polynomial.of([0, 1]), qb.Polynomial.of([1, 2])),
        "LaurentSeries": qb.laurent_expand(qb.Polynomial.of([0, 1]), qb.Polynomial.of([1, 2]), 2),
        "VirtualPolytope": qb.VirtualPolytope(2, ((1, p), (-1, qb.dilate(p, 2)))),
        "ToricData": t,
        "ExpansionCoefficients": qb.asymptotic_coefficients(p, 1),
        "EhrhartPolynomial": qb.ehrhart_polynomial(p),
        "ReciprocityEntry": report.entries[0],
        "ReciprocityReport": report,
        "QuantizedBarycenter": qb.quantized_barycenter(p, 2),
        "BarycenterFunction": qb.barycenter_function(p),
        "StabilizationVerdict": qb.stabilization_check(p, [1, 2, 3]),
        "Halfspace": p.facets[0],
        "Polytope": p,
        "Body": qb.Body(p.dim, p.vertices),
        "MeasureData": qb.measure(p),
        "FacetMeasure": qb.facet_data(p).facets[0],
        "FacetData": qb.facet_data(p),
        "Classification": qb.classify(p),
        "DeltaValue": delta.values[0],
        "DeltaSequence": delta,
        "RooftopFan": qb.rooftop_fan(t, (1, 0)),
        "DelzantFan": delzant_fan(t),
        "RooftopCoefficients": qb.rooftop_coefficients(t, (1, 0)),
    }


# The repr of each value above, as the frozen dataclasses printed them.
REPRS = {
    'Polynomial': 'Polynomial(numerators=(2, 3), denominator=2)',
    'RationalFunction': 'RationalFunction(num=Polynomial(numerators=(0, 1), denominator=1), den=Polynomial(numerators=(1, 2), denominator=1))',
    'LaurentSeries': 'LaurentSeries(coefficients=(Fraction(1, 2), Fraction(-1, 4)))',
    'VirtualPolytope': 'VirtualPolytope(dim=2, terms=((1, Polytope(dim=2, vertices=((-1, -1), (-1, 2), (2, -1)), facets=(Halfspace(normal=(-1, -1), offset=1), Halfspace(normal=(0, 1), offset=1), Halfspace(normal=(1, 0), offset=1)), incidence=((1, 2), (0, 2), (0, 1)))), (-1, Polytope(dim=2, vertices=((-2, -2), (-2, 4), (4, -2)), facets=(Halfspace(normal=(-1, -1), offset=2), Halfspace(normal=(0, 1), offset=2), Halfspace(normal=(1, 0), offset=2)), incidence=((1, 2), (0, 2), (0, 1))))))',
    'ToricData': 'ToricData(rays=((1, 0), (0, 1), (-1, -1)), offsets=(1, 1, 1), polytope=Polytope(dim=2, vertices=((-1, -1), (-1, 2), (2, -1)), facets=(Halfspace(normal=(-1, -1), offset=1), Halfspace(normal=(0, 1), offset=1), Halfspace(normal=(1, 0), offset=1)), incidence=((1, 2), (0, 2), (0, 1))))',
    'ExpansionCoefficients': 'ExpansionCoefficients(terms=((Fraction(0, 1), Fraction(0, 1)),))',
    'EhrhartPolynomial': "EhrhartPolynomial(poly=Polynomial(numerators=(2, 9, 9), denominator=2), source='fitted')",
    'ReciprocityEntry': 'ReciprocityEntry(k=1, general_ok=True, reflexive_ok=True)',
    'ReciprocityReport': 'ReciprocityReport(entries=(ReciprocityEntry(k=1, general_ok=True, reflexive_ok=True),))',
    'QuantizedBarycenter': 'QuantizedBarycenter(k=2, value=(Fraction(0, 1), Fraction(0, 1)))',
    'BarycenterFunction': 'BarycenterFunction(numerators=(Polynomial(numerators=(), denominator=1), Polynomial(numerators=(), denominator=1)), denominator=Polynomial(numerators=(2, 9, 9), denominator=2))',
    'StabilizationVerdict': 'StabilizationVerdict(stabilizes=True, value=(Fraction(0, 1), Fraction(0, 1)), witness=None)',
    'Halfspace': 'Halfspace(normal=(-1, -1), offset=1)',
    'Polytope': 'Polytope(dim=2, vertices=((-1, -1), (-1, 2), (2, -1)), facets=(Halfspace(normal=(-1, -1), offset=1), Halfspace(normal=(0, 1), offset=1), Halfspace(normal=(1, 0), offset=1)), incidence=((1, 2), (0, 2), (0, 1)))',
    'Body': 'Body(dim=2, vertices=((-1, -1), (-1, 2), (2, -1)))',
    'MeasureData': 'MeasureData(volume=Fraction(9, 2), barycenter=(Fraction(0, 1), Fraction(0, 1)))',
    'FacetMeasure': 'FacetMeasure(normal=(-1, -1), offset=1, normalized_volume=Fraction(3, 1), barycenter=(Fraction(1, 2), Fraction(1, 2)))',
    'FacetData': 'FacetData(facets=(FacetMeasure(normal=(-1, -1), offset=1, normalized_volume=Fraction(3, 1), barycenter=(Fraction(1, 2), Fraction(1, 2))), FacetMeasure(normal=(0, 1), offset=1, normalized_volume=Fraction(3, 1), barycenter=(Fraction(1, 2), Fraction(-1, 1))), FacetMeasure(normal=(1, 0), offset=1, normalized_volume=Fraction(3, 1), barycenter=(Fraction(-1, 1), Fraction(1, 2)))), boundary_normalized_volume=Fraction(9, 1), boundary_barycenter=(Fraction(0, 1), Fraction(0, 1)))',
    'Classification': 'Classification(reflexive=True, delzant=True)',
    'DeltaValue': 'DeltaValue(k=1, value=Fraction(1, 1), argmin=(0, 1, 2))',
    'DeltaSequence': 'DeltaSequence(values=(DeltaValue(k=1, value=Fraction(1, 1), argmin=(0, 1, 2)), DeltaValue(k=2, value=Fraction(1, 1), argmin=(0, 1, 2))), limit=Fraction(1, 1), limit_argmin=(0, 1, 2), dominant=RationalFunction(num=Polynomial(numerators=(1,), denominator=1), den=Polynomial(numerators=(1,), denominator=1)), dominant_rays=(0, 1, 2), k0=1, asymptotics=LaurentSeries(coefficients=(Fraction(1, 1), Fraction(0, 1))))',
    'RooftopFan': 'RooftopFan(rays=((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (1, 0, -1)), q=2)',
    'DelzantFan': 'DelzantFan(dim=2, cones=(((0, 1), (1, 2)), ((0, 2), (-1, -2)), ((1, 2), (1, -1))))',
    'RooftopCoefficients': 'RooftopCoefficients(values=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), q=2, formula_available=True, formula_values=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)))',
}
SLOTTED = ("Polynomial", "RationalFunction", "LaurentSeries", "VirtualPolytope", "ToricData", "ExpansionCoefficients")


def field_names(value) -> tuple[str, ...]:
    return type(value).__slots__ if isinstance(value, Immutable) else type(value)._fields


def rebuilt(value):
    """An equal value built anew through the constructor's keywords."""
    return type(value)(**{name: getattr(value, name) for name in field_names(value)})


def test_every_public_value_type_is_covered():
    values = instances()
    assert list(values) == list(REPRS)
    assert all(type(value).__name__ == name for name, value in values.items())
    assert [name for name, value in values.items() if not isinstance(value, tuple)] == list(SLOTTED)
    assert all(isinstance(values[name], Immutable) for name in SLOTTED)


@pytest.mark.parametrize("name", REPRS)
def test_repr_is_the_dataclass_repr(name):
    assert repr(instances()[name]) == REPRS[name]


@pytest.mark.parametrize("name", REPRS)
def test_an_equal_value_hashes_equal(name):
    value = instances()[name]
    other = rebuilt(value)
    assert other is not value and other == value and hash(other) == hash(value)
    assert not other != value


@pytest.mark.parametrize("name", REPRS)
def test_a_field_cannot_be_assigned(name):
    value = instances()[name]
    first = field_names(value)[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == REPRS[name]


@pytest.mark.parametrize("name", REPRS)
def test_a_pickle_round_trip_gives_an_equal_value(name):
    value = instances()[name]
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and repr(back) == REPRS[name]


def test_slotted_values_compare_by_type_and_fields():
    p = instances()["Polynomial"]
    q = qb.Polynomial.of([1, 2])
    assert 2 * p == p * 2 == qb.Polynomial.of([2, 3])
    with pytest.raises(TypeError):
        p < q
    assert p != q and p != (p.numerators, p.denominator)
    assert qb.LaurentSeries((1, 2)) != qb.ExpansionCoefficients((1, 2))
    assert not hasattr(p, "__dict__")


def test_records_are_named_tuples():
    # a record equals the plain tuple of its fields, and iterates as one
    h = instances()["Halfspace"]
    assert h == (h.normal, h.offset) and tuple(h) == (h.normal, h.offset) and len(h) == 2
    assert h._replace(offset=2) == qb.Halfspace(h.normal, 2)


def test_toric_data_checks_its_facets_in_its_constructor():
    t = instances()["ToricData"]
    with pytest.raises(qb.PreconditionViolation):
        qb.ToricData(t.rays + ((1, 1),), t.offsets + (5,), t.polytope)
    with pytest.raises(qb.PreconditionViolation):
        qb.ToricData(t.rays, (1, 1, 2), t.polytope)
    with pytest.raises(qb.PreconditionViolation):
        qb.ToricData(t.rays, t.offsets[:2], t.polytope)
    assert qb.ToricData(t.rays[::-1], t.offsets[::-1], t.polytope).polytope == t.polytope


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, qbary.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(qb.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert run.stdout.strip() == "[]"
