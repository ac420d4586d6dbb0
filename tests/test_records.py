"""Every record of the package is one frozen ``_records.Record``: it
refuses assignment, copies and pickles through its constructor, and keeps
the dataclass ``repr``.  The matrix modules import no ``dataclasses``."""

import copy
import pickle

import pytest

from graph_iwasawa import (
    TowerSpec,
    build_tower_report,
    cayley_serre,
    derived_cover,
    epsilon,
    ihara_h,
    invariants,
    orbit_h_poly,
    special_values,
    verify_bounds,
    verify_integer_decomposition,
    verify_product_formula,
)
from graph_iwasawa._records import Record
from graph_iwasawa.voltage import VoltageGraph
from test_cli import _python


def _records():
    spec = TowerSpec(2, (1, 1))
    report = build_tower_report(spec, 2)
    vg = cayley_serre(8, (1, 3))
    cover = derived_cover(vg)
    return [epsilon(3, 2, 1), spec, invariants(spec), verify_bounds(spec, 2),
            report.levels[1], report, cover, vg, verify_product_formula(vg),
            verify_integer_decomposition(vg),
            special_values(ihara_h(cover), cover)]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_one_instance_of_every_record_class():
    assert {type(r) for r in _records()} == set(_subclasses(Record))


def test_a_checked_voltage_graph_stays_checked():
    vg = cayley_serre(4, (1, 2))
    with pytest.raises(TypeError):
        vg.voltage[0] = 3
    with pytest.raises(AttributeError):
        vg.modulus = 8
    with pytest.raises(AttributeError):
        del vg.voltage
    assert (vg.modulus, vg.voltage) == (4, (1, 3, 2, 2))
    assert orbit_h_poly(vg, 4) == [1, 4, 10, 12, 9]
    # nor through its base, which has no builder left to grow it
    assert not hasattr(vg.base, "add_loop")
    with pytest.raises(AttributeError):
        vg.base.edges += ((0, 0),)
    assert orbit_h_poly(vg, 4) == [1, 4, 10, 12, 9]


def test_a_copied_voltage_graph_equals_the_original():
    vg = cayley_serre(4, (1, 2))
    for twin in (copy.deepcopy(vg), pickle.loads(pickle.dumps(vg))):
        assert twin == vg and hash(twin) == hash(vg)
        assert twin.base == vg.base and twin.base is not vg.base


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_every_record_refuses_assignment(record):
    name = record.__slots__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_copy_and_pickle_rebuild_an_equal_record(record):
    assert copy.copy(record) == record
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_a_copy_goes_through_the_constructor(monkeypatch):
    vg = cayley_serre(4, (1, 2))
    built = []
    real = VoltageGraph.__init__

    def spy(self, *args):
        built.append(args[1:])
        real(self, *args)

    monkeypatch.setattr(VoltageGraph, "__init__", spy)
    copy.deepcopy(vg)
    pickle.loads(pickle.dumps(vg))
    assert built == [(4, (1, 3, 2, 2))] * 2


def test_records_hash_their_fields():
    vg = cayley_serre(8, (1, 3))
    cover = derived_cover(vg)
    sv = special_values(ihara_h(cover), cover)
    assert hash(sv) == hash((0, 65536, 1540096, 4096))
    assert hash(vg) == hash((vg.base, 8, (1, 7, 3, 5)))
    with pytest.raises(TypeError, match="unhashable"):
        hash(verify_product_formula(vg))


# the reprs as the dataclasses printed them: cover-oracle's digest hashes
# that of SpecialValues
def test_voltage_and_zeta_reports_keep_their_repr():
    vg = cayley_serre(8, (1, 3))
    cover = derived_cover(vg)
    assert repr(special_values(ihara_h(cover), cover)) == (
        "SpecialValues(h_at_1=0, dh_at_1=65536, d2h_at_1=1540096, "
        "kappa_implied=4096)")
    h = ("[1, 0, 8, 0, -36, 0, -648, 0, -2970, 0, -5832, 0, -2916, 0, 5832, "
         "0, 6561]")
    assert repr(verify_product_formula(vg)) == (
        f"ProductFormulaReport(ok=True, cover_h={h}, orbit_product={h}, "
        "orbit_factors={1: [1, -4, 3], 2: [1, 4, 3], 4: [1, 0, 6, 0, 9], "
        "8: [1, 0, 12, 0, 54, 0, 108, 0, 81]})")
    assert repr(verify_integer_decomposition(vg)) == (
        "DecompositionReport(ok=True, modulus=8, kappa_cover=4096, "
        "kappa_base=1, orbit_values={2: 8, 4: 16, 8: 256})")


# measured after numpy, since a numpy release may load dataclasses itself:
# the matrix modules load none
DATACLASSES_PROBE = ("import sys, numpy; before = set(sys.modules); "
                     "import graph_iwasawa.serre, graph_iwasawa.linalg, "
                     "graph_iwasawa.zeta, graph_iwasawa.voltage; "
                     "sys.exit('dataclasses' in set(sys.modules) - before)")


def test_the_matrix_modules_import_no_dataclasses():
    proc = _python("-c", DATACLASSES_PROBE)
    assert proc.returncode == 0, proc.stderr
