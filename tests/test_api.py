import sys
import types

import pytest

import graph_iwasawa

PUBLIC = [
    "BudgetExceededError", "CycElem", "DisconnectedGraphError", "INFINITY",
    "InputError", "IwasawaInvariants", "Multigraph", "SpecialValues", "TowerReport",
    "TowerSpec", "VoltageGraph", "adjacency_matrix", "artin_A_sigma",
    "betti1", "bouquet", "build_tower_report", "cayley_serre",
    "cyc_from_poly", "cycle_graph", "cyclotomic", "derived_cover", "epsilon",
    "euler_characteristic", "ihara_Z", "ihara_h", "invariants",
    "kappa_exact", "kappa_levels", "laplacian", "level_norm",
    "level_valuation", "linalg",
    "mu_lambda", "multigraph_from_json", "multigraph_to_json",
    "norm_bits_bound", "orbit_h_poly", "ord_L", "ord_int", "ord_kappa",
    "p_poly", "polys", "q_bits_bound", "q_poly", "report_from_json",
    "report_to_csv", "report_to_json", "serre", "spanning_tree_count",
    "special_values", "stabilization_level", "to_dot", "towers",
    "valency_matrix", "validate_serre", "verify_bounds",
    "verify_integer_decomposition", "verify_product_formula", "voltage",
    "voltage_from_json", "voltage_graph", "voltage_to_json", "zeta",
]


def test_public_names():
    # a change to the package's API shows up as a change to this list; the
    # cli submodule is bound on the package only once something imports it
    names = [n for n in dir(graph_iwasawa)
             if not n.startswith("__") and n != "cli"]
    assert names == PUBLIC


# where each public name is defined, read off the object where it can be
# (functions, classes) and named here where it cannot
DEFINED_IN = {"INFINITY": "graph_iwasawa.cyclotomic"}


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves_on_first_use(monkeypatch, name):
    # drop the binding an earlier import left, so the import below goes
    # through the package's __getattr__
    monkeypatch.delattr(graph_iwasawa, name, raising=False)
    namespace = {}
    exec(f"from graph_iwasawa import {name}", namespace)
    value = namespace[name]
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"graph_iwasawa.{name}"]
    else:
        home = DEFINED_IN.get(name) or value.__module__
        assert value is getattr(sys.modules[home], name)
    assert vars(graph_iwasawa)[name] is value  # bound once resolved


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        graph_iwasawa.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from graph_iwasawa import no_such_name  # noqa: F401
