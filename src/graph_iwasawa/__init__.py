"""Exact arithmetic for abelian l-towers of multigraphs.

Build cyclic covers of Serre multigraphs, count spanning trees two
independent ways (matrix-tree determinants and cyclotomic norms of the
jump polynomial, taken by l-Graeffe steps), and extract the Iwasawa-type
invariants governing the l-adic growth of the counts along a tower.

The public names are resolved on first use (PEP 562): ``import
graph_iwasawa`` loads no submodule, and a name's module is imported when
the name is first read.  ``towers``, ``cyclotomic``, ``polys`` and
``serre`` are pure Python; numpy comes in with ``linalg``, ``voltage`` and
``zeta``, that is with the first determinant, h(u) or voltage graph.
"""

from importlib import import_module as _import_module

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("INFINITY", "CycElem", "cyc_from_poly", "epsilon",
                     "ord_L", "ord_int"), "cyclotomic"),
    **dict.fromkeys(("DisconnectedGraphError", "Multigraph",
                     "adjacency_matrix", "betti1", "bouquet", "cycle_graph",
                     "euler_characteristic", "laplacian",
                     "multigraph_from_json", "multigraph_to_json",
                     "spanning_tree_count", "to_dot", "valency_matrix",
                     "validate_serre"), "serre"),
    **dict.fromkeys(("BudgetExceededError", "IwasawaInvariants",
                     "TowerReport", "TowerSpec", "build_tower_report",
                     "invariants", "kappa_exact", "kappa_levels",
                     "level_norm",
                     "level_valuation", "mu_lambda", "norm_bits_bound",
                     "ord_kappa", "p_poly", "q_bits_bound", "q_poly",
                     "report_to_csv", "report_to_json",
                     "stabilization_level", "verify_bounds"), "towers"),
    **dict.fromkeys(("VoltageGraph", "artin_A_sigma", "cayley_serre",
                     "derived_cover", "orbit_h_poly",
                     "verify_integer_decomposition", "verify_product_formula",
                     "voltage_from_json", "voltage_graph", "voltage_to_json"),
                    "voltage"),
    **dict.fromkeys(("SpecialValues", "ihara_Z", "ihara_h", "special_values"),
                    "zeta"),
    "InputError": "_records",
    **{name: name for name in ("cyclotomic", "linalg", "polys", "serre",
                               "towers", "voltage", "zeta")},
}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # what the eager imports bound: the public names, the submodules loaded
    # so far (cli among them) and the dunders
    return sorted({*__all__, *(k for k in globals()
                               if k.startswith("__") or k[0] != "_")})
