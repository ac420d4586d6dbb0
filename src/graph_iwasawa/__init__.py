"""Exact arithmetic for abelian l-towers of multigraphs.

Build cyclic covers of Serre multigraphs, count spanning trees two
independent ways (matrix-tree determinants and cyclotomic norms of the
jump polynomial, taken by l-Graeffe steps), and extract the Iwasawa-type
invariants governing the l-adic growth of the counts along a tower.
"""

from .cyclotomic import (
    INFINITY,
    CycElem,
    cyc_from_poly,
    epsilon,
    ord_L,
    ord_int,
)
from .serre import (
    DisconnectedGraphError,
    Multigraph,
    adjacency_matrix,
    betti1,
    bouquet,
    cycle_graph,
    euler_characteristic,
    laplacian,
    multigraph_from_json,
    multigraph_to_json,
    spanning_tree_count,
    to_dot,
    valency_matrix,
    validate_serre,
)
from .towers import (
    BudgetExceededError,
    IwasawaInvariants,
    TowerReport,
    TowerSpec,
    build_tower_report,
    invariants,
    kappa_exact,
    level_norm,
    level_valuation,
    mu_lambda,
    norm_bits_bound,
    ord_kappa,
    p_poly,
    q_bits_bound,
    q_poly,
    report_from_json,
    report_to_csv,
    report_to_json,
    stabilization_level,
    verify_bounds,
)
from .voltage import (
    VoltageGraph,
    artin_A_sigma,
    cayley_serre,
    derived_cover,
    orbit_h_poly,
    validate_voltage,
    verify_integer_decomposition,
    verify_product_formula,
    voltage_from_json,
    voltage_graph,
    voltage_to_json,
)
from .zeta import SpecialValues, ihara_Z, ihara_h, special_values

__version__ = "0.1.0"
