"""Command-line front end.

Subcommands: tower, kappa, zeta, cover-verify, export-dot.  All output is
deterministic: identical invocations produce identical bytes.  Every
kappa, N_i and polynomial coefficient is printed in full decimal, however
many digits it has, by the one renderer ``polys.decimal``.  tower's
--parallel is accepted for compatibility and has no effect.
Sizes (--budget-bits, --cap-vertices) are checked here, before any work;
a negative one is a usage error.
tower and kappa run on the pure-Python towers, cyclotomic and polys and
load no numpy, no serre and no dataclasses, and their text and csv output
loads no json: importing this module loads only what they run.  zeta,
cover-verify and export-dot import serre and the numpy-backed zeta and
voltage modules when they start, and read the default --cap-vertices off
serre then.  Text output factors kappa_n by
trial division to 10^6 on a wheel mod 210, no prime table, and renders in
decimal only the kappas it prints, each once; no kappa is ever a divisor.
Exit codes: 0 success (tower: full fit verified), 1 invalid input, usage
or size, 2 verification failure, internal inconsistency or other fault.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from . import polys, towers
from .cyclotomic import ord_int

DEFAULT_BUDGET_BITS = 1 << 26

TRIAL_DIVISION_BOUND = 10 ** 6
# the steps from 11 round to 221 = 11 + 210 over the numbers prime to 210
_WHEEL = (2, 4, 2, 4, 6, 2, 6, 4, 2, 4, 6, 6, 2, 6, 4, 2, 6, 4, 6, 8, 4, 2, 4,
          2, 4, 8, 6, 4, 6, 2, 4, 6, 2, 6, 6, 4, 2, 4, 6, 2, 6, 4, 2, 4, 2, 10,
          2, 10)


def _trial_factor(n: int) -> list[tuple[int, int]] | None:
    """Factor by trial division up to 10^6; None if that cannot finish it.
    Tries 2, 3, 5, 7, then the wheel below isqrt(rem) + 1 for the part rem
    left: a composite there never divides rem, its primes are divided out."""
    if n < 1:
        return None
    out = []
    rem = n
    stop = min(TRIAL_DIVISION_BOUND, math.isqrt(rem) + 1)
    for p in itertools.chain((2, 3, 5, 7), itertools.accumulate(
            itertools.cycle(_WHEEL), initial=11)):
        if p >= stop:
            break
        if rem % p == 0:
            e = ord_int(rem, p)
            rem //= p ** e
            out.append((p, e))
            stop = min(TRIAL_DIVISION_BOUND, math.isqrt(rem) + 1)
    if rem == 1:
        return out
    if rem < TRIAL_DIVISION_BOUND ** 2:
        out.append((rem, 1))  # no factor below 10^6, so rem is prime
        return out
    return None


def _render_factors(fac: list[tuple[int, int]]) -> str:
    if not fac:
        return "1"
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fac)


def _factor_kappas(kappas):
    """The factors of a tower's kappa_0, kappa_1, ... in turn, or None where
    trial division up to 10^6 cannot finish them, without the trial division
    that cannot succeed.  kappa_n = l^n |r_1 ... r_n| (towers.kappa_exact)
    is a multiple of every kappa_m below it, so once kappa_m is left
    unfactored its 10^6-rough part is at least 10^12, and so is every later
    one's."""
    kappas = iter(kappas)
    for n in kappas:
        fac = _trial_factor(n)
        yield fac
        if fac is None:
            break
    for _ in kappas:
        yield None


def _parse_generators(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad generator list {text!r}") from exc


def _spec(args) -> towers.TowerSpec:
    return towers.TowerSpec(args.prime, _parse_generators(args.generators))


def _admit(spec: towers.TowerSpec, n: int, budget: int) -> None:
    """Refuse up front a level n whose norm N_n may outgrow the budget."""
    if n < 1:
        return
    # phi(l^n) >= 2^(n-1) and 4t >= 4 put the bound past 2^n: no l^n needed
    deep = n >= budget.bit_length()
    estimate = f"more than 2^{n}" if deep else towers.norm_bits_bound(spec, n)
    if deep or estimate > budget:
        raise towers.BudgetExceededError(
            f"level {n} norm may have {estimate} bits, over the budget of "
            f"{budget} bits")


def _vertex_cap(args) -> int:
    # --cap-vertices defaults to None, so that the parser, and tower and
    # kappa with it, never import serre for its default
    from . import serre

    return (serre.DEFAULT_VERTEX_CAP if args.cap_vertices is None
            else args.cap_vertices)


def _cap(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"{what} has {n} vertices, beyond the cap of {cap}")


def _admit_q(spec: towers.TowerSpec, budget: int) -> None:
    """Refuse up front a Q(T) whose coefficients may outgrow the budget."""
    estimate = towers.q_bits_bound(spec)
    if estimate > budget:
        raise towers.BudgetExceededError(
            f"Q(T) may have {estimate} bits of coefficients, over the budget "
            f"of {budget} bits")


def cmd_tower(args) -> int:
    spec = _spec(args)
    # below n0_certified no norm is taken: v_i divides f(zeta) by 1 - zeta
    # at levels with phi(l^i) < 2 max|a| - 1, O(max|a|^2) work inside Q's
    # bound, so N_n and Q bound all the work
    _admit(spec, args.levels, args.budget)
    _admit_q(spec, args.budget)
    report = towers.build_tower_report(spec, args.levels)
    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(towers.report_to_json(report), indent=2))
        sys.stdout.write("\n")
    elif args.format == "csv":
        sys.stdout.write(towers.report_to_csv(report))
    else:
        inv = report.invariants
        print(f"tower: l={spec.ell} "
              f"a={','.join(map(str, spec.generators))} "
              f"t={spec.t} q={spec.q}")
        print(f"Q(T) = {polys.format_poly(report.q_coeffs, 'T')}")
        if inv.cycle_case:
            print("cycle case: chi = 0, kappa_n = l^n exactly")
        print(f"invariants: mu={inv.mu} lambda={inv.lam} nu={inv.nu} "
              f"n0_certified={inv.n0_certified} "
              f"n0_observed={inv.n0_observed}")
        print(f"{'n':>3} {'ord':>6} {'v_n':>6} {'fit':>5}  kappa_n")
        factors = _factor_kappas(rec.kappa for rec in report.levels)
        for rec, fac in zip(report.levels, factors):
            v = "-" if rec.v is None else str(rec.v)
            fit = "yes" if rec.fit else "no"
            kappa = (polys.decimal(rec.kappa) if fac is None
                     else _render_factors(fac))
            print(f"{rec.n:>3} {rec.ord_kappa:>6} {v:>6} {fit:>5}  {kappa}")
        print(f"consistency: {'OK' if report.consistency_ok else 'FAILED'}")
        print(f"fit for n >= {inv.n0_observed}: "
              f"{'OK' if report.fit_ok else 'FAILED'}")
    return 0 if (report.consistency_ok and report.fit_ok) else 2


def cmd_kappa(args) -> int:
    spec = _spec(args)
    _admit(spec, args.levels, args.budget)
    kappas = towers.kappa_levels(spec, args.levels)
    decimal = polys.decimal(kappas[-1])
    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(
            {"prime": str(spec.ell),
             "generators": [str(a) for a in spec.generators],
             "n": str(args.levels), "kappa": decimal}, indent=2))
        sys.stdout.write("\n")
    else:
        # an unfactored kappa_m below n spares trial division of the rest
        *_, fac = _factor_kappas(kappas)
        factored = None if fac is None else _render_factors(fac)
        if factored not in (None, decimal):
            print(f"kappa_{args.levels} = {decimal} = {factored}")
        else:
            print(f"kappa_{args.levels} = {decimal}")
    return 0


def cmd_zeta(args) -> int:
    import json

    from . import serre, zeta

    cap = _vertex_cap(args)
    with open(args.graph_file, encoding="utf-8") as fh:
        graph = serre.multigraph_from_json(json.load(fh))
    _cap("graph", graph.num_vertices, cap)
    exponent, h = zeta.ihara_Z(graph)
    kappa = serre.spanning_tree_count(graph, cap=cap)
    if args.format == "json":
        sys.stdout.write(json.dumps(
            {"h": polys.poly_to_json(h), "z_exponent": str(exponent),
             "kappa": polys.decimal(kappa)}, indent=2))
        sys.stdout.write("\n")
    else:
        print(f"h(u) = {polys.format_poly(h)}")
        print(f"Z(u) = (1 - u^2)^{exponent} * h(u)")
        print(f"kappa = {polys.decimal(kappa)}")
    return 0


def cmd_cover_verify(args) -> int:
    import json

    from . import serre, voltage

    cap = _vertex_cap(args)
    with open(args.voltage_file, encoding="utf-8") as fh:
        base, m, volts = voltage._read_voltage_json(json.load(fh))
    # before the base's checks, which take time and memory per vertex
    _cap("derived cover", base.num_vertices * m, cap)
    vg = voltage.voltage_graph(base, m, volts)
    try:  # the base is valid, so only the cover's connectivity can fail
        product = voltage.verify_product_formula(vg)
    except serre.DisconnectedGraphError:
        raise ValueError("invalid voltage graph: voltages do not generate "
                         "Z/mZ: derived cover disconnected") from None
    chi = serre.euler_characteristic(vg.base)
    decomposition = (voltage.verify_integer_decomposition(vg, cap=cap)
                     if chi != 0 else None)
    ok = product.ok and (decomposition is None or decomposition.ok)
    if args.format == "json":
        payload = {
            "product_formula": product.ok,
            "cover_h": polys.poly_to_json(product.cover_h),
            "orbit_product": polys.poly_to_json(product.orbit_product),
            "integer_decomposition":
                None if decomposition is None else decomposition.ok,
        }
        sys.stdout.write(json.dumps(payload, indent=2))
        sys.stdout.write("\n")
    else:
        print(f"product formula: {'PASS' if product.ok else 'FAIL'}")
        if not product.ok:
            print(f"  cover h:  {polys.format_poly(product.cover_h)}")
            print(f"  product:  {polys.format_poly(product.orbit_product)}")
        if decomposition is None:
            print("integer decomposition: skipped (chi = 0)")
        else:
            print("integer decomposition: "
                  f"{'PASS' if decomposition.ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_export_dot(args) -> int:
    from . import serre, voltage

    cap = _vertex_cap(args)
    spec = _spec(args)
    if args.levels < 0:
        raise ValueError("level must be >= 0")
    size = 1
    for _ in range(args.levels):  # stops at the cap, never builds a huge l^n
        size *= spec.ell
        if size > cap:
            raise ValueError(
                f"level {args.levels} cover has {spec.ell}^{args.levels} "
                f"vertices, beyond the cap of {cap}")
    vg = voltage.cayley_serre(spec.ell ** args.levels, spec.generators)
    cover = voltage.derived_cover(vg)
    sys.stdout.write(serre.to_dot(cover, name=f"cover_level_{args.levels}"))
    return 0


def _add_tower_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-l", "--prime", type=int, required=True)
    p.add_argument("-a", "--generators", type=str, required=True,
                   help="comma-separated integers, negatives allowed")
    p.add_argument("-n", "--levels", type=int, required=True)


def _size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def _add_budget_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-bits", type=_size, dest="budget",
                   metavar="BUDGET_BITS", default=DEFAULT_BUDGET_BITS)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="graph-iwasawa",
        description="Exact towers of circulant covers: spanning trees, zeta "
                    "polynomials, and Iwasawa-type invariants.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tower", help="full per-level table and invariants")
    _add_tower_flags(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    _add_budget_flag(p)
    p.add_argument("--parallel", action="store_true",
                   help="accepted, no effect")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("kappa", help="a single spanning-tree count")
    _add_tower_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_budget_flag(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("zeta", help="zeta polynomial of a multigraph file")
    p.add_argument("graph_file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap-vertices", type=_size)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("cover-verify",
                       help="check factorization identities for a voltage "
                            "graph file")
    p.add_argument("voltage_file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap-vertices", type=_size)
    p.set_defaults(func=cmd_cover_verify)

    p = sub.add_parser("export-dot", help="DOT of the level-n cover")
    _add_tower_flags(p)
    p.add_argument("--cap-vertices", type=_size)
    p.set_defaults(func=cmd_export_dot)

    return top


def _fold_generator_flag(argv: list[str]) -> list[str]:
    # keep "-a -3,5" parseable: argparse would read "-3,5" as an option
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in ("-a", "--generators") and i + 1 < len(argv):
            out.append(f"--generators={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_generator_flag(list(argv)))
    except SystemExit as exc:  # argparse: 0 after --help, 2 on bad usage
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # JSON and graph errors included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault, not the input's: exit 2, not 1
        import traceback
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
