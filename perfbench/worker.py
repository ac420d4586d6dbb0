"""One fresh process of the benchmark.

    python3 perfbench/worker.py sweep|cover   < {"inputs": ..., "trace": bool}
        Runs one pass of level-sweep or cover-oracle through the library
        API, checks every result and prints one JSON line: the jobs (name,
        reference and raw seconds, output digest, outcome), the seconds
        spent on speed readings (perfbench/speed.py) and, when traced, the
        span summary.

    python3 perfbench/worker.py cli ARG...
        The graph-iwasawa command line with spans installed: stdout and the
        exit code are the program's own; the span summary is the last line
        of stderr, after TRACE_MARKER.

graph_iwasawa is imported from PYTHONPATH, which run.py points at src/.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import speed
from tracer import Tracer

TRACE_MARKER = "perfbench-trace "
# Seconds between speed readings; most library jobs take milliseconds.
CALIBRATION_INTERVAL_S = 0.25


class Pass:
    def __init__(self):
        self.jobs = []
        self.marks = []
        self.calibrator = speed.Calibrator(CALIBRATION_INTERVAL_S)

    def run(self, name, func, check, render):
        """Time ``func()``; ``check(result)`` raises CheckFailed on a wrong
        result, ``render(result)`` is the text the digest covers."""
        self.marks.append(self.calibrator.mark())
        start = time.perf_counter()
        result = func()
        seconds = time.perf_counter() - start
        job = {"name": name, "raw_s": seconds, "digest": checks.digest(
            render(result)), "ok": True, "error": ""}
        try:
            check(result)
        except checks.CheckFailed as exc:
            job.update(ok=False, error=str(exc))
        self.jobs.append(job)
        return result

    def close(self) -> None:
        """Turn every job's raw seconds into reference seconds."""
        self.calibrator.close()
        for job, mark in zip(self.jobs, self.marks):
            job["s"] = job["raw_s"] * self.calibrator.factor(mark)


def _ints(values) -> str:
    # hex, because decimal str() of a big int is capped at 4300 digits
    return ",".join(format(v, "x") for v in values)


def level_sweep(gi, inputs, run: Pass) -> None:
    for spec_in in inputs["specs"]:
        ell, gens, depth = spec_in["ell"], spec_in["generators"], \
            spec_in["depth"]
        spec = gi.TowerSpec(ell, tuple(gens))
        tag = f"l={ell} a={','.join(map(str, gens))}"
        kappas, ords = [], []
        for n in range(depth + 2):
            def check(k, n=n):
                checks.check_kappa(ell, gens, n, k)
                checks.check_kappa_chain(kappas + [k])
            kappas.append(run.run(f"kappa_exact {tag} n={n}",
                                  lambda n=n: gi.kappa_exact(spec, n),
                                  check, lambda k: _ints([k])))
        for n in range(depth + 2):
            def check(o, n=n):
                checks.expect(o == checks.ord_l(kappas[n], ell),
                              f"ord_kappa({n}) != ord_l(kappa_exact({n}))")
                checks.check_ords(ell, gens, ords + [o])
            ords.append(run.run(f"ord_kappa {tag} n={n}",
                                lambda n=n: gi.ord_kappa(spec, n),
                                check, str))
        run.run(f"invariants {tag}", lambda: gi.invariants(spec),
                lambda inv: checks.check_invariants(
                    ell, gens, ords, inv.mu, inv.lam, inv.nu,
                    inv.n0_certified, inv.n0_observed), repr)
        run.run(f"verify_bounds {tag} n={depth}",
                lambda: gi.verify_bounds(spec, depth),
                lambda rpt: checks.expect(rpt.ok, f"bounds: {rpt.failures}"),
                lambda rpt: repr((rpt.ok, rpt.failures)))


def cover_oracle(gi, inputs, run: Pass) -> None:
    for cov in inputs["matrix_tree"]:
        ell, gens, n = cov["ell"], tuple(cov["generators"]), cov["n"]

        def both(ell=ell, gens=gens, n=n):
            cover = gi.derived_cover(gi.cayley_serre(ell ** n, gens))
            return (gi.spanning_tree_count(cover),
                    gi.kappa_exact(gi.TowerSpec(ell, gens), n))
        run.run(f"matrix-tree l={ell} a={gens} n={n}", both,
                lambda r: checks.expect(r[0] == r[1],
                                        "matrix-tree kappa != resultant kappa"),
                lambda r: _ints(r))
    for cov in inputs["zeta"]:
        ell, gens, n = cov["ell"], tuple(cov["generators"]), cov["n"]
        chi = ell ** n * (1 - len(gens))

        def zeta(ell=ell, gens=gens, n=n):
            cover = gi.derived_cover(gi.cayley_serre(ell ** n, gens))
            h = gi.ihara_h(cover)
            return (h, gi.special_values(h, cover),
                    gi.kappa_exact(gi.TowerSpec(ell, gens), n))

        def check(r, chi=chi):
            h, sv, kappa = r
            checks.expect(sum(h) == 0 and sv.h_at_1 == 0, "h(1) != 0")
            checks.expect(sv.dh_at_1 == -2 * chi * kappa,
                          "h'(1) != -2 chi kappa")
            checks.expect(sv.kappa_implied == kappa, "implied kappa")
        run.run(f"zeta l={ell} a={gens} n={n}", zeta, check,
                lambda r: repr((r[0], r[1])))
    for i, data in enumerate(inputs["voltage"]):
        def verify(data=data):
            vg = gi.voltage_from_json(data)
            return (gi.verify_product_formula(vg),
                    gi.verify_integer_decomposition(vg))
        run.run(f"voltage #{i} m={data['m']}", verify,
                lambda r: checks.expect(r[0].ok and r[1].ok,
                                        "factorization identity"),
                lambda r: repr((r[0].ok, r[0].cover_h, r[1].ok,
                                r[1].kappa_cover, r[1].orbit_values)))


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        tracer = Tracer()
        tracer.install()
        import graph_iwasawa.cli as cli
        try:
            return cli.main(argv[1:])
        finally:
            sys.stdout.flush()
            sys.stderr.write(TRACE_MARKER + json.dumps(tracer.summary())
                             + "\n")
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    import graph_iwasawa as gi
    run = Pass()
    {"sweep": level_sweep, "cover": cover_oracle}[mode](
        gi, request["inputs"], run)
    run.close()
    print(json.dumps({"jobs": run.jobs,
                      "calibration_s": run.calibrator.spent,
                      "trace": tracer.summary() if tracer else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
