"""Spans around the public functions of graph_iwasawa, installed from outside.

``Tracer.install`` replaces every public function of the eight modules with
a wrapper that records a span (function, parent span, start, end) and, for a
few layers, a work counter computed from the arguments or the result.  The
wrapper is bound in every namespace that holds the function, so calls made
through re-exports (``graph_iwasawa.kappa_exact``) and through names bound
by ``from ... import`` (``towers.ord_int``, ``cli.format_poly``) are traced
too.  Spans stay in memory until ``summary`` computes self times from them:
a span's self time is its duration minus the durations of its direct
children.  Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("serre", "linalg", "polys", "zeta", "voltage", "cyclotomic",
           "towers", "cli")

# Private kernels traced as layers of their own: the per-prime elimination
# inside det_crt (its calls are the primes used).
PRIVATE_LAYERS = {"linalg": ("_det_mod_p",)}

# The command line is one layer: its handlers, parser and rendering count
# toward main.
ONLY = {"cli": ("main",)}

# Leaf helpers called once per coefficient or matrix entry; a span there
# costs more than the call it measures, so they count toward their caller.
UNTRACED = {"polys.trim", "polys.evaluate", "polys.degree", "polys.leading",
            "cyclotomic.is_prime", "cyclotomic.euler_phi_prime_power"}


def _max_bits(coeffs) -> int:
    return max((abs(c).bit_length() for c in coeffs), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters = {"polys.prem.coeff_ops": 0, "polys.prem.max_bits": 0,
                         "cyclotomic.norm_bits": 0, "linalg.det_crt.rows": 0,
                         "linalg.det_crt.primes_needed": 0,
                         "linalg.det_bareiss.rows_cubed": 0,
                         "zeta.det_poly_matrix.nodes": 0}
        self.levels: set = set()
        self._crt_primes = None

    # -- installation -------------------------------------------------------

    def install(self, package: str = "graph_iwasawa") -> None:
        mods = {name: importlib.import_module(f"{package}.{name}")
                for name in MODULES}
        namespaces = [importlib.import_module(package), *mods.values()]
        self._crt_primes = mods["linalg"].crt_primes
        hooks = {
            "polys.prem": self._on_prem,
            "cyclotomic.resultant_with_phi": self._on_norm,
            "towers.level_norm": self._on_level("norm"),
            "towers.level_valuation": self._on_level("valuation"),
            "linalg.det_crt": self._on_det_crt,
            "linalg.det_bareiss": self._on_bareiss,
            "zeta.det_poly_matrix": self._on_det_poly,
        }
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and \
                        attr not in PRIVATE_LAYERS.get(mname, ()):
                    continue
                name = f"{mname}.{attr}"
                if name in UNTRACED or attr not in ONLY.get(mname, (attr,)):
                    continue
                wrapper = self._wrap(name, obj, hooks.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapper)

    def _wrap(self, name, func, hook):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                # after the span closed: counter work is charged to the caller
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _on_prem(self, args, kwargs, result):
        a, b = args
        c = self.counters
        c["polys.prem.coeff_ops"] += (len(a) - len(b) + 1) * (len(a) + len(b))
        c["polys.prem.max_bits"] = max(c["polys.prem.max_bits"],
                                       _max_bits(result))

    def _on_norm(self, args, kwargs, result):
        self.counters["cyclotomic.norm_bits"] += abs(result).bit_length()

    def _on_level(self, route):
        def hook(args, kwargs, result):
            spec, level = args[0], args[1]
            self.levels.add((spec.ell, spec.generators, level, route))
        return hook

    def _on_det_crt(self, args, kwargs, result):
        matrix = args[0]
        nonnegative = kwargs.get("nonnegative", args[1] if len(args) > 1
                                 else False)
        self.counters["linalg.det_crt.rows"] += matrix.shape[0]
        # primes whose product first exceeds the range the result needs
        target = abs(result) if nonnegative else 2 * abs(result)
        count, modulus = 0, 1
        while modulus <= target:
            count += 1
            modulus *= self._crt_primes(count)[-1]
        self.counters["linalg.det_crt.primes_needed"] += count

    def _on_bareiss(self, args, kwargs, result):
        self.counters["linalg.det_bareiss.rows_cubed"] += len(args[0]) ** 3

    def _on_det_poly(self, args, kwargs, result):
        self.counters["zeta.det_poly_matrix.nodes"] += args[1] + 1

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus the counters."""
        n = len(self.fid)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        funcs = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            rec = funcs[self.names[self.fid[i]]]
            rec[0] += 1
            rec[1] += ends[i] - starts[i] - child[i]
        counters = dict(self.counters)
        counters["towers.levels_distinct"] = len(self.levels)
        return {"functions": funcs, "counters": counters, "spans": n}
