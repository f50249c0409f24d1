"""Per-layer metrics of a traced round, read from outside ``src``.

The layers are the modules of ``src/uqsl2``.  A module's self time is the
profiler's self time summed over the functions defined in its file; call
counts come from the same profile; cache figures come from the caches' own
``cache_info()`` and from the size of ``rewrite._NF_CACHE``; garbage
collection is timed through ``gc.callbacks``.

A function or cache that a later version of the package no longer has reads
0, with a warning on stderr.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import time

MODULES = ("coeff", "elements", "currents", "rewrite", "family", "verify", "render", "expr")

# metric name -> (module, dotted name of the function whose calls it counts)
CALL_COUNTS = {
    "coeff.make_calls": ("coeff", "RatFunc.make"),
    "coeff.div_qminus_calls": ("coeff", "_div_qminus"),
    "coeff.ratfunc_mul_calls": ("coeff", "RatFunc.__mul__"),
    "coeff.ratfunc_add_calls": ("coeff", "RatFunc.__add__"),
    "coeff.laurent_mul_calls": ("coeff", "LaurentPoly.__mul__"),
    "elements.el_mul_calls": ("elements", "el_mul"),
    "rewrite.normal_form_calls": ("rewrite", "normal_form"),
    "rewrite.nf_word_calls": ("rewrite", "_nf_word"),
    "rewrite.redex_expansions": ("rewrite", "_expand_redex"),
    "verify.claims_checked": ("verify", "verify_claim"),
}

# name -> (unit, better); the order is the order of the printed metrics
METRICS = {
    "coeff.self_s": ("s", "lower"),
    "coeff.make_calls": ("count", "lower"),
    "coeff.div_qminus_calls": ("count", "lower"),
    "coeff.ratfunc_mul_calls": ("count", "lower"),
    "coeff.ratfunc_add_calls": ("count", "lower"),
    "coeff.laurent_mul_calls": ("count", "lower"),
    "elements.self_s": ("s", "lower"),
    "elements.el_mul_calls": ("count", "lower"),
    "currents.self_s": ("s", "lower"),
    "currents.components_built": ("count", "lower"),
    "rewrite.self_s": ("s", "lower"),
    "rewrite.normal_form_calls": ("count", "lower"),
    "rewrite.nf_word_calls": ("count", "lower"),
    "rewrite.redex_expansions": ("count", "lower"),
    "rewrite.nf_cache_entries": ("count", "lower"),
    "rewrite.nf_cache_hit_ratio": ("ratio", "higher"),
    "family.self_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.claims_checked": ("count", "lower"),
    "render.self_s": ("s", "lower"),
    "expr.self_s": ("s", "lower"),
    "gc.pause_s": ("s", "lower"),
    "gc.collections": ("count", "lower"),
}


def _warn(msg):
    print(f"perfbench: {msg}", file=sys.stderr)


def _resolve(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _code(module, dotted):
    fn = _resolve(module, dotted)
    fn = getattr(fn, "__func__", fn)  # classmethod
    code = getattr(fn, "__code__", None)
    if code is None:
        _warn(f"{module.__name__}.{dotted} not found; its count reads 0")
    return code


class Tracer:
    """Profiles one round and times its garbage collections."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        gc.callbacks.remove(self._on_gc)
        return False

    def metrics(self):
        """Every metric of METRICS, by name, for the round just traced."""
        import uqsl2
        from uqsl2 import currents, rewrite

        mods = {name: getattr(uqsl2, name) for name in MODULES}
        by_file = {os.path.realpath(m.__file__): name for name, m in mods.items()}
        stats = pstats.Stats(self.profile).stats
        self_s = dict.fromkeys(MODULES, 0.0)
        calls = {}
        for (filename, line, funcname), (_, nc, tt, _, _) in stats.items():
            calls[(filename, line, funcname)] = nc
            name = by_file.get(os.path.realpath(filename)) if filename[:1] != "~" else None
            if name is not None:
                self_s[name] += tt

        def count(module, dotted):
            code = _code(mods[module], dotted)
            if code is None:
                return 0
            return calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)

        out = {f"{name}.self_s": self_s[name] for name in MODULES}
        for metric, (module, dotted) in CALL_COUNTS.items():
            out[metric] = count(module, dotted)
        built = 0
        for fn in (getattr(currents, "psi", None), getattr(currents, "phi", None)):
            if hasattr(fn, "cache_info"):
                built += fn.cache_info().misses
            else:
                _warn("currents.psi/phi cache not found; components_built counts it as 0")
        out["currents.components_built"] = built
        cache = getattr(rewrite, "_NF_CACHE", None)
        if cache is None:
            _warn("rewrite._NF_CACHE not found; nf_cache_entries reads 0")
        out["rewrite.nf_cache_entries"] = len(cache or ())
        # each _nf_word call that misses the memo scans its word with
        # _first_redex exactly once; every other call is a hit
        lookups = out["rewrite.nf_word_calls"]
        misses = count("rewrite", "_first_redex")
        out["rewrite.nf_cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
        out["gc.pause_s"] = self.gc_pause_s
        out["gc.collections"] = self.gc_collections
        return {name: out[name] for name in METRICS}
