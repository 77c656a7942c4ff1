"""Span recorder that wraps the engine's layer functions from outside.

``install`` replaces each traced function at every place the loaded
``hirzebruch`` modules bind it: the defining module, modules that imported
it by name, registry dictionaries such as ``verify.SUITES``, and class
attributes, so ``__rmul__ = __mul__`` aliases are wrapped with the same
wrapper.  It then checks that no binding of an original is left.

Each call becomes a span (name, start, end, parent, op id).  Spans stay in
memory; ``Recorder.dump`` writes them out once the traced process is done.
Hot kernels (class and Laurent multiplies, ``_reduce``) are only aggregated
per name, because keeping a record per call would hold millions of records.
A layer's self time is its span time minus the time of its child spans;
the time the recorder spends on its own bookkeeping is charged to no span.
"""

from __future__ import annotations

import json
import sys
import time
import types

clock = time.perf_counter_ns


class Recorder:
    def __init__(self):
        self.stack = []       # open frames: [child_ns, id of nearest kept span]
        self.agg = {}         # name -> [calls, total_ns, self_ns]
        self.counts = {}      # name -> count (count-only wrappers and hooks)
        self.maxima = {}      # name -> running maximum
        self.spans = []       # kept spans: (name, start_ns, end_ns, parent, op)
        self.op = 0

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def span(self, name, fn, keep=True, hook=None):
        """Wrap ``fn`` so that every call is recorded as a span ``name``."""
        agg = self.agg.setdefault(name, [0, 0, 0])
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            t0 = clock()
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else -1
            if keep:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent_id
            frame = [0, sid]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if keep:
                    spans[sid] = (name, t0, t1, parent_id, self.op)
                if ok and hook is not None:
                    hook(args, result)
                if parent is not None:
                    parent[0] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so that calls are only counted."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, **extra):
        doc = {"agg": self.agg, "counts": self.counts, "maxima": self.maxima,
               "spans": self.spans, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _coeff_bits(v):
    """Largest numerator or denominator bit length in a coefficient."""
    if hasattr(v, "denominator"):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    inner = getattr(v, "_c", None)            # LaurentY
    if inner is None:
        inner = v.num._c                      # RationalFunctionY
    return max((_coeff_bits(c) for c in inner.values()), default=0)


def _mul_hook(rec, CohClass):
    def hook(args, result):
        a, b = args
        if not isinstance(b, CohClass):
            return
        rec.add("spaces.mul")
        rec.add("spaces.mul_pairs", len(a._c) * len(b._c))
        top = a.space.dim
        da, db = {}, {}
        for e in a._c:
            d = sum(e)
            da[d] = da.get(d, 0) + 1
        for e in b._c:
            d = sum(e)
            db[d] = db.get(d, 0) + 1
        rec.add("spaces.mul_pairs_in_degree",
                sum(na * nb for d1, na in da.items() for d2, nb in db.items()
                    if d1 + d2 <= top))
        rec.peak("spaces.max_terms", len(result._c))
        rec.peak("rings.coeff_max_bits",
                 max((_coeff_bits(v) for v in result._c.values()), default=0))
    return hook


_BUILDERS = ("projective", "product", "projective_bundle", "hypersurface",
             "with_arrangement", "from_document")
_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__neg__", "__pow__")


def _public_methods(cls):
    return [k for k, v in vars(cls).items()
            if isinstance(v, types.FunctionType)
            and (not k.startswith("_") or k in _ARITH)]


def install(rec):
    """Wrap every traced function of the loaded engine; returns the number
    of bindings replaced."""
    from hirzebruch import (bundles, cli, exprlang, hodge, motivic, rings,
                            spaces, transforms, verify)

    plan = []   # (original, wrapper factory)

    def span(name, fn, **kw):
        plan.append((fn, lambda: rec.span(name, fn, **kw)))

    def count(name, fn):
        plan.append((fn, lambda: rec.counter(name, fn)))

    span("rings.laurent_mul", vars(rings.LaurentY)["__mul__"], keep=False)
    count("rings.rf_new", vars(rings.RationalFunctionY)["__init__"])
    span("spaces.mul", vars(spaces.CohClass)["__mul__"], keep=False,
         hook=_mul_hook(rec, spaces.CohClass))
    span("spaces.reduce", vars(spaces.SpaceModel)["_reduce"], keep=False)
    count("spaces.model_init", vars(spaces.SpaceModel)["__init__"])
    for name in _BUILDERS:
        span(f"spaces.build.{name}", getattr(spaces, name))
    for name in ("gysin_pushforward", "ring_pullback", "relative_tangent"):
        span(f"spaces.{name}", getattr(spaces, name))
    for name in ("power_sums", "apply_series", "lambda_y", "chern_character", "k_dual"):
        span(f"bundles.{name}", getattr(bundles, name))
    for name in ("chi_y_genus", "mhc_y", "mhc_cohomological", "mht", "degree",
                 "exterior", "pushforward", "pullback_smooth", "homology_dual",
                 "specialize_minus_one", "csm_arrangement"):
        span(f"transforms.{name}", getattr(transforms, name))
    for name, fn in verify.SUITES.items():
        span(f"verify.{name}", fn,
             hook=lambda args, result: rec.add("verify.checks", len(result)))
    span("cli.main", cli.main)
    for name in ("parse_expr", "evaluate", "render", "parse_space", "load_space"):
        span(f"exprlang.{name}", getattr(exprlang, name))
    for name in ("point", "lefschetz", "affine", "torus", "projective", "curve",
                 "custom", "arrangement_complement"):
        span(f"motivic.{name}", getattr(motivic, name))
    for name in _public_methods(motivic.MotivicClass):
        span(f"motivic.{name}", vars(motivic.MotivicClass)[name])
    for name in _public_methods(hodge.HodgeDiamond):
        span(f"hodge.{name}", vars(hodge.HodgeDiamond)[name])

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "hirzebruch" or n.startswith("hirzebruch.")]
    replaced = 0
    originals = set()
    for fn, make in plan:
        if id(fn) in originals:       # an alias such as __rmul__ = __mul__
            continue
        originals.add(id(fn))
        replaced += _rebind(modules, fn, make())
    left = [site for site in _bindings(modules) if id(site[2]) in originals]
    if left:
        raise RuntimeError(f"unwrapped bindings remain: {left[:5]}")
    return replaced


def _bindings(modules):
    """Every (owner, key, value) binding in the modules, their dictionaries
    and the engine's classes."""
    seen = set()
    for mod in modules:
        for key, val in list(vars(mod).items()):
            yield mod, key, val
            if isinstance(val, dict):
                for k, v in list(val.items()):
                    yield val, k, v
            elif (isinstance(val, type) and val.__module__.startswith("hirzebruch")
                  and id(val) not in seen):
                seen.add(id(val))
                for k, v in list(vars(val).items()):
                    yield val, k, v


def _rebind(modules, old, new):
    n = 0
    for owner, key, val in list(_bindings(modules)):
        if val is not old:
            continue
        if isinstance(owner, dict):
            owner[key] = new
        else:
            setattr(owner, key, new)
        n += 1
    if not n:
        raise RuntimeError(f"no binding found for {old!r}")
    return n
