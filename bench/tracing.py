"""Span tracing of the umbral layers, installed from outside the package.

`Tracer.install(modules)` replaces the public functions of each layer module,
and the methods listed in METHODS, with wrappers that record a span (name,
start, end, parent) in memory.  Every module's references to a wrapped
function are replaced too, so a name re-imported elsewhere (``sheffer_core``
in ``associated``, ``riccati_series`` in ``families``) or held in a table
(``verify.SUITES``) is traced as well.  `uninstall` restores the originals.

Work the tracer does for its own counters (bit heights, product counts,
repeat keys) is kept off the span clock, so it is charged to no layer.
"""
from __future__ import annotations

import inspect
from fractions import Fraction
from time import perf_counter

# module (under the umbral package) -> layer its spans are charged to;
# checks is part of the families layer's verification time.
LAYER_OF = {
    "series": "series",
    "opalg": "opalg",
    "orthocore": "orthocore",
    "families": "families",
    "checks": "families",
    "associated": "associated",
    "binomial": "binomial",
    "verify": "verify",
    "cli": "cli",
}
LAYERS = ("series", "opalg", "orthocore", "families", "associated", "binomial", "verify", "cli")

# Class methods that get spans, as (module, class, attribute, span name).
METHODS = (
    ("series", "TruncSeries", "__mul__", "series.mul"),
    ("series", "TruncSeries", "__truediv__", "series.div"),
    ("series", "TruncSeries", "reverse", "series.reverse"),
    ("series", "TruncSeries", "pow_fraction", "series.pow_fraction"),
    ("series", "TruncSeries", "compose", "series.compose"),
    ("series", "TruncSeries", "exp", "series.exp"),
    ("series", "TruncSeries", "log", "series.log"),
    ("opalg", "OpMatrix", "__matmul__", "opalg.matmul"),
    ("opalg", "OpMatrix", "inverse", "opalg.inverse"),
    ("opalg", "OpMatrix", "bar", "opalg.bar"),
    ("opalg", "OpMatrix", "three_term", "opalg.three_term"),
    ("opalg", "OpMatrix", "umbral_compose", "opalg.umbral_compose"),
    ("opalg", "OpMatrix", "series_of_d", "opalg.series_of_d"),
    ("opalg", "OpMatrix", "shifted_product", "opalg.shifted_product"),
    ("opalg", "OpMatrix", "apply_series", "opalg.apply_series"),
    ("opalg", "OpMatrix", "band_profile", "opalg.band_profile"),
    ("opalg", "OpMatrix", "first_difference", "opalg.first_difference"),
)
# Public functions left unwrapped, their time charged to the caller: the
# solver is riccati_series' own loop, and the poly_* list helpers are called
# so often that spans would cost more than the work they time.
SKIP = {
    "series.solve_autonomous_ode",
    "orthocore.poly_mul", "orthocore.poly_add", "orthocore.poly_scale",
    "orthocore.poly_eval", "orthocore.poly_trim",
    "series.as_rat",
}
# Layers whose returned values feed the <layer>.max_bits counters.
BITS_LAYERS = {"series", "opalg", "orthocore"}
SPAN_RENAMES = {"series.riccati_series": "series.riccati"}


def _fraction_bits(values) -> int:
    best = 0
    for v in values:
        if type(v) is Fraction:
            n = max(v.numerator.bit_length(), v.denominator.bit_length())
        elif type(v) is int:
            n = v.bit_length()
        else:
            continue
        if n > best:
            best = n
    return best


def max_bits(value, depth: int = 0) -> int:
    """Largest numerator/denominator bit length inside a returned value."""
    if type(value) is Fraction or type(value) is int:
        return _fraction_bits((value,))
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return _fraction_bits(coeffs)
    mat = getattr(value, "mat", None)
    if mat is not None:
        return max((_fraction_bits(row) for row in mat), default=0)
    if depth > 2:
        return 0
    if isinstance(value, (list, tuple)):
        return max((max_bits(v, depth + 1) for v in value), default=0)
    parts = [getattr(value, name, None) for name in ("a", "b", "f0", "moment_gf")]
    return max((max_bits(v, depth + 1) for v in parts if v is not None), default=0)


def matmul_products(a, b) -> int:
    """Nonzero x nonzero products a dense-skipping product of a and b forms."""
    n = len(a.mat)
    col_nnz = [0] * n
    for row in a.mat:
        for k, v in enumerate(row):
            if v:
                col_nnz[k] += 1
    return sum(col_nnz[k] * sum(1 for v in b.mat[k] if v) for k in range(n) if col_nnz[k])


def inverse_key(op) -> int:
    return hash((op.nw, op.raised, op.reliable, tuple(tuple(row) for row in op.mat)))


def sheffer_core_key(f, fprime, lam, nw) -> int:
    return hash((f.coeffs, fprime.coeffs, Fraction(lam), nw))


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.names = []          # span name table
        self.spans = []          # [name index, start, end, parent index]
        self.stack = []
        self.paused = 0.0        # tracer bookkeeping time, kept off the span clock
        self.bits = {layer: 0 for layer in BITS_LAYERS}
        self.products = 0
        self.seen = {"opalg.inverse": set(), "families.sheffer_core": set()}
        self.repeats = {"opalg.inverse": 0, "families.sheffer_core": 0}
        self._restore = []

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        want_bits = layer in BITS_LAYERS
        pre = {
            "opalg.matmul": self._pre_matmul,
            "opalg.inverse": self._pre_inverse,
            "families.sheffer_core": self._pre_sheffer_core,
        }.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            if pre is not None:
                pre(*args, **kwargs)
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            t1 = perf_counter()
            self.paused += t1 - t0
            span[1] = t1 - self.paused
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                span[2] = t2 - self.paused
                stack.pop()
            if want_bits:
                b = max_bits(return_value)
                if b > self.bits[layer]:
                    self.bits[layer] = b
            self.paused += perf_counter() - t2
            return return_value

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _pre_matmul(self, a, b):
        self.products += matmul_products(a, b)

    def _count_repeat(self, name, key):
        seen = self.seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _pre_inverse(self, op):
        self._count_repeat("opalg.inverse", inverse_key(op))

    def _pre_sheffer_core(self, f, fprime, lam, nw):
        self._count_repeat("families.sheffer_core", sheffer_core_key(f, fprime, lam, nw))

    def install(self, modules: dict):
        """Wrap the layers in `modules` (module name without the package
        prefix -> module object, every umbral module included)."""
        wrappers = {}
        for short, mod in modules.items():
            layer = LAYER_OF.get(short)
            if layer is None:
                continue
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}" if short != "checks" else f"families.checks.{attr}"
                if name in SKIP:
                    continue
                wrappers[value] = self._wrap(value, SPAN_RENAMES.get(name, name))
        for short, cls_name, attr, name in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            wrappers[raw] = wrapped
            for alias, value in list(vars(cls).items()):
                if value is raw:
                    self._set(cls, alias, wrapped, raw)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value], value)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._set_item(value, key, wrappers[item], item)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._restore.append((setattr, owner, attr, old))

    def _set_item(self, table, key, new, old):
        table[key] = new
        self._restore.append((dict.__setitem__, table, key, old))

    def uninstall(self):
        for setter, owner, key, old in reversed(self._restore):
            setter(owner, key, old)
        self._restore.clear()

    # -- summaries ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus the nesting-aware
        totals the per-layer metrics need."""
        names, spans = self.names, self.spans
        count = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * count
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        per = {}
        for i, s in enumerate(spans):
            row = per.setdefault(names[s[0]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]

        def kind(name):
            if name.startswith("families.") and name.endswith("_family"):
                return "family"
            if name == "families.conjugation_trick_checks" or name.startswith("families.checks."):
                return "check"
            if name.startswith("associated.") and name.endswith("_assoc"):
                return "assoc"
            return None

        kinds = [kind(n) for n in names]
        in_family = [False] * count
        in_check = [False] * count
        in_assoc = [False] * count
        build_s = check_s = assoc_s = 0.0
        rebuilds = 0
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                pk = kinds[spans[p][0]]
                in_family[i] = in_family[p] or pk == "family"
                in_check[i] = in_check[p] or pk == "check"
                in_assoc[i] = in_assoc[p] or pk == "assoc"
            k = kinds[s[0]]
            if k == "family":
                if not in_family[i]:
                    build_s += dur[i]
                if in_assoc[i]:
                    rebuilds += 1
            elif k == "check" and in_family[i] and not in_check[i]:
                check_s += dur[i]
            elif k == "assoc" and not in_assoc[i]:
                assoc_s += dur[i]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in per.items():
            layer_self[name.split(".", 1)[0]] += self_s
        return {
            "per_name": per,
            "layer_self": layer_self,
            "build_s": build_s,
            "check_s": check_s,
            "assoc_s": assoc_s,
            "base_rebuilds": rebuilds,
        }

    def dump_spans(self, fh):
        """One JSON array per line: [name, start_s, end_s, parent index]."""
        for name_index, start, end, parent in self.spans:
            fh.write(f'["{self.names[name_index]}",{start:.9f},{end:.9f},{parent}]\n')
