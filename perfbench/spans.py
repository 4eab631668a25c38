"""Outside-in tracing of the library's layers, from the benchmark's files.

``Tracer.install`` replaces the public entry points of each module under
``gotonum`` with wrappers that record a span (op id, name, start, end,
parent span) and per-name call counts, self time and errors.  Every
module namespace that imported the original function gets the wrapper,
so calls between modules are seen too; ``uninstall`` puts the originals
back.  Nothing under ``src/`` changes.

Self time is a span's duration minus the time its child spans cover.
``invert_unit_mod`` is left unwrapped so that the cost of inverting a
unit shows as the self time of ``CanonicalIdeal.unit_inverse``, its only
caller in the CLI paths.
The root of every op is ``cli.main``, so the self times of all names sum
to the op latencies of a traced pass.

Two entry points are called tens of thousands of times per op on the
invariants and goto workloads (``escape_order`` and ``madic_order``);
they are counted and timed like the rest but their spans are not kept,
which would cost memory the untraced run does not pay.  The field
descriptors' scalar operations are only counted.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "semigroup", "fields", "ring", "colon", "bounds", "explorer", "regular")

# layer -> public entry points ("Class.method" for methods)
ENTRY_POINTS = {
    "cli": ("main",),
    "semigroup": (
        "NumericalSemigroup.__init__",
        "NumericalSemigroup.madic_order",
        "NumericalSemigroup.escape_order",
        "NumericalSemigroup.stable_goto_via_t",
        "NumericalSemigroup.stable_goto_via_t_prime",
        "NumericalSemigroup.is_symmetric",
        "NumericalSemigroup.conductor_order",
        "NumericalSemigroup.generator_sums",
        "frobenius_two_generated",
    ),
    "fields": ("field_from_label",),
    "ring": (
        "parse_element",
        "canonicalize",
        "CanonicalIdeal.unit_inverse",
        "CanonicalIdeal.contains",
    ),
    "colon": (
        "goto_number",
        "colon_power",
        "colon_by_monomials",
        "goto_monomial",
        "ideal_image",
        "is_integrally_closed",
        "contained_in_power_sum",
        "dual_goto",
        "conductor_dual_goto",
        "index_of_nilpotency",
        "TruncatedSubspace.span",
    ),
    "bounds": (
        "stable_goto",
        "build_report",
        "rho",
        "bound_display_max",
        "bound_global",
        "bound_monomial_generator",
        "bound_first_generator",
        "closed_form_two_generated",
    ),
    "explorer": ("search", "monomial_table"),
    "regular": (
        "pure_power_goto",
        "pure_power_report",
        "MonomialIdeal.colon_power_maximal",
        "MonomialIdeal.colon_maximal",
    ),
}

UNKEPT = {"semigroup.escape_order", "semigroup.madic_order"}
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "of", "parse")


def span_name(layer, entry):
    method = entry.rsplit(".", 1)[-1]
    return f"{layer}.{'init' if method == '__init__' else method}"


class Tracer:
    def __init__(self, package):
        self.package = package      # the imported ``gotonum`` package
        self.reset()
        self._undo = []

    def reset(self):
        self.spans = []             # (op, name, start, end, parent index)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.counts = Counter()
        self.semigroups = {}        # generators -> None, in first-seen order
        self.op = None
        self._stack = []            # open spans: [index, child time]
        self._raised = []           # (layer, exception) already counted

    # -- installation -----------------------------------------------------

    def _modules(self):
        pkg = self.package
        return [pkg] + [getattr(pkg, name) for name in LAYERS + ("golden", "errors")]

    def install(self):
        hooks = {
            "colon.colon_power": self._after_colon_power,
            "colon.goto_number": self._after_goto_number,
            "explorer.search": self._after_search,
            "semigroup.init": self._after_semigroup_init,
        }
        modules = self._modules()
        for layer, entries in ENTRY_POINTS.items():
            module = getattr(self.package, layer)
            for entry in entries:
                name = span_name(layer, entry)
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    if isinstance(original, classmethod):
                        wrapper = classmethod(
                            self._wrap(name, original.__func__, hooks.get(name))
                        )
                    else:
                        wrapper = self._wrap(name, original, hooks.get(name))
                    self._patch(owner, attr, original, wrapper)
                    continue
                original = getattr(module, entry)
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        for cls, key in (
            (self.package.fields.Rationals, "fields.q_ops"),
            (self.package.fields.PrimeField, "fields.fp_ops"),
        ):
            for attr in FIELD_OPS:
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._counting(key, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    # -- wrappers -----------------------------------------------------------

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _wrap(self, name, fn, after):
        tracer = self
        layer = name.split(".", 1)[0]
        keep = name not in UNKEPT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = -1
            if keep:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if keep:
                    tracer.spans[index] = (tracer.op, name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _error(self, layer, exc):
        if not any(l == layer and e is exc for l, e in self._raised):
            self._raised.append((layer, exc))
            self.errors[layer] += 1

    # -- counters read at the layer boundary --------------------------------

    def _after_colon_power(self, args, subspace):
        self.counts["colon.colon_power.kernel_dim"] += subspace.dimension

    def _after_goto_number(self, args, value):
        if args[0].unit_coeffs:
            self.counts["colon.goto_number.non_monomial"] += 1

    def _after_search(self, args, result):
        self.counts["explorer.forms"] += result.count

    def _after_semigroup_init(self, args, value):
        self.semigroups.setdefault(args[0].generators)

    # -- summaries ------------------------------------------------------------

    def goto_calls_under_search(self):
        """goto_number spans whose ancestors include an explorer.search span."""
        spans = self.spans
        total = 0
        for span in spans:
            if span[1] != "colon.goto_number":
                continue
            parent = span[4]
            while parent >= 0 and spans[parent][1] != "explorer.search":
                parent = spans[parent][4]
            total += parent >= 0
        return total
