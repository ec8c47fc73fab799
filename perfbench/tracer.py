"""Per-layer tracing of ramsum from outside the package.

The tracer replaces selected functions of ``ramsum`` with timing wrappers
in every module namespace that binds them (``ramsum.products`` imports
``_local_root_count`` from ``ramsum.congruences``, so both bindings are
patched).  Nothing under ``src/`` is changed; ``uninstall`` restores the
original objects.

Each wrapped call records a span (span id, name, start, end, parent
span id, evaluation id).  Spans stay in memory up to a cap and are written out by
``run.py`` at exit.  Per-function statistics are kept per pass:
calls, inclusive seconds and self seconds, where self time is the span's
duration minus the time its direct child spans cover.  Cache hit and miss
counts are read from ``functools.lru_cache.cache_info()``.
"""

import math
import time

# (module, function) pairs timed with spans, grouped by layer.
TIMED = (
    ("cli", "main"),
    ("cli", "parse_args"),
    ("cli", "execute"),
    ("cli", "_emit_rows"),
    ("cli", "_emit_scalar"),
    ("congruences", "parse_polynomial"),
    ("congruences", "as_poly_system"),
    ("congruences", "count_roots"),
    ("congruences", "_local_root_count"),
    ("arith", "factorize"),
    ("arith", "moduli_tuple"),
    ("arith", "multiplicative_eval"),
    ("products", "e_g_fast"),
    ("products", "r_g_fast"),
    ("products", "e_shift"),
    ("products", "r_shift"),
    ("products", "e_g_direct"),
    ("products", "r_g_direct"),
    ("products", "_product_sum"),
    ("products", "_poly_c_values"),
    ("ramanujan", "ramanujan_row"),
    ("ramanujan", "ramanujan_sum"),
    ("even", "t_a"),
    ("even", "fourier_coefficients"),
    ("even", "cauchy_convolve"),
    ("even", "coprime_shift_sum"),
    ("asymptotics", "g_r_sieve"),
    ("asymptotics", "alpha_r"),
    ("asymptotics", "asymptotic_report"),
    ("asymptotics", "dirichlet_decomposition_check"),
)

# lru_cache-wrapped functions whose hit and miss counts are reported.
CACHED = (
    ("congruences", "_local_root_count"),
    ("arith", "factorize"),
    ("products", "_poly_c_values"),
    ("products", "_coprime_mask"),
    ("ramanujan", "ramanujan_row"),
)

# Counters computed by the wrappers (see ``Tracer``), with their units.
COMPUTED = (
    ("congruences.root_scan.residues", "count"),
    ("products._mu_terms.calls", "count"),
    ("products._mu_terms.terms", "count"),
    ("products.direct.int64_calls", "count"),
    ("products.direct.bigint_calls", "count"),
    ("asymptotics.partial_sum.denominator_bits", "bits"),
)

# ``products._product_sum`` takes its int64 path when its bound fits in 62 bits.
INT64_SAFE = 1 << 62


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for mod, fn in TIMED:
        out[f"{mod}.{fn}.calls"] = "count"
        out[f"{mod}.{fn}.s"] = "s"
        out[f"{mod}.{fn}.self_s"] = "s"
    for mod, fn in CACHED:
        out[f"{mod}.{fn}.hits"] = "count"
        out[f"{mod}.{fn}.misses"] = "count"
    for name, unit in COMPUTED:
        out[name] = unit
    out["trace.overhead"] = "ratio"
    return out


class Tracer:
    """Span recorder and per-pass counters for one traced process."""

    def __init__(self, ramsum, max_spans=100_000):
        self._ramsum = ramsum
        self._modules = [
            m for m in vars(ramsum).values() if getattr(m, "__name__", "").startswith("ramsum.")
        ] + [ramsum]
        self.max_spans = max_spans
        self.names = [f"{mod}.{fn}" for mod, fn in TIMED]
        self.spans = []
        self.dropped = 0
        self.eval_id = -1
        self._stack = []  # per open span: [span id, child seconds]
        self._next_span = 0
        self._patched = []  # (module, attribute, original)
        self._vmax = []  # per open _product_sum call: vmax values seen
        self.stats = [[0, 0.0, 0.0] for _ in self.names]
        self.counters = {name: 0 for name, _ in COMPUTED}

    # -- per-pass state -------------------------------------------------

    def reset(self):
        """Zero the per-pass statistics in place (wrappers hold references)."""
        for st in self.stats:
            st[:] = [0, 0.0, 0.0]
        for name in self.counters:
            self.counters[name] = 0

    def snapshot(self):
        """This pass's per-layer metrics (without cache counts or overhead)."""
        out = {}
        for name, (calls, incl, self_s) in zip(self.names, self.stats):
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        return out

    # -- installation ---------------------------------------------------

    def install(self):
        ramsum = self._ramsum
        for idx, (mod, fn) in enumerate(TIMED):
            orig = getattr(getattr(ramsum, mod), fn)
            self._patch(orig, self._wrap(idx, orig, _HOOKS.get(fn)))
        mu_terms = ramsum.products._mu_terms
        self._patch(mu_terms, self._wrap_mu_terms(mu_terms))

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched = []

    def _patch(self, orig, wrapper):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patched.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, idx, orig, hook):
        stack = self._stack
        st = self.stats[idx]
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._next_span
            tracer._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            state = hook.before(tracer, orig, args) if hook else None
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                if hook:
                    hook.failed(tracer, state)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((span, idx, t0, t1, parent, tracer.eval_id))
                else:
                    tracer.dropped += 1
            if hook:
                hook.after(tracer, orig, args, result, state)
            return result

        traced.__wrapped__ = orig
        return traced

    def _wrap_mu_terms(self, orig):
        counters = self.counters

        def mu_terms(avec):
            counters["products._mu_terms.calls"] += 1
            for term in orig(avec):
                counters["products._mu_terms.terms"] += 1
                yield term

        mu_terms.__wrapped__ = orig
        return mu_terms

    # -- span output ----------------------------------------------------

    def span_dump(self):
        return {
            "names": self.names,
            "fields": ["span", "name", "start_s", "end_s", "parent_span", "evaluation"],
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }


class _Hook:
    """Extra bookkeeping around one wrapped function; defaults do nothing."""

    @staticmethod
    def before(tracer, orig, args):
        return None

    @staticmethod
    def after(tracer, orig, args, result, state):
        pass

    @staticmethod
    def failed(tracer, state):
        pass


class _RootScanHook(_Hook):
    """Counts residues scanned by cache misses of ``_local_root_count``.

    The count is computed as p^max(evec) per miss, which is what the
    residue scan iterates over.
    """

    @staticmethod
    def before(tracer, orig, args):
        return orig.cache_info().misses

    @staticmethod
    def after(tracer, orig, args, result, misses_before):
        if orig.cache_info().misses != misses_before:
            _, p, evec, _ = args
            tracer.counters["congruences.root_scan.residues"] += p ** max(evec)


class _ProductSumHook(_Hook):
    """Classifies each ``_product_sum`` call as int64 or big-integer.

    Recomputes the documented bound m * prod(vmax) from the vmax values
    that ``_poly_c_values`` returned during the call.
    """

    @staticmethod
    def before(tracer, orig, args):
        tracer._vmax.append([])

    @staticmethod
    def after(tracer, orig, args, result, state):
        vmaxes = tracer._vmax.pop()
        bound = args[1].lcm.value * math.prod(vmaxes)
        kind = "int64_calls" if bound < INT64_SAFE else "bigint_calls"
        tracer.counters[f"products.direct.{kind}"] += 1

    @staticmethod
    def failed(tracer, state):
        tracer._vmax.pop()


class _PolyCValuesHook(_Hook):
    @staticmethod
    def after(tracer, orig, args, result, state):
        if tracer._vmax:
            tracer._vmax[-1].append(result[1])


class _PartialSumHook(_Hook):
    """Records the bit length of the exact partial sum's denominator."""

    @staticmethod
    def after(tracer, orig, args, result, state):
        bits = result.empirical.denominator.bit_length()
        key = "asymptotics.partial_sum.denominator_bits"
        tracer.counters[key] = max(tracer.counters[key], bits)


_HOOKS = {
    "_local_root_count": _RootScanHook,
    "_product_sum": _ProductSumHook,
    "_poly_c_values": _PolyCValuesHook,
    "asymptotic_report": _PartialSumHook,
}
