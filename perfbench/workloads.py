"""Seeded workloads of the ramsum benchmark.

A workload turns a seed into one *pass*: an ordered list of evaluations
``(kind, args)`` whose arguments are plain strings, integers and tuples,
so ramsum receives only the generated inputs.  ``bind`` maps each kind to
a call into the ``ramsum`` package, ``check`` recomputes a result along
the independent route, and ``digest`` hashes the exact outputs of a pass.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

from tracer import INT64_SAFE

# The seven-polynomial corpus the test suite and ``verify`` use.
CORPUS = ("x", "x-1", "x-2", "x+1", "x^2-1", "x^2+x+1", "2x-1")

# Polynomials with a root modulo every modulus ("2x-1" only for odd ones),
# so max |c_m(g(x))| is phi(m).
_ROOTED = ("x", "x-1", "x-2", "x+1", "x^2-1")
_LINEAR = ("x", "x-1", "x-2", "x+1", "2x-1")
_QUADRATIC = ("x^2-1", "x^2+x+1")

# deep-moduli heads: high prime powers and large primes.  ``factorize``
# is trial division without a time budget, so no other large prime factor
# is ever generated.
DEEP_HEADS = ((2, 14), (3, 9), (5, 6), (7, 5), (10007, 1), (12011, 1), (15013, 1), (19997, 1))
# Per head, the (kind, r) of each evaluation: the pass cost depends on
# the heads, not on the seed.
DEEP_SCHEDULE = (("e_g_fast", 2), ("r_g_fast", 2), ("e_g_fast", 1), ("r_g_fast", 1), ("count_roots", 2))
# A (polynomials, p, exponent vector, units) root-count key is heavy when
# the residue scan behind it covers at least this many residues.
HEAVY_RESIDUES = 1000
DEEP_LCM = (10**4, 10**5)

# oracle: a sweep over more (polynomial, modulus) keys than the 1024 that
# ``_poly_c_values`` keeps, so that cache evicts.
SWEEP_MODULI = 160
ORACLE_BIG_LCM = (15_000, 20_000)
ORACLE_BIG_COUNT = 6


def rng_for(workload, seed):
    return random.Random(f"ramsum-perfbench/{workload}/{seed}")


def _system(rng, r, pool=CORPUS):
    return tuple(rng.choice(pool) for _ in range(r))


def _moduli(rng, r, top):
    return tuple(rng.randint(1, top) for _ in range(r))


# Input generation uses its own small number theory, not ramsum's, so a
# change to ramsum can never change the inputs it is measured on.


def _factor(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _phi(n):
    out = 1
    for p, e in _factor(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def _valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# The seed picks the values (polynomials, moduli, shifts, order); the count
# and size class of every evaluation in a pass are fixed per workload, so
# the work of a pass does not depend on the seed.


def gen_tabulate(rng):
    """Fast paths over small moduli, then a few CLI tables."""
    tops = {1: 60, 2: 24, 3: 10}
    arities = (1, 2, 2, 3)
    evals = []
    for kind in ("e_g_fast", "r_g_fast"):
        for i in range(400):
            r = arities[i % 4]
            evals.append((kind, (_system(rng, r), _moduli(rng, r, tops[r]))))
    for kind in ("e_shift", "r_shift"):
        for i in range(200):
            a = rng.randint(0, 30)
            if i % 4:
                evals.append((kind, ((a, a + 1), _moduli(rng, 2, 30))))
            else:
                evals.append((kind, ((a, a + 1, a + 2), _moduli(rng, 3, 12))))
    for i in range(200):
        r = arities[i % 4]
        evals.append(("count_roots", (_system(rng, r), _moduli(rng, r, tops[r]), i % 2 == 0)))
    for k in range(20):
        m = 6 + k
        moduli = (m, m) if k % 2 == 0 else (m, m, rng.choice(_divisors(m)))
        evals.append(("t_a", (moduli, rng.randint(0, 50), "spectral")))
    rng.shuffle(evals)
    g = _system(rng, 2)
    h = _system(rng, 2)
    a = rng.randint(0, 20)
    cli = [
        ("E", "--polys", ";".join(g), "--range", "6", "--format", "plain"),
        ("R", "--polys", ";".join(h), "--range", "6", "--format", "json"),
        ("E", "--shifts", f"{a},{a + 1}", "--range", "8", "--format", "csv"),
        ("c", "--a", str(rng.randint(1, 60)), "--range", "50", "--format", "json"),
        ("T", "--a", str(a), "--r", "2", "--range", "6", "--strategy", "spectral", "--format", "csv"),
    ]
    return evals + [("cli", (argv,)) for argv in cli]


def _heavy_keys(kind, system, moduli, units, p):
    """The expensive root-count cache keys an evaluation touches at p."""
    avec = tuple(_valuation(m, p) for m in moduli)
    if kind == "count_roots":
        jvecs = [avec]
    else:
        units = kind == "r_g_fast"
        jvecs = [()]
        for a in avec:
            jvecs = [j + (b,) for j in jvecs for b in ((a, a - 1) if a else (0,))]
    return {(system, p, j, units) for j in jvecs if p ** max(j) >= HEAVY_RESIDUES}


def gen_deep_moduli(rng):
    """Cold fast-path calls whose lcm comes from one high prime power.

    Per head the schedule fixes the kinds, the arity, the polynomial degree
    and (for root counts) the unit restriction; the second exponent stays
    below the top one.  Root counts get no cofactor, because a cofactor
    prime without roots would end ``count_roots`` before the scan at p.
    """
    lo, hi = DEEP_LCM
    used = set()
    evals = []
    for h, (p, top) in enumerate(DEEP_HEADS):
        head = p**top
        cofactors = [c for c in range(1, 11) if math.gcd(c, p) == 1 and lo <= head * c <= hi]
        for slot, (kind, r) in enumerate(DEEP_SCHEDULE):
            pool = _QUADRATIC if (h + slot) % 3 == 0 else _LINEAR
            units = h % 2 == 0
            for _ in range(10_000):
                mult = (lambda: 1) if kind == "count_roots" else (lambda: rng.choice(cofactors))
                moduli = [head * mult()] + [p ** rng.randint(1, max(1, top - 1)) * mult() for _ in range(r - 1)]
                rng.shuffle(moduli)
                moduli = tuple(moduli)
                system = _system(rng, r, pool)
                keys = _heavy_keys(kind, system, moduli, units, p)
                if lo <= math.lcm(*moduli) <= hi and not keys & used:
                    break
            else:
                raise RuntimeError(f"no fresh deep-moduli input for head {p}^{top}")
            used |= keys
            args = (system, moduli, units) if kind == "count_roots" else (system, moduli)
            evals.append((kind, args))
    rng.shuffle(evals)
    return evals


def _bigint_tuple(rng, lo, hi):
    """An r = 4 system with lcm in [lo, hi) whose int64 bound m * prod(vmax) exceeds 2^62.

    Every polynomial has a root modulo its modulus, so vmax = phi(m_i).
    """
    while True:
        lcm = rng.randrange(lo, hi)
        q = _factor(lcm)[0][0]
        moduli = [lcm, lcm, lcm, lcm // q]
        if lcm * math.prod(_phi(m) for m in moduli) >= 2 * INT64_SAFE:
            break
    rng.shuffle(moduli)
    pool = _ROOTED + (("2x-1",) if lcm % 2 else ())
    return _system(rng, 4, pool), tuple(moduli)


def gen_oracle(rng):
    """The definitional route: an evicting sweep, revisits, big integers, T_a."""
    evals = []
    # One modulus from each of SWEEP_MODULI strata of [2, 362).
    sweep_moduli = [2 + (k * 359) // SWEEP_MODULI + rng.randrange(2) for k in range(SWEEP_MODULI)]
    sweep = [(g, m) for g in CORPUS for m in sweep_moduli]
    rng.shuffle(sweep)
    for g, m in sweep:
        evals.append((rng.choice(("e_g_direct", "r_g_direct")), ((g,), (m,))))
    revisit = []
    for i in range(300):
        r = 2 + i % 2
        revisit.append(
            (rng.choice(("e_g_direct", "r_g_direct")), (_system(rng, r), _moduli(rng, r, 16 if r == 2 else 10)))
        )
    lo, hi = ORACLE_BIG_LCM
    step = (hi - lo) // ORACLE_BIG_COUNT
    for k in range(ORACLE_BIG_COUNT):
        revisit.append((rng.choice(("e_g_direct", "r_g_direct")), _bigint_tuple(rng, lo + k * step, lo + (k + 1) * step)))
    for k in range(40):
        # lcm m fixed per k, so the grid cost m^(r-1) * phi(m) is too.
        m = 2 + k if k < 30 else k - 28
        moduli = (m, rng.choice(_divisors(m))) if k < 30 else (m, m, rng.choice(_divisors(m)))
        revisit.append(("t_a", (moduli, rng.randint(0, 50), "direct")))
    rng.shuffle(revisit)
    return evals + revisit


def gen_average_order(rng):
    """Exact average-order reports at x in the tens of thousands."""
    prime_bound = rng.randint(50_000, 100_000)
    return [
        ("asymptotic_report", (2, 20_000 + rng.randrange(500), prime_bound)),
        ("asymptotic_report", (2, 30_000 + rng.randrange(500), prime_bound)),
        ("asymptotic_report", (3, 20_000 + rng.randrange(500), prime_bound)),
        ("asymptotic_report", (3, 30_000 + rng.randrange(500), prime_bound)),
        ("dirichlet", (2, 5_000 + rng.randrange(500))),
        ("dirichlet", (3, 5_000 + rng.randrange(500))),
    ]


GENERATORS = {
    "tabulate": gen_tabulate,
    "deep-moduli": gen_deep_moduli,
    "oracle": gen_oracle,
    "average-order": gen_average_order,
}

# The probe (see probe.py) whose work each workload's time resembles most:
# average-order is big-integer Fraction arithmetic, the rest interpreter loops.
PROBE_KIND = {
    "tabulate": "interpreter",
    "deep-moduli": "interpreter",
    "oracle": "interpreter",
    "average-order": "big-fraction",
}

# How many evaluations of a pass ``check`` recomputes along the other route.
CHECK_SAMPLE = {"tabulate": 100, "deep-moduli": 4, "oracle": 40, "average-order": 6}


def generate(workload, seed):
    return GENERATORS[workload](rng_for(workload, seed))


def check_sample(workload, seed, evals):
    """Seeded indices of the evaluations cross-checked after the timed phase."""
    rng = rng_for(f"{workload}/check", seed)
    return sorted(rng.sample(range(len(evals)), min(CHECK_SAMPLE[workload], len(evals))))


# ---------------------------------------------------------------------------
# calls, checks and digests


def bind(rs):
    """Map each evaluation kind to a call through the ``ramsum`` package.

    Names are looked up on the package at call time, so wrappers that a
    tracer installs there are used.
    """

    def cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = rs.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"ramsum {' '.join(argv)} exited with {code}")
        return buf.getvalue()

    return {
        "e_g_fast": lambda system, moduli: rs.e_g_fast(system, moduli),
        "r_g_fast": lambda system, moduli: rs.r_g_fast(system, moduli),
        "e_shift": lambda shifts, moduli: rs.e_shift(shifts, moduli),
        "r_shift": lambda shifts, moduli: rs.r_shift(shifts, moduli),
        "e_g_direct": lambda system, moduli: rs.e_g_direct(system, moduli),
        "r_g_direct": lambda system, moduli: rs.r_g_direct(system, moduli),
        "count_roots": lambda system, moduli, units: rs.count_roots(system, moduli, units_only=units),
        "t_a": lambda moduli, a, strategy: rs.t_a(moduli, a, strategy=strategy),
        "asymptotic_report": lambda r, x, prime_bound: rs.asymptotic_report(r, x, prime_bound),
        "dirichlet": lambda r, m_bound: rs.dirichlet_decomposition_check(r, m_bound),
        "cli": cli,
    }


def _shift_polys(shifts):
    return tuple(f"x-{a}" if a >= 0 else f"x+{-a}" for a in shifts)


def check(rs, kind, args, out):
    """Recompute one result along the independent route; True when it agrees."""
    if kind == "e_g_fast":
        return rs.e_g_direct(*args) == out
    if kind == "r_g_fast":
        return rs.r_g_direct(*args) == out
    if kind == "e_shift":
        return rs.e_g_direct(_shift_polys(args[0]), args[1]) == out
    if kind == "r_shift":
        return rs.r_g_direct(_shift_polys(args[0]), args[1]) == out
    if kind == "e_g_direct":
        return rs.e_g_fast(*args) == out
    if kind == "r_g_direct":
        return rs.r_g_fast(*args) == out
    if kind == "count_roots":
        system, moduli, units = args
        return rs.count_roots(system, moduli, units_only=units, strategy="direct") == out
    if kind == "t_a":
        return rs.t_a(args[0], args[1], strategy="closed") == out
    if kind == "asymptotic_report":
        return abs(out.ratio - 1.0) <= 0.02
    if kind == "dirichlet":
        return out is True
    if kind == "cli":
        argv = list(args[0])
        if argv[0] == "c":  # a json table of c_n(a)
            a = int(argv[argv.index("--a") + 1])
            rows = json.loads(out)["rows"]
            return all(row["value"] == rs.ramanujan_sum_totient_form(row["n"], a) for row in rows)
        if "spectral" in argv:
            argv[argv.index("spectral")] = "closed"
        else:
            argv += ["--strategy", "direct"]
        return bind(rs)["cli"](argv) == out
    raise ValueError(f"no independent route for {kind!r}")


def _feed(h, value):
    if isinstance(value, bool):
        h.update(b"b1" if value else b"b0")
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        h.update(b"i" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(value, Fraction):
        h.update(b"q")
        _feed(h, value.numerator)
        _feed(h, value.denominator)
    elif isinstance(value, str):
        raw = value.encode()
        h.update(b"s" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(value, tuple):
        h.update(b"t" + len(value).to_bytes(8, "big"))
        for v in value:
            _feed(h, v)
    else:
        raise TypeError(f"cannot hash {type(value).__name__}")


def exact(out):
    """The exact part of an output; floats (ratios, predictions) are left out."""
    if hasattr(out, "empirical"):
        return (out.r, out.x, out.empirical)
    if hasattr(out, "modulus"):
        return (out.count, out.modulus)
    return out


def digest(outputs):
    """SHA-256 over the exact outputs of one pass, integers via ``int.to_bytes``."""
    h = hashlib.sha256()
    for out in outputs:
        _feed(h, exact(out))
    return h.hexdigest()
