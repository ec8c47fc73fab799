#!/usr/bin/env python3
"""Sums of products of Ramanujan sums along polynomial values.

Shows the two computation routes (definitional residue scan vs per-prime
divisor convolution) agreeing, then prints the closed-form tables for the
quadratic x^2 - 1 and for linear shift systems.
"""

import math

from ramsum import (
    count_roots,
    e_g_direct,
    e_g_fast,
    e_shift,
    factorize,
    mobius,
    r_g_direct,
    r_g_fast,
    r_shift,
)


def two_routes():
    print("full-range (E) and coprime (R) product sums, both routes:")
    cases = [
        (("x", "x"), (6, 6)),
        (("x-1", "x-1"), (9, 9)),
        (("x^2-1",), (56,)),
        (("x^2+x+1", "2x-1"), (12, 18)),
    ]
    for system, moduli in cases:
        e_slow, e_fast = e_g_direct(system, moduli), e_g_fast(system, moduli)
        r_slow, r_fast = r_g_direct(system, moduli), r_g_fast(system, moduli)
        assert e_slow == e_fast and r_slow == r_fast
        print(f"  G={system} m={moduli}: E={e_fast}, R={r_fast}")


def quadratic_tables(n_max=40):
    print(f"\nquadratic sums for n <= {n_max} (nonzero entries only):")
    print("  n : (1/n) sum c_n(k^2-1) | sum over units c_n(k^2-1)")
    for n in range(1, n_max + 1):
        e = e_g_fast("x^2-1", (n,))
        r = r_g_fast("x^2-1", (n,))
        if e or r:
            print(f"  {n:>3}: {e:>3} | {r:>4}")


def root_counts():
    print("\nroot counts feeding the convolution route:")
    for n in (8, 12, 16, 15):
        full = count_roots("x^2-1", (n,))
        units = count_roots("x^2-1", (n,), units_only=True)
        print(f"  x^2 = 1 mod {n:>2}: {full.count} solutions, {units.count} unit solutions")


def dedekind_psi(m):
    """psi(m) = m * prod_{p|m} (1 + 1/p)."""
    return math.prod(p ** (e - 1) * (p + 1) for p, e in factorize(m).factors)


def shift_rules(n_max=20):
    print("\nadjacent shifts (a, a+1), equal moduli:")
    print("  nonzero iff m is squarefree, value (-1)^omega(m); unit shifts give psi")
    for m in range(1, n_max + 1):
        e = e_shift((0, 1), (m, m))
        r = r_shift((1, 2), (m, m))
        tag = "squarefree" if mobius(m) else "has square"
        print(f"  m={m:>2} ({tag:>10}): mean={e:+d}  unit-sum={r:+d}  psi(m)={dedekind_psi(m)}")


if __name__ == "__main__":
    two_routes()
    quadratic_tables()
    root_counts()
    shift_rules()
