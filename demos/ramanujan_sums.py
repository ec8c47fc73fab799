#!/usr/bin/env python3
"""Tour of the exact Ramanujan sum evaluator.

Prints a small table of c_n(k), checks the classical special values, and
cross-validates the exact values against the floating-point sum over
primitive roots of unity.
"""

from ramsum import (
    euler_phi,
    mobius,
    ramanujan_row,
    ramanujan_sum,
    ramanujan_sum_exponential,
)


def print_table(n_max=10):
    width = 4
    head = "n\\k " + "".join(f"{k:>{width}}" for k in range(1, n_max + 1))
    print(head)
    for n in range(1, n_max + 1):
        row = ramanujan_row(n)
        row = row[1:] + row[:1]  # c_n(1), ..., c_n(n)
        print(f"{n:>3} " + "".join(f"{v:>{width}}" for v in row) + f"{'':>{(n_max - n) * width}}")


def special_values(n_max=20):
    print("\nc_n(1) = mu(n) and c_n(n) = phi(n):")
    for n in range(1, n_max + 1):
        assert ramanujan_sum(n, 1) == mobius(n)
        assert ramanujan_sum(n, n) == euler_phi(n)
    print(f"  verified for n <= {n_max}")


def row_means(n_max=12):
    print("\nrow means (1/n) sum_k c_n(k):")
    for n in range(1, n_max + 1):
        mean = sum(ramanujan_sum(n, k) for k in range(1, n + 1)) / n
        print(f"  n={n:>2}: {mean:+.0f}")


def float_cross_check(n_max=30):
    print("\nexact value vs cosine sum over primitive roots:")
    worst = 0.0
    for n in range(1, n_max + 1):
        for k in range(n):
            worst = max(worst, abs(ramanujan_sum_exponential(n, k) - ramanujan_sum(n, k)))
    print(f"  max |difference| for n <= {n_max}: {worst:.2e}")


if __name__ == "__main__":
    print_table()
    special_values()
    row_means()
    float_cross_check()
