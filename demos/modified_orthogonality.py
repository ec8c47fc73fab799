#!/usr/bin/env python3
"""The modified orthogonality sum T_a, three ways.

T_a sums products c_{m_1}(k_1) ... c_{m_r}(k_1 + ... + k_{r-1} + l - a)
over a residue grid with l restricted to units.  It vanishes unless all
moduli are equal, where it collapses to m^(r-1) mu(m) c_m(a).  The demo
runs the closed form, the even-function convolution route, and the naive
grid sum side by side.
"""

from ramsum import cauchy_convolve, fourier_coefficients, mobius, ramanujan_even, ramanujan_sum, t_a


def three_ways():
    print("closed / spectral / direct evaluations of T_a:")
    cases = [
        ((6,), 1),
        ((6, 6), 0),
        ((4, 4, 4), 3),
        ((2, 3), 5),
        ((12, 6), -2),
        ((10, 10), 7),
    ]
    for moduli, a in cases:
        vals = [t_a(moduli, a, strategy=s) for s in ("closed", "spectral", "direct")]
        assert vals[0] == vals[1] == vals[2]
        r, m = len(moduli), max(moduli)
        note = ""
        if len(set(moduli)) == 1:
            note = f"  = {m}^{r - 1} * mu({m}) * c_{m}({a})"
        print(f"  T_{a}{moduli} = {vals[0]}{note}")


def convolution_kernel(m=6, r=3):
    print(f"\nexpansion coefficients of the {r}-fold convolution kernel mod {m}:")
    kernel = ramanujan_even(m)
    for _ in range(r - 1):
        kernel = cauchy_convolve(kernel, ramanujan_even(m))
    alpha = fourier_coefficients(kernel)
    for d, v in sorted(alpha.items()):
        print(f"  alpha({d}) = {v}")
    print(f"  (concentrated at d = {m} with weight m^(r-1) = {m ** (r - 1)})")


def orthogonality_view(m=10):
    print(f"\nr = 2 orthogonality at m = {m}: (1/m) sum equals mu(m) c_m(a) on the diagonal")
    for a in range(0, 5):
        diag = t_a((m, m), a) // m
        print(f"  a={a}: {diag:+d}   mu({m})c_{m}({a}) = {mobius(m) * ramanujan_sum(m, a):+d}")


if __name__ == "__main__":
    three_ways()
    convolution_kernel()
    orthogonality_view()
