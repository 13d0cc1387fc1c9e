"""Exact witness set of the refuted half-constant converse bound.

The printed claim P_e*(n) >= (1/2)(p^(1/3) q^(2/3) + p^(2/3) q^(1/3))^n is
false: the exact optimal error sits below it at these (p, n), n = 0..48,
220 points in all.  The set was found again by an independent recursion
over raw vote triples (no fblab code) with mpmath comparisons at 60
digits; the tightest relative margin is 0.16%, at p=2/5.  Every test that
checks the violation pattern reads it from here.
"""

HALF_CONSTANT_WITNESSES = {
    "1/20": {2} | set(range(4, 49)),
    "1/10": {2} | set(range(4, 49)),
    "1/5": set(range(2, 49)),
    "3/10": set(range(4, 49)),
    "2/5": set(range(13, 49)),
}
