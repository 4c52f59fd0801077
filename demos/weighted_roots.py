"""Fractional convolution powers of an arbitrarily weighted family.

The weighted families keep the group structure: any rational power q of the
base family exists, computed coefficient by coefficient from total
derivatives of weight monomials (read off the product prod (w_i + s)^a_i).
Setting every weight to 1 recovers the simpler closed form, and powers
compose additively.
"""

from fractions import Fraction

from isobaric import (
    WeightVector,
    convolve,
    gfp_root_closed,
    wip_closed,
    wip_root,
    wip_sequence,
)

omega = WeightVector.from_values((3, 1, 4))
q = Fraction(1, 2)

print("Base family with weights (3, 1, 4, 4, ...):")
for n in range(1, 4):
    print(f"  degree {n}:  {wip_closed(omega, 3, n, degree_zero=1)}")

print(f"\nIts q = {q} power:")
for n in range(1, 4):
    print(f"  degree {n}:  {wip_root(omega, 3, n, q)}")

# Squaring the half power restores the base family.
def power(p):
    return lambda n: wip_root(omega, 3, n, p)


base = wip_sequence(omega, 3, degree_zero=1)
half = power(q)
for n in range(0, 7):
    assert convolve(half, half, n) == base(n)
print("Half power squared = base family, checked through degree 6.")

# Powers add: the 2/3 power convolved with the 1/3 power is the whole.
for n in range(0, 7):
    assert convolve(power(Fraction(2, 3)), power(Fraction(1, 3)), n) == base(n)
print("2/3 power * 1/3 power = base family, checked through degree 6.")

# All-ones weights collapse to the unweighted root.
ones = WeightVector.ones()
assert all(
    wip_root(ones, 2, n, q) == gfp_root_closed(q, 2, n) for n in range(8)
)
print("All-ones weights agree with the unweighted closed form.")
