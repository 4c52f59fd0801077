"""Square roots of arithmetic functions, prime by prime.

A multiplicative function restricted to powers of one prime is just a value
sequence starting at 1, and Dirichlet convolution becomes the plain Cauchy
product there.  The row recurrence of the root matrices, applied to the
function's recovered core, then computes fractional convolution powers of
zeta, phi, sigma, tau exactly.
"""

from fractions import Fraction

from isobaric import (
    dirichlet_convolve_local,
    known_function,
    local_power,
    recover_core,
    root_verify,
)

zeta = known_function("zeta", 2, 8)
half = local_power(zeta, Fraction(1, 2))
print("zeta at powers of 2:        ", zeta.format_values())
print("its convolution square root:", half.format_values())
assert dirichlet_convolve_local(half, half) == zeta

# tau = zeta * zeta, so the square root of tau is zeta itself.
tau = known_function("tau", 2, 8)
print("\ntau at powers of 2:  ", tau.format_values())
print("sqrt(tau):           ", local_power(tau, Fraction(1, 2)).format_values())

# The -1 power is the Dirichlet inverse; for zeta that is the Moebius function.
mu = local_power(zeta, -1)
print("\nzeta^(-1):           ", mu.format_values())
assert mu == known_function("mobius", 2, 8)

# Cube roots exist too, for any of the stock functions.
for name in ("phi", "sigma"):
    f = known_function(name, 3, 8)
    assert root_verify(f, 3)
    print(f"cube root of {name}(3^i):", local_power(f, Fraction(1, 3)).format_values())

# Behind the scenes each function owes its values to a linear recursion core.
def core_str(f):
    return "(" + ", ".join(str(t) for t in recover_core(f)) + ")"


print("\nrecursion core of phi at p=3:", core_str(known_function("phi", 3, 5)))
print("recursion core of zeta:      ", core_str(known_function("zeta", 2, 5)))
