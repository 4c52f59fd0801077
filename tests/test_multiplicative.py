import random
from fractions import Fraction

import pytest

from isobaric.multiplicative import (
    KNOWN_FUNCTIONS,
    LocalMF,
    dirichlet_convolve_local,
    known_function,
    local_power,
    recover_core,
    root_verify,
)
from isobaric.verify import _local_powers_closed


# -- the value container ---------------------------------------------------


def test_value_at_one_must_be_unit():
    with pytest.raises(ValueError):
        LocalMF((Fraction(2), Fraction(1)))
    with pytest.raises(ValueError):
        LocalMF(())
    f = LocalMF((1, 5, 7))
    assert f.value(0) == 1 and f.value(2) == 7
    assert f.truncation == 2


def test_value_outside_stored_range_rejected():
    f = known_function("id", 2, 3)
    assert f.value(3) == 8
    for n in (-1, -4, 4):
        with pytest.raises(IndexError, match=r"0\.\.3"):
            f.value(n)


def test_labels_ignored_by_equality():
    a = LocalMF((1, 2, 3), "a")
    b = LocalMF((1, 2, 3), "b")
    assert a == b
    assert hash(a) == hash(b)
    assert LocalMF((1, 2, 4), "a") != a
    assert a != (1, 2, 3)


def test_immutable_with_field_repr():
    f = LocalMF((1, Fraction(1, 2)), "h")
    with pytest.raises(AttributeError):
        f.values = (1,)
    with pytest.raises(AttributeError):
        f.label = "g"
    with pytest.raises(AttributeError):
        del f.label
    assert repr(f) == "LocalMF(values=(Fraction(1, 1), Fraction(1, 2)), label='h')"


def test_parse_and_format_round_trip():
    f = LocalMF.parse("1,1/2,3/8")
    assert f.values == (1, Fraction(1, 2), Fraction(3, 8))
    assert f.format_values() == "1,1/2,3/8"


# -- fixtures --------------------------------------------------------------


def test_known_function_values():
    assert known_function("zeta", 2, 3).values == (1, 1, 1, 1)
    assert known_function("epsilon", 5, 3).values == (1, 0, 0, 0)
    assert known_function("mobius", 2, 4).values == (1, -1, 0, 0, 0)
    assert known_function("phi", 2, 4).values == (1, 1, 2, 4, 8)
    assert known_function("phi", 3, 3).values == (1, 2, 6, 18)
    assert known_function("sigma", 2, 3).values == (1, 3, 7, 15)
    assert known_function("tau", 7, 4).values == (1, 2, 3, 4, 5)
    assert known_function("id", 3, 3).values == (1, 3, 9, 27)


def test_sigma_values_are_power_sums():
    for p in (2, 3, 1000003):
        for N in range(61):
            expected = tuple(Fraction(sum(p**i for i in range(n + 1))) for n in range(N + 1))
            assert known_function("sigma", p, N).values == expected


def test_known_function_errors():
    with pytest.raises(ValueError):
        known_function("nope", 2, 3)
    with pytest.raises(ValueError):
        known_function("zeta", 1, 3)
    with pytest.raises(ValueError):
        known_function("zeta", 2, -1)
    with pytest.raises(ValueError):
        known_function("phi", "2", 3)


# -- convolution -----------------------------------------------------------


def test_convolution_truncation_mismatch():
    with pytest.raises(ValueError):
        dirichlet_convolve_local(known_function("zeta", 2, 3), known_function("zeta", 2, 4))


def test_epsilon_is_unit():
    for name in KNOWN_FUNCTIONS:
        f = known_function(name, 2, 5)
        eps = known_function("epsilon", 2, 5)
        assert dirichlet_convolve_local(eps, f) == f
        assert dirichlet_convolve_local(f, eps) == f


def test_classical_convolution_identities():
    N, p = 5, 3
    zeta = known_function("zeta", p, N)
    mob = known_function("mobius", p, N)
    idf = known_function("id", p, N)
    assert dirichlet_convolve_local(zeta, mob) == known_function("epsilon", p, N)
    assert dirichlet_convolve_local(mob, idf) == known_function("phi", p, N)
    assert dirichlet_convolve_local(zeta, idf) == known_function("sigma", p, N)
    assert dirichlet_convolve_local(zeta, zeta) == known_function("tau", p, N)


# -- core recovery ---------------------------------------------------------


def test_recover_core_zeta_geometric():
    assert recover_core(known_function("zeta", 2, 5)) == (1, 0, 0, 0, 0)


def test_recover_core_mobius_all_minus_one():
    assert recover_core(known_function("mobius", 2, 5)) == (-1, -1, -1, -1, -1)


def test_recover_core_round_trips_through_power_one():
    for name, p in (("phi", 2), ("sigma", 2), ("tau", 5), ("id", 3)):
        f = known_function(name, p, 6)
        assert local_power(f, 1) == f


# -- powers and roots ------------------------------------------------------


def test_zeta_half_frozen_values():
    half = local_power(known_function("zeta", 2, 4), Fraction(1, 2))
    assert half.values == (1, Fraction(1, 2), Fraction(3, 8), Fraction(5, 16), Fraction(35, 128))


def test_inverse_power_is_dirichlet_inverse():
    for name in KNOWN_FUNCTIONS:
        f = known_function(name, 2, 6)
        inv = local_power(f, -1)
        assert dirichlet_convolve_local(f, inv) == known_function("epsilon", 2, 6)


def test_zeta_inverse_is_mobius():
    assert local_power(known_function("zeta", 2, 5), -1) == known_function("mobius", 2, 5)


def test_power_addition_law():
    f = known_function("phi", 2, 5)
    a, b = Fraction(1, 2), Fraction(3, 2)
    lhs = dirichlet_convolve_local(local_power(f, a), local_power(f, b))
    assert lhs == local_power(f, a + b)


def test_root_verify_pass_and_fail_shape():
    f = known_function("sigma", 2, 5)
    assert root_verify(f, 1)
    assert root_verify(f, 2)
    assert root_verify(f, 3)
    with pytest.raises(ValueError):
        root_verify(f, 0)


def test_root_values_stay_exact_rationals():
    root = local_power(known_function("tau", 2, 6), Fraction(1, 3))
    assert all(isinstance(v, Fraction) for v in root.values)
    cubed = dirichlet_convolve_local(dirichlet_convolve_local(root, root), root)
    assert cubed == known_function("tau", 2, 6)


# -- the root-row recurrence against the closed root polynomials -----------

@pytest.mark.parametrize("N", (0, 1, 5, 14))
def test_power_matches_closed_root_polynomials_on_stock_grid(N):
    stock = [known_function(name, p, N) for name in KNOWN_FUNCTIONS for p in (2, 3)]
    for q in (Fraction(1, 2), Fraction(-1), Fraction(7, 3), Fraction(0)):
        for f, want in zip(stock, _local_powers_closed(stock, q)):
            got = local_power(f, q)
            assert got == want, (f.label, q, N)
            assert got.label == want.label == f"{f.label}^{q}"


def test_power_matches_closed_root_polynomials_on_random_functions():
    rng = random.Random(20261017)

    def small_rational():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for case in range(200):
        N = rng.randint(0, 12)
        f = LocalMF((1, *(small_rational() for _ in range(N))))
        q = Fraction(rng.randint(-4, 4)) if case % 3 == 0 else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        assert local_power(f, q) == _local_powers_closed([f], q)[0], (case, f.values, q)


def test_root_verify_beyond_polynomial_reach():
    # Degree 120 has p(120) ~ 1.8e9 root-polynomial terms; the recurrence
    # needs about 120^2 / 2 exact steps.
    assert root_verify(known_function("sigma", 7, 120), 3)
