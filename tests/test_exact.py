from fractions import Fraction

import pytest

from orbirr.exact import (ConductorCapExceeded, Cyclotomic, conductor_cap,
                          cyclotomic_poly, euler_phi, format_cyclotomic,
                          integer_lift, parse_cyclotomic, phi_reduction_matrix,
                          rational, root_of_unity, set_conductor_cap,
                          weighted_root_sum)


def zeta(n, k=1):
    return root_of_unity(n, k)


# deterministic pool of mixed-conductor elements for the algebra laws
POOL = [
    rational(0), rational(1), rational(Fraction(-3, 2)),
    zeta(3), 1 - zeta(3), zeta(4), zeta(6, 5) + 2,
    zeta(8, 3) - Fraction(1, 2) * zeta(8), zeta(5, 2) + zeta(5, 3),
    zeta(12, 7) * 3 - 1,
]


class TestRootsOfUnity:
    def test_identity(self):
        assert zeta(1, 0) == 1

    def test_minus_one(self):
        assert zeta(2, 1) == -1

    def test_i_squared(self):
        assert zeta(4, 1) * zeta(4, 1) == -1

    def test_order(self):
        from math import gcd
        for n in (1, 2, 3, 6, 8, 12):
            for k in range(n):
                z = zeta(n, k)
                want = n // gcd(n, k) if k else 1
                m, acc = 1, z
                while acc != 1:
                    acc = acc * z
                    m += 1
                assert m == want or (k == 0 and m == 1)

    def test_power_relation(self):
        for n in range(1, 65):
            assert zeta(n) ** n == 1

    def test_cyclotomic_polynomial_root(self):
        for n in range(1, 65):
            z = zeta(n)
            val = rational(0)
            for i, c in enumerate(cyclotomic_poly(n)):
                val = val + c * z**i
            assert val.is_zero()

    def test_zero_conductor_rejected(self):
        with pytest.raises(ValueError):
            root_of_unity(0, 1)
        with pytest.raises(ValueError):
            cyclotomic_poly(0)


class TestFieldOps:
    def test_inverse_instance(self):
        x = 1 - zeta(3)
        assert x * x.inverse() == 1

    def test_phi5_at_one(self):
        prod = rational(1)
        for k in range(1, 5):
            prod = prod * (1 - zeta(5, k))
        assert prod == 5

    def test_zeta6_sum(self):
        assert zeta(6) + zeta(6, 5) == 1

    def test_inversion_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            rational(0).inverse()
        with pytest.raises(ZeroDivisionError):
            (zeta(3) - zeta(3)).inverse()

    def test_field_laws_on_pool(self):
        for x in POOL:
            for y in POOL:
                assert x + y == y + x
                assert x * y == y * x
                for z in POOL[:4]:
                    assert (x + y) + z == x + (y + z)
                    assert (x * y) * z == x * (y * z)
                    assert x * (y + z) == x * y + x * z

    def test_every_nonzero_pool_element_invertible(self):
        for x in POOL:
            if not x.is_zero():
                assert x * x.inverse() == 1
                assert (1 / x) * x == 1

    def test_pow_negative(self):
        assert zeta(5) ** -1 == zeta(5, 4)
        assert (1 - zeta(3)) ** -2 == ((1 - zeta(3)) ** 2).inverse()


class TestConjugation:
    def test_rational_fixed(self):
        q = rational(Fraction(3, 2))
        assert q.conjugate() == q

    def test_zeta3(self):
        assert zeta(3).conjugate() == -1 - zeta(3)

    def test_involution(self):
        for x in POOL:
            assert x.conjugate().conjugate() == x

    def test_ring_homomorphism(self):
        for x in POOL:
            for y in POOL:
                assert (x * y).conjugate() == x.conjugate() * y.conjugate()
                assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    def test_galois_requires_coprime(self):
        with pytest.raises(ValueError):
            zeta(6).galois(2)


class TestConductors:
    def test_cross_conductor_equality(self):
        assert zeta(6) * zeta(6) == zeta(3)
        assert zeta(4, 2) == -1
        assert zeta(8, 4) == -1
        assert zeta(12, 4) == zeta(3)

    def test_lift_preserves_value(self):
        x = zeta(3)
        assert x.lift(12) == x
        assert x.lift(6).lift(12) == x

    def test_reduced_minimizes(self):
        y = zeta(6) * zeta(6)
        assert y.reduced().n == 3
        assert (zeta(8, 4)).reduced().n == 1
        assert zeta(7).reduced().n == 7

    def test_rational_recognition(self):
        assert (zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)).as_rational() == -1
        assert zeta(5).as_rational() is None
        assert rational(Fraction(7, 3)).as_rational() == Fraction(7, 3)

    def test_cap_enforced(self):
        assert conductor_cap() == 256
        with pytest.raises(ConductorCapExceeded):
            root_of_unity(257)
        set_conductor_cap(300)
        try:
            assert root_of_unity(257) ** 257 == 1
        finally:
            set_conductor_cap(256)

    def test_equivalence_consistent_with_arithmetic(self):
        # lifting both operands to the lcm commutes with the operations
        a, b = zeta(6), zeta(4)
        assert (a + b).lift(24) == a.lift(24) + b.lift(24)
        assert (a * b).lift(24) == a.lift(24) * b.lift(24)


class TestIntegerLift:
    def test_reduction_rows_are_normal_forms(self):
        for n in range(1, 41):
            M = phi_reduction_matrix(n)
            assert M.shape == (n, euler_phi(n))
            for t in range(n):
                assert tuple(Fraction(int(v)) for v in M[t]) == zeta(n, t).c

    def test_lift_round_trips(self):
        values = POOL + [rational(Fraction(5, 6)).lift(12),
                         Fraction(1, 3) * zeta(4), zeta(5, 3)]
        lift = integer_lift(values)
        assert lift.conductor == 120   # lcm of 3, 4, 6, 8, 5, 12
        assert lift.denominator == 6
        assert lift.coeffs.shape == (len(values), 120)
        assert lift.max_abs == max(abs(int(v)) for v in lift.coeffs.flat)
        # the rational 5/6 stored at conductor 12 sits at index 0
        assert list(lift.coeffs[len(POOL)].nonzero()[0]) == [0]
        M = phi_reduction_matrix(120)
        for v, row in zip(values, lift.coeffs):
            back = Cyclotomic(120, [Fraction(int(c), 6) for c in row @ M])
            assert back == v

    def test_huge_coefficients_stay_exact(self):
        big = 10**30 + 1
        lift = integer_lift([Fraction(big, 7) * zeta(3), rational(1)])
        assert lift.coeffs.dtype == object
        assert lift.max_abs == big and lift.denominator == 7
        assert lift.coeffs[0, 1] == big

    def test_cap_checked_on_the_common_conductor(self):
        values = [zeta(7), zeta(11)]
        set_conductor_cap(50)
        try:
            with pytest.raises(ConductorCapExceeded):
                integer_lift(values)
        finally:
            set_conductor_cap(256)


class TestComplexApprox:
    def test_one(self):
        assert rational(1).to_complex() == 1.0 + 0.0j

    def test_i(self):
        z = zeta(4).to_complex()
        assert abs(z - 1j) < 1e-12

    def test_zeta3(self):
        z = zeta(3).to_complex()
        assert abs(z.real + 0.5) < 1e-12
        assert abs(z.imag - 3 ** 0.5 / 2) < 1e-12


class TestTextSyntax:
    @pytest.mark.parametrize("text", [
        "3/2", "z8^3 - 1/2*z8 + 1", "-z3", "0", "-5/3",
        "1 - z7^3 + 2/5*z7", "z12^5+z12", "  z4 ^ 1  +  1/3 ",
    ])
    def test_round_trip(self, text):
        v = parse_cyclotomic(text)
        assert parse_cyclotomic(format_cyclotomic(v)) == v

    def test_whitespace_insensitive(self):
        assert parse_cyclotomic("z8^3-1/2*z8+1") == parse_cyclotomic(
            " z8^3 - 1/2 * z8 + 1 ")

    def test_format_examples(self):
        assert format_cyclotomic(rational(Fraction(3, 2))) == "3/2"
        v = zeta(8, 3) - Fraction(1, 2) * zeta(8) + 1
        assert format_cyclotomic(v) == "z8^3 - 1/2*z8 + 1"

    @pytest.mark.parametrize("bad", ["", "z", "3**z2", "z3^^2", "1//2", "q5"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_cyclotomic(bad)

    def test_pool_round_trip(self):
        for x in POOL:
            assert parse_cyclotomic(format_cyclotomic(x)) == x


class TestWeightedRootSum:
    def test_matches_naive(self):
        terms = [(5, zeta(3)), (2, rational(Fraction(1, 2))), (0, zeta(12, 7)),
                 (-1, 1 - zeta(6))]
        naive = rational(0)
        for e, x in terms:
            naive = naive + zeta(12, e) * x
        assert weighted_root_sum(12, terms) == naive

    def test_empty(self):
        assert weighted_root_sum(6, []) == 0

    def test_geometric_vanishing(self):
        for n in (2, 3, 5, 8):
            assert weighted_root_sum(n, ((k, 1) for k in range(n))) == 0


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_normal_form_is_canonical():
    # the same value constructed two ways has identical stored coefficients
    a = zeta(6, 2) + zeta(6, 4)  # = -1
    b = rational(-1)
    assert a.n in (1, 6)
    assert a == b
    assert (a - b).is_zero()
