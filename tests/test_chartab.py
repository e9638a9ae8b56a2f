import random
from fractions import Fraction

import numpy as np
import pytest

from orbirr import chartab
from orbirr.chartab import (CharacterTable, character_table,
                            smallest_dixon_prime, verify_orthogonality)
from orbirr.exact import (ConductorCapExceeded, conductor_cap,
                          format_cyclotomic, rational, root_of_unity,
                          set_conductor_cap)
from orbirr.groups import cyclic, dihedral, quaternion, symmetric
from orbirr.repring import ClassFunction, regular_character

from exact_oracles import (fraction_orthogonality, reference_table_rows,
                           table_row_multiset)


class TestSmallTables:
    def test_c2(self):
        rows = {tuple(format_cyclotomic(v) for v in r)
                for r in character_table(cyclic(2)).rows}
        assert rows == {("1", "1"), ("1", "-1")}

    def test_s3(self):
        t = character_table(symmetric(3))
        # column order: id, transpositions, 3-cycles
        rows = {tuple(format_cyclotomic(v) for v in r) for r in t.rows}
        assert rows == {("1", "1", "1"), ("1", "-1", "1"), ("2", "0", "-1")}

    def test_q8_degrees(self):
        assert character_table(quaternion()).degrees == (1, 1, 1, 1, 2)

    def test_trivial_group(self):
        t = character_table(cyclic(1))
        assert t.degrees == (1,) and t.rows[0][0] == rational(1)


class TestTableInvariants:
    def test_row_count_and_degree_sum(self, catalog_groups):
        for G in catalog_groups:
            t = character_table(G)
            assert len(t.rows) == len(G.conjugacy_classes())
            assert sum(d * d for d in t.degrees) == G.order

    def test_degrees_divide_order(self, catalog_groups):
        for G in catalog_groups:
            assert all(G.order % d == 0 for d in character_table(G).degrees)

    def test_trivial_row_present(self, catalog_groups):
        for G in catalog_groups:
            t = character_table(G)
            assert all(v == rational(1) for v in t.rows[t.trivial_index()])

    def test_regular_decomposition(self, catalog_groups):
        for G in catalog_groups:
            t = character_table(G)
            acc = ClassFunction(G, [0] * len(t.rows))
            for d, row in zip(t.degrees, t.rows):
                acc = acc + d * ClassFunction(G, row)
            assert acc == regular_character(G)

    def test_entry_conductors_divide_exponent(self, catalog_groups):
        for G in catalog_groups:
            e = G.exponent()
            for row in character_table(G).rows:
                for v in row:
                    assert e % v.reduced().n == 0

    def test_deterministic_row_order(self):
        a = character_table(symmetric(4))
        b = character_table(PermGroupClone())
        assert [[format_cyclotomic(v) for v in row] for row in a.rows] == \
            [[format_cyclotomic(v) for v in row] for row in b.rows]


def PermGroupClone():
    # same group, different generating set: table must be identical
    from orbirr.groups import PermGroup
    return PermGroup(4, [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)], name="S4'")


class TestOrthogonality:
    def test_all_catalog(self, catalog_groups):
        for G in catalog_groups:
            assert verify_orthogonality(character_table(G))

    def test_perturbed_entry_fails(self):
        t = character_table(symmetric(3))
        rows = [list(r) for r in t.rows]
        rows[0][1] = rows[0][1] + 1
        bad = CharacterTable(group=t.group,
                             rows=tuple(tuple(r) for r in rows),
                             degrees=t.degrees, prime=t.prime)
        assert not verify_orthogonality(bad)

    def test_row_permutation_still_orthogonal(self):
        t = character_table(cyclic(3))
        flipped = CharacterTable(group=t.group, rows=t.rows[::-1],
                                 degrees=t.degrees[::-1], prime=t.prime)
        assert verify_orthogonality(flipped)


def _with_rows(table, rows) -> CharacterTable:
    return CharacterTable(group=table.group,
                          rows=tuple(tuple(r) for r in rows),
                          degrees=table.degrees, prime=table.prime)


def _perturb(table, rng: random.Random) -> CharacterTable:
    # one seeded fault of each kind the cache or a lift could plant
    rows = [list(r) for r in table.rows]
    r = len(rows)
    i, k = rng.randrange(r), rng.randrange(r)
    kind = rng.choice(["root", "half", "swap", "conjugate", "ragged"])
    if kind == "root":
        m = rng.choice([2, 3, 4, 5, 6])
        rows[i][k] = rows[i][k] * root_of_unity(m, rng.randrange(1, m))
    elif kind == "half":
        rows[i][k] = rows[i][k] + Fraction(1, 2)
    elif kind == "swap":
        j = rng.randrange(r)
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "conjugate":
        rows[i] = [v.conjugate() for v in rows[i]]
    elif rng.random() < 0.5:
        rows[i].append(rational(7))
    else:
        rows[i].pop()
    return _with_rows(table, rows)


def _rotated_c2_table(a: int, b: int, c: int) -> CharacterTable:
    # the C2 table times the rational rotation [[a, -b], [b, a]] / c, with
    # a^2 + b^2 = c^2: not a character table, but both families still hold
    assert a * a + b * b == c * c
    t = character_table(cyclic(2))
    rows = [[rational(Fraction(a - b, c)), rational(Fraction(a + b, c))],
            [rational(Fraction(b + a, c)), rational(Fraction(b - a, c))]]
    return _with_rows(t, rows)


class TestAgainstFractionReference:
    """The integer-array check and the term-by-term Cyclotomic reference
    reach the same verdict on every table below."""

    def test_catalog_and_larger_tables(self, catalog_groups):
        for G in list(catalog_groups) + [cyclic(30), dihedral(30)]:
            t = character_table(G)
            assert verify_orthogonality(t) is True
            assert fraction_orthogonality(t) is True, G.name

    def test_seeded_perturbations(self, small_catalog):
        tables = [character_table(G) for G in small_catalog if G.order > 1]
        rng = random.Random(20)
        verdicts = set()
        for _ in range(120):
            bad = _perturb(rng.choice(tables), rng)
            got = verify_orthogonality(bad)
            assert got == fraction_orthogonality(bad), bad.rows
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_same_size_column_swap_is_not_caught(self):
        # orthogonality alone does not prove the table belongs to the group:
        # in C5, classes 1 and 2 both have size 1, and swapping them passes
        t = character_table(cyclic(5))
        rows = [[row[0], row[2], row[1]] + list(row[3:]) for row in t.rows]
        swapped = _with_rows(t, rows)
        assert swapped.rows != t.rows
        assert verify_orthogonality(swapped) is True
        assert fraction_orthogonality(swapped) is True

    @pytest.mark.parametrize("triple, dtype", [
        ((3, 4, 5), np.int64),
        ((10**12 - 1, 2 * 10**6, 10**12 + 1), object)])
    def test_denominators_choose_the_integer_path(self, monkeypatch, triple,
                                                  dtype):
        seen = []
        real = chartab._gram

        def spy(A, weights):
            seen.append(A.dtype)
            return real(A, weights)

        good = _rotated_c2_table(*triple)
        bad = _with_rows(good, [good.rows[0],
                                [good.rows[1][0] + Fraction(1, triple[2] ** 2),
                                 good.rows[1][1]]])
        monkeypatch.setattr(chartab, "_gram", spy)
        assert verify_orthogonality(good) is True
        assert fraction_orthogonality(good) is True
        assert verify_orthogonality(bad) is False
        assert fraction_orthogonality(bad) is False
        assert seen and all(d == np.dtype(dtype) for d in seen)

    def test_conductor_over_cap_raises(self):
        t = character_table(cyclic(12))
        old = conductor_cap()
        set_conductor_cap(6)
        try:
            with pytest.raises(ConductorCapExceeded):
                verify_orthogonality(t)
            with pytest.raises(ConductorCapExceeded):
                fraction_orthogonality(t)
        finally:
            set_conductor_cap(old)


class TestDixonPrime:
    def test_smallest_qualifying(self):
        # p = 1 mod exp(G), p > 2 sqrt(|G|), smallest such
        assert smallest_dixon_prime(24, 12) == 13
        assert smallest_dixon_prime(12, 12) == 13
        assert smallest_dixon_prime(60, 30) == 31
        assert smallest_dixon_prime(8, 4) == 13
        assert smallest_dixon_prime(1, 1) == 3

    def test_recorded_prime(self):
        assert character_table(symmetric(4)).prime == 13


class TestAgainstIndependentOracle:
    def test_catalog_up_to_24(self, small_catalog):
        for G in small_catalog:
            ref = table_row_multiset(reference_table_rows(G))
            got = table_row_multiset(character_table(G).rows)
            assert ref == got, f"table mismatch for {G.name}"


def test_row_values_at_identity_are_degrees(catalog_groups):
    for G in catalog_groups:
        t = character_table(G)
        for d, row in zip(t.degrees, t.rows):
            assert row[0].as_rational() == Fraction(d)
