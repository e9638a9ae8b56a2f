import random
from fractions import Fraction

import pytest

from orbirr.chartab import character_table
from orbirr.engine import (etale_obstruction_witness, hrr_bg_lhs, hrr_bg_rhs,
                           verify_hrr_bg)
from orbirr.exact import rational
from orbirr.groups import alternating, cyclic, quaternion, symmetric
from orbirr.repring import (ClassFunction, invariants_dim, irreducible,
                            irreducibles, permutation_character,
                            regular_character, tensor, trivial_character)

from exact_oracles import full_enumeration_average


class TestLhs:
    def test_trivial(self, small_catalog):
        for G in small_catalog:
            assert hrr_bg_lhs(G, trivial_character(G)) == 1

    def test_regular(self, small_catalog):
        for G in small_catalog:
            assert hrr_bg_lhs(G, regular_character(G)) == 1

    def test_std_s3(self):
        G = symmetric(3)
        std = next(v for v in irreducibles(G) if v.dim() == 2)
        assert hrr_bg_lhs(G, std) == 0

    def test_rejects_virtual(self):
        G = symmetric(3)
        v = trivial_character(G) - 2 * irreducible(G, 2)
        with pytest.raises(ValueError):
            hrr_bg_lhs(G, v)


class TestRhs:
    def test_trivial_character(self, small_catalog):
        for G in small_catalog:
            total, per_sector = hrr_bg_rhs(G, trivial_character(G))
            assert total == 1
            assert len(per_sector) == len(G.conjugacy_classes())

    def test_s3_std_breakdown(self):
        G = symmetric(3)
        std = next(v for v in irreducibles(G) if v.dim() == 2)
        total, per_sector = hrr_bg_rhs(G, std)
        # class order: id, transpositions, 3-cycles; |Z| = 6, 2, 3
        values = [v for _, v in per_sector]
        assert values[0] == Fraction(2, 6)
        assert values[1] == rational(0)
        assert values[2] == Fraction(-1, 3)
        assert total == 0

    def test_cyclic_nontrivial_vanishes(self):
        G = cyclic(6)
        for chi in irreducibles(G):
            if chi == trivial_character(G):
                continue
            total, _ = hrr_bg_rhs(G, chi)
            assert total == 0

    def test_sum_matches_breakdown(self, small_catalog):
        for G in small_catalog:
            v = permutation_character(G)
            total, per_sector = hrr_bg_rhs(G, v)
            acc = rational(0)
            for _, c in per_sector:
                acc = acc + c
            assert acc == total

    def test_orbit_stabilizer_vs_full_enumeration(self, small_catalog):
        for G in small_catalog:
            for v in (permutation_character(G), regular_character(G)):
                total, _ = hrr_bg_rhs(G, v)
                assert total == full_enumeration_average(G, v)


class TestVerify:
    def test_catalog_irreducibles(self, catalog_groups):
        for G in catalog_groups:
            for i in range(len(character_table(G).rows)):
                assert verify_hrr_bg(G, irreducible(G, i)).verdict == "equal"

    def test_regular_q8(self):
        report = verify_hrr_bg(quaternion(), regular_character(quaternion()))
        assert report.lhs == report.rhs == 1

    def test_linearity_on_virtual(self, small_catalog):
        rng = random.Random(3)
        for G in small_catalog:
            rows = irreducibles(G)
            coeffs = [rng.randrange(-2, 3) for _ in rows]
            v = ClassFunction(G, [0] * len(rows))
            for c, chi in zip(coeffs, rows):
                v = v + c * chi
            lhs = invariants_dim(v)
            rhs, _ = hrr_bg_rhs(G, v)
            assert lhs == rhs

    def test_per_sector_multiplicativity(self):
        G = symmetric(4)
        rows = irreducibles(G)
        a, b = rows[2], rows[4]
        _, pa = hrr_bg_rhs(G, a)
        _, pb = hrr_bg_rhs(G, b)
        _, pab = hrr_bg_rhs(G, tensor(a, b))
        for (la, va), (lb, vb), (lab_, vab), cls in zip(
                pa, pb, pab, G.conjugacy_classes()):
            z = len(cls.centralizer)
            # contribution of the tensor = product of twisted values / |Z_h|
            assert vab == va * vb * z


class TestObstructionWitness:
    def test_c2(self):
        w = etale_obstruction_witness(cyclic(2))
        assert w is not None
        assert w.order == 2
        assert w.dim_invariants == 0
        assert w.dim_invariants_power == 1

    def test_s3_via_sign(self):
        w = etale_obstruction_witness(symmetric(3))
        assert w is not None and w.order == 2

    def test_a5_perfect(self):
        assert etale_obstruction_witness(alternating(5)) is None

    def test_witness_order_minimal(self, small_catalog):
        for G in small_catalog:
            w = etale_obstruction_witness(G)
            if w is None:
                continue
            chi = irreducible(G, w.character_index)
            triv = trivial_character(G)
            power = chi
            for m in range(1, w.order):
                assert power != triv
                power = tensor(power, chi)
            assert power == triv

    def test_every_catalog_group_with_abelianization(self, catalog_groups):
        for G in catalog_groups:
            n_onedim = sum(1 for d in character_table(G).degrees if d == 1)
            w = etale_obstruction_witness(G)
            if n_onedim > 1:
                assert w is not None
                assert w.dim_invariants == 0 and w.dim_invariants_power == 1
            else:
                assert w is None
