import random
from fractions import Fraction

from orbirr.exact import rational, root_of_unity
from orbirr.groups import cyclic, pmul, quaternion, symmetric, trivial_group
from orbirr.inertia import (curve_sectors, eigenspace_characters,
                            inertia_of_bg, rho_twist, twisted_closed_form)
from orbirr.curves import StackyCurve
from orbirr.repring import (inner_product, irreducibles,
                            regular_character, tensor, trivial_character)


class TestBGSectors:
    def test_trivial_group(self):
        assert len(inertia_of_bg(trivial_group())) == 1

    def test_s3_sector_groups(self):
        sectors = inertia_of_bg(symmetric(3))
        assert [s.sector_group.order for s in sectors] == [6, 2, 3]

    def test_cyclic(self):
        G = cyclic(5)
        sectors = inertia_of_bg(G)
        assert len(sectors) == 5
        assert all(s.sector_group.order == 5 for s in sectors)

    def test_automorphism_central_in_sector_group(self, small_catalog):
        for G in small_catalog:
            for s in inertia_of_bg(G):
                h = s.automorphism
                for z in s.sector_group.elements:
                    assert pmul(h, z) == pmul(z, h)

    def test_sector_count_is_class_count(self, small_catalog):
        for G in small_catalog:
            assert len(inertia_of_bg(G)) == len(G.conjugacy_classes())


class TestEigenspaces:
    def test_identity_sector_full_restriction(self):
        G = symmetric(3)
        sector = inertia_of_bg(G)[0]
        for v in irreducibles(G):
            eig0 = eigenspace_characters(v, sector)[0]
            assert eig0.values == v.values

    def test_c2_regular_split(self):
        G = cyclic(2)
        sector = inertia_of_bg(G)[1]
        reg = regular_character(G)
        dims = [eigenspace_characters(reg, sector)[j].dim() for j in range(2)]
        assert dims == [Fraction(1), Fraction(1)]

    def test_dimension_sum(self, small_catalog):
        for G in small_catalog:
            for sector in inertia_of_bg(G):
                for v in irreducibles(G):
                    eigs = eigenspace_characters(v, sector)
                    assert sum(e.dim() for e in eigs) == v.dim()

    def test_eigenspaces_are_genuine_characters(self):
        # integer inner products with the sector group's irreducibles
        for G in (symmetric(3), quaternion()):
            for sector in inertia_of_bg(G):
                Z = sector.sector_group
                z_irr = irreducibles(Z)
                for v in irreducibles(G):
                    for eig in eigenspace_characters(v, sector):
                        for chi in z_irr:
                            mult = inner_product(eig, chi).as_rational()
                            assert mult is not None
                            assert mult.denominator == 1
                            assert mult >= 0


class TestRhoTwist:
    def test_identity_sector_unchanged(self):
        G = symmetric(3)
        sector = inertia_of_bg(G)[0]
        for v in irreducibles(G):
            assert rho_twist(v, sector).values == v.values

    def test_c2_closed_form_value(self):
        G = cyclic(2)
        sector = inertia_of_bg(G)[1]
        chi = next(v for v in irreducibles(G) if v != trivial_character(G))
        rho = rho_twist(chi, sector)
        assert rho.values[0] == rational(-1)  # value at identity = chi(h)

    def test_projector_identity(self, small_catalog):
        for G in small_catalog:
            for sector in inertia_of_bg(G):
                for v in irreducibles(G):
                    assert rho_twist(v, sector) == twisted_closed_form(v, sector)

    def test_regular_rep_support(self):
        G = symmetric(3)
        reg = regular_character(G)
        sectors = inertia_of_bg(G)
        # identity sector: |G| at identity
        rho0 = rho_twist(reg, sectors[0])
        assert rho0.values[0] == rational(6)
        # twisted sector: g -> reg(hg), nonzero only when hg = id
        for sector in sectors[1:]:
            rho = rho_twist(reg, sector)
            Z = sector.sector_group
            for idx, cls in enumerate(Z.conjugacy_classes()):
                prod = pmul(sector.automorphism, cls.representative)
                want = 6 if prod == tuple(range(G.degree)) else 0
                assert rho.values[idx] == rational(want)


class TestDecomposeOnInertia:
    # the per-sector twists [(s, rho_twist(v, s)) for s in inertia_of_bg(G)]
    def test_trivial_character_constant_one(self, small_catalog):
        for G in small_catalog:
            triv = trivial_character(G)
            for sector in inertia_of_bg(G):
                cf = rho_twist(triv, sector)
                assert all(v == rational(1) for v in cf.values)

    def test_multiplicativity(self, small_catalog):
        rng = random.Random(5)
        checked = 0
        while checked < 25:
            G = rng.choice(small_catalog)
            if G.order == 1:
                continue
            rows = irreducibles(G)
            a, b = rng.choice(rows), rng.choice(rows)
            for sector in inertia_of_bg(G):
                cf = rho_twist(tensor(a, b), sector)
                assert cf == tensor(rho_twist(a, sector), rho_twist(b, sector))
            checked += 1

    def test_linearity_on_virtual(self):
        G = symmetric(3)
        rows = irreducibles(G)
        v = rows[0] - 2 * rows[1] + 3 * rows[2]
        for sector in inertia_of_bg(G):
            cf = rho_twist(v, sector)
            parts = [rho_twist(r, sector) for r in rows]
            want = parts[0] - 2 * parts[1] + 3 * parts[2]
            assert cf == want


class TestCurveSectors:
    def test_smooth_curve(self):
        assert len(curve_sectors(StackyCurve(2))) == 1

    def test_237_count(self):
        c = StackyCurve(0, (("x1", 2), ("x2", 3), ("x3", 7)))
        sectors = curve_sectors(c)
        assert len(sectors) == 10
        assert sectors[0].kind == "untwisted"
        assert [s.label for s in sectors[1:4]] == \
            ["x1[k=1]", "x2[k=1]", "x2[k=2]"]

    def test_alpha_values(self):
        c = StackyCurve(0, (("p", 5),))
        for s in curve_sectors(c)[1:]:
            assert not s.alpha.is_zero()
            assert s.alpha == rational(1) - root_of_unity(5, -s.twist_k)
            assert s.tangent_weight == root_of_unity(5, s.twist_k)

    def test_sector_order_deterministic(self):
        c = StackyCurve(1, (("b", 3), ("a", 2)))
        labels = [s.label for s in curve_sectors(c)]
        # input order of points is preserved, k ascending
        assert labels == ["untwisted", "b[k=1]", "b[k=2]", "a[k=1]"]
