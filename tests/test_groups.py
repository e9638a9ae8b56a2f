import pytest

from orbirr.groups import (DEFAULT_CAP, GroupCapExceeded, PermGroup,
                           alternating, catalog, cyclic, cycle_string,
                           dihedral, group_from_json, pinv, pmul, porder,
                           ppow, quaternion, symmetric, trivial_group)

from exact_oracles import brute_classes


class TestEnumeration:
    def test_trivial(self):
        G = trivial_group()
        assert G.elements == [(0,)]
        assert G.order == 1

    def test_s3_from_generators(self):
        G = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
        assert G.order == 6
        assert G.elements[0] == (0, 1, 2)  # identity first

    def test_each_element_once(self):
        G = symmetric(4)
        assert len(set(G.elements)) == G.order == 24

    def test_cyclic(self):
        assert cyclic(12).order == 12

    def test_cap(self):
        with pytest.raises(GroupCapExceeded):
            PermGroup(6, symmetric(6).generators, cap=100)

    def test_invalid_generator(self):
        with pytest.raises(ValueError):
            PermGroup(3, [(0, 0, 1)])

    def test_catalog_orders(self):
        orders = {g.name: g.order for g in catalog()}
        assert orders["S4"] == 24 and orders["A4"] == 12
        assert orders["D4"] == 8 and orders["D6"] == 12 and orders["Q8"] == 8

    def test_constructors(self):
        assert symmetric(6).order == 720
        assert alternating(5).order == 60
        assert dihedral(1).order == 2


class TestConjugacyClasses:
    def test_s3(self):
        cls = symmetric(3).conjugacy_classes()
        assert [(c.rep_order, c.size, len(c.centralizer)) for c in cls] == \
            [(1, 1, 6), (2, 3, 2), (3, 2, 3)]

    def test_s4_sizes(self):
        sizes = sorted(c.size for c in symmetric(4).conjugacy_classes())
        assert sizes == [1, 3, 6, 6, 8]

    def test_cyclic_singletons(self):
        for n in (5, 8):
            G = cyclic(n)
            assert all(c.size == 1 for c in G.conjugacy_classes())
            assert all(len(c.centralizer) == n for c in G.conjugacy_classes())

    def test_partition_and_orbit_stabilizer(self, catalog_groups):
        for G in catalog_groups:
            cls = G.conjugacy_classes()
            assert sum(c.size for c in cls) == G.order
            for c in cls:
                assert c.size * len(c.centralizer) == G.order
                for z in c.centralizer:
                    assert pmul(z, c.representative) == pmul(c.representative, z)

    def test_identity_class_first(self, catalog_groups):
        for G in catalog_groups:
            first = G.conjugacy_classes()[0]
            assert first.rep_order == 1 and first.size == 1

    def test_lagrange(self, catalog_groups):
        for G in catalog_groups:
            for g in G.elements:
                assert G.order % porder(g) == 0

    def test_matches_brute_force(self, small_catalog):
        for G in small_catalog:
            brute = brute_classes(G)
            ours = G.conjugacy_classes()
            assert [(b[0], b[1], b[2]) for b in brute] == \
                [(c.rep_order, c.size, c.representative) for c in ours]

    def test_generating_set_invariance(self):
        a = PermGroup(3, [(1, 0, 2), (1, 2, 0)])   # transposition + 3-cycle
        b = PermGroup(3, [(1, 0, 2), (0, 2, 1)])   # two transpositions
        ca, cb = a.conjugacy_classes(), b.conjugacy_classes()
        assert [(c.representative, c.size, c.centralizer) for c in ca] == \
            [(c.representative, c.size, c.centralizer) for c in cb]
        assert a.canonical_hash() == b.canonical_hash()

    def test_exponent(self):
        assert symmetric(4).exponent() == 12
        assert quaternion().exponent() == 4
        assert cyclic(9).exponent() == 9


class TestPowerMap:
    def test_identity_class(self, catalog_groups):
        for G in catalog_groups:
            for j in (0, 1, 2, 5):
                assert G.power_class_map(0, j) == 0

    def test_s3_squares(self):
        G = symmetric(3)
        # class order: id, transpositions, 3-cycles
        assert G.power_class_map(1, 2) == 0
        assert G.power_class_map(2, 2) == 2

    def test_consistency_with_ppow(self, small_catalog):
        for G in small_catalog:
            for i, c in enumerate(G.conjugacy_classes()):
                for j in range(c.rep_order + 2):
                    got = G.power_class_map(i, j)
                    want = G.class_of(ppow(c.representative, j))
                    assert got == want


class TestClassFusion:
    def test_whole_group(self):
        G = symmetric(3)
        assert G.class_fusion(G) == [0, 1, 2]

    def test_transposition_centralizer(self):
        G = symmetric(3)
        zh = G.centralizer_subgroup(1)
        assert zh.order == 2
        assert G.class_fusion(zh) == [0, 1]

    def test_trivial_subgroup(self):
        G = symmetric(4)
        sub = PermGroup(4, [])
        assert G.class_fusion(sub) == [0]

    def test_rejects_non_subgroup(self):
        G = alternating(4)
        odd = PermGroup(4, [(1, 0, 2, 3)])
        with pytest.raises(ValueError):
            G.class_fusion(odd)


class TestQuaternionModel:
    def test_structure(self):
        Q = quaternion()
        a, b = Q.generators
        assert porder(a) == 4 and porder(b) == 4
        assert ppow(a, 2) == ppow(b, 2)                   # a^2 = b^2 = -1
        assert pmul(b, pmul(a, pinv(b))) == pinv(a)       # b a b^-1 = a^-1
        assert sorted(c.size for c in Q.conjugacy_classes()) == [1, 1, 2, 2, 2]


class TestJson:
    def test_permutation_form(self):
        G = group_from_json(
            '{"type":"permutation","degree":3,'
            '"generators":[[2,1,3],[2,3,1]],"name":"S3"}')
        assert G.order == 6 and G.name == "S3"

    def test_shorthands(self):
        assert group_from_json({"type": "cyclic", "order": 7}).order == 7
        assert group_from_json({"type": "dihedral", "n": 4}).order == 8
        assert group_from_json({"type": "dihedral", "order": 8}).order == 8
        assert group_from_json({"type": "dihedral", "n": 4, "order": 8}).order == 8
        assert group_from_json({"type": "dihedral", "n": None, "order": 8}).order == 8
        assert group_from_json({"type": "dihedral", "n": 4, "order": None}).order == 8
        assert group_from_json({"type": "symmetric", "n": 4}).order == 24
        assert group_from_json({"type": "alternating", "n": 5}).order == 60
        assert group_from_json({"type": "quaternion"}).order == 8
        assert group_from_json({"type": "trivial"}).order == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            group_from_json({"type": "wreath"})
        with pytest.raises(ValueError):
            group_from_json({"no_type": 1})
        with pytest.raises(ValueError):
            group_from_json(
                {"type": "permutation", "degree": 3, "generators": [[1, 1, 2]]})
        # D_n has order 2n: no odd order, no n that disagrees with the order
        with pytest.raises(ValueError, match="even"):
            group_from_json({"type": "dihedral", "order": 7})
        with pytest.raises(ValueError, match="order 6, not 8"):
            group_from_json({"type": "dihedral", "n": 3, "order": 8})
        with pytest.raises(ValueError, match="even"):
            group_from_json({"type": "dihedral", "n": None, "order": 7})
        # a missing, null or non-integer number names the group type and field
        for spec, msg in [
                ({"type": "cyclic", "order": None}, "cyclic group .* 'order'"),
                ({"type": "cyclic", "order": 7.5}, "cyclic group .* 'order'"),
                ({"type": "cyclic", "order": True}, "cyclic group .* 'order'"),
                ({"type": "symmetric", "n": None}, "symmetric group .* 'n'"),
                ({"type": "alternating", "n": "five"},
                 "alternating group .* 'n'"),
                ({"type": "dihedral"}, "dihedral group .* 'order'"),
                ({"type": "dihedral", "n": 4, "order": []},
                 "dihedral group .* 'order'"),
                ({"type": "permutation", "generators": []},
                 "permutation group .* 'degree'"),
                ({"type": "permutation", "degree": 3},
                 "permutation group .* 'generators'"),
                ({"type": "permutation", "degree": 3, "generators": None},
                 "permutation group .* 'generators'"),
                ({"type": "permutation", "degree": 3, "generators": [2, 1, 3]},
                 "permutation group .* 'generators'"),
                ({"type": "permutation", "degree": 3,
                  "generators": [[None, 1, 2]]},
                 "permutation group .* 'generators'"),
                ({"type": "permutation", "degree": 3,
                  "generators": [[2, 1, "3"]]},
                 "permutation group .* 'generators'"),
                ({"type": "permutation", "degree": 3,
                  "generators": [[2, 1, True]]},
                 "permutation group .* 'generators'")]:
            with pytest.raises(ValueError, match=msg):
                group_from_json(spec)
        with pytest.raises(ValueError, match="not an object"):
            group_from_json([1, 2])
        assert group_from_json(
            {"type": "dihedral", "n": None, "order": 8}).name == "D4"

    def test_shorthands_respect_cap(self):
        for spec in ({"type": "cyclic", "order": 11}, {"type": "dihedral", "n": 6},
                     {"type": "symmetric", "n": 4},
                     {"type": "alternating", "n": 4}, {"type": "quaternion"}):
            with pytest.raises(GroupCapExceeded):
                group_from_json(spec, cap=7)


def test_cycle_string():
    assert cycle_string((0, 1, 2)) == "id"
    assert cycle_string((1, 0, 2)) == "(1 2)"
    assert cycle_string((1, 2, 0, 4, 3)) == "(1 2 3)(4 5)"


def test_default_cap_value():
    assert DEFAULT_CAP == 100_000
