"""Selftest checks must call the functions they name, so planted faults show.

Each fault below is invisible to a check that recomputes its own copy of the
quantity: the rho check must see a wrong `rho_twist`, and the lambda check a
wrong `exterior_power` that `lambda_minus_one` cannot see.
"""

import pytest

from orbirr import inertia, repring, selftest
from orbirr.exact import weighted_root_sum
from orbirr.repring import ClassFunction, trivial_character


@pytest.fixture(scope="module")
def groups_to_8(catalog_groups):
    return [G for G in catalog_groups if G.order <= 8]


def rho_twist_reversed(v, sector):
    # sum_j zeta^{-j} E_j, i.e. g -> v(h^{-1} g): still multiplicative, so
    # only the closed form g -> v(h g) tells it apart
    m = sector.order
    eigs = inertia.eigenspace_characters(v, sector)
    vals = [weighted_root_sum(m, ((-j, eigs[j].values[c]) for j in range(m)))
            for c in range(len(eigs[0].values))]
    return ClassFunction(sector.sector_group, vals)


def test_rho_check_sees_a_wrong_twist(monkeypatch, groups_to_8):
    monkeypatch.setattr(inertia, "rho_twist", rho_twist_reversed)
    monkeypatch.setattr(selftest, "rho_twist", rho_twist_reversed)
    result = selftest.check_rho_projector(groups_to_8)
    assert result.instances == 763
    assert result.failures > 0 and not result.ok


def test_lambda_check_sees_a_wrong_exterior_power(monkeypatch):
    real = repring.exterior_power

    def padded(v, k):
        # lambda^1 and lambda^2 each gain the trivial character on every
        # character of dimension >= 2; the two cancel in lambda_{-1}
        out = real(v, k)
        if k in (1, 2) and v.dim() >= 2:
            out = out + trivial_character(v.group)
        return out

    monkeypatch.setattr(repring, "exterior_power", padded)
    monkeypatch.setattr(selftest, "exterior_power", padded)
    result = selftest.check_lambda_matrix()
    assert result.instances == 60
    assert result.failures > 0 and not result.ok


def test_reduced_run_counts_pinned():
    report = selftest.run_selftest(8, 4, 1)
    assert report["ok"]
    got = [(c["name"], c["instances"], c["note"]) for c in report["checks"]]
    assert got == [
        ("char_tables", 44, ""),
        ("bg_hrr", 71, "71 identities"),
        ("rho_projector", 763, ""),
        ("lambda_matrix", 60, ""),
        ("curve_hrr", 4940, "40 curves"),
        ("orbifold_237", 5, ""),
        ("esum", 49, ""),
        ("obstruction", 12, ""),
    ]


def test_inject_mismatch_without_a_group_to_perturb():
    # only the trivial group is under cap 1: the flag would change nothing
    with pytest.raises(ValueError, match="nothing to perturb"):
        selftest.run_selftest(1, 2, 0, inject_mismatch=True)
