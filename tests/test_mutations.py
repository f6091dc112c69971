"""Planted defects in the shipped descriptors, and the checks each one fails.

Each defect scales one coefficient of SL(2) genus 2's quasi-Poisson or
quasi-Hamiltonian descriptor by 1.001.  It is planted by replacing
`Setup.qp` or `Setup.qh` with a mutated copy, so the package has no knob
for it, and every check runs through `cli._run_one` on the mutated setup.
A check that a defect newly fails or newly passes moves its row here.
"""

import dataclasses

import pytest

from qpois import cli
from qpois.fields import Bivector, FormField
from qpois.quasi import (
    MomentumComponent,
    QuasiHamiltonianDescriptor,
    QuasiPoissonDescriptor,
)

CONFIG = {"group": {"family": "SL", "n": 2}, "site": {"genus": 2}, "seed": 0,
          "words": ["a", "b", "ab", "c"],
          "targets": ["identity", "minus_identity"]}

# every planted defect fails these
EVERY_DEFECT = {"duality_identity", "reconstruction_kernel",
                "reconstruction_round_trip"}


def _scaled_k(s):
    """K[L_0, R_0] and its transpose K[R_0, L_0] times 1.001."""
    kmat = s.qp.bivector.kmat.copy()
    kmat[0, 1] *= 1.001
    kmat[1, 0] *= 1.001
    return dataclasses.replace(s, qp=QuasiPoissonDescriptor(
        s.site, Bivector(s.site, kmat), s.qp.momentum))


def _scaled_pair_term(s):
    """The coefficient of the first PairTerm of the 2-form times 1.001."""
    terms = list(s.qh.form.pair_terms)
    terms[0] = dataclasses.replace(terms[0], coef=terms[0].coef * 1.001)
    form = FormField(s.site, terms, s.qh.form.tau_terms)
    return dataclasses.replace(s, qh=QuasiHamiltonianDescriptor(
        s.site, form, s.qh.momentum))


def _scaled_action(s):
    """The L_0 entry of the momentum action, which both descriptors share,
    times 1.001."""
    (comp,) = s.qp.momentum
    assert s.qh.momentum == [comp]
    action = list(comp.action)
    action[0] *= 1.001
    moved = [MomentumComponent(comp.word, action)]
    return dataclasses.replace(
        s, qp=QuasiPoissonDescriptor(s.site, s.qp.bivector, moved),
        qh=QuasiHamiltonianDescriptor(s.site, s.qh.form, moved))


def _statuses(s):
    return {chk.check_id: cli._run_one(s, chk)["status"]
            for chk in cli._ALL_CHECKS}


def test_clean_setup_fails_nothing():
    statuses = _statuses(cli.build_setup(CONFIG))
    assert len(statuses) == 23
    assert set(statuses.values()) == {"passed"}


@pytest.mark.parametrize("mutate, fails", [
    (_scaled_k, EVERY_DEFECT | {"invariant_level_tangency",
                                "jacobiator_vs_cubic",
                                "momentum_bivector_law"}),
    (_scaled_pair_term, EVERY_DEFECT | {"momentum_form_law",
                                        "quasi_closedness",
                                        "strongness_agreement"}),
    (_scaled_action, EVERY_DEFECT | {"jacobiator_vs_cubic",
                                     "momentum_bivector_law",
                                     "momentum_form_law",
                                     "strongness_agreement"}),
], ids=["k-L0-R0", "first-pair-term", "momentum-action-L0"])
def test_planted_defect_fails_exactly_its_checks(mutate, fails):
    statuses = _statuses(mutate(cli.build_setup(CONFIG)))
    assert {cid for cid, st in statuses.items() if st == "failed"} == fails
    assert all(st == "passed" for cid, st in statuses.items()
               if cid not in fails)
