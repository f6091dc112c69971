"""No letter is inverted twice.

A batch of points inverts its factors once (`SitePoint.inverses`), a
one-letter word with a positive letter reads its inverse from there, and
`word_tangent` reads the letters its caller holds, the equivariance check's
conjugated points are one batch and `word_eval` inverts each factor once.
Random group elements come from one grouped exponential per stack
(`liealg.random_group_elements`; the relator solver's starts, from
`seeded_group_elements`, are the rows of one, so it inverts one Pade
denominator per scaling power, not one per row), and each caller that needs
their inverses, the invariance probes, the pairing's invariance gate and
the equivariance check, inverts its stack once and hands g^-1 on.  A
closure check's points are rows of one `exterior_d3`, so its form
evaluations invert once per check, not once per point, and
`poisson_ideal_residual` reads the relator and its derivative from the
sweep of its solved batch, whose letters are the batch's factor inverses.
A run draws its points once (`Setup.points`) and every check that reads
drawn points takes a prefix of them, so their factor inverses, word values
and adjoints are built once per run, not once per check.  So `verify all`
on SL(2) genus 2 at seed 0 stays within 94 `np.linalg.inv` calls.
`FormField.evaluate` inverts each factor it reads inverted with one `dinv`,
so one `np.linalg.inv`, per call, and the value of each word other than a
positive letter with one more.
"""

import numpy as np

import qpois.fields as fields
from qpois import models
from qpois.cli import run_suite
from qpois.fields import exterior_d3
from qpois.groupgeom import random_point
from qpois.quasi import assemble_surface_site

_VERIFY_INV_CALLS = 94


def test_verify_all_inverts_within_its_count(monkeypatch):
    real = np.linalg.inv
    calls = [0]

    def counted(a):
        calls[0] += 1
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    report = run_suite({"site": {"genus": 2}, "seed": 0}, "all")
    assert report["overall_pass"]
    assert calls[0] <= _VERIFY_INV_CALLS, calls[0]


def test_form_evaluation_inverts_each_factor_once(monkeypatch):
    """At plain factors (the bracket terms of d sigma) and at Dual ones (its
    derivative terms), on a site with inverse letters and class terms."""
    model, pairing = models.sl2()
    reps = [np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])]
    site, _, qh = assemble_surface_site(model, pairing, 1, reps)
    form = qh.form
    words = ({t.word_u for t in form.pair_terms}
             | {t.word_v for t in form.pair_terms})
    inverted = ({f for w in words for f, p in w if p == -1}
                | {t.factor for t in form.tau_terms})
    real_inv, real_evaluate = np.linalg.inv, fields.FormField.evaluate
    counts = []             # per evaluation: its np.linalg.inv calls

    def evaluate(self, mats, t1, t2):
        counts.append(0)
        return real_evaluate(self, mats, t1, t2)

    def inv(a):
        counts[-1] += 1
        return real_inv(a)

    rng = np.random.default_rng(4)
    point = random_point(site, rng)
    monkeypatch.setattr(fields.FormField, "evaluate", evaluate)
    monkeypatch.setattr(np.linalg, "inv", inv)
    # one section per factor; the triples' factor indices and coefficients
    x = rng.standard_normal((site.nfac, model.d))
    fac = np.array([[0, 1, 2], [3, 0, 0], [1, 1, 3]])
    exterior_d3(site, form, point.mats[None], fac[None], x[fac][None])
    # at most one inversion per factor read inverted, and one per word value
    # that is not a positive letter's
    folded = [w for w in words if not (len(w) == 1 and w[0][1] == 1)]
    assert len(counts) == 2
    assert len(folded) < len(words)
    assert max(counts) <= len(inverted) + len(folded), counts
