"""No SVD is taken twice for one input.

The reconstruction round trip, its kernel check and the non-degeneracy
rank read one full SVD of the stacked momentum map per point and
descriptor; `fiber_lagrangian` and `dirac_booleans` read one
`cartan_dirac_fibers` per point and component; the Dirac clauses and the
rank chain read one ker sigma-flat per point, clause (a) and the strongness
kernel one ker dphi, and both backward images one nullspace of the backward
system; each per-point entry is kept by the point that asks
(`SitePoint.point_memo`).  So `verify all` on SL(2) genus 2 at seed 0
factors no matrix twice and stays within 149 `np.linalg.svd` calls; with a
second factorization of the stacked map in the non-degeneracy check and
the Dirac kernels built per clause it took 191, 38 of them repeats.
"""

import hashlib
from collections import Counter

import numpy as np

from qpois.cli import run_suite

_VERIFY_SVD_CALLS = 149


def test_verify_all_takes_svds_within_its_count(monkeypatch):
    real = np.linalg.svd
    inputs = Counter()

    def counted(a, *args, **kwargs):
        arr = np.asarray(a)
        inputs[arr.shape, arr.dtype.str,
               hashlib.sha256(arr.tobytes()).hexdigest()] += 1
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = run_suite({"site": {"genus": 2}, "seed": 0}, "all")
    assert report["overall_pass"]
    assert sum(inputs.values()) <= _VERIFY_SVD_CALLS, sum(inputs.values())
    repeats = {key[:2]: n for key, n in inputs.items() if n > 1}
    assert not repeats, repeats
