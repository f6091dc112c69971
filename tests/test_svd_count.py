"""No SVD is taken twice for one point and key.

The reconstruction round trip and its kernel check read one
`reconstruct_dual` per point and descriptor, and `fiber_lagrangian` and
`dirac_booleans` read one `cartan_dirac_fibers` per point and component,
each kept by the point that asks (`SitePoint.point_memo`).  So `verify
all` on SL(2) genus 2 at seed 0 stays within 191 `np.linalg.svd` calls;
computing each of them once per check took 219.
"""

import numpy as np

from qpois.cli import run_suite

_VERIFY_SVD_CALLS = 191


def test_verify_all_takes_svds_within_its_count(monkeypatch):
    real = np.linalg.svd
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = run_suite({"site": {"genus": 2}, "seed": 0}, "all")
    assert report["overall_pass"]
    assert calls[0] <= _VERIFY_SVD_CALLS, calls[0]
