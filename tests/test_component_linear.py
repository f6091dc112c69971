"""The matrix-form residuals against entrywise and column-loop references.

The references evaluate the laws one entry at a time, the slow way: the
2-form through FormField.evaluate on action tangents that carry their class
lifts, word differentials through one word_tangent call per frame vector,
action columns through one op_apply per basis element, and reconstruction
through one right-hand side per column.  On deliberately wrong descriptors
(a bivector or 2-form scaled by 1.5) the residuals are O(1), so agreement to
1e-12 relative shows that the matrix identities detect a violation exactly
as the entrywise laws do.
"""

import numpy as np
import pytest

from qpois import models
from qpois.charvar import TraceFunction
from qpois.fields import (
    Bivector,
    FormField,
    PairTerm,
    TauTerm,
    differential,
    op_apply,
)
from qpois.groupgeom import Tangent, random_point, word_eval, word_tangent

from qpois.liealg import adjoint_matrix
from qpois.quasi import (
    QuasiHamiltonianDescriptor,
    QuasiPoissonDescriptor,
    assemble_surface_site,
    momentum_residual,
    nondegeneracy_check,
    nullspace,
    reconstruct_dual,
    rho_matrix,
)

from dual_reference import dual_lift
from site_reference import frame_vectors

SITES = {
    "sl2-g1": (models.sl2, 1, []),
    "sl2-g1-2punct": (models.sl2, 1, [np.diag([2.0, 0.5]),
                                      np.diag([3.0, 1.0 / 3.0])]),
    "sl3-g1": (lambda: models.model_from_config({"family": "SL", "n": 3}),
               1, []),
    "sl2ab-g2": (models.sl2_abelian, 2, []),
}
INVERTIBLE = sorted(name for name in SITES if not name.startswith("sl2ab"))


def _setup(name, seed=21):
    build, genus, reps = SITES[name]
    model, pairing = build()
    site, qp, qh = assemble_surface_site(model, pairing, genus, reps)
    return site, qp, qh, random_point(site, np.random.default_rng(seed))


def _wrong(qp, qh):
    form = qh.form
    wrong_form = FormField(
        qh.site,
        [PairTerm(1.5 * t.coef, t.word_u, t.word_v) for t in form.pair_terms],
        [TauTerm(t.factor, 1.5 * t.coef) for t in form.tau_terms])
    return (QuasiPoissonDescriptor(qp.site, Bivector(qp.site, 1.5 * qp.bivector.kmat),
                                   qp.momentum),
            QuasiHamiltonianDescriptor(qh.site, wrong_form, qh.momentum))


# ---------------------------------------------------------------------------
# entrywise references
# ---------------------------------------------------------------------------

def _word_diffs(point, word):
    """Left/right trivialized word differentials, one frame vector at a time."""
    model, frame, mats = point.site.model, point.frame(), point.mats
    gi = np.linalg.inv(word_eval(word, mats))
    letters = [mats[f] if p == 1 else np.linalg.inv(mats[f]) for f, p in word]
    # None: the frame vector moves no letter of the word
    dvs = [np.zeros_like(gi) if dv is None else dv
           for dv in (word_tangent(word, letters, [v], None)[-1][1]
                      for v in frame_vectors(frame))]
    return (np.array([model.coeffs(gi @ dv) for dv in dvs]),
            np.array([model.coeffs(dv @ gi) for dv in dvs]))


def _action_tangent(site, point, comp, x):
    # the lift is x on class factors where the action is plain conjugation,
    # L_f - R_f
    lifts = {f: np.asarray(x, dtype=complex) for f in site.class_indices()
             if (comp.action[2 * f], comp.action[2 * f + 1]) == (1.0, -1.0)}
    return Tangent(op_apply(comp.action, point.mats, site.model.from_coeffs(x)),
                   lifts)


def _action_cols(site, point, frame, comp):
    eye = np.eye(site.model.d)
    return np.stack([frame.components(_action_tangent(site, point, comp, eye[j]))
                     for j in range(site.model.d)], axis=1)


def _ref_momentum(desc, point, mode):
    site = desc.site
    model = site.model
    frame = point.frame()
    eye = np.eye(model.d)
    worst = 0.0
    for comp in desc.momentum:
        left, right = _word_diffs(point, comp.word)
        if mode == "bivector":
            h = site.pairing.eta_upper
            pmat = desc.bivector.frame_matrix(point)
            gi = np.linalg.inv(word_eval(comp.word, point.mats))
            ainv = adjoint_matrix(model, gi, np.linalg.inv(gi))
            cols = _action_cols(site, point, frame, comp)
            for j in range(model.d):
                lhs = 2.0 * (pmat.T @ left[:, j])
                rhs = cols @ (h @ (eye[j] + ainv.T @ eye[j]))
                worst = max(worst, float(np.abs(lhs - rhs).max()))
        else:
            smat = site.pairing.eta_lower
            for j in range(model.d):
                ft = _action_tangent(site, point, comp, eye[j])
                for v, wsum in zip(frame_vectors(frame), left + right):
                    lhs = desc.form.evaluate(point.mats, ft, v)
                    worst = max(worst, float(abs(lhs - 0.5 * (eye[j] @ smat @ wsum))))
    return worst


def _ref_rho(desc, point, frame):
    site = desc.site
    out = np.zeros((frame.dim, frame.dim), dtype=complex)
    for comp in desc.momentum:
        left, right = _word_diffs(point, comp.word)
        for a in range(frame.dim):
            x = site.model.from_coeffs(left[a] - right[a])
            out[:, a] += frame.components(op_apply(comp.action, point.mats, x))
    return out


def _ref_reconstruct(desc, point, direction):
    """Reconstruction by one right-hand side per column, as a closure."""
    site = desc.site
    model = site.model
    d = model.d
    s_low, h_up = site.pairing.require_invertible()
    frame = point.frame()
    nfr = frame.dim
    eye = np.eye(nfr)
    rho = _ref_rho(desc, point, frame)
    comps = desc.momentum
    dws, ainvs, ads, funds = [], [], [], []
    for comp in comps:
        g = word_eval(comp.word, point.mats)
        dws.append(_word_diffs(point, comp.word)[0])
        gi = np.linalg.inv(g)
        ainvs.append(adjoint_matrix(model, gi, np.linalg.inv(gi)))
        ads.append(adjoint_matrix(model, g, gi))
        funds.append(_action_cols(site, point, frame, comp))
    if direction == "P-from-sigma":
        stacked = np.concatenate([*dws, desc.form.frame_matrix(point).T], axis=1)

        def rhs_of(z):
            val = (eye - 0.25 * rho) @ z[len(comps) * d:]
            for i in range(len(comps)):
                alpha = z[i * d:(i + 1) * d]
                val = val + 0.5 * funds[i] @ (h_up @ (alpha + ainvs[i].T @ alpha))
            return val
    else:
        stacked = np.concatenate([*funds, desc.bivector.frame_matrix(point).T],
                                 axis=1)

        def rhs_of(z):
            val = (eye - 0.25 * rho.T) @ z[len(comps) * d:]
            for i in range(len(comps)):
                x = z[i * d:(i + 1) * d]
                val = val + 0.5 * dws[i] @ ((np.eye(d) + ads[i].T) @ (s_low @ x))
            return val

    pinv = np.linalg.pinv(stacked)
    out = np.stack([rhs_of(pinv @ eye[b]) for b in range(nfr)], axis=1).T
    kernel = nullspace(stacked)
    kresid = max((float(np.linalg.norm(rhs_of(kernel[:, k])))
                  for k in range(kernel.shape[1])), default=0.0)
    return out, kresid


def _close(got, ref, tol=1e-12):
    return abs(got - ref) <= tol * abs(ref)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SITES))
def test_momentum_residuals_match_entrywise_laws(name):
    site, qp, qh, p = _setup(name)
    bad_qp, bad_qh = _wrong(qp, qh)
    for desc, mode in ((bad_qp, "bivector"), (bad_qh, "twoform")):
        ref = _ref_momentum(desc, p, mode)
        assert ref > 0.1, (mode, ref)
        assert _close(momentum_residual(desc, p), ref), mode
    assert momentum_residual(qp, p) <= 1e-9
    assert momentum_residual(qh, p) <= 1e-9


@pytest.mark.parametrize("name", INVERTIBLE)
def test_rho_matches_column_loop(name):
    _, qp, _, p = _setup(name)
    frame = p.frame()
    ref = _ref_rho(qp, p, frame)
    got = rho_matrix(qp, p)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", INVERTIBLE)
def test_reconstruction_matches_column_loop(name):
    _, qp, qh, p = _setup(name)
    bad_qp, bad_qh = _wrong(qp, qh)
    for desc, direction in ((bad_qh, "P-from-sigma"), (bad_qp, "sigma-from-P")):
        ref, ref_k = _ref_reconstruct(desc, p, direction)
        got, got_k = reconstruct_dual(desc, p)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), direction
        assert ref_k > 0.1, (direction, ref_k)
        assert _close(got_k, ref_k), direction


def _ref_nondegeneracy(desc, point):
    """The rank deficit of (P#, actions), or dim(ker sigma-flat cap ker dPhi)
    as the corank of the stacked rows, by numpy's rank."""
    frame = point.frame()
    if isinstance(desc, QuasiPoissonDescriptor):
        cols = [desc.bivector.frame_matrix(point).T]
        cols += [_action_cols(desc.site, point, frame, c) for c in desc.momentum]
        return frame.dim - np.linalg.matrix_rank(np.concatenate(cols, axis=1))
    rows = [desc.form.frame_matrix(point).T]
    rows += [_word_diffs(point, c.word)[0].T for c in desc.momentum]
    return frame.dim - np.linalg.matrix_rank(np.concatenate(rows, axis=0))


def test_residuals_read_their_mode_from_the_descriptor():
    """Called with a descriptor and a point only, each residual applies the
    law of the descriptor's type: the bivector law, Sigma from P and the
    (P#, action) rank for a QuasiPoissonDescriptor; the 2-form law, P from
    Sigma and the kernel intersection for a QuasiHamiltonianDescriptor."""
    site, qp, qh, p = _setup("sl2-g1-2punct")
    bad_qp, bad_qh = _wrong(qp, qh)
    assert _close(momentum_residual(bad_qp, p), _ref_momentum(bad_qp, p, "bivector"))
    assert _close(momentum_residual(bad_qh, p), _ref_momentum(bad_qh, p, "twoform"))
    for desc, direction in ((bad_qp, "sigma-from-P"), (bad_qh, "P-from-sigma")):
        got, got_k = reconstruct_dual(desc, p)
        ref, ref_k = _ref_reconstruct(desc, p, direction)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), direction
        assert _close(got_k, ref_k), direction
    zero_qp = QuasiPoissonDescriptor(site, Bivector(site, np.zeros((2 * site.nfac, 2 * site.nfac))), qp.momentum)
    zero_qh = QuasiHamiltonianDescriptor(site, FormField(site), qh.momentum)
    for desc in (qp, qh, zero_qp, zero_qh):
        assert nondegeneracy_check(desc, p) == _ref_nondegeneracy(desc, p)
    assert nondegeneracy_check(qp, p) == nondegeneracy_check(qh, p) == 0
    assert nondegeneracy_check(zero_qh, p) > 0


def test_twoform_momentum_law_makes_no_pointwise_form_evaluations(monkeypatch):
    _, _, qh, p = _setup("sl2-g1-2punct")
    calls = []
    evaluate = FormField.evaluate

    def counted(self, *args):
        calls.append(1)
        return evaluate(self, *args)

    monkeypatch.setattr(FormField, "evaluate", counted)
    assert momentum_residual(qh, p) <= 1e-9
    assert calls == []


@pytest.mark.parametrize("name", ["sl2-g1-2punct", "sl3-g1"])
def test_differential_matches_per_vector_dual_lift(name):
    site, _, _, p = _setup(name)
    frame = p.frame()
    fn = TraceFunction(site, "abAc" if site.nfac > 2 else "abA")
    ref = np.array([dual_lift(fn, p, v) for v in frame_vectors(frame)])
    got = differential(p, fn)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
