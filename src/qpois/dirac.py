"""Pointwise linear algebra on the split space tangent + cotangent.

Everything here works at one site point at a time, in frame coordinates:
tangent components in the point's frame, cotangent components in the dual
frame, stacked as vectors of length 2N.  Pulled-back group-side fibers use
left-trivialized algebra coordinates of length 2d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSignature, RankDeficient
from .fields import op_apply
from .groupgeom import word_differentials
from .liealg import adjoint_matrix
from .quasi import momentum_residual

__all__ = [
    "SplitVector",
    "LagrangianSubspace",
    "split_pairing",
    "orthonormal_columns",
    "graph_subspace",
    "cartan_dirac_fibers",
    "projections_pq",
    "transport_image",
    "kernel_phi_sigma",
    "strongness_check",
    "intersection_dim",
    "subspace_equal",
    "dirac_booleans",
    "prop_tech_chain",
]

_RANK_TOL = 1e-8
_ISO_TOL = 1e-10


@dataclass
class SplitVector:
    """A tangent/cotangent pair in frame coordinates at one point."""

    v: np.ndarray
    alpha: np.ndarray

    def stacked(self):
        return np.concatenate([np.asarray(self.v, dtype=complex),
                               np.asarray(self.alpha, dtype=complex)])


def split_pairing(a, b):
    """Bilinear pairing alpha(w) + beta(v) of two split vectors."""
    return complex(np.asarray(a.alpha) @ np.asarray(b.v)
                   + np.asarray(b.alpha) @ np.asarray(a.v))


def _pairing_gram(cols_a, cols_b, half):
    """Bilinear (not conjugated) pairing matrix between two column sets."""
    j_top = cols_b[half:, :]
    j_bot = cols_b[:half, :]
    return cols_a[:half, :].T @ j_top + cols_a[half:, :].T @ j_bot


def orthonormal_columns(cols, tol=_RANK_TOL):
    """Orthonormal basis of the column span, rank cut at tol * largest sv."""
    cols = np.asarray(cols, dtype=complex)
    if cols.size == 0 or cols.shape[1] == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    r = int(np.sum(sv > tol * sv[0]))
    return u[:, :r]


class LagrangianSubspace:
    """Orthonormalized column basis of a Lagrangian subspace of the split
    2N-space; construction verifies isotropy and half-dimension rank."""

    def __init__(self, basis, half):
        self.basis = basis
        self.half = half

    @classmethod
    def from_columns(cls, cols, half, require_rank=True):
        basis = orthonormal_columns(np.asarray(cols, dtype=complex))
        if require_rank and basis.shape[1] != half:
            raise RankDeficient(
                f"subspace rank {basis.shape[1]} != half-dimension {half}")
        gram = _pairing_gram(basis, basis, half)
        resid = float(np.abs(gram).max()) if gram.size else 0.0
        if resid > _ISO_TOL * max(1.0, float(np.abs(basis).max())):
            raise BadSignature(f"subspace not isotropic (residual {resid:.3e})")
        obj = cls(basis, half)
        obj.isotropy_residual = resid
        return obj

    @property
    def dim(self):
        return self.basis.shape[1]


def graph_subspace(mat, kind):
    """Graph of a 2-form ("form": {(v, sigma-flat v)}) or of a 2-tensor
    ("bivector": {(P-sharp alpha, alpha)}) as a Lagrangian subspace."""
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    eye = np.eye(n)
    if kind == "form":
        cols = np.concatenate([eye, mat.T], axis=0)
    elif kind == "bivector":
        cols = np.concatenate([mat.T, eye], axis=0)
    else:
        raise BadSignature(f"unknown graph kind {kind!r}")
    return LagrangianSubspace.from_columns(cols, n)


def _word_site_data(site, point, word):
    """dphi (d x N), adjoint matrices and the frame at a word's value."""
    frame = point.frame()
    dw, _, g0 = word_differentials(frame, word)
    model = site.model
    a_mat = adjoint_matrix(model, g0)
    a_inv = adjoint_matrix(model, np.linalg.inv(g0))
    return frame, dw.T, a_mat, a_inv, g0


def cartan_dirac_fibers(site, point, word):
    """The two generating fibers of the canonical splitting pulled back
    through a word, in left-trivialized coordinates at the word value."""
    s_low, _ = site.pairing.require_invertible()
    _, _, a_mat, a_inv, _ = _word_site_data(site, point, word)
    d = site.model.d
    eye = np.eye(d)
    e_cols = np.concatenate([eye - a_inv, 0.5 * (eye + a_mat.T) @ s_low],
                            axis=0)
    f_cols = np.concatenate([eye + a_inv, 0.5 * (eye - a_mat.T) @ s_low],
                            axis=0)
    e_sub = LagrangianSubspace.from_columns(e_cols, d)
    f_sub = LagrangianSubspace.from_columns(f_cols, d)
    return e_sub, f_sub


def projections_pq(site, point, word):
    """The complementary block projections onto the two canonical fibers,
    in left-trivialized coordinates at the word value (2d x 2d each)."""
    s_low, h_up = site.pairing.require_invertible()
    _, _, a_mat, a_inv, _ = _word_site_data(site, point, word)
    d = site.model.d
    eye = np.eye(d)
    lm, lp = eye - a_inv, eye + a_inv        # (L - R), (L + R)
    lmv, lpv = eye - a_mat, eye + a_mat      # (L^-1 - R^-1), (L^-1 + R^-1)
    lms, lps = eye - a_inv.T, eye + a_inv.T  # (L* - R*), (L* + R*)
    lmi, lpi = eye - a_mat.T, eye + a_mat.T  # (L*^-1 - R*^-1), (L*^-1 + R*^-1)
    p = np.block([
        [0.25 * lm @ lmv, 0.5 * lm @ h_up @ lps],
        [0.125 * lpi @ s_low @ lmv, 0.25 * lpi @ lps],
    ])
    q = np.block([
        [0.25 * lp @ lpv, 0.5 * lp @ h_up @ lms],
        [0.125 * lmi @ s_low @ lpv, 0.25 * lmi @ lms],
    ])
    return p, q


def _nullspace(mat, tol=_RANK_TOL):
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    u, sv, vh = np.linalg.svd(mat, full_matrices=True)
    if sv.size == 0:
        return vh.conj().T
    r = int(np.sum(sv > tol * max(sv[0], 1e-300)))
    return vh[r:].conj().T


def transport_image(subspace, dphi, smat, direction, half_target=None):
    """Forward or backward image of a Lagrangian subspace along a linear map
    with a correcting 2-form on the source of the map.

    dphi: (n2 x n1) matrix of the map; smat: (n1 x n1) frame matrix of the
    form (None for zero); the subspace lives on the source side for
    "forward" and on the target side for "backward"; the result lives on the
    other side.
    """
    dphi = np.asarray(dphi, dtype=complex)
    n2, n1 = dphi.shape
    sflat = (np.zeros((n1, n1), dtype=complex) if smat is None
             else np.asarray(smat, dtype=complex).T)   # component matrix of v -> sigma(v, .)
    basis = subspace.basis
    k = basis.shape[1]
    if direction == "forward":
        if subspace.basis.shape[0] != 2 * n1:
            raise BadSignature("forward image needs a source-side subspace")
        # unknowns (v, alpha, c): v = B_top c ; dphi^T alpha - sflat v = B_bot c
        sys = np.block([
            [np.eye(n1), np.zeros((n1, n2)), -basis[:n1, :]],
            [-sflat, dphi.T, -basis[n1:, :]],
        ])
        sols = _nullspace(sys)
        vs = sols[:n1, :]
        als = sols[n1:n1 + n2, :]
        cols = np.concatenate([dphi @ vs, als], axis=0)
        half = n2 if half_target is None else half_target
    elif direction == "backward":
        if subspace.basis.shape[0] != 2 * n2:
            raise BadSignature("backward image needs a target-side subspace")
        # unknowns (v, beta, c): dphi v = B_top c ; beta = B_bot c
        sys = np.block([
            [dphi, np.zeros((n2, n2)), -basis[:n2, :]],
            [np.zeros((n2, n1)), np.eye(n2), -basis[n2:, :]],
        ])
        sols = _nullspace(sys)
        vs = sols[:n1, :]
        bes = sols[n1:n1 + n2, :]
        cols = np.concatenate([vs, dphi.T @ bes - sflat @ vs], axis=0)
        half = n1 if half_target is None else half_target
    else:
        raise BadSignature(f"unknown direction {direction!r}")
    return LagrangianSubspace.from_columns(cols, half)


def kernel_phi_sigma(dphi, smat):
    """Orthonormal columns spanning {(v, -sigma-flat v): dphi v = 0}."""
    dphi = np.asarray(dphi, dtype=complex)
    n1 = dphi.shape[1]
    sflat = (np.zeros((n1, n1), dtype=complex) if smat is None
             else np.asarray(smat, dtype=complex).T)
    null = _nullspace(dphi)
    cols = np.concatenate([null, -sflat @ null], axis=0)
    return orthonormal_columns(cols)


def intersection_dim(cols_a, cols_b, tol=_RANK_TOL):
    """dim of the intersection of two spans given by orthonormal columns."""
    ra, rb = cols_a.shape[1], cols_b.shape[1]
    if ra == 0 or rb == 0:
        return 0
    stacked = np.concatenate([cols_a, cols_b], axis=1)
    sv = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(sv > tol * max(sv[0], 1e-300)))
    return ra + rb - rank


def subspace_equal(sub_a, sub_b, tol=_RANK_TOL):
    ba, bb = sub_a.basis, sub_b.basis
    if ba.shape[1] != bb.shape[1]:
        return False
    return intersection_dim(ba, bb, tol) == ba.shape[1]


def strongness_check(e_cols, dphi, smat):
    """Whether ker(map, form) meets the given isotropic subspace trivially.

    Returns (strong, margin, intersection dimension); margin is the smallest
    principal angle between the kernel and the subspace (pi/2 when either is
    zero)."""
    kern = kernel_phi_sigma(dphi, smat)
    if kern.shape[1] == 0 or e_cols.shape[1] == 0:
        return True, float(np.pi / 2), 0
    idim = intersection_dim(kern, e_cols)
    overlap = np.linalg.svd(kern.conj().T @ e_cols, compute_uv=False)
    cosang = min(1.0, float(overlap.max())) if overlap.size else 0.0
    margin = float(np.arccos(cosang))
    return idim == 0, margin, idim


def _tm_subspace(nfr):
    cols = np.concatenate([np.eye(nfr), np.zeros((nfr, nfr))], axis=0)
    return LagrangianSubspace.from_columns(cols, nfr)


def dirac_booleans(qh, point, component=0, tol=_RANK_TOL, mom_tol=1e-9):
    """The four independently computed equivalence clauses for one momentum
    component of a 2-form descriptor.

    a: the momentum law holds and the form is momentum-non-degenerate;
    b: the tangent space maps forward onto the canonical fiber and the
       correction kernel meets it trivially;
    c: the backward image of the complementary fiber is transverse to the
       tangent space;
    d: the plain backward image of the complementary fiber is transverse to
       the graph of the form.
    """
    site = qh.site
    frame = point.frame()
    nfr = frame.dim
    comp = qh.momentum[component]
    dw, _, g0 = word_differentials(frame, comp.word)
    dphi = dw.T
    smat = qh.form.frame_matrix(point, frame)
    sflat = smat.T
    e_fib, f_fib = cartan_dirac_fibers(site, point, comp.word)

    # (a) momentum law + ker(sigma-flat) cap ker(dphi) = 0
    resid = momentum_residual(qh, point, "twoform")
    ker_s = _nullspace(sflat)
    ker_d = _nullspace(dphi)
    a_bool = bool(resid <= mom_tol
                  and intersection_dim(ker_s, ker_d, tol) == 0)

    # (b) forward image of TM equals the canonical fiber, and strongness
    tm = _tm_subspace(nfr)
    strong, _, _ = strongness_check(tm.basis, dphi, smat)
    try:
        fwd = transport_image(tm, dphi, smat, "forward")
        b_bool = bool(subspace_equal(fwd, e_fib, tol) and strong)
    except RankDeficient:
        b_bool = False

    # (c) backward image of the complementary fiber transverse to TM
    try:
        back_s = transport_image(f_fib, dphi, smat, "backward")
        c_bool = bool(intersection_dim(back_s.basis, tm.basis, tol) == 0)
    except RankDeficient:
        c_bool = False

    # (d) plain backward image transverse to the graph of the form
    try:
        back_0 = transport_image(f_fib, dphi, None, "backward")
        gr = graph_subspace(smat, "form")
        d_bool = bool(intersection_dim(back_0.basis, gr.basis, tol) == 0)
    except RankDeficient:
        d_bool = False

    return {"a": a_bool, "b": b_bool, "c": c_bool, "d": d_bool,
            "momentum_residual": float(resid)}


def prop_tech_chain(qh, point, component=0, tol=_RANK_TOL):
    """Rank certificates for the kernel chain of one momentum component:
    the action embeds ker(Id + Ad^-1) into ker(sigma-flat), and the word
    differential maps ker(sigma-flat) onto ker(Id + Ad)."""
    site = qh.site
    model = site.model
    frame = point.frame()
    comp = qh.momentum[component]
    dw, _, g0 = word_differentials(frame, comp.word)
    dphi = dw.T
    smat = qh.form.frame_matrix(point, frame)
    sflat = smat.T
    a_mat = adjoint_matrix(model, g0)
    a_inv = adjoint_matrix(model, np.linalg.inv(g0))
    d = model.d

    k1 = _nullspace(np.eye(d) + a_inv)          # algebra-side kernel
    fund_cols = np.zeros((frame.dim, k1.shape[1]), dtype=complex)
    for j in range(k1.shape[1]):
        x = model.from_coeffs(k1[:, j])
        img = op_apply(comp.action, point.mats, x)
        fund_cols[:, j] = frame.components(img)

    ker_sigma = _nullspace(sflat)
    ker_target = _nullspace(np.eye(d) + a_mat)  # ker(L^-1 + R^-1)

    # monomorphism into ker(sigma-flat)
    mono_rank = int(np.linalg.matrix_rank(fund_cols, tol)) \
        if fund_cols.size else 0
    inclusion_resid = 0.0
    if fund_cols.size:
        inclusion_resid = float(np.abs(sflat @ fund_cols).max())

    # epimorphism of the word differential onto the algebra-side kernel
    image_cols = dphi @ ker_sigma if ker_sigma.size else ker_sigma
    containment_resid = 0.0
    if image_cols.size and ker_target.shape[1] < d:
        proj = ker_target @ (ker_target.conj().T @ image_cols)
        containment_resid = float(np.abs(image_cols - proj).max())
    onto = (intersection_dim(orthonormal_columns(image_cols), ker_target, tol)
            == ker_target.shape[1]) if ker_target.shape[1] else True

    return {
        "dim_algebra_kernel": int(k1.shape[1]),
        "dim_form_kernel": int(ker_sigma.shape[1]),
        "dim_target_kernel": int(ker_target.shape[1]),
        "mono_rank": mono_rank,
        "mono_ok": mono_rank == k1.shape[1],
        "inclusion_residual": inclusion_resid,
        "containment_residual": containment_resid,
        "onto_ok": bool(onto),
    }
