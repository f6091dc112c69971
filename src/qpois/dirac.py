"""Pointwise linear algebra on the split space tangent + cotangent.

Everything here works at one site point at a time, in frame coordinates:
tangent components in the point's frame, cotangent components in the dual
frame, stacked as vectors of length 2N.  Pulled-back group-side fibers use
left-trivialized algebra coordinates of length 2d.

The Dirac clauses build no basis of TM = [I; 0] or of the graph
[I; sigma-flat] of the form: both are eliminated.  The forward image of TM
is the nullspace of the N x (N + d) block [-sigma-flat | dphi^T], and
orthonormal columns B meet a graph (TM is the zero form's) in k minus the
rank of the N x k block B_bot - sigma-flat B_top.  The SVDs left are those
two, the kernels of dphi and sigma-flat, the backward transport's
2d x (N + 2d) system, the orthonormalized images and the 2d-space fibers.
"""

from __future__ import annotations

import numpy as np

from .errors import BadSignature, RankDeficient
from .liealg import _RANK_TOL
from .quasi import (
    component_linear,
    intersection_dim,
    momentum_residual,
    nullspace,
    orthonormal_columns,
)

__all__ = [
    "LagrangianSubspace",
    "cartan_dirac_fibers",
    "projections_pq",
    "forward_image",
    "backward_image",
    "graph_meet",
    "kernel_phi_sigma",
    "subspace_equal",
    "dirac_booleans",
    "prop_tech_chain",
]

_ISO_TOL = 1e-10
_MOM_TOL = 1e-9             # momentum tier of clause (a)


def _pairing_gram(basis, half):
    """Bilinear (not conjugated) pairing matrix of a column set with itself."""
    top, bot = basis[:half, :], basis[half:, :]
    return top.T @ bot + bot.T @ top


class LagrangianSubspace:
    """Orthonormalized column basis of a Lagrangian subspace of the split
    2N-space; construction verifies isotropy and half-dimension rank.

    The isotropy gate is absolute, _ISO_TOL on the largest entry of the
    basis's pairing matrix; a backward-error form of it, relative to the
    sample's conditioning, is open in ROADMAP.md (item 2)."""

    def __init__(self, basis, isotropy_residual):
        self.basis = basis
        self.isotropy_residual = isotropy_residual

    @classmethod
    def from_columns(cls, cols, half):
        basis = orthonormal_columns(cols)
        if basis.shape[1] != half:
            raise RankDeficient(
                f"subspace rank {basis.shape[1]} != half-dimension {half}")
        gram = _pairing_gram(basis, half)
        resid = float(np.abs(gram).max()) if gram.size else 0.0
        if resid > _ISO_TOL:
            raise BadSignature(f"subspace not isotropic (residual {resid:.3e})")
        return cls(basis, resid)


def cartan_dirac_fibers(point, comp):
    """The two generating fibers of the canonical splitting pulled back
    through a momentum component's word, in left-trivialized coordinates at
    the word value; reads only the word's Ad entry, no frame.  Built once
    per point and component, at the points that ask
    (`SitePoint.point_memo`)."""
    return point.point_memo(("fibers", comp), lambda p: _fibers(p, comp))


def _fibers(point, comp):
    s_low, _ = point.site.pairing.require_invertible()
    a_mat, a_inv = point.word_ad(comp.word)
    d = point.site.model.d
    eye = np.eye(d)
    e_cols = np.concatenate([eye - a_inv, 0.5 * (eye + a_mat.T) @ s_low],
                            axis=0)
    f_cols = np.concatenate([eye + a_inv, 0.5 * (eye - a_mat.T) @ s_low],
                            axis=0)
    e_sub = LagrangianSubspace.from_columns(e_cols, d)
    f_sub = LagrangianSubspace.from_columns(f_cols, d)
    return e_sub, f_sub


def projections_pq(point, comp):
    """The complementary block projections onto the two canonical fibers of
    a momentum component, in left-trivialized coordinates at its word value
    (2d x 2d each); reads only the word's Ad entry, no frame."""
    s_low, h_up = point.site.pairing.require_invertible()
    a_mat, a_inv = point.word_ad(comp.word)
    d = point.site.model.d
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


def forward_image(dphi, smat):
    """Forward image {(dphi v, alpha) : dphi^T alpha = sigma-flat v} of TM
    along the (d x N) map dphi, corrected by the form with frame matrix smat;
    (v, alpha) is the nullspace of the block [-sigma-flat | dphi^T]."""
    n = dphi.shape[1]
    sols = nullspace(np.concatenate([-smat.T, dphi.T], axis=1))
    cols = np.concatenate([dphi @ sols[:n, :], sols[n:, :]], axis=0)
    return LagrangianSubspace.from_columns(cols, dphi.shape[0])


def backward_image(fib, dphi, smat):
    """Backward image {(v, dphi^T beta - sigma-flat v) : (dphi v, beta) in
    fib} of a target-side Lagrangian subspace along the (d x N) map dphi,
    corrected by the form with frame matrix smat (None for the plain image);
    the system has 2d rows."""
    dphi = np.asarray(dphi, dtype=complex)
    n2, n1 = dphi.shape
    sflat = (np.zeros((n1, n1), dtype=complex) if smat is None
             else np.asarray(smat, dtype=complex).T)   # component matrix of v -> sigma(v, .)
    basis = fib.basis
    # unknowns (v, beta, c): dphi v = B_top c ; beta = B_bot c
    sys = np.block([
        [dphi, np.zeros((n2, n2)), -basis[:n2, :]],
        [np.zeros((n2, n1)), np.eye(n2), -basis[n2:, :]],
    ])
    sols = nullspace(sys)
    vs = sols[:n1, :]
    bes = sols[n1:n1 + n2, :]
    cols = np.concatenate([vs, dphi.T @ bes - sflat @ vs], axis=0)
    return LagrangianSubspace.from_columns(cols, n1)


def graph_meet(basis, smat):
    """dim(span B cap {(v, sigma-flat v)}) for orthonormal columns B of the
    split 2N-space and the form with frame matrix smat; None, the zero form,
    gives TM.  It is k minus the rank of B_bot - sigma-flat B_top =
    [-sigma-flat | I] B, counted against ||[-sigma-flat | I]||_2 (1 for TM),
    not the block's own largest singular value: that is roundoff when span B
    is the graph."""
    n = basis.shape[0] // 2
    block, scale = basis[n:, :], 1.0
    if smat is not None:
        block = block - smat.T @ basis[:n, :]
        scale = np.hypot(1.0, np.linalg.norm(smat, 2))
    sv = np.linalg.svd(block, compute_uv=False)
    return basis.shape[1] - int(np.sum(sv > _RANK_TOL * scale))


def kernel_phi_sigma(dphi, smat):
    """Orthonormal columns spanning {(v, -sigma-flat v): dphi v = 0}."""
    null = nullspace(np.asarray(dphi, dtype=complex))
    sflat = np.asarray(smat, dtype=complex).T
    cols = np.concatenate([null, -sflat @ null], axis=0)
    return orthonormal_columns(cols)


def subspace_equal(sub_a, sub_b):
    ba, bb = sub_a.basis, sub_b.basis
    if ba.shape[1] != bb.shape[1]:
        return False
    return intersection_dim(ba, bb) == ba.shape[1]


def dirac_booleans(qh, point, component):
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
    comp = qh.momentum[component]
    dphi = component_linear(point, comp).left.T
    smat = qh.form.frame_matrix(point)
    sflat = smat.T
    e_fib, f_fib = cartan_dirac_fibers(point, comp)

    # (a) momentum law + ker(sigma-flat) cap ker(dphi) = 0
    resid = momentum_residual(qh, point)
    ker_s = nullspace(sflat)
    ker_d = nullspace(dphi)
    a_bool = bool(resid <= _MOM_TOL
                  and intersection_dim(ker_s, ker_d) == 0)

    # (b) forward image of TM equals the canonical fiber, and strongness:
    # ker(dphi, sigma) meets TM trivially
    strong = graph_meet(kernel_phi_sigma(dphi, smat), None) == 0
    try:
        fwd = forward_image(dphi, smat)
        b_bool = bool(subspace_equal(fwd, e_fib) and strong)
    except RankDeficient:
        b_bool = False

    # (c) backward image of the complementary fiber transverse to TM
    try:
        back_s = backward_image(f_fib, dphi, smat)
        c_bool = graph_meet(back_s.basis, None) == 0
    except RankDeficient:
        c_bool = False

    # (d) plain backward image transverse to the graph of the form
    try:
        back_0 = backward_image(f_fib, dphi, None)
        d_bool = graph_meet(back_0.basis, smat) == 0
    except RankDeficient:
        d_bool = False

    return {"a": a_bool, "b": b_bool, "c": c_bool, "d": d_bool}


def prop_tech_chain(qh, point):
    """Rank certificates for the kernel chain of the first momentum
    component: the action embeds ker(Id + Ad^-1) into ker(sigma-flat), and
    the word differential maps ker(sigma-flat) onto ker(Id + Ad)."""
    lin = component_linear(point, qh.momentum[0])
    dphi = lin.left.T
    sflat = qh.form.frame_matrix(point).T
    d = qh.site.model.d

    k1 = nullspace(np.eye(d) + lin.ad_inv)      # algebra-side kernel
    fund_cols = lin.action @ k1

    ker_sigma = nullspace(sflat)
    ker_target = nullspace(np.eye(d) + lin.ad)  # ker(L^-1 + R^-1)

    # monomorphism into ker(sigma-flat)
    mono_rank = orthonormal_columns(fund_cols).shape[1]
    inclusion_resid = 0.0
    if fund_cols.size:
        inclusion_resid = float(np.abs(sflat @ fund_cols).max())

    # epimorphism of the word differential onto the algebra-side kernel
    image_cols = dphi @ ker_sigma if ker_sigma.size else ker_sigma
    containment_resid = 0.0
    if image_cols.size and ker_target.shape[1] < d:
        proj = ker_target @ (ker_target.conj().T @ image_cols)
        containment_resid = float(np.abs(image_cols - proj).max())
    onto = (intersection_dim(orthonormal_columns(image_cols), ker_target)
            == ker_target.shape[1]) if ker_target.shape[1] else True

    return {
        "mono_ok": mono_rank == k1.shape[1],
        "inclusion_residual": inclusion_resid,
        "containment_residual": containment_resid,
        "onto_ok": bool(onto),
    }
