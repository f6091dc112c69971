"""Pointwise linear algebra on the split space tangent + cotangent.

Everything here works at one site point at a time, in frame coordinates:
tangent components in the point's frame, cotangent components in the dual
frame, stacked as vectors of length 2N.  Pulled-back group-side fibers use
left-trivialized algebra coordinates of length 2d.
"""

from __future__ import annotations

import numpy as np

from .errors import BadSignature, RankDeficient
from .quasi import (
    component_linear,
    intersection_dim,
    momentum_residual,
    nullspace,
    orthonormal_columns,
)

__all__ = [
    "LagrangianSubspace",
    "graph_subspace",
    "cartan_dirac_fibers",
    "projections_pq",
    "transport_image",
    "kernel_phi_sigma",
    "strongness_check",
    "subspace_equal",
    "dirac_booleans",
    "prop_tech_chain",
]

_ISO_TOL = 1e-10
_MOM_TOL = 1e-9             # momentum tier of clause (a)


def _pairing_gram(cols_a, cols_b, half):
    """Bilinear (not conjugated) pairing matrix between two column sets."""
    j_top = cols_b[half:, :]
    j_bot = cols_b[:half, :]
    return cols_a[:half, :].T @ j_top + cols_a[half:, :].T @ j_bot


class LagrangianSubspace:
    """Orthonormalized column basis of a Lagrangian subspace of the split
    2N-space; construction verifies isotropy and half-dimension rank."""

    def __init__(self, basis, isotropy_residual):
        self.basis = basis
        self.isotropy_residual = isotropy_residual

    @classmethod
    def from_columns(cls, cols, half):
        basis = orthonormal_columns(cols)
        if basis.shape[1] != half:
            raise RankDeficient(
                f"subspace rank {basis.shape[1]} != half-dimension {half}")
        gram = _pairing_gram(basis, basis, half)
        resid = float(np.abs(gram).max()) if gram.size else 0.0
        if resid > _ISO_TOL * max(1.0, float(np.abs(basis).max())):
            raise BadSignature(f"subspace not isotropic (residual {resid:.3e})")
        return cls(basis, resid)


def graph_subspace(smat):
    """Graph {(v, sigma-flat v)} of a 2-form, given by its frame matrix, as a
    Lagrangian subspace."""
    smat = np.asarray(smat, dtype=complex)
    n = smat.shape[0]
    return LagrangianSubspace.from_columns(
        np.concatenate([np.eye(n), smat.T], axis=0), n)


def cartan_dirac_fibers(point, comp):
    """The two generating fibers of the canonical splitting pulled back
    through a momentum component's word, in left-trivialized coordinates at
    the word value; reads only the word's Ad entry, no frame."""
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


def transport_image(subspace, dphi, smat, direction):
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
        sols = nullspace(sys)
        vs = sols[:n1, :]
        als = sols[n1:n1 + n2, :]
        cols = np.concatenate([dphi @ vs, als], axis=0)
        half = n2
    elif direction == "backward":
        if subspace.basis.shape[0] != 2 * n2:
            raise BadSignature("backward image needs a target-side subspace")
        # unknowns (v, beta, c): dphi v = B_top c ; beta = B_bot c
        sys = np.block([
            [dphi, np.zeros((n2, n2)), -basis[:n2, :]],
            [np.zeros((n2, n1)), np.eye(n2), -basis[n2:, :]],
        ])
        sols = nullspace(sys)
        vs = sols[:n1, :]
        bes = sols[n1:n1 + n2, :]
        cols = np.concatenate([vs, dphi.T @ bes - sflat @ vs], axis=0)
        half = n1
    else:
        raise BadSignature(f"unknown direction {direction!r}")
    return LagrangianSubspace.from_columns(cols, half)


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


def strongness_check(e_cols, dphi, smat):
    """Whether ker(map, form) meets the given isotropic subspace trivially."""
    return intersection_dim(kernel_phi_sigma(dphi, smat), e_cols) == 0


def _tm_subspace(nfr):
    cols = np.concatenate([np.eye(nfr), np.zeros((nfr, nfr))], axis=0)
    return LagrangianSubspace.from_columns(cols, nfr)


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
    nfr = point.frame().dim
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

    # (b) forward image of TM equals the canonical fiber, and strongness
    tm = _tm_subspace(nfr)
    strong = strongness_check(tm.basis, dphi, smat)
    try:
        fwd = transport_image(tm, dphi, smat, "forward")
        b_bool = bool(subspace_equal(fwd, e_fib) and strong)
    except RankDeficient:
        b_bool = False

    # (c) backward image of the complementary fiber transverse to TM
    try:
        back_s = transport_image(f_fib, dphi, smat, "backward")
        c_bool = bool(intersection_dim(back_s.basis, tm.basis) == 0)
    except RankDeficient:
        c_bool = False

    # (d) plain backward image transverse to the graph of the form
    try:
        back_0 = transport_image(f_fib, dphi, None, "backward")
        gr = graph_subspace(smat)
        d_bool = bool(intersection_dim(back_0.basis, gr.basis) == 0)
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
