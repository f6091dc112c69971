"""Test-only references for the Dirac clauses, in the doubled 2N-space: the
explicit Lagrangian bases of the tangent space and of the graph of a form,
one transport that solves the whole doubled system in either direction, and
the four clauses computed from them."""

import numpy as np

from qpois.dirac import (
    LagrangianSubspace,
    cartan_dirac_fibers,
    kernel_phi_sigma,
    subspace_equal,
)
from qpois.errors import BadSignature, RankDeficient
from qpois.quasi import component_linear, intersection_dim, momentum_residual, nullspace


def tm_subspace(n):
    """TM = [I; 0] as a Lagrangian subspace."""
    cols = np.concatenate([np.eye(n), np.zeros((n, n))], axis=0)
    return LagrangianSubspace.from_columns(cols, n)


def graph_subspace(smat):
    """Graph {(v, sigma-flat v)} of a 2-form, given by its frame matrix, as a
    Lagrangian subspace."""
    smat = np.asarray(smat, dtype=complex)
    n = smat.shape[0]
    return LagrangianSubspace.from_columns(
        np.concatenate([np.eye(n), smat.T], axis=0), n)


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


def dirac_booleans(qh, point, component):
    """The four clauses as the doubled-space transports and intersections
    compute them: `qpois.dirac.dirac_booleans` with every subspace built in
    the 2N-space."""
    nfr = point.frame().dim
    comp = qh.momentum[component]
    dphi = component_linear(point, comp).left.T
    smat = qh.form.frame_matrix(point)
    e_fib, f_fib = cartan_dirac_fibers(point, comp)
    a_bool = bool(momentum_residual(qh, point) <= 1e-9
                  and intersection_dim(nullspace(smat.T), nullspace(dphi)) == 0)
    tm = tm_subspace(nfr)
    strong = intersection_dim(kernel_phi_sigma(nullspace(dphi), smat),
                              tm.basis) == 0
    try:
        fwd = transport_image(tm, dphi, smat, "forward")
        b_bool = bool(subspace_equal(fwd, e_fib) and strong)
    except RankDeficient:
        b_bool = False
    try:
        back_s = transport_image(f_fib, dphi, smat, "backward")
        c_bool = bool(intersection_dim(back_s.basis, tm.basis) == 0)
    except RankDeficient:
        c_bool = False
    try:
        back_0 = transport_image(f_fib, dphi, None, "backward")
        d_bool = bool(intersection_dim(back_0.basis, graph_subspace(smat).basis) == 0)
    except RankDeficient:
        d_bool = False
    return {"a": a_bool, "b": b_bool, "c": c_bool, "d": d_bool}
