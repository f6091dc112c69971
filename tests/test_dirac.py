import numpy as np
import pytest

from qpois import models
from qpois.charvar import solve_relator
from qpois.cli import build_setup
from qpois.dirac import (
    LagrangianSubspace,
    cartan_dirac_fibers,
    dirac_booleans,
    graph_subspace,
    kernel_phi_sigma,
    projections_pq,
    prop_tech_chain,
    strongness_check,
    subspace_equal,
    transport_image,
)
from qpois.errors import BadSignature, DegeneratePairing, RankDeficient
from qpois.fields import op_fund
from qpois.groupgeom import Factor, PointBatch, Site, parse_word, random_point, word_eval
from qpois.liealg import adjoint_matrix
from qpois.quasi import (
    MomentumComponent,
    assemble_surface_site,
    class_descriptors,
    double_descriptors,
    intersection_dim,
    internally_fused,
    pg_descriptor,
)

REP = np.diag([2.0, 0.5]).astype(complex)


def sl2_site(nfac=1):
    model, pairing = models.sl2()
    return Site(model, pairing, [Factor("group") for _ in range(nfac)])


def component_a(site):
    """The momentum component with word "a" and the conjugation of factor a."""
    return MomentumComponent(parse_word(site, "a"), op_fund(site, [0]))


def _bivector_graph(pmat):
    """Graph {(P-sharp alpha, alpha)} of a 2-tensor's frame matrix."""
    n = len(pmat)
    return LagrangianSubspace.from_columns(
        np.concatenate([np.asarray(pmat).T, np.eye(n)], axis=0), n)


def test_graph_subspaces_trivial():
    z = np.zeros((3, 3))
    gs = graph_subspace(z)
    assert gs.basis.shape[1] == 3
    assert np.abs(gs.basis[3:, :]).max() < 1e-14
    gp = _bivector_graph(z)
    assert np.abs(gp.basis[:3, :]).max() < 1e-14


def test_graph_form_equals_graph_of_inverse_bivector():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4))
    smat = m - m.T
    gs = graph_subspace(smat)
    # P-sharp = inverse of sigma-flat: frame matrices are related by
    # pmat.T = inv(smat.T)
    pmat = np.linalg.inv(smat.T).T
    assert subspace_equal(gs, _bivector_graph(pmat))


def test_lagrangian_guards():
    # non-isotropic columns of full rank: (e1, e1*) pairs to 2 with itself
    cols = np.zeros((4, 2))
    cols[0, 0] = 1.0
    cols[2, 0] = 1.0
    cols[1, 1] = 1.0
    with pytest.raises(BadSignature):
        LagrangianSubspace.from_columns(cols, 2)
    with pytest.raises(RankDeficient):
        LagrangianSubspace.from_columns(np.zeros((4, 1)), 2)


def test_cartan_fibers_identity_point():
    site = sl2_site(1)
    p = PointBatch(site, [[np.eye(2)]]).points()[0]
    e_sub, f_sub = cartan_dirac_fibers(p, component_a(site))
    # tangent part of E vanishes, covector part of F vanishes
    assert np.abs(e_sub.basis[:3, :]).max() < 1e-12
    assert np.abs(f_sub.basis[3:, :]).max() < 1e-12
    assert e_sub.basis.shape[1] + f_sub.basis.shape[1] == 6


def test_cartan_fibers_complementary():
    site = sl2_site(1)
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        e_sub, f_sub = cartan_dirac_fibers(p, component_a(site))
        assert e_sub.basis.shape[1] == f_sub.basis.shape[1] == 3
        assert intersection_dim(e_sub.basis, f_sub.basis) == 0


def test_cartan_fibers_refuse_degenerate():
    model, pairing = models.sl2_abelian()
    site = Site(model, pairing, [Factor("group")])
    p = random_point(site, np.random.default_rng(0))
    with pytest.raises(DegeneratePairing):
        cartan_dirac_fibers(p, component_a(site))
    with pytest.raises(DegeneratePairing):
        projections_pq(p, component_a(site))


def test_projections_block_identities():
    site = sl2_site(1)
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        pp, qq = projections_pq(p, component_a(site))
        eye = np.eye(6)
        assert np.abs(pp + qq - eye).max() <= 1e-10
        assert np.abs(pp @ pp - pp).max() <= 1e-10
        assert np.abs(qq @ qq - qq).max() <= 1e-10
        # images are the canonical fibers
        e_sub, f_sub = cartan_dirac_fibers(p, component_a(site))
        pe = LagrangianSubspace.from_columns(pp, 3)
        qf = LagrangianSubspace.from_columns(qq, 3)
        assert subspace_equal(pe, e_sub)
        assert subspace_equal(qf, f_sub)
        # p fixes E, q fixes F
        assert np.abs(pp @ e_sub.basis - e_sub.basis).max() <= 1e-10
        assert np.abs(qq @ f_sub.basis - f_sub.basis).max() <= 1e-10


def test_projection_p11_zero_at_identity():
    site = sl2_site(1)
    p = PointBatch(site, [[np.eye(2)]]).points()[0]
    pp, _ = projections_pq(p, component_a(site))
    assert np.abs(pp[:3, :3]).max() < 1e-14


def test_projection_offdiagonal_matches_bivector():
    """The (1,2) block of the projection is the standard bivector sharp map
    in left-trivialized coordinates, for the identity word on one factor."""
    site = sl2_site(1)
    desc = pg_descriptor(site)
    for seed in range(3):
        p = random_point(site, np.random.default_rng(seed))
        pp, _ = projections_pq(p, component_a(site))
        pmat = desc.bivector.frame_matrix(p)
        assert np.abs(pp[:3, 3:] - pmat.T).max() <= 1e-10


def test_forward_image_of_tangent_is_graph():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    smat = m - m.T
    tm_cols = np.concatenate([np.eye(4), np.zeros((4, 4))], axis=0)
    tm = LagrangianSubspace.from_columns(tm_cols, 4)
    img = transport_image(tm, np.eye(4), smat, "forward")
    assert subspace_equal(img, graph_subspace(smat))


def test_backward_image_identity_unchanged():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    smat = m - m.T
    gr = graph_subspace(smat)
    back = transport_image(gr, np.eye(4), None, "backward")
    assert subspace_equal(back, gr)


def test_backward_image_zero_map_gives_kernel():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 4))
    smat = m - m.T
    zero_target = LagrangianSubspace(np.zeros((0, 0)), 0.0)
    dphi = np.zeros((0, 4))
    back = transport_image(zero_target, dphi, smat, "backward")
    ker = kernel_phi_sigma(dphi, smat)
    assert back.basis.shape[1] == 4
    assert intersection_dim(back.basis, ker) == 4


def test_strongness_trivial_group():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    smat = m - m.T          # generically non-degenerate (even dimension)
    dphi = np.zeros((0, 4))
    tm_cols = np.concatenate([np.eye(4), np.zeros((4, 4))], axis=0)
    assert strongness_check(tm_cols, dphi, smat)
    assert intersection_dim(kernel_phi_sigma(dphi, smat), tm_cols) == 0
    # the principal angles between the kernel and TM stay away from zero
    overlap = np.linalg.svd(kernel_phi_sigma(dphi, smat).conj().T @ tm_cols,
                            compute_uv=False)
    assert np.arccos(min(1.0, overlap.max())) > 0.1

    zero = np.zeros((4, 4))
    assert not strongness_check(tm_cols, dphi, zero)
    assert intersection_dim(kernel_phi_sigma(dphi, zero), tm_cols) == 4


@pytest.mark.parametrize("make", ["class", "double", "fused", "surface11"])
def test_dirac_booleans_agree_and_hold(make):
    model, pairing = models.sl2()
    if make == "class":
        site = Site(model, pairing, [Factor("class", REP)])
        _, qh = class_descriptors(site)
    elif make == "double":
        site = Site(model, pairing, [Factor("group"), Factor("group")])
        _, qh = double_descriptors(site, 0, 1)
    elif make == "fused":
        site = Site(model, pairing, [Factor("group"), Factor("group")])
        _, qh = internally_fused(site, 0, 1)
    else:
        site, _, qh = assemble_surface_site(model, pairing, 1, [REP])
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        for ci in range(len(qh.momentum)):
            out = dirac_booleans(qh, p, component=ci)
            assert out["a"] == out["b"] == out["c"] == out["d"], out
            assert out["a"] is True


def _kernel_dims(qh, p):
    """dim ker(Id + Ad^-1), dim ker(Id + Ad) and dim ker(sigma-flat) for the
    first momentum component, by numpy's rank of each matrix."""
    model = qh.site.model
    g = word_eval(qh.momentum[0].word, p.mats)
    gi = np.linalg.inv(g)
    ad, ad_inv = adjoint_matrix(model, g, gi), adjoint_matrix(model, gi, g)
    eye = np.eye(model.d)
    smat = qh.form.frame_matrix(p)
    return (model.d - np.linalg.matrix_rank(eye + ad_inv, tol=1e-8),
            model.d - np.linalg.matrix_rank(eye + ad, tol=1e-8),
            len(smat) - np.linalg.matrix_rank(smat, tol=1e-8))


def test_prop_tech_generic_point():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    _, qh = double_descriptors(site, 0, 1)
    p = random_point(site, np.random.default_rng(7))
    rep = prop_tech_chain(qh, p)
    assert rep["mono_ok"] and rep["onto_ok"]
    assert _kernel_dims(qh, p)[:2] == (0, 0)


def test_prop_tech_traceless_word_value():
    """Points where the word value has zero trace give a 2-dimensional
    algebra-side kernel; the chain ranks must still certify."""
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group")])
    _, qh = double_descriptors(site, 0, 1)
    # q1 q2 has trace zero
    q1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    q2 = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex) / 1.0
    q2 = q2 / np.sqrt(np.linalg.det(q2))
    prod = q1 @ q2
    tr = np.trace(prod)
    # shift q2 so that the product is traceless: solve directly
    # build q2' = q2 - (tr/2) q1^{-1}: then q1 q2' = q1 q2 - (tr/2) I
    q2p = q2 - (tr / 2) * np.linalg.inv(q1)
    q2p = q2p / np.sqrt(np.linalg.det(q2p))
    prod = q1 @ q2p
    assert abs(np.trace(prod)) < 1e-12
    p = PointBatch(site, [[q1, q2p]]).points()[0]
    rep = prop_tech_chain(qh, p)
    algebra_kernel, target_kernel, form_kernel = _kernel_dims(qh, p)
    assert algebra_kernel == target_kernel == 2
    assert rep["mono_ok"] and rep["onto_ok"]
    assert rep["inclusion_residual"] <= 1e-9
    assert rep["containment_residual"] <= 1e-9
    assert form_kernel >= 2


@pytest.mark.parametrize("seed", range(3))
def test_prop_tech_chain_at_a_solved_traceless_level(seed):
    """SL(2) genus 1 with the relator solved to diag(i, -i): the commutator
    is traceless there, so ker(Id + Ad^-1) is 2-dimensional and the chain
    certifies a nonzero inclusion and image."""
    setup = build_setup({"site": {"genus": 1}, "targets": [
        [[[0, 1], [0, 0]], [[0, 0], [0, -1]]]]})
    p = solve_relator(setup.site, setup.relator, setup.targets[0][1],
                      seed=seed).point
    rep = prop_tech_chain(setup.qh, p)
    assert _kernel_dims(setup.qh, p)[0] == 2
    assert rep["mono_ok"] and rep["onto_ok"]
    assert rep["inclusion_residual"] <= 1e-8
    assert rep["containment_residual"] <= 1e-8
