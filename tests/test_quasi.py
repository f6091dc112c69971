import numpy as np
import pytest

from qpois import models
from qpois.duals import dtrace
from qpois.errors import BadSignature, NotTangent
from qpois.fields import Bivector, op_L, op_R, op_fund
from qpois.groupgeom import (
    Factor,
    PointBatch,
    Site,
    parse_word,
    random_point,
    word_eval,
)
from qpois.liealg import PairingData, cartan3
from qpois.quasi import (
    MomentumComponent,
    QuasiPoissonDescriptor,
    assemble_surface_site,
    class_descriptors,
    double_descriptors,
    equivariance_residual,
    eval_phi_actions,
    fuse_bivector,
    internally_fused,
    jacobiator_vs_phi,
    momentum_residual,
    pg_descriptor,
    restrict_to_class,
    surface_letters,
)

from site_reference import frame_vector, momentum_pullback_residual

REP = np.diag([2.0, 0.5]).astype(complex)


def group_site(nfac, build=models.sl2):
    model, pairing = build()
    return Site(model, pairing, [Factor("group") for _ in range(nfac)])


def zero_bivector(site):
    return Bivector(site, np.zeros((2 * site.nfac, 2 * site.nfac)))


def trace_fn(site, text):
    w = parse_word(site, text)
    return lambda mats: dtrace(word_eval(w, mats))


def entry_fn(rng, i, n=2):
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return lambda mats: dtrace(c @ mats[i])


def test_pg_zero_at_identity():
    site = group_site(1)
    desc = pg_descriptor(site)
    p = PointBatch(site, [[np.eye(2)]]).points()[0]
    assert np.abs(desc.bivector.frame_matrix(p)).max() < 1e-13


def test_pg_abelian_zero():
    model, pairing = models.model_from_config({"family": "abelian", "n": 2})
    site = Site(model, pairing, [Factor("group")])
    desc = pg_descriptor(site)
    p = random_point(site, np.random.default_rng(0))
    assert np.abs(desc.bivector.frame_matrix(p)).max() < 1e-13


def test_pg_momentum_identity_word():
    site = group_site(1)
    desc = pg_descriptor(site)
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        assert momentum_residual(desc, p) <= 1e-10


def test_pg_momentum_wrong_word_fails():
    site = group_site(1)
    desc = pg_descriptor(site)
    bad = QuasiPoissonDescriptor(
        site, desc.bivector,
        [MomentumComponent(parse_word(site, "aa"), op_fund(site, [0]))])
    p = random_point(site, np.random.default_rng(5))
    assert momentum_residual(bad, p) > 1e-3


def test_pg_jacobiator_vs_phi():
    site = group_site(1)
    desc = pg_descriptor(site)
    rng = np.random.default_rng(1)
    fns = [entry_fn(rng, 0), entry_fn(rng, 0), trace_fn(site, "aa")]
    phi = cartan3(site.model, site.pairing)
    for seed in range(3):
        p = random_point(site, np.random.default_rng(seed))
        assert jacobiator_vs_phi(desc, p, fns, phi) <= 1e-9


def test_eval_phi_actions_identity_zero_and_linear():
    site = group_site(1)
    desc = pg_descriptor(site)
    phi = cartan3(site.model, site.pairing)
    ip = PointBatch(site, [[np.eye(2)]]).points()[0]
    rng = np.random.default_rng(12)
    a, b, c = (rng.standard_normal(3) for _ in range(3))
    assert abs(eval_phi_actions(desc, ip, phi, a, b, c)) < 1e-13
    p = random_point(site, rng)
    v = eval_phi_actions(desc, p, phi, a, b, c)
    v2 = eval_phi_actions(desc, p, phi, 2 * a, b, c)
    assert abs(v2 - 2 * v) < 1e-12


def test_double_momentum_both_components():
    site = group_site(2)
    qp, qh = double_descriptors(site, 0, 1)
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        assert momentum_residual(qp, p) <= 1e-10
        assert momentum_residual(qh, p) <= 1e-10


def test_double_jacobiator():
    site = group_site(2)
    qp, _ = double_descriptors(site, 0, 1)
    rng = np.random.default_rng(2)
    fns = [entry_fn(rng, 0), entry_fn(rng, 1), trace_fn(site, "ab")]
    phi = cartan3(site.model, site.pairing)
    for seed in range(3):
        p = random_point(site, np.random.default_rng(seed))
        assert jacobiator_vs_phi(qp, p, fns, phi) <= 1e-9


def test_internally_fused_word_and_momentum():
    site = group_site(2)
    qp, qh = internally_fused(site, 0, 1)
    assert qp.momentum[0].word == parse_word(site, "abAB")
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        assert momentum_residual(qp, p) <= 1e-10
        assert momentum_residual(qh, p) <= 1e-10


def test_internally_fused_jacobiator():
    site = group_site(2)
    qp, _ = internally_fused(site, 0, 1)
    rng = np.random.default_rng(3)
    fns = [entry_fn(rng, 0), entry_fn(rng, 1), trace_fn(site, "aB")]
    phi = cartan3(site.model, site.pairing)
    for seed in range(3):
        p = random_point(site, np.random.default_rng(seed))
        assert jacobiator_vs_phi(qp, p, fns, phi) <= 1e-9


def test_fuse_zero_translations_gives_conjugation_structure():
    """The zero bivector on a single group factor, carrying the commuting
    left- and right-translation actions, fuses to the standard conjugation
    bivector: P_fus = 0 - chi equals the single-factor structure, and the
    merged component is the identity word with the conjugation action."""
    site = group_site(1)
    zero = zero_bivector(site)
    act_lt = -op_R(site, 0)      # x.q = xq, generator -Xq
    act_rt = op_L(site, 0)       # y.q = q y^-1, generator qX
    c1 = MomentumComponent(parse_word(site, "a"), act_lt)
    c2 = MomentumComponent(parse_word(site, ""), act_rt)
    fused, merged = fuse_bivector(site, zero, c1, c2)
    assert merged.word == parse_word(site, "a")
    ref = pg_descriptor(site)
    desc = QuasiPoissonDescriptor(
        site, fused,
        [MomentumComponent(parse_word(site, "a"), op_fund(site, [0]))])
    for seed in range(3):
        p = random_point(site, np.random.default_rng(seed))
        assert np.abs(fused.frame_matrix(p)
                      - ref.bivector.frame_matrix(p)).max() <= 1e-12
        assert momentum_residual(desc, p) <= 1e-10


def test_fusion_with_zero_tensor_pairing():
    model, _ = models.sl2()
    zero_pairing = PairingData(eta_lower=np.zeros((3, 3)),
                               eta_upper=np.zeros((3, 3)))
    site = Site(model, zero_pairing, [Factor("group"), Factor("group")])
    zero = zero_bivector(site)
    c1 = MomentumComponent(parse_word(site, "a"), op_fund(site, [0]))
    c2 = MomentumComponent(parse_word(site, "b"), op_fund(site, [1]))
    fused, _ = fuse_bivector(site, zero, c1, c2)
    p = random_point(site, np.random.default_rng(0))
    assert np.abs(fused.frame_matrix(p)).max() < 1e-13


def test_fusion_associative_values():
    site = group_site(3)
    units = []
    for i in range(3):
        units.append((zero_bivector(site),
                      MomentumComponent(parse_word(site, site.letter(i)),
                                        op_fund(site, [i]))))
    b0 = units[0][0] + units[1][0] + units[2][0]
    left1, m12 = fuse_bivector(site, b0, units[0][1], units[1][1])
    left, mall = fuse_bivector(site, left1, m12, units[2][1])
    right1, m23 = fuse_bivector(site, b0, units[1][1], units[2][1])
    right, mall2 = fuse_bivector(site, right1, units[0][1], m23)
    assert mall.word == mall2.word == parse_word(site, "abc")
    p = random_point(site, np.random.default_rng(4))
    assert np.abs(left.frame_matrix(p) - right.frame_matrix(p)).max() <= 1e-10


def test_class_pair_momentum_and_tau():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("class", REP)])
    qp, qh = class_descriptors(site)
    for seed in range(4):
        p = random_point(site, np.random.default_rng(seed))
        assert momentum_residual(qp, p) <= 1e-10
        assert momentum_residual(qh, p) <= 1e-10


def test_restrict_to_class_tangent():
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("class", REP)])
    qp, _ = class_descriptors(site)
    p = random_point(site, np.random.default_rng(6))
    assert restrict_to_class(qp.bivector, p, 0) <= 1e-10
    pmat = qp.bivector.frame_matrix(p)
    assert pmat.shape == (2, 2)
    assert np.abs(pmat + pmat.T).max() < 1e-12


def test_restrict_broken_pairing_not_tangent():
    model, pairing = models.sl2()
    upper = np.diag([1.0, 1.0, 2.0])
    bad = PairingData(np.linalg.inv(upper), upper)
    site = Site(model, bad, [Factor("class", REP)])
    qp, _ = class_descriptors(site)
    p = random_point(site, np.random.default_rng(7))
    with pytest.raises(NotTangent):
        restrict_to_class(qp.bivector, p, 0)


def test_surface_letters_and_relator():
    gens, blocks = surface_letters(2, 1)
    assert gens == ["a", "b", "c", "d", "e"]
    assert "".join(blocks) == "abABcdCDe"


def test_surface_signature_guard():
    model, pairing = models.sl2()
    with pytest.raises(BadSignature):
        assemble_surface_site(model, pairing, 0, [REP, REP])


def test_surface_10_matches_internally_fused():
    model, pairing = models.sl2()
    site, qp, qh = assemble_surface_site(model, pairing, 1, [])
    ref_site = group_site(2)
    ref_qp, ref_qh = internally_fused(ref_site, 0, 1)
    p = random_point(site, np.random.default_rng(8))
    ref_p = PointBatch(ref_site, [p.mats]).points()[0]
    assert np.abs(qp.bivector.frame_matrix(p)
                  - ref_qp.bivector.frame_matrix(ref_p)).max() < 1e-12
    assert qh is not None
    v, w = frame_vector(p.frame(), 0), frame_vector(p.frame(), 4)
    assert abs(qh.form.evaluate(p.mats, v, w)
               - ref_qh.form.evaluate(ref_p.mats, v, w)) < 1e-12


@pytest.mark.parametrize("sig", [(1, 0), (1, 1), (2, 0)])
def test_surface_momentum_residuals(sig):
    genus, npunct = sig
    model, pairing = models.sl2()
    reps = [REP] * npunct
    site, qp, qh = assemble_surface_site(model, pairing, genus, reps)
    for seed in range(3):
        p = random_point(site, np.random.default_rng(seed))
        assert momentum_residual(qp, p) <= 1e-9
        assert qh is not None
        assert momentum_residual(qh, p) <= 1e-9


@pytest.mark.parametrize("sig", [(1, 1), (2, 2)])
def test_surface_fullgroups_jacobiator(sig):
    genus, npunct = sig
    model, pairing = models.sl2()
    reps = [REP] * npunct
    site, qp, qh = assemble_surface_site(model, pairing, genus, reps,
                                         variant="fullgroups")
    assert qh is None or npunct == 0
    rng = np.random.default_rng(9)
    fns = [entry_fn(rng, 0), trace_fn(site, "ab"),
           trace_fn(site, "".join(surface_letters(genus, npunct)[1]))]
    phi = cartan3(site.model, site.pairing)
    for seed in range(2):
        p = random_point(site, np.random.default_rng(seed))
        assert jacobiator_vs_phi(qp, p, fns, phi) <= 1e-8


def _conjugated(site, seed):
    """A random point, its conjugate by a fixed g, g and g^-1."""
    from qpois.duals import dexpm
    p = random_point(site, np.random.default_rng(seed))
    g = dexpm(site.model.from_coeffs([0.2, -0.3 + 0.1j, 0.4]))
    gi = np.linalg.inv(g)
    cp = PointBatch(site, [g @ p.mats @ gi]).points()[0]
    return p, cp, g, gi


def test_equivariance_bivector_and_form():
    model, pairing = models.sl2()
    site, qp, qh = assemble_surface_site(model, pairing, 1, [REP])
    p, cp, g, gi = _conjugated(site, 10)
    assert equivariance_residual(qp, None, p, cp, g, gi) <= 1e-9
    assert equivariance_residual(qp, qh, p, cp, g, gi) <= 1e-9


def test_equivariance_detects_noninvariant_pairing():
    model, _ = models.sl2()
    lower = np.diag([1.0, 2.0, 3.0]).astype(complex)
    pairing = PairingData(eta_lower=lower, eta_upper=np.linalg.inv(lower))
    site, qp, qh = assemble_surface_site(model, pairing, 1, [REP])
    p, cp, g, gi = _conjugated(site, 10)
    assert equivariance_residual(qp, None, p, cp, g, gi) > 1e-3
    # a zero bivector leaves the 2-form term alone
    zero = QuasiPoissonDescriptor(site, Bivector(site, 0 * qp.bivector.kmat),
                                  qp.momentum)
    assert equivariance_residual(zero, None, p, cp, g, gi) == 0.0
    assert equivariance_residual(zero, qh, p, cp, g, gi) > 1e-3


def test_momentum_pullback_consistency():
    site = group_site(2)
    qp, _ = internally_fused(site, 0, 1)
    p = random_point(site, np.random.default_rng(11))

    def fn(m):
        return dtrace(m @ m)

    assert momentum_pullback_residual(qp, p, fn) <= 1e-9


@pytest.mark.parametrize("variant", ["classes", "fullgroups"])
@pytest.mark.parametrize("genus, npunct",
                         [(0, 3), (1, 0), (1, 2), (2, 0), (2, 2), (3, 0), (3, 2)])
def test_fusion_algebra_is_exact(genus, npunct, variant):
    """Fusing every unit of a surface leaves one component, acting by
    conjugation on all factors, and an antisymmetric atom matrix K: both
    exactly, as the atom arithmetic adds halves of +-1."""
    model, pairing = models.sl2()
    site, qp, _ = assemble_surface_site(model, pairing, genus, [REP] * npunct,
                                        variant=variant)
    (comp,) = qp.momentum
    assert np.array_equal(comp.action, op_fund(site, range(site.nfac)))
    kmat = qp.bivector.kmat
    assert np.array_equal(kmat, -kmat.T)
