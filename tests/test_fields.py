import numpy as np
import pytest

from qpois import models
from qpois.duals import Dual, dtrace
from qpois.errors import LiftFailed
from qpois.fields import (
    Bivector,
    FormField,
    PairTerm,
    Section,
    TauTerm,
    bracket_funcs,
    dual_vdot,
    eval_lambda,
    exterior_d3,
    jacobiator,
    op_L,
    op_R,
    op_apply,
    op_fund,
    section_bracket,
    section_value,
    two_chain_form,
)
from qpois.groupgeom import (
    Factor,
    Site,
    SitePoint,
    Tangent,
    fund_tangent,
    parse_word,
    random_point,
    word_eval,
)
from qpois.quasi import assemble_surface_site


def rand_mat(rng, n=2):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def sl2_two_group():
    model, pairing = models.sl2()
    return Site(model, pairing, [Factor("group"), Factor("group")])


def test_eval_lambda_sl2_oracle():
    # hand value: sum of the three cyclic bracket pairings is 2+2+2 = 6,
    # normalized by 1/6
    model, pairing = models.sl2()
    h, e, f = model.basis
    val = eval_lambda(model, pairing, np.eye(2, dtype=complex), h, e, f)
    assert abs(val - 1.0) < 1e-12


def test_eval_lambda_abelian_zero():
    model, pairing = models.abelian(2)
    rng = np.random.default_rng(0)
    g = np.diag([2.0, 3.0]).astype(complex)
    vals = [g @ model.from_coeffs(rng.standard_normal(2)) for _ in range(3)]
    assert abs(eval_lambda(model, pairing, g, *vals)) < 1e-14


def test_eval_lambda_alternating():
    model, pairing = models.sl2()
    rng = np.random.default_rng(1)
    g = np.eye(2) + 0.3 * rand_mat(rng)
    v = [g @ model.from_coeffs(rng.standard_normal(3) + 1j * rng.standard_normal(3))
         for _ in range(3)]
    a = eval_lambda(model, pairing, g, v[0], v[1], v[2])
    b = eval_lambda(model, pairing, g, v[1], v[0], v[2])
    c = eval_lambda(model, pairing, g, v[1], v[2], v[0])
    assert abs(a + b) < 1e-10
    assert abs(a - c) < 1e-10


def test_dual_vdot_mixed():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((3, 3))
    a, da = rng.standard_normal(3), rng.standard_normal(3)
    b, db = rng.standard_normal(3), rng.standard_normal(3)
    out = dual_vdot(s, Dual(a, da), Dual(b, db))
    assert abs(out.re - a @ s @ b) < 1e-12
    assert abs(out.eps - (da @ s @ b + a @ s @ db)) < 1e-12


def test_pair_form_antisymmetric_and_fd():
    site = sl2_two_group()
    form = FormField(site, pair_terms=[
        PairTerm(-0.5, parse_word(site, "a"), "omega", parse_word(site, "b"), "omegabar"),
        PairTerm(-0.5, parse_word(site, "a"), "omegabar", parse_word(site, "b"), "omega"),
    ])
    rng = np.random.default_rng(3)
    p = random_point(site, rng)
    t1 = Tangent([rand_mat(rng), rand_mat(rng)])
    t2 = Tangent([rand_mat(rng), rand_mat(rng)])
    v12 = form.evaluate(p.mats, t1, t2)
    v21 = form.evaluate(p.mats, t2, t1)
    assert abs(v12 + v21) < 1e-10

    # directional derivative via Dual equals finite differences
    dirm = [rand_mat(rng), rand_mat(rng)]
    dmats = [Dual(q, u) for q, u in zip(p.mats, dirm)]
    exact = form.evaluate(dmats, t1, t2).eps
    h = 1e-7
    shifted = [q + h * u for q, u in zip(p.mats, dirm)]
    fd = (form.evaluate(shifted, t1, t2) - v12) / h
    assert abs(exact - fd) < 1e-5


def test_tau_alternating_and_lift_independent():
    model, pairing = models.sl2()
    rep = np.diag([2.0, 0.5]).astype(complex)
    site = Site(model, pairing, [Factor("class", rep)])
    form = FormField(site, tau_terms=[TauTerm(0)])
    rng = np.random.default_rng(4)
    p = random_point(site, rng)
    frame = p.frame()
    v = frame.vector(0)
    w = frame.vector(1)
    assert abs(form.evaluate(p.mats, v, v)) < 1e-10
    base = form.evaluate(p.mats, v, w)
    assert abs(base) > 1e-6  # nonzero on a regular class

    # shift the lift by a stabilizer element of the base diagonal point
    q = p.mats[0]
    evals, vecs = np.linalg.eig(q)
    stab = vecs @ np.diag([1.0, -1.0]) @ np.linalg.inv(vecs)
    x_shift = model.coeffs(stab)
    assert np.abs(q @ stab - stab @ q).max() < 1e-10
    v2 = Tangent(v.comps, lifts={0: v.lifts[0] + 0.7 * x_shift})
    assert abs(form.evaluate(p.mats, v2, w) - base) < 1e-10


def test_tau_requires_lift_on_dual():
    model, pairing = models.sl2()
    rep = np.diag([2.0, 0.5]).astype(complex)
    site = Site(model, pairing, [Factor("class", rep)])
    form = FormField(site, tau_terms=[TauTerm(0)])
    rng = np.random.default_rng(5)
    p = random_point(site, rng)
    frame = p.frame()
    v, w = frame.vector(0), frame.vector(1)
    dmats = [Dual(p.mats[0], rand_mat(rng))]
    dual_w = Tangent([Dual(w.comps[0], rand_mat(rng))])
    with pytest.raises(LiftFailed):
        form.evaluate(dmats, dual_w, v)


def test_two_chain_form_shape():
    site = sl2_two_group()
    form = two_chain_form(site, [(1.0, "a", "b"), (-1.0, "ab", "AB")])
    assert len(form.pair_terms) == 2
    assert form.pair_terms[0].coef == 0.5
    assert form.pair_terms[1].coef == -0.5


def test_section_bracket_and_value():
    site = sl2_two_group()
    model = site.model
    x = np.array([1.0, 0, 0])
    y = np.array([0, 1.0, 0])
    s1 = Section(0, "left", x)
    s2 = Section(0, "left", y)
    br = section_bracket(site, s1, s2)
    assert np.allclose(br.x, model.bracket_coeffs(x, y))
    assert section_bracket(site, s1, Section(1, "left", y)) is None
    rng = np.random.default_rng(6)
    p = random_point(site, rng)
    t = section_value(site, Section(1, "fund", x), p.mats)
    ref = fund_tangent(site, p, x, factors=[1])
    assert np.abs(t.comps[1] - ref.comps[1]).max() < 1e-12
    assert t.comps[0] is None
    assert np.allclose(t.lifts[1], x)


def test_exterior_d3_fd_oracle():
    """d(form) from the structured engine equals a finite-difference build."""
    site = sl2_two_group()
    form = FormField(site, pair_terms=[
        PairTerm(-0.5, parse_word(site, "a"), "omega", parse_word(site, "b"), "omegabar"),
        PairTerm(-0.5, parse_word(site, "a"), "omegabar", parse_word(site, "b"), "omega"),
    ])
    rng = np.random.default_rng(7)
    p = random_point(site, rng)
    secs = [Section(0, "left", np.array([1.0, 0, 0])),
            Section(0, "left", np.array([0, 1.0, 0])),
            Section(1, "left", np.array([0, 0, 1.0]))]
    exact = exterior_d3(site, form, p, *secs)

    def ev(mats, sa, sb):
        return form.evaluate(mats, section_value(site, sa, mats),
                             section_value(site, sb, mats))

    h = 1e-6

    def deriv(dsec, sa, sb):
        base = section_value(site, dsec, p.mats)
        plus = [q + h * (c if c is not None else 0) for q, c in zip(p.mats, base.comps)]
        minus = [q - h * (c if c is not None else 0) for q, c in zip(p.mats, base.comps)]
        return (ev(plus, sa, sb) - ev(minus, sa, sb)) / (2 * h)

    fd = deriv(secs[0], secs[1], secs[2]) - deriv(secs[1], secs[0], secs[2]) \
        + deriv(secs[2], secs[0], secs[1])
    b01 = section_bracket(site, secs[0], secs[1])
    fd -= ev(p.mats, b01, secs[2])
    assert abs(exact - fd) < 1e-7


def test_bivector_frame_matrix_antisymmetric():
    site = sl2_two_group()
    biv = Bivector(site, [(0.5, op_R(0), op_L(0)), (-0.5, op_L(0), op_R(0))])
    rng = np.random.default_rng(8)
    p = random_point(site, rng)
    pm = biv.frame_matrix(p)
    assert np.abs(pm + pm.T).max() < 1e-12
    # at the identity the left and right ops agree and eta is symmetric: zero
    ip = SitePoint(site, [np.eye(2), np.eye(2)])
    assert np.abs(biv.frame_matrix(ip)).max() < 1e-13


def _random_op(rng, nfac):
    """Random combination of one to three translation atoms."""
    picks = rng.choice(2 * nfac, size=int(rng.integers(1, 4)), replace=False)
    return tuple((complex(*rng.standard_normal(2)), "LR"[k % 2], int(k // 2))
                 for k in picks)


@pytest.mark.parametrize("seed", range(4))
def test_bivector_frame_matrix_matches_term_contraction(seed):
    """K-based frame matrix equals sum coef * C1 H C2^T over the given terms,
    antisymmetric or not, on a site with group and class factors."""
    model, pairing = models.sl2()
    site = Site(model, pairing, [Factor("group"), Factor("group"),
                                 Factor("class", np.diag([2.0, 0.5]))])
    rng = np.random.default_rng(seed)
    terms = [(complex(*rng.standard_normal(2)), _random_op(rng, site.nfac),
              _random_op(rng, site.nfac)) for _ in range(5)]
    p = random_point(site, rng)
    frame = p.frame()
    h = pairing.eta_upper

    def cols(op):
        return np.stack([frame.components(op_apply(op, p.mats, b))
                         for b in model.basis], axis=1)

    ref = sum(c * (cols(o1) @ h @ cols(o2).T) for c, o1, o2 in terms)
    got = Bivector(site, terms).frame_matrix(p)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


SURFACES = {
    "sl2-g1": (models.sl2, 1, []),
    "sl2-g2": (models.sl2, 2, []),
    "sl2-g3": (models.sl2, 3, []),
    "sl2-g1-2punct": (models.sl2, 1, [np.diag([2.0, 0.5]),
                                      np.diag([3.0, 1.0 / 3.0])]),
    "sl3-g1": (models.sl3, 1, []),
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_form_frame_matrix_matches_pairwise_evaluate(name):
    build, genus, reps = SURFACES[name]
    model, pairing = build()
    site, _, qh = assemble_surface_site(model, pairing, genus, reps)
    p = random_point(site, np.random.default_rng(13))
    frame = p.frame()
    vecs = frame.vectors()
    ref = np.zeros((frame.dim, frame.dim), dtype=complex)
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            ref[a, b] = qh.form.evaluate(p.mats, vecs[a], vecs[b])
            ref[b, a] = -ref[a, b]
    got = qh.form.frame_matrix(p, frame)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_bivector_storage_fixed_by_site():
    """Fusion updates the atom matrix in place of growing a term list."""
    model, pairing = models.sl2()
    for genus in (1, 2, 3):
        site, qp, _ = assemble_surface_site(model, pairing, genus, [])
        assert qp.bivector.kmat.shape == (2 * site.nfac, 2 * site.nfac)
        assert site.nfac == 2 * genus


def test_op_apply_and_fund():
    site = sl2_two_group()
    rng = np.random.default_rng(9)
    p = random_point(site, rng)
    x = rand_mat(rng)
    comps = op_apply(op_fund([0, 1]), p.mats, x)
    for i in range(2):
        assert np.abs(comps[i] - (p.mats[i] @ x - x @ p.mats[i])).max() < 1e-12


def test_bracket_funcs_against_componentwise():
    site = sl2_two_group()
    model = site.model
    terms = [(0.5, op_R(0), op_L(0)), (-0.5, op_L(0), op_R(0)),
             (0.25, op_L(1), op_R(0))]
    biv = Bivector(site, terms)
    rng = np.random.default_rng(10)
    p = random_point(site, rng)

    def f1(mats):
        return dtrace(word_eval(parse_word(site, "ab"), mats))

    def f2(mats):
        return dtrace(word_eval(parse_word(site, "aab"), mats))

    fast = bracket_funcs(biv, p, f1, f2)

    from qpois.groupgeom import dual_lift
    h = site.pairing.eta_upper
    slow = 0.0
    for coef, op1, op2 in terms:
        for j, bj in enumerate(model.basis):
            d1 = dual_lift(f1, p, Tangent(op_apply(op1, p.mats, bj)))
            for k, bk in enumerate(model.basis):
                if h[j, k] == 0:
                    continue
                d2 = dual_lift(f2, p, Tangent(op_apply(op2, p.mats, bk)))
                slow += coef * h[j, k] * d1 * d2
    # the function bracket pairs the tensor with both slot orders of df1, df2
    assert abs(fast - 2.0 * slow) < 1e-10


def test_jacobiator_against_finite_differences():
    site = sl2_two_group()
    model = site.model
    terms = [(0.5, op_R(0), op_L(1)), (-0.5, op_L(1), op_R(0))]
    biv = Bivector(site, terms)
    rng = np.random.default_rng(11)
    p = random_point(site, rng)

    words = [parse_word(site, w) for w in ("ab", "aB", "ba")]
    fns = [lambda mats, w=w: dtrace(word_eval(w, mats)) for w in words]

    exact = jacobiator(biv, p, *fns)

    h = site.pairing.eta_upper
    d = model.d
    step = 1e-6

    def bracket_at(mats, fa, fb):
        pt = SitePoint(site, mats)
        return bracket_funcs(biv, pt, fa, fb)

    def double(fa, fb, fc):
        dirs = []
        for _, op1, _ in terms:
            for bj in model.basis:
                dirs.append(op_apply(op1, p.mats, bj))
        dbr = []
        for comps in dirs:
            plus = [q + step * (c if c is not None else 0) for q, c in zip(p.mats, comps)]
            minus = [q - step * (c if c is not None else 0) for q, c in zip(p.mats, comps)]
            dbr.append((bracket_at(plus, fa, fb) - bracket_at(minus, fa, fb)) / (2 * step))
        from qpois.groupgeom import dual_lift
        val = 0.0
        for t_idx, (coef, _, op2) in enumerate(terms):
            for j in range(d):
                for k in range(d):
                    if h[j, k] == 0:
                        continue
                    d2 = dual_lift(fc, p, Tangent(op_apply(op2, p.mats, model.basis[k])))
                    val += coef * h[j, k] * dbr[t_idx * d + j] * d2
        # outer bracket layer carries the same both-orders pairing weight
        return 2.0 * val

    fd = (double(fns[0], fns[1], fns[2]) + double(fns[1], fns[2], fns[0])
          + double(fns[2], fns[0], fns[1]))
    assert abs(exact - fd) < 1e-4 * (1 + abs(exact))
