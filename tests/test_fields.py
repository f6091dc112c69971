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
    wedge,
)
from qpois.groupgeom import (
    Factor,
    PointBatch,
    Site,
    Tangent,
    parse_word,
    random_point,
    word_eval,
)
from qpois.quasi import assemble_surface_site

from site_reference import frame_vector, frame_vectors, fund_tangent


def rand_mat(rng, n=2):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def sl2_two_group():
    model, pairing = models.sl2()
    return Site(model, pairing, [Factor("group"), Factor("group")])


def term_kmat(terms):
    """The atom matrix sum c * outer(op1, op2) of (c, op1, op2) terms."""
    return sum(c * np.outer(o1, o2) for c, o1, o2 in terms)


def test_eval_lambda_sl2_oracle():
    # hand value: sum of the three cyclic bracket pairings is 2+2+2 = 6,
    # normalized by 1/6
    model, pairing = models.sl2()
    h, e, f = model.basis
    val = eval_lambda(model, pairing, np.eye(2, dtype=complex), h, e, f)
    assert abs(val - 1.0) < 1e-12


def test_eval_lambda_abelian_zero():
    model, pairing = models.model_from_config({"family": "abelian", "n": 2})
    rng = np.random.default_rng(0)
    g = np.diag([2.0, 3.0]).astype(complex)
    vals = [g @ model.from_coeffs(rng.standard_normal(2)) for _ in range(3)]
    assert abs(eval_lambda(model, pairing, np.linalg.inv(g), *vals)) < 1e-14


def test_eval_lambda_alternating():
    model, pairing = models.sl2()
    rng = np.random.default_rng(1)
    g = np.eye(2) + 0.3 * rand_mat(rng)
    v = [g @ model.from_coeffs(rng.standard_normal(3) + 1j * rng.standard_normal(3))
         for _ in range(3)]
    gi = np.linalg.inv(g)
    a = eval_lambda(model, pairing, gi, v[0], v[1], v[2])
    b = eval_lambda(model, pairing, gi, v[1], v[0], v[2])
    c = eval_lambda(model, pairing, gi, v[1], v[2], v[0])
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
        PairTerm(-0.5, parse_word(site, "a"), parse_word(site, "b")),
        # -1/2 (omegabar_a . omega_b), written as a pullback of (omega . omegabar)
        PairTerm(0.5, parse_word(site, "b"), parse_word(site, "a")),
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
    v = frame_vector(frame, 0)
    w = frame_vector(frame, 1)
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
    v, w = frame_vector(frame, 0), frame_vector(frame, 1)
    dmats = [Dual(p.mats[0], rand_mat(rng))]
    dual_w = Tangent([Dual(w.comps[0], rand_mat(rng))])
    with pytest.raises(LiftFailed):
        form.evaluate(dmats, dual_w, v)
    # a plain tangent without its lift is refused too
    with pytest.raises(LiftFailed):
        form.evaluate(p.mats, Tangent(v.comps), w)


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
    t = section_value(site, [Section(1, "fund", x)], p.mats)
    ref = fund_tangent(site, p, x, factors=[1])
    assert np.abs(t.comps[1][0] - ref.comps[1]).max() < 1e-12
    assert t.comps[0] is None
    assert np.allclose(t.lifts[1][0], x)


def test_exterior_d3_fd_oracle():
    """d(form) from the structured engine equals a finite-difference build."""
    site = sl2_two_group()
    form = FormField(site, pair_terms=[
        PairTerm(-0.5, parse_word(site, "a"), parse_word(site, "b")),
        # -1/2 (omegabar_a . omega_b), written as a pullback of (omega . omegabar)
        PairTerm(0.5, parse_word(site, "b"), parse_word(site, "a")),
    ])
    rng = np.random.default_rng(7)
    p = random_point(site, rng)
    secs = [Section(0, "left", np.array([1.0, 0, 0])),
            Section(0, "left", np.array([0, 1.0, 0])),
            Section(1, "left", np.array([0, 0, 1.0]))]
    exact = exterior_d3(site, form, p.mats[None], [[secs]])[0]

    def ev(mats, sa, sb):
        return form.evaluate(mats, section_value(site, [sa], mats),
                             section_value(site, [sb], mats))[0]

    h = 1e-6

    def deriv(dsec, sa, sb):
        base = section_value(site, [dsec], p.mats)
        plus = [q + h * (c[0] if c is not None else 0) for q, c in zip(p.mats, base.comps)]
        minus = [q - h * (c[0] if c is not None else 0) for q, c in zip(p.mats, base.comps)]
        return (ev(plus, sa, sb) - ev(minus, sa, sb)) / (2 * h)

    fd = deriv(secs[0], secs[1], secs[2]) - deriv(secs[1], secs[0], secs[2]) \
        + deriv(secs[2], secs[0], secs[1])
    b01 = section_bracket(site, secs[0], secs[1])
    fd -= ev(p.mats, b01, secs[2])
    assert abs(exact - fd) < 1e-7


def test_bivector_frame_matrix_antisymmetric():
    site = sl2_two_group()
    biv = Bivector(site, wedge(op_R(site, 0), op_L(site, 0)))
    rng = np.random.default_rng(8)
    p = random_point(site, rng)
    pm = biv.frame_matrix(p)
    assert np.abs(pm + pm.T).max() < 1e-12
    # at the identity the left and right ops agree and eta is symmetric: zero
    ip = PointBatch(site, [[np.eye(2), np.eye(2)]]).points()[0]
    assert np.abs(biv.frame_matrix(ip)).max() < 1e-13


def _random_op(rng, nfac):
    """Random complex combination of one to three translation atoms."""
    op = np.zeros(2 * nfac, dtype=complex)
    for k in rng.choice(2 * nfac, size=int(rng.integers(1, 4)), replace=False):
        op[k] = complex(*rng.standard_normal(2))
    return op


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
    got = Bivector(site, term_kmat(terms)).frame_matrix(p)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


SURFACES = {
    "sl2-g1": (models.sl2, 1, []),
    "sl2-g2": (models.sl2, 2, []),
    "sl2-g3": (models.sl2, 3, []),
    "sl2-g1-2punct": (models.sl2, 1, [np.diag([2.0, 0.5]),
                                      np.diag([3.0, 1.0 / 3.0])]),
    "sl3-g1": (lambda: models.model_from_config({"family": "SL", "n": 3}),
               1, []),
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_form_frame_matrix_matches_pairwise_evaluate(name):
    build, genus, reps = SURFACES[name]
    model, pairing = build()
    site, _, qh = assemble_surface_site(model, pairing, genus, reps)
    p = random_point(site, np.random.default_rng(13))
    frame = p.frame()
    vecs = frame_vectors(frame)
    ref = np.zeros((frame.dim, frame.dim), dtype=complex)
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            ref[a, b] = qh.form.evaluate(p.mats, vecs[a], vecs[b])
            ref[b, a] = -ref[a, b]
    got = qh.form.frame_matrix(p)
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
    comps = op_apply(op_fund(site, [0, 1]), p.mats, x)
    for i in range(2):
        assert np.abs(comps[i] - (p.mats[i] @ x - x @ p.mats[i])).max() < 1e-12


def test_bracket_funcs_against_componentwise():
    site = sl2_two_group()
    model = site.model
    terms = [(0.5, op_R(site, 0), op_L(site, 0)), (-0.5, op_L(site, 0), op_R(site, 0)),
             (0.25, op_L(site, 1), op_R(site, 0))]
    biv = Bivector(site, term_kmat(terms))
    rng = np.random.default_rng(10)
    p = random_point(site, rng)

    def f1(mats):
        return dtrace(word_eval(parse_word(site, "ab"), mats))

    def f2(mats):
        return dtrace(word_eval(parse_word(site, "aab"), mats))

    fast = bracket_funcs(biv, p, f1, f2)

    from dual_reference import dual_lift
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


def test_bracket_funcs_on_class_factors_matches_ambient_reference():
    # the shipped two-puncture bivector is tangent to the classes, so the
    # frame bracket equals the ambient one over every atom direction
    model, pairing = models.sl2()
    reps = [np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])]
    site, qp, _ = assemble_surface_site(model, pairing, 1, reps)
    biv = qp.bivector
    p = random_point(site, np.random.default_rng(12))

    def f1(mats):
        return dtrace(word_eval(parse_word(site, "abc"), mats))

    def f2(mats):
        return dtrace(word_eval(parse_word(site, "cAd"), mats))

    fast = bracket_funcs(biv, p, f1, f2)

    from dual_reference import dual_lift

    def atom_grad(fn):
        out = []
        for f in range(site.nfac):
            for atom in (op_L, op_R):
                out += [dual_lift(fn, p, Tangent(op_apply(atom(site, f), p.mats, b)))
                        for b in model.basis]
        return np.array(out)

    slow = atom_grad(f1) @ np.kron(biv.kmat, pairing.eta_upper) @ atom_grad(f2)
    assert abs(fast) > 1e-3
    assert abs(fast - 2.0 * slow) <= 1e-12 * abs(fast)


def test_jacobiator_against_finite_differences():
    site = sl2_two_group()
    model = site.model
    terms = [(0.5, op_R(site, 0), op_L(site, 1)), (-0.5, op_L(site, 1), op_R(site, 0))]
    biv = Bivector(site, term_kmat(terms))
    rng = np.random.default_rng(11)
    p = random_point(site, rng)

    words = [parse_word(site, w) for w in ("ab", "aB", "ba")]
    fns = [lambda mats, w=w: dtrace(word_eval(w, mats)) for w in words]

    exact = jacobiator(biv, p, *fns)

    h = site.pairing.eta_upper
    d = model.d
    step = 1e-6

    def bracket_at(mats, fa, fb):
        pt = PointBatch(site, [mats]).points()[0]
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
        from dual_reference import dual_lift
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


JACOBIATOR_SITES = {
    "sl2ab-g3": ((models.sl2_abelian, 3, []), ("aB", "cdE", "Fa")),
    "sl2-g1-2punct": (SURFACES["sl2-g1-2punct"], ("aB", "bcA", "dab")),
    "sl3-g1": (SURFACES["sl3-g1"], ("aB", "ab", "bA")),
}


@pytest.mark.parametrize("name", sorted(JACOBIATOR_SITES))
def test_jacobiator_matches_per_slice_products(name, monkeypatch):
    """The Jacobiator with its two-axis Dual products folded into GEMMs
    agrees with the same evaluation made slice by slice by np.matmul."""
    import qpois.duals
    import qpois.fields

    (build, genus, reps), words = JACOBIATOR_SITES[name]
    model, pairing = build()
    site, qp, _ = assemble_surface_site(model, pairing, genus, reps)
    rng = np.random.default_rng(31)
    p = random_point(site, rng)
    n = model.n
    # words with inverse letters, behind a plain matrix (not invariant)
    fns = [lambda mats, w=parse_word(site, w), c=rand_mat(rng, n):
           dtrace(c @ word_eval(w, mats)) for w in words]
    folded = jacobiator(qp.bivector, p, *fns)
    for module in (qpois.duals, qpois.fields):
        monkeypatch.setattr(module, "matmul", lambda a, b: a @ b)
    per_slice = jacobiator(qp.bivector, p, *fns)
    assert abs(per_slice) > 1e-3
    assert abs(folded - per_slice) <= 1e-13 * abs(per_slice)


# ---------------------------------------------------------------------------
# batched 2-form probes against one probe per call
# ---------------------------------------------------------------------------

BATCH_SITES = {
    "sl2-g2": (models.sl2, 2, []),
    "sl2-g1-2punct": SURFACES["sl2-g1-2punct"],
    "sl2ab-g3": (models.sl2_abelian, 3, []),
}


def _batch_setup(name, seed):
    build, genus, reps = BATCH_SITES[name]
    model, pairing = build()
    site, _, qh = assemble_surface_site(model, pairing, genus, reps)
    rng = np.random.default_rng(seed)
    return site, qh.form, random_point(site, rng), rng


def _section(site, rng, f):
    """Random constant section on factor f: left-invariant on a group factor,
    a conjugation direction on a class factor."""
    kind = "left" if site.factors[f].kind == "group" else "fund"
    return Section(f, kind, rng.standard_normal(site.model.d)
                   + 1j * rng.standard_normal(site.model.d))


def _spread_sections(site, rng, count):
    """count sections over every factor, in random order."""
    factors = rng.permutation([k % site.nfac for k in range(count)])
    return [_section(site, rng, int(f)) for f in factors]


def _dual_mats(site, mats, rng, count):
    """Dual factor matrices whose batch entry k moves every factor along its
    own random direction."""
    n = site.model.n
    return [Dual(q, rng.standard_normal((count, n, n))
                 + 1j * rng.standard_normal((count, n, n))) for q in mats]


@pytest.mark.parametrize("name", sorted(BATCH_SITES))
def test_batched_evaluate_matches_unbatched_plain(name):
    site, form, p, rng = _batch_setup(name, 21)
    count = 2 * site.nfac + 1
    s1, s2 = _spread_sections(site, rng, count), _spread_sections(site, rng, count)
    got = form.evaluate(p.mats, section_value(site, s1, p.mats),
                        section_value(site, s2, p.mats))
    ref = [form.evaluate(p.mats, section_value(site, [a], p.mats),
                         section_value(site, [b], p.mats))[0] for a, b in zip(s1, s2)]
    assert got.shape == (count,)
    assert np.abs(ref).max() > 1e-3
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name", sorted(BATCH_SITES))
def test_batched_evaluate_matches_unbatched_dual(name):
    site, form, p, rng = _batch_setup(name, 22)
    count = 2 * site.nfac + 1
    s1, s2 = _spread_sections(site, rng, count), _spread_sections(site, rng, count)
    dmats = _dual_mats(site, p.mats, rng, count)
    got = form.evaluate(dmats, section_value(site, s1, dmats),
                        section_value(site, s2, dmats))
    assert got.re.shape == got.eps.shape == (count,)
    for k in range(count):
        mats = [Dual(q.re, q.eps[k]) for q in dmats]
        one = form.evaluate(mats, section_value(site, [s1[k]], mats),
                            section_value(site, [s2[k]], mats))
        np.testing.assert_allclose(got.re[k], one.re, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(got.eps[k], one.eps, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name", sorted(BATCH_SITES))
def test_exterior_d3_on_triples_matches_one_call_per_triple(name):
    site, form, p, rng = _batch_setup(name, 23)
    last = site.nfac - 1
    picks = [rng.integers(site.nfac, size=3) for _ in range(4)]
    # two triples on one factor each, so that every bracket term is present
    picks += [[0, 0, 0], [last, last, 0]]
    triples = [[_section(site, rng, int(f)) for f in fs] for fs in picks]
    got = exterior_d3(site, form, p.mats[None], [triples])
    ref = [exterior_d3(site, form, p.mats[None], [[t]])[0] for t in triples]
    assert got.shape == (len(triples),)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)


def test_batched_tau_requires_lift_on_dual():
    site, form, p, rng = _batch_setup("sl2-g1-2punct", 24)
    f = site.class_indices()[0]
    secs = [_section(site, rng, f), _section(site, rng, f)]
    dmats = _dual_mats(site, p.mats, rng, 2)
    lifted = section_value(site, secs, dmats)
    assert f in lifted.lifts
    bare = Tangent(lifted.comps)
    with pytest.raises(LiftFailed):
        form.evaluate(dmats, bare, lifted)


def test_exterior_d3_fd_oracle_with_class_factors():
    """The finite-difference build on the two-puncture site's 2-form, with
    conjugation sections on the class factors (tau terms and brackets)."""
    site, form, p, rng = _batch_setup("sl2-g1-2punct", 25)
    assert form.tau_terms and site.class_indices() == [2, 3]
    picks = [[2, 2, 3], [0, 2, 2], [1, 3, 0], [3, 3, 3], [0, 0, 2]]
    triples = [[_section(site, rng, f) for f in fs] for fs in picks]
    exact = exterior_d3(site, form, p.mats[None], [triples])

    def ev(mats, sa, sb):
        return form.evaluate(mats, section_value(site, [sa], mats),
                             section_value(site, [sb], mats))[0]

    h = 1e-6

    def deriv(dsec, sa, sb):
        base = section_value(site, [dsec], p.mats)
        plus = [q + h * (c[0] if c is not None else 0) for q, c in zip(p.mats, base.comps)]
        minus = [q - h * (c[0] if c is not None else 0) for q, c in zip(p.mats, base.comps)]
        return (ev(plus, sa, sb) - ev(minus, sa, sb)) / (2 * h)

    for value, (s1, s2, s3) in zip(exact, triples):
        fd = deriv(s1, s2, s3) - deriv(s2, s1, s3) + deriv(s3, s1, s2)
        for sign, sa, sb, other in ((-1, s1, s2, s3), (1, s1, s3, s2), (-1, s2, s3, s1)):
            br = section_bracket(site, sa, sb)
            if br is not None:
                fd += sign * ev(p.mats, br, other)
        assert abs(value - fd) < 1e-7 * (1 + abs(fd))
