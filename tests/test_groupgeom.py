import numpy as np
import pytest

from qpois import models
from qpois.duals import Dual, dinv, value
from qpois.errors import BadSignature, LiftFailed, NotTangent
from qpois.fields import op_apply, op_fund
from qpois.groupgeom import (
    Factor,
    PointBatch,
    Site,
    Tangent,
    class_tangent_frame,
    parse_word,
    random_point,
    site_frame,
    word_eval,
    _letters,
    word_tangent,
)

from dual_reference import dual_lift


def sl2_site(factors):
    model, pairing = models.sl2()
    return Site(model, pairing, factors)


def two_group_site():
    return sl2_site([Factor("group"), Factor("group")])


def test_parse_word():
    site = two_group_site()
    w = parse_word(site, "a b A B")
    assert w == ((0, 1), (1, 1), (0, -1), (1, -1))
    with pytest.raises(BadSignature):
        parse_word(site, "c")


def test_word_eval_commutator():
    site = two_group_site()
    rng = np.random.default_rng(0)
    p = random_point(site, rng)
    a, b = p.mats
    w = parse_word(site, "abAB")
    out = word_eval(w, p.mats)
    expect = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    assert np.abs(out - expect).max() < 1e-12
    empty = word_eval((), p.mats)
    assert np.allclose(empty, np.eye(2))


def _cmat(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def test_word_tangent_matches_dual():
    """word_tangent performs the recurrence of a Dual evaluation of
    word_eval, bit for bit: at plain factors against a first-order Dual
    evaluation, and at Dual-perturbed factors (moved by u) against a nested
    one, whose perturbation part is the mixed second derivative.  Inputs:
    the commutator on two factors, and words of 8 and 10 letters with
    inverse letters on three factors, where u moves a and b and the tangent
    v moves b and c."""
    rng = np.random.default_rng(1)
    zero = np.zeros((2, 2), dtype=complex)
    for text, by_u, by_v in (("abAB", "ab", "ab"), ("abCaBcAb", "ab", "bc"),
                             ("cAbbCaBacA", "ab", "bc")):
        nfac = 2 if text == "abAB" else 3
        site = sl2_site([Factor("group")] * nfac)
        p = random_point(site, rng)
        w = parse_word(site, text)
        u = [_cmat(rng) if site.letter(f) in by_u else zero for f in range(nfac)]
        v = [_cmat(rng) if site.letter(f) in by_v else None for f in range(nfac)]
        vz = [zero if c is None else c for c in v]
        first = word_eval(w, [Dual(q, c) for q, c in zip(p.mats, vz)]).eps
        plain = _letters(w, p.mats, p.inverses())
        assert np.array_equal(word_tangent(w, plain, [Tangent(v)], None)[-1][1],
                              first), text
        moved = [Dual(q, a) for q, a in zip(p.mats, u)]
        letters = [moved[f] if e == 1 else dinv(moved[f]) for f, e in w]
        direct = word_tangent(w, letters, [Tangent(v)], None)[-1][1]
        nested = word_eval(w, [Dual(Dual(q, a), Dual(c, zero))
                               for q, a, c in zip(p.mats, u, vz)]).eps
        assert np.array_equal(direct.re, nested.re), text
        assert np.array_equal(direct.eps, nested.eps), text


def test_word_tangent_product_rule_fd():
    site = two_group_site()
    rng = np.random.default_rng(2)
    p = random_point(site, rng)
    w = parse_word(site, "aBa")
    v = Tangent([rng.standard_normal((2, 2)), None])
    t = 1e-7
    shifted = [p.mats[0] + t * v.comps[0], p.mats[1]]
    fd = (word_eval(w, shifted) - word_eval(w, p.mats)) / t
    letters = _letters(w, p.mats, p.inverses())
    assert np.abs(word_tangent(w, letters, [v], None)[-1][1] - fd).max() < 1e-5


def test_fund_tangent_example():
    site = sl2_site([Factor("group")])
    q = np.diag([2.0, 0.5]).astype(complex)
    p = PointBatch(site, [[q]]).points()[0]
    e = site.model.from_coeffs(np.array([0.0, 1.0, 0.0]))
    out = op_apply(op_fund(site, [0]), p.mats, e)
    assert np.allclose(out[0], [[0.0, 1.5], [0.0, 0.0]])


def test_fund_central_factor_zero():
    model, pairing = models.sl2_abelian()
    site = Site(model, pairing, [Factor("group")])
    rng = np.random.default_rng(4)
    p = random_point(site, rng)
    central = model.from_coeffs(np.array([0.0, 0, 0, 1.0]))
    out = op_apply(op_fund(site, [0]), p.mats, central)
    assert np.abs(out[0]).max() < 1e-12


def test_class_frame_regular_and_unipotent():
    """Frames of a regular, a unipotent and a central (zero-dimensional)
    class, sized by the rank of the conjugation map at the rep."""
    model, pairing = models.sl2()
    for q, dim in ((np.diag([2.0, 0.5]).astype(complex), 2),
                   (np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), 2),
                   (np.eye(2, dtype=complex), 0)):
        assert Site(model, pairing, [Factor("class", q)]).class_dims == {0: dim}
        vecs, lifts = class_tangent_frame(model, q, dim)
        assert len(vecs) == len(lifts) == dim
        for v, x in zip(vecs, lifts):
            rebuilt = q @ model.from_coeffs(x) - model.from_coeffs(x) @ q
            assert np.abs(rebuilt - v).max() < 1e-10


def test_site_frame_components_roundtrip():
    model, pairing = models.sl2()
    rep = np.diag([2.0, 0.5]).astype(complex)
    site = Site(model, pairing, [Factor("group"), Factor("class", rep)])
    rng = np.random.default_rng(5)
    p = random_point(site, rng)
    frame = site_frame(site, p)
    assert frame.dim == 5  # 3 group + 2 class
    rng2 = np.random.default_rng(6)
    coeffs = rng2.standard_normal(frame.dim) + 1j * rng2.standard_normal(frame.dim)
    t = np.tensordot(coeffs, frame.stacked, axes=(0, 1))
    assert t.shape == (site.nfac, 2, 2)
    back = frame.components(t)
    assert np.abs(back - coeffs).max() < 1e-10


def test_random_point_contracts():
    site = two_group_site()
    rng = np.random.default_rng(7)
    p = random_point(site, rng)
    for m in p.mats:
        assert abs(np.linalg.det(m) - 1) < 1e-12

    model, pairing = models.sl2()
    rep = np.diag([2.0, 0.5]).astype(complex)
    csite = Site(model, pairing, [Factor("class", rep)])
    p = random_point(csite, np.random.default_rng(8))
    ev = sorted(np.linalg.eigvals(p.mats[0]).real)
    assert np.allclose(ev, [0.5, 2.0], atol=1e-10)
    # determinism
    p2 = random_point(csite, np.random.default_rng(8))
    assert np.abs(p.mats[0] - p2.mats[0]).max() == 0.0


def test_dual_lift_trace():
    site = two_group_site()
    rng = np.random.default_rng(10)
    p = random_point(site, rng)
    v = Tangent([rng.standard_normal((2, 2)).astype(complex), None])

    def f(mats):
        from qpois.duals import dtrace
        return dtrace(mats[0])

    assert abs(dual_lift(f, p, v) - np.trace(v.comps[0])) < 1e-12
