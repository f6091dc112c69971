"""The derivative paths that lift only what a function or word reads are bit
for bit the full-row paths they replace.

The Jacobiator lifts each function only on the atom rows of the factors it
reads, and a closure check's points are rows of one `exterior_d3`.  Each is
compared with `np.array_equal` against the construction it replaces,
written out here: the Jacobiator on every factor's atom rows, and
`exterior_d3` and the closure residuals one point at a time.  (The word
differentials per factor block are compared in `test_word_data_bits.py`.)
"""

import numpy as np
import pytest

import qpois.fields as fields
from qpois import models
from qpois.charvar import TraceFunction
from qpois.duals import Dual, dtrace, matmul
from qpois.errors import LiftFailed
from qpois.fields import (
    PAIR_WEIGHT,
    Section,
    eval_lambda,
    exterior_d3,
    jacobiator,
    section_bracket,
    section_value,
)
from qpois.groupgeom import parse_word, random_point, random_points, word_tangent
from qpois.quasi import (
    _TRIPLES,
    _random_sections,
    _worst,
    assemble_surface_site,
    cn1_residual,
    quasi_closed_residual,
)

SITES = {
    "sl2-g2": (models.sl2, 2, []),
    "sl2-g1-2punct": (models.sl2, 1, [np.diag([2.0, 0.5]),
                                      np.diag([3.0, 1.0 / 3.0])]),
    "sl3-g1": (lambda: models.model_from_config({"family": "SL", "n": 3}), 1, []),
    "sl2ab-g3": (models.sl2_abelian, 3, []),
    # a central class: its frame has no vectors (k_f = 0)
    "sl2-g1-central": (models.sl2, 1, [-np.eye(2)]),
}
BY_SITE = pytest.mark.parametrize("name", sorted(SITES))


def _site(name):
    build, genus, reps = SITES[name]
    model, pairing = build()
    return assemble_surface_site(model, pairing, genus, reps)


# ---------------------------------------------------------------------------
# the Jacobiator on every factor's atom rows
# ---------------------------------------------------------------------------

def _full_atom_dirs(site, f, x):
    """op_alpha(e_j) on factor f over every factor's atom rows."""
    basis = site.model.basis
    d = len(basis)
    basis = basis.reshape((d,) + (1,) * (np.ndim(x) - 2) + basis.shape[1:])
    out = np.zeros((2 * site.nfac * d,) + np.shape(x), dtype=complex)
    out[2 * f * d:(2 * f + 1) * d] = matmul(x, basis)
    out[(2 * f + 1) * d:(2 * f + 2) * d] = matmul(basis, x)
    return out


def _full_hessian(site, mats, fn):
    """(g, W) from one nested-dual evaluation at every factor lifted on all
    atom rows."""
    nrows = 2 * site.nfac * site.model.d
    lifted = []
    for f, q in enumerate(mats):
        e = _full_atom_dirs(site, f, q)
        lifted.append(Dual(Dual(q, e), Dual(e[:, None], _full_atom_dirs(site, f, e))))
    out = fn(lifted)
    if not isinstance(out, Dual):
        return np.zeros(nrows, dtype=complex), np.zeros((nrows, nrows), dtype=complex)
    return (np.broadcast_to(np.asarray(out.eps.re), (nrows, 1))[:, 0].copy(),
            np.broadcast_to(np.asarray(out.eps.eps), (nrows, nrows)).copy())


def _full_jacobiator(biv, point, *fns):
    m = biv.atom_tensor
    grads, mixed = zip(*(_full_hessian(biv.site, point.mats, fn) for fn in fns))
    total = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        d_inner = mixed[a].T @ m @ grads[b] + mixed[b].T @ m.T @ grads[a]
        total = total + d_inner @ m @ grads[c]
    return PAIR_WEIGHT * PAIR_WEIGHT * total


def _random_fn(site, rng):
    """A trace function of a random word with inverse letters, a coordinate
    function of one factor, or a function that iterates over every factor."""
    kind = int(rng.integers(3))
    if kind == 0:
        word = tuple((int(rng.integers(site.nfac)), int(rng.choice([1, -1])))
                     for _ in range(int(rng.integers(1, 5))))
        return TraceFunction(site, word)
    n = site.model.n
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == 1:
        i = int(rng.integers(site.nfac))
        return lambda mats: dtrace(c @ mats[i])
    return lambda mats: sum(dtrace(c @ q) for q in mats)


@BY_SITE
def test_jacobiator_equals_the_full_atom_lift(name):
    site, qp, _ = _site(name)
    rng = np.random.default_rng(41)
    for point in random_points(site, rng, 6):
        fns = [_random_fn(site, rng) for _ in range(3)]
        for fn in fns:
            got = fields._atom_hessian(site, point.mats, fn)
            ref = _full_hessian(site, point.mats, fn)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert np.array_equal(jacobiator(qp.bivector, point, *fns),
                              _full_jacobiator(qp.bivector, point, *fns))


def test_only_the_read_factors_are_lifted():
    site, qp, _ = _site("sl2ab-g3")
    point = random_point(site, np.random.default_rng(42))
    shapes = []

    def fn(mats):
        q = mats[4]
        if isinstance(q, Dual):         # the lifted evaluation, not the probe
            shapes.append(np.shape(q.eps.eps))
        return dtrace(q @ mats[1])

    grad, mixed = fields._atom_hessian(site, point.mats, fn)
    # the atom rows of factors 1 and 4 only, 2d each
    d, n = site.model.d, site.model.n
    assert shapes == [(4 * d, 4 * d, n, n)]
    rows = np.r_[2 * d:4 * d, 8 * d:10 * d]
    assert np.abs(grad[rows]).min() > 0
    assert not np.delete(grad, rows).any()
    assert not np.delete(np.delete(mixed, rows, 0), rows, 1).any()


def test_a_factor_read_only_by_the_lifted_evaluation_raises():
    """A function whose reads change with its input is refused, not
    differentiated with a factor silently held constant."""
    site, qp, _ = _site("sl2-g2")
    point = random_point(site, np.random.default_rng(43))

    def fn(mats):
        q = mats[0]
        return dtrace(q @ mats[2]) if isinstance(q, Dual) else dtrace(q)

    with pytest.raises(LiftFailed, match="factor 2"):
        jacobiator(qp.bivector, point, fn, fn, fn)


# ---------------------------------------------------------------------------
# exterior_d3 and the closure residuals one point at a time
# ---------------------------------------------------------------------------

def _point_exterior_d3(site, form, point, triples):
    """d(form) on the triples at one point: one Dual evaluation over its
    derivative terms and one plain evaluation over its bracket terms."""
    derivs = [term for s1, s2, s3 in triples
              for term in ((s1, s2, s3), (s2, s1, s3), (s3, s1, s2))]
    dsecs, firsts, seconds = ([term[i] for term in derivs] for i in range(3))
    base = section_value(site, dsecs, point.mats)
    mats = [q if v is None else Dual(q, v) for q, v in zip(point.mats, base.comps)]
    out = form.evaluate(mats, section_value(site, firsts, mats),
                        section_value(site, seconds, mats))
    d = np.broadcast_to(out.eps if isinstance(out, Dual) else 0.0,
                        (len(derivs),)).reshape(-1, 3)
    total = np.array(d[:, 0] - d[:, 1] + d[:, 2], dtype=complex)
    brackets = []
    for t, (s1, s2, s3) in enumerate(triples):
        for sign, sa, sb, other in ((-1, s1, s2, s3), (1, s1, s3, s2),
                                    (-1, s2, s3, s1)):
            br = section_bracket(site, sa, sb)
            if br is not None:
                brackets.append((t, sign, br, other))
    if brackets:
        rows, signs, brs, others = zip(*brackets)
        vals = np.broadcast_to(form.evaluate(
            point.mats, section_value(site, brs, point.mats),
            section_value(site, others, point.mats)), (len(brackets),))
        np.add.at(total, list(rows), np.where(np.array(signs) < 0, -vals, vals))
    return total


def _point_closure_residual(site, form, pullbacks, points, seed):
    """The closure residual one point at a time, each point's triples drawn
    just before it is evaluated."""
    model = site.model
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for point in points:
        drawn = [_random_sections(site, rng) for _ in range(_TRIPLES)]
        lhs = _point_exterior_d3(site, form, point, drawn)
        ts = section_value(site, [s for t in drawn for s in t], point.mats)
        rhs = 0.0
        for coef, word in pullbacks:
            dv = np.broadcast_to(word_tangent(word, point.letters(word), ts),
                                 (3 * _TRIPLES, model.n, model.n))
            rhs = rhs + coef * eval_lambda(model, site.pairing,
                                           point.word_value(word)[1],
                                           dv[0::3], dv[1::3], dv[2::3])
        worst = _worst(worst, lhs - rhs)
    return worst


def _points(site, rng):
    """Three points of one batch and one of another."""
    return random_points(site, rng, 3) + [random_point(site, rng)]


def _triples(site, rng, count):
    return [[Section(int(f), "left" if site.factors[f].kind == "group" else "fund",
                     rng.standard_normal(site.model.d)
                     + 1j * rng.standard_normal(site.model.d))
             for f in rng.integers(site.nfac, size=3)] for _ in range(count)]


@BY_SITE
def test_exterior_d3_on_rows_equals_one_call_per_point(name):
    site, _, qh = _site(name)
    rng = np.random.default_rng(44)
    points = _points(site, rng)
    per_point = [_triples(site, rng, 5) for _ in points]
    got = exterior_d3(site, qh.form,
                      np.repeat(np.stack([p.mats for p in points]), 5, axis=0),
                      [t for triples in per_point for t in triples])
    ref = np.concatenate([_point_exterior_d3(site, qh.form, p, triples)
                          for p, triples in zip(points, per_point)])
    assert np.array_equal(got, ref)


def test_a_word_no_tangent_moves_has_a_zero_of_the_letters_shape():
    site, _, _ = _site("sl2ab-g3")
    point = random_point(site, np.random.default_rng(46))
    word = parse_word(site, "aB")
    letters = [np.repeat(t[None], 5, axis=0) for t in point.letters(word)]
    zero = word_tangent(word, letters, [None] * site.nfac)
    assert zero.shape == (5, site.model.n, site.model.n) and not zero.any()


@BY_SITE
def test_closure_residuals_equal_one_point_at_a_time(name):
    site, _, qh = _site(name)
    rng = np.random.default_rng(45)
    words = [(1.0, comp.word) for comp in qh.momentum]
    wa, wb, wab = (parse_word(site, w) for w in ("a", "b", "ab"))
    mixed = fields.FormField(site, pair_terms=[fields.PairTerm(0.5, wa, wb)])
    for seed in range(3):
        points = _points(site, rng)
        assert quasi_closed_residual(qh, points, seed=seed) == \
            _point_closure_residual(site, qh.form, words, points, seed)
        # one point: on a site of six factors the 12 sections can all miss
        # a pullback word's letters
        for pts in (points, points[:1]):
            assert cn1_residual(site, pts, seed=seed) == _point_closure_residual(
                site, mixed, [(1.0, wa), (1.0, wb), (-1.0, wab)], pts, seed)
