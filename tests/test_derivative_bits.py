"""The derivative paths that lift only what a function or word reads, or
fold a stack into one GEMM per row, are bit for bit the paths they replace.

`duals.matmul` folds a stack into the rows of one GEMM per batch row when
the right factor is one matrix per row, and leaves a shared left factor to
``np.matmul``.  The Jacobiator lifts each function only on the atom rows of
the factors it reads.  A batch, and a form's evaluation, sweep each word
from its longest swept prefix, in whatever order the words are asked for,
and the Poisson-ideal check and the differential of a trace function read
the word from its batch's sweep.  A closure check's points and their
triples are the (point, row) stacks of one `exterior_d3`.  Each is compared
with `np.array_equal` against the construction it replaces, written out
here: ``np.matmul``, the Jacobiator on every factor's atom rows, one plain
recurrence per word and factor (or tangent), a Dual evaluation of the
relator or the function per point, and `exterior_d3` and the closure
residuals one point at a time.
"""

from functools import reduce

import numpy as np
import pytest

import qpois.fields as fields
import qpois.groupgeom as groupgeom
from qpois import models
from qpois.charvar import TraceFunction, poisson_ideal_residual
from qpois.duals import Dual, apply_linear, dtrace, matmul
from qpois.errors import LiftFailed
from qpois.fields import (
    PAIR_WEIGHT,
    eval_lambda,
    exterior_d3,
    jacobiator,
    section_value,
)
from qpois.groupgeom import (
    Words,
    parse_word,
    random_point,
    random_points,
    word_eval,
    word_tangent,
)
from qpois.quasi import relator_word
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


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# row folds keep the bits of np.matmul; a shared left factor is not folded
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 6))
def test_row_folds_keep_the_bits_of_matmul(n):
    """(S, R, n, k) @ (S, 1, k, m), (..., n, k) @ (k, m) and their one-axis
    forms, on plain arrays and on the parts of Dual products whose value is
    one matrix per row and whose perturbation is one per (row, R) entry."""
    rng = np.random.default_rng(50 + n)
    for s in (1, 8, 64):
        for r in (1, 2, 3, 17, 128):
            a, b = _rand(rng, s, r, n, n + 1), _rand(rng, s, 1, n + 1, n - 1)
            one = _rand(rng, n + 1, n - 1)
            for x, y in ((a, b), (a, one), (a[0], one), (a[0], b[0])):
                assert np.array_equal(matmul(x, y), np.matmul(x, y)), (s, r)
            x = Dual(_rand(rng, s, 1, n, n), _rand(rng, s, r, n, n))
            y = Dual(_rand(rng, s, 1, n, n), _rand(rng, s, r, n, n))
            z = x @ y
            assert np.array_equal(z.re, np.matmul(x.re, y.re))
            assert np.array_equal(z.eps, np.matmul(x.re, y.eps)
                                  + np.matmul(x.eps, y.re)), (s, r)


def test_a_shared_left_factor_is_not_folded():
    """(S, 1, n, k) @ (S, R, k, m) is np.matmul.  Laying the R matrices side
    by side in the columns of one GEMM per row would round differently."""
    rng = np.random.default_rng(55)
    column_fold_differs = 0
    for n in range(2, 6):
        for r in (8, 64, 128):
            a, b = _rand(rng, 8, 1, n, n), _rand(rng, 8, r, n, n)
            ref = np.matmul(a, b)
            assert np.array_equal(matmul(a, b), ref)
            cols = a[:, 0] @ np.moveaxis(b, 1, -2).reshape(8, n, r * n)
            cols = cols.reshape(8, n, r, n).swapaxes(1, 2)
            column_fold_differs += not np.array_equal(cols, ref)
    assert column_fold_differs


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
# words swept in any order, each prefix's letter once per tangent
# ---------------------------------------------------------------------------

def _plain_word_tangent(word, letters, comps):
    """The derivative of a word along one tangent, with a plain ``@`` for
    every product; None where no component moves a letter."""
    prod = out = None
    for (f, p), t in zip(word, letters):
        v = comps[f]
        if out is not None:
            out = out @ t
        if v is not None:
            dt = v if p == 1 else -(t @ v @ t)
            piece = dt if prod is None else prod @ dt
            out = piece if out is None else piece + out
        prod = t if prod is None else prod @ t
    return out


def _plain_inverse(word, mats, g):
    """A positive letter's inverse, or the word value inverted."""
    (f, p), *rest = word
    return np.linalg.inv(mats[f] if p == 1 and not rest else g)


def _per_factor_differentials(batch, word):
    """(g, L, R) of a word at a batch, from its own letters: one plain
    recurrence per factor of the word, along that factor's frame vectors,
    over every frame row."""
    frame, model = batch.frame(), batch.site.model
    mats = batch.mats.swapaxes(0, 1)
    letters = [mats[f] if p == 1 else np.linalg.inv(mats[f]) for f, p in word]
    g = reduce(np.matmul, letters)
    gi = _plain_inverse(word, mats, g)[:, None]
    dv = np.zeros((len(batch.mats), frame.dim, model.n, model.n), dtype=complex)
    for f in sorted({f for f, _ in word}):
        comps = [None] * batch.site.nfac
        comps[f] = frame.per_factor[f]
        dv[:, frame.rows[f]] = _plain_word_tangent(
            word, [t[:, None] for t in letters], comps)
    return g, model.coeffs(gi @ dv), model.coeffs(dv @ gi)


def _prefixes(words):
    return {w[:k] for w in words for k in range(1, len(w) + 1)}


def _counting_steps(monkeypatch):
    """Wraps `groupgeom.word_tangent`; the returned list counts each
    letter step that moves a derivative, one per prefix and tangent whose
    derivative is set there."""
    steps = [0]

    def counted(word, letters, tangents, start):
        states = word_tangent(word, letters, tangents, start)
        steps[0] += sum(d is not None for _, *derivs in states for d in derivs)
        return states

    monkeypatch.setattr(groupgeom, "word_tangent", counted)
    return steps


def _orders(words):
    """The words longest first, shortest first and in a fixed shuffle."""
    ordered = sorted(words, key=lambda w: (len(w), w))
    shuffled = [ordered[i] for i in np.random.default_rng(48).permutation(
        len(ordered))]
    return {"longest": ordered[::-1], "shortest": ordered, "shuffled": shuffled}


def _sweep_words(site, qh, genus, npunct):
    """The 2-form's words, the momentum words, every prefix of the relator,
    and, on three or more factors, ab and abc: abc adds a factor to the
    sweep of ab."""
    relator = relator_word(site, genus, npunct)
    words = ({w for t in qh.form.pair_terms for w in (t.word_u, t.word_v)}
             | {c.word for c in qh.momentum}
             | {relator[:k] for k in range(1, len(relator) + 1)})
    if site.nfac >= 3:
        words |= {parse_word(site, "ab"), parse_word(site, "abc")}
    return words


@BY_SITE
def test_chain_sweeps_equal_one_recurrence_per_word_and_factor(name,
                                                               monkeypatch):
    """Asked for longest first, shortest first or shuffled, at a fresh batch
    each time, the words step the letter of each prefix once along each
    factor it reads, and each word's value and differentials keep the bits
    of its own plain recurrences."""
    site, _, qh = _site(name)
    build, genus, reps = SITES[name]
    words = _sweep_words(site, qh, genus, len(reps))
    for order, asked in _orders(words).items():
        steps = _counting_steps(monkeypatch)
        batch = random_points(site, np.random.default_rng(47), 5)[0]._batch
        for w in asked:
            batch.word_differentials(w)
        monkeypatch.undo()
        assert steps[0] == sum(len({f for f, _ in p})
                               for p in _prefixes(words)), order
        for w in words:
            g, left, right = _per_factor_differentials(batch, w)
            assert np.array_equal(batch.word_value(w)[0], g), (order, w)
            got = batch.word_differentials(w)
            assert np.array_equal(got[0], left), (order, w)
            assert np.array_equal(got[1], right), (order, w)


def _plain_evaluate(form, mats, t1, t2):
    """The form on two tangents at plain factor matrices, each word from its
    own plain recurrence along each tangent."""
    site = form.site
    model, smat = site.model, site.pairing.eta_lower

    def theta(word, side, tangent):
        letters = [mats[f] if p == 1 else np.linalg.inv(mats[f]) for f, p in word]
        g = reduce(np.matmul, letters)
        gi = _plain_inverse(word, mats, g)
        dv = _plain_word_tangent(word, letters, tangent.comps)
        if dv is None:
            dv = np.zeros_like(g)
        m = gi @ dv if side == 0 else dv @ gi
        return apply_linear(model.basis_pinv, m)

    total = 0.0
    for term in form.pair_terms:
        a1, b2 = theta(term.word_u, 0, t1), theta(term.word_v, 1, t2)
        a2, b1 = theta(term.word_u, 0, t2), theta(term.word_v, 1, t1)
        total = total + term.coef * (fields.dual_vdot(smat, a1, b2)
                                     - fields.dual_vdot(smat, a2, b1))
    inverses = {f: np.linalg.inv(q) for f, q in enumerate(mats)}
    for term in form.tau_terms:
        total = total + term.coef * form._tau_value(term.factor, inverses, t1, t2)
    return total


@BY_SITE
@pytest.mark.parametrize("order", ["longest", "shortest", "shuffled"])
def test_form_evaluation_in_any_order_equals_plain_recurrences(name, order,
                                                               monkeypatch):
    """With its terms reordered so that it asks for its words longest first,
    shortest first or shuffled, one evaluation steps the letter of each
    prefix once along each tangent that moves it, and its value keeps the
    bits of one plain recurrence per word and tangent.  The sections miss
    some factors, so some derivatives are zero."""
    site, _, qh = _site(name)
    rng = np.random.default_rng(49)
    point = random_point(site, rng)
    first, second = (section_value(site, fac[0, :, i], x[0, :, i], point.mats)
                     for fac, x in [_triples(site, rng, 1, 4)] for i in (0, 1))
    rank = {w: k for k, w in enumerate(_orders(
        {w for t in qh.form.pair_terms for w in (t.word_u, t.word_v)})[order])}
    form = fields.FormField(site, sorted(qh.form.pair_terms,
                                         key=lambda t: rank[t.word_u]),
                            qh.form.tau_terms)
    words = {w for t in form.pair_terms for w in (t.word_u, t.word_v)}
    steps = _counting_steps(monkeypatch)
    got = form.evaluate(point.mats, first, second)
    monkeypatch.undo()
    assert steps[0] == sum(any(t.comps[f] is not None for f, _ in p)
                           for p in _prefixes(words) for t in (first, second))
    assert np.array_equal(got, _plain_evaluate(form, point.mats, first, second))


def _dual_differential(point, fn):
    """df from one Dual evaluation of fn along every frame vector: the path
    of a function that has no `word`."""
    return fields.differential(point, lambda mats: fn(mats))


@BY_SITE
def test_trace_differentials_read_the_batch_sweep_bit_for_bit(name):
    """d tr(W) = tr(dW) from the sweep of the point's batch, for the
    relator, two of its segments, an inverse letter, a non-reduced word and
    a commutator, at points of two batches, with the words asked for in
    two orders; the empty word takes the Dual path, and gives zero."""
    site, _, _ = _site(name)
    build, genus, reps = SITES[name]
    relator = relator_word(site, genus, len(reps))
    words = [relator, relator[:3], relator[2:], ((0, -1),), ((0, 1), (0, -1)),
             ((1, 1), (0, 1), (1, -1), (0, -1)), ()]
    rng = np.random.default_rng(51)
    for order in (words, words[::-1]):
        for point in _points(site, rng):
            for word in order:
                fn = TraceFunction(site, word)
                got = fields.differential(point, fn)
                assert got.shape == (point.frame().dim,)
                assert np.array_equal(got, _dual_differential(point, fn)), word
                assert word or not got.any()


def _dual_poisson_ideal(biv, word, f, points):
    """The Poisson-ideal residual from a Dual evaluation of the word, and
    of f, at each point along every frame vector."""
    resid = []
    for pt in points:
        pmat, df = biv.frame_matrix(pt), _dual_differential(pt, f)
        w = word_eval(word, [Dual(q, v) for q, v in zip(pt.mats, pt.frame().stacked)])
        power = w
        for m in range(biv.site.model.n):
            if m:
                power = power @ w
            resid.append(abs(PAIR_WEIGHT * (df @ pmat @ dtrace(power).eps)))
    return float(np.max(resid, initial=0.0))


@BY_SITE
def test_poisson_ideal_reads_the_batch_sweep_bit_for_bit(name):
    """At points of two batches, off the level set so that the brackets are
    not zero, and with the relator's prefixes swept before."""
    site, qp, _ = _site(name)
    build, genus, reps = SITES[name]
    relator = relator_word(site, genus, len(reps))
    rng = np.random.default_rng(50)
    points = _points(site, rng)
    points[0].word_differentials(relator[:2])
    fn = TraceFunction(site, relator[:3])
    got = poisson_ideal_residual(qp.bivector, relator, fn, points)
    assert got > 0
    assert got == _dual_poisson_ideal(qp.bivector, relator, fn, points)


# ---------------------------------------------------------------------------
# exterior_d3 and the closure residuals one point at a time
# ---------------------------------------------------------------------------

def _point_exterior_d3(site, form, point, fac, x):
    """d(form) on the (T, 3) triples at one point: one Dual evaluation over
    its derivative terms and one plain evaluation over its bracket terms,
    the brackets of the sections that share a factor."""
    triples = [list(zip(f, xs)) for f, xs in zip(fac, x)]
    derivs = [term for s1, s2, s3 in triples
              for term in ((s1, s2, s3), (s2, s1, s3), (s3, s1, s2))]
    dsecs, firsts, seconds = ([term[i] for term in derivs] for i in range(3))
    base = _value(site, dsecs, point.mats)
    mats = [q if v is None else Dual(q, v) for q, v in zip(point.mats, base.comps)]
    out = form.evaluate(mats, _value(site, firsts, mats),
                        _value(site, seconds, mats))
    d = np.broadcast_to(out.eps if isinstance(out, Dual) else 0.0,
                        (len(derivs),)).reshape(-1, 3)
    total = np.array(d[:, 0] - d[:, 1] + d[:, 2], dtype=complex)
    brackets = []
    for t, (s1, s2, s3) in enumerate(triples):
        for sign, sa, sb, other in ((-1, s1, s2, s3), (1, s1, s3, s2),
                                    (-1, s2, s3, s1)):
            if sa[0] == sb[0]:
                br = (sa[0], site.model.bracket_coeffs(sa[1], sb[1]))
                brackets.append((t, sign, br, other))
    if brackets:
        rows, signs, brs, others = zip(*brackets)
        vals = np.broadcast_to(form.evaluate(
            point.mats, _value(site, brs, point.mats),
            _value(site, others, point.mats)), (len(brackets),))
        np.add.at(total, list(rows), np.where(np.array(signs) < 0, -vals, vals))
    return total


def _value(site, secs, mats):
    """`section_value` of a list of (factor, coefficients) sections."""
    return section_value(site, np.array([f for f, _ in secs]),
                         np.array([x for _, x in secs]), mats)


def _point_closure_residual(site, form, pullbacks, points, seed):
    """The closure residual one point at a time, each point's triples drawn
    just before it is evaluated."""
    model = site.model
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for point in points:
        fac, x = _random_sections(site, rng, (_TRIPLES, 3))
        lhs = _point_exterior_d3(site, form, point, fac, x)
        ts = section_value(site, fac.ravel(), x.reshape(-1, model.d), point.mats)
        rhs = 0.0
        for coef, word in pullbacks:
            dv = word_tangent(word, groupgeom._letters(
                word, point.mats, point.inverses()), [ts], None)[-1][1]
            # None: no section moves a letter of the word
            dv = np.broadcast_to(0.0 if dv is None else dv,
                                 (3 * _TRIPLES, model.n, model.n))
            rhs = rhs + coef * eval_lambda(model, site.pairing,
                                           point.word_value(word)[1],
                                           dv[0::3], dv[1::3], dv[2::3])
        worst = _worst(worst, lhs - rhs)
    return worst


def _points(site, rng):
    """Three points of one batch and one of another."""
    return random_points(site, rng, 3) + [random_point(site, rng)]


def _triples(site, rng, npts, count):
    """count random triples at each of npts points, as `exterior_d3`'s
    (npts, count, 3) factor indices and (npts, count, 3, d) coefficients."""
    d = site.model.d
    fac = rng.integers(site.nfac, size=(npts, count, 3))
    x = (rng.standard_normal((npts, count, 3, d))
         + 1j * rng.standard_normal((npts, count, 3, d)))
    return fac, x


@BY_SITE
def test_exterior_d3_on_rows_equals_one_call_per_point(name):
    site, _, qh = _site(name)
    rng = np.random.default_rng(44)
    points = _points(site, rng)
    fac, x = _triples(site, rng, len(points), 5)
    got = exterior_d3(site, qh.form, np.stack([p.mats for p in points]), fac, x)
    ref = np.concatenate([_point_exterior_d3(site, qh.form, p, f, xs)
                          for p, f, xs in zip(points, fac, x)])
    assert np.array_equal(got, ref)


def test_a_word_no_tangent_moves_has_a_zero_of_the_letters_shape():
    site, _, _ = _site("sl2ab-g3")
    point = random_point(site, np.random.default_rng(46))
    word = parse_word(site, "aB")
    words = Words(np.repeat(point.mats[:, None], 5, axis=1), None)
    tangents = {0: [None] * site.nfac}
    assert words.sweep(word, tangents)[1][0] is None
    zero = words.derivative(word, tangents, 0)
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
