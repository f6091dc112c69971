"""Sites (products of group and conjugacy-class factors), points, words, frames.

A site fixes the algebra model, the pairing, and an ordered list of factors.
Factor i is addressed by the letter chr(ord('a')+i) in word strings; uppercase
means inverse.  A point carries its factor matrices as one read-only
(nfac, n, n) array.  All tangent data is "ambient": one n-by-n matrix per
factor (None = zero).  A frame holds per factor an array of its k_f frame
vectors, (k_f, n, n), their algebra lifts on class factors, (k_f, d), and
the slice of its rows in the frame; a central class has k_f = 0, and its
empty arrays pass through every frame computation.

Points come in batches.  A `PointBatch` holds S points of one site as one
read-only (S, nfac, n, n) stack; a run draws its points with
`random_points`, in the order of S `random_point` calls and in batches of at
most _BATCH_POINTS, so memory does not grow with the sample count (the
relator solver's chunks share that cap); their factor exponentials are one
stack of `liealg.random_group_elements`.  Data that depends only on a point
is built once per batch: a memo miss at any point builds the entry for every
point of the batch at once, from (S, ...) stacks, and the batch keeps it.  A
`SitePoint` holds only its batch and its index, and keeps per key its slice
of each entry, a view of the batch's stack; the batch never refers back to
its points.  Every point comes from a batch (`PointBatch.points`): a run's
drawn points, which every check that reads drawn points shares, the
conjugated points of the equivariance check and the solved rows of a
relator-solver chunk are each one batch, and `random_point`, library
shorthand that no command calls, is a batch of one.
The relator solver starts a chunk's rows from `seeded_factors`: per seed
the factors of `random_point` at that seed's generator, every seed's draw
a row of one exponential, and no batch.  Stacked products and inversions give
each slice the bits of the one-point computation, so a point's data does
not depend on its batch.
`SitePoint.memo` hands the arrays out read-only.  Besides the frame, each
tensor's frame matrix and each momentum component's linearization, it keeps
the factor inverses, one batched inversion that every inverse letter, the
frame's coefficient extractors and the 2-form's class terms read, and four
entries per word, keyed by the word and built on first request:

- the value g and its inverse, and Ad_g and Ad_g^-1 (no frame);
- g with its derivative along every frame vector, zero on the rows of the
  factors the word does not read, and from it the trivialized
  differentials L, R, formed on the rows of the word's factors only.

One recurrence differentiates every word outside the relator solver:
`word_tangent` carries the running product W and, per tangent, its
derivative D, D <- D t + W dt, from a given start state through the
letters once, and hands out (W, D, ...) at every prefix.  One `Words` store
per set of factor matrices keeps the letters, the inverses and every swept
prefix's state, and continues a word from its longest swept prefix, so no
prefix's letter is stepped twice along one tangent, whatever the order of
requests; a batch keeps one over its (S, 1, n, n) stacks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .duals import dinv, matmul, value
from .errors import BadSignature, LiftFailed
from .liealg import (
    _rank,
    adjoint_matrix,
    random_group_elements,
    seeded_group_elements,
)

__all__ = [
    "Factor",
    "Site",
    "SitePoint",
    "Tangent",
    "TangentFrame",
    "parse_word",
    "word_eval",
    "word_tangent",
    "class_tangent_frame",
    "site_frame",
    "random_point",
    "random_points",
    "seeded_factors",
    "PointBatch",
    "Words",
]


@dataclass
class Factor:
    kind: str                      # "group" | "class"
    class_rep: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("group", "class"):
            raise BadSignature(f"unknown factor kind {self.kind!r}")
        if self.kind == "class":
            if self.class_rep is None:
                raise BadSignature("class factor needs a representative")
            self.class_rep = np.asarray(self.class_rep, dtype=complex)


class Site:
    def __init__(self, model, pairing, factors):
        if len(factors) > 26:
            raise BadSignature("at most 26 factors (one letter each)")
        self.model = model
        self.pairing = pairing
        self.factors = list(factors)
        self.nfac = len(self.factors)
        # one diagonal block, traceless
        self.sl_like = model.traceless_blocks == [slice(0, model.n)]
        # a class is the orbit of its representative, so its dimension, the
        # size of its frame at every point, is the rank of the conjugation
        # map at the representative: 0 for a central one
        self.class_dims = {
            i: _rank(np.linalg.svd(_conjugation_map(model, f.class_rep),
                                   compute_uv=False))
            for i, f in enumerate(self.factors) if f.kind == "class"}

    def letter(self, i):
        return chr(ord("a") + i)

    def spell(self, word):
        """The word as text: each factor's letter, upper case for its
        inverse (`parse_word` reads it back)."""
        return "".join(self.letter(f) if p == 1 else self.letter(f).upper()
                       for f, p in word)

    def class_indices(self):
        return [i for i, f in enumerate(self.factors) if f.kind == "class"]


class _Entries:
    """The entries of a point's data that `PointBatch` and `SitePoint`
    share: through `memo`, each is built for the whole batch on its first
    request; a batch returns the (S, ...) stacks, a point its slice."""

    def inverses(self):
        """(nfac, n, n): every factor's inverse, from one batched inversion
        over the batch's (S, nfac, n, n) stack."""
        return self.memo("inverses", lambda batch: np.linalg.inv(batch.mats))

    def word_value(self, word):
        """(g, g^-1): the word's value at the point and its inverse, both
        read from the batch's `Words`."""
        return self.memo(("value", word), lambda batch: _word_value(batch, word))

    def word_ad(self, word):
        """(Ad_g, Ad_g^-1) for g the word's value; Ad_g reads the g^-1 of
        `word_value`."""
        return self.memo(("ad", word), lambda batch: _word_ad(batch, word))

    def word_differentials(self, word):
        """(L, R): the (frame.dim, d) algebra coefficients of g^-1 dW(v_a) and
        dW(v_a) g^-1 over the frame vectors v_a, dW from the batch's sweep of
        the word along every factor of it; zero on the rows of the other
        factors.  NotInSpan when a row leaves the algebra."""
        return self.memo(("differentials", word),
                         lambda batch: _word_differentials(batch, word))

    def word_derivative(self, word):
        """(g, dg): a non-empty word's value and its (frame.dim, n, n)
        derivative along every frame vector, from the batch's sweep."""
        return self.memo(("derivative", word),
                         lambda batch: _word_derivative(batch, word))


def _frame(batch):
    return site_frame(batch.site, batch)


class PointBatch(_Entries):
    """Points of one site as one read-only (S, nfac, n, n) stack, whose data
    is built for all S points at once and kept here as (S, ...) stacks.

    The batch never refers to its points, so no reference cycle forms.
    """

    def __init__(self, site, mats):
        self.site = site
        self.mats = np.array(mats, dtype=complex)      # (S, nfac, n, n)
        self.mats.setflags(write=False)
        self._memo = {}

    def points(self):
        return [SitePoint(self, i) for i in range(len(self.mats))]

    def memo(self, key, build):
        """build(batch), computed on the first request for key and kept; an
        array result, or each array of a tuple result, is read-only."""
        if key not in self._memo:
            out = build(self)
            for arr in out if isinstance(out, tuple) else (out,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            self._memo[key] = out
        return self._memo[key]

    def frame(self):
        return self.memo("frame", _frame)

    def words(self):
        """The batch's `Words` over its (S, 1, n, n) stacks; no batch in it."""
        return self.memo("words", lambda batch: Words(
            batch.mats.swapaxes(0, 1)[:, :, None],
            batch.inverses().swapaxes(0, 1)[:, :, None]))


class SitePoint(_Entries):
    """One point: its factor matrices, a read-only (nfac, n, n) array, and
    its index in the batch that builds its data (`PointBatch.points`)."""

    def __init__(self, batch, index):
        self.site = batch.site
        self.mats = batch.mats[index]
        self._batch, self._index = batch, index
        self._memo = {}         # key -> this point's slice of the entry

    def memo(self, key, build):
        """This point's slice of the batch's entry for key, which build(batch)
        makes for every point of the batch at once (`PointBatch.memo`); a
        slice is a view of the batch's stack, so entries that hold one stack,
        such as a word's differentials in a component's linearization, share
        its memory at the point too."""
        if key not in self._memo:
            self._memo[key] = self._slice(self._batch.memo(key, build))
        return self._memo[key]

    def _slice(self, entry):
        if isinstance(entry, np.ndarray):
            return entry[self._index]
        if isinstance(entry, tuple):
            parts = [self._slice(part) for part in entry]
            return entry._make(parts) if hasattr(entry, "_make") else tuple(parts)
        return entry.at(self._index)

    def frame(self):
        return self.memo("frame", _frame)


@dataclass
class Tangent:
    """Ambient tangent: one matrix (or None) per factor, plus known class lifts."""

    comps: list
    lifts: dict = field(default_factory=dict)   # factor index -> coeff vector


def parse_word(site, text):
    """Word string over factor letters; uppercase letters are inverses."""
    word = []
    for ch in text.replace(" ", ""):
        lower = ch.lower()
        idx = ord(lower) - ord("a")
        if not (0 <= idx < site.nfac):
            raise BadSignature(f"letter {ch!r} outside this site")
        word.append((idx, 1 if ch == lower else -1))
    return tuple(word)


def word_eval(word, mats):
    """Evaluate a word at per-factor matrices (Dual-transparent); each
    factor read inverted is inverted once."""
    if not word:
        # empty word: identity of the right size
        return np.eye(value(mats[0]).shape[-1], dtype=complex)
    return reduce(operator.matmul, _letters(word, mats, _Inverses(mats)))


def word_tangent(word, letters, tangents, start):
    """The value of a non-empty word and its derivatives in the directions of
    several ambient tangents at once, at every prefix of the word, from the
    word's letters as matrices (a factor, or its inverse), which the caller
    holds, so nothing is inverted here.

    A tangent may be a Tangent, a plain list or an (nfac, ...) array; None
    components contribute zero.  One pass over the letters carries the
    running product W, once for all tangents, and per tangent its derivative
    D: a letter t with derivative dt, which is -t v t for an inverse letter,
    gives D <- D t + W dt, the recurrence a Dual evaluation of word_eval
    performs.  Every product is a `duals.matmul`, so a stack of directions
    times a letter is one GEMM per batch row.  Dual-transparent.

    Returns per prefix, shortest first, its state (W, D_1, ..., D_m), where
    a derivative is None while no component has moved a letter; the sweep
    continues start, the state of the prefix the word follows (None: none).
    """
    comps = [t.comps if isinstance(t, Tangent) else t for t in tangents]
    prod, *outs = start or (None,) * (len(comps) + 1)
    states = []
    for (f, p), t in zip(word, letters):
        for i, comp in enumerate(comps):
            out, v = outs[i], comp[f]
            if out is not None:
                out = matmul(out, t)
            if v is not None:
                dt = v if p == 1 else -matmul(matmul(t, v), t)
                piece = dt if prod is None else matmul(prod, dt)
                out = piece if out is None else piece + out
            outs[i] = out
        prod = t if prod is None else matmul(prod, t)
        states.append((prod, *outs))
    return states


class _Inverses(dict):
    """Factor index -> the factor's inverse at the given (possibly Dual)
    factor matrices, from one dinv on its first request."""

    def __init__(self, mats):
        super().__init__()
        self.mats = mats

    def __missing__(self, f):
        self[f] = inv = dinv(self.mats[f])
        return inv


def _letters(word, mats, inverses):
    """The word's letters as matrices: a factor's, or its given inverse."""
    return [mats[f] if p == 1 else inverses[f] for f, p in word]


class Words:
    """Words in per-factor matrices (plain or Dual, any leading axes): their
    letters, the factor inverses (given, or None: one dinv per factor read
    inverted), each word value's inverse and every swept prefix's state.  A
    word continues the sweep of its longest swept prefix, in any order of
    requests; a tangent key that the prefix's state lacks enters as None, so
    a store sweeps every word along the same keys, or (a batch) each word
    along key f, a tangent that moves factor f only, per factor f of it."""

    def __init__(self, mats, inverses):
        self.mats = mats
        self.inverses = _Inverses(mats) if inverses is None else inverses
        self._inverted = {}         # word -> the inverse of its value
        self._states = {}           # swept prefix -> (W, {key: D})
        self._zero = np.zeros(np.shape(value(mats[0])), dtype=complex)

    def letters(self, word):
        return _letters(word, self.mats, self.inverses)

    def _longest_swept(self, word):
        """(k, state) of the longest swept prefix, of k letters, or (0, None)."""
        for k in range(len(word), 0, -1):
            state = self._states.get(word[:k])
            if state is not None:
                return k, state
        return 0, None

    def sweep(self, word, tangents):
        """(W, {key: D}): a non-empty word's value W and its derivative D
        along each tangent of the dict tangents, None while no component has
        moved a letter."""
        state = self._states.get(word)
        if state is None:
            k, state = self._longest_swept(word)
            start = state and (state[0], *map(state[1].get, tangents))
            for j, (prod, *derivs) in enumerate(word_tangent(
                    word[k:], self.letters(word[k:]), list(tangents.values()),
                    start), k + 1):
                self._states[word[:j]] = (prod, dict(zip(tangents, derivs)))
            state = self._states[word]
        return state

    def derivative(self, word, tangents, key):
        """The word's derivative along tangents[key], or a zero of the
        letters' shape where no component has moved a letter."""
        out = self.sweep(word, tangents)[1][key]
        return self._zero if out is None else out

    def value(self, word):
        """A non-empty word's value, the running product of its longest
        swept prefix folded on through the remaining letters."""
        k, state = self._longest_swept(word)
        prod = state and state[0]
        for t in self.letters(word[k:]):
            prod = t if prod is None else matmul(prod, t)
        return prod

    def inverse(self, word):
        """The inverse of a non-empty word's value, inverted once; a
        one-letter word with a positive letter reads its factor's."""
        if word not in self._inverted:
            (f, p), *rest = word
            self._inverted[word] = (self.inverses[f] if p == 1 and not rest
                                    else dinv(self.value(word)))
        return self._inverted[word]


def _word_value(batch, word):
    if not word:
        n = batch.site.model.n
        eye = np.broadcast_to(np.eye(n, dtype=complex), (len(batch.mats), n, n))
        return eye, eye
    words = batch.words()
    return words.value(word)[:, 0], words.inverse(word)[:, 0]


def _word_ad(batch, word):
    g, gi = batch.word_value(word)
    model = batch.site.model
    # the inverse of g^-1 is recomputed, not read as g: keeps the last bits
    return (adjoint_matrix(model, g, gi),
            adjoint_matrix(model, gi, np.linalg.inv(gi)))


def _word_differentials(batch, word):
    frame, model = batch.frame(), batch.site.model
    left = np.zeros((len(batch.mats), frame.dim, model.d), dtype=complex)
    right = np.zeros_like(left)
    if not word:
        return left, right
    # the rows of the word's factors; every other row is zero
    rows = np.r_[tuple(frame.rows[f] for f in sorted({f for f, _ in word}))]
    dv = batch.word_derivative(word)[1][:, rows]
    gi = batch.words().inverse(word)
    left[:, rows] = model.coeffs(gi @ dv)
    right[:, rows] = model.coeffs(matmul(dv, gi))
    return left, right


def _word_derivative(batch, word):
    """(g, dg) from the batch's sweep along key f, f's frame vectors, per f."""
    frame, nfac = batch.frame(), batch.site.nfac
    factors = sorted({f for f, _ in word})
    prod, derivs = batch.words().sweep(word, {
        f: [frame.per_factor[f] if g == f else None for g in range(nfac)]
        for f in factors})
    dv = np.zeros((len(prod), frame.dim) + prod.shape[2:], dtype=complex)
    for f in factors:
        dv[:, frame.rows[f]] = derivs[f]
    return prod[:, 0], dv


def _conjugation_map(model, q):
    """(..., n^2, d): the columns qX - Xq over the basis elements X, at q
    with any leading axes."""
    q = q[..., None, :, :]
    mat = q @ model.basis - model.basis @ q
    return np.swapaxes(mat.reshape(mat.shape[:-2] + (-1,)), -1, -2)


def class_tangent_frame(model, q, r):
    """Orthonormal ambient basis of {qX - Xq}, the class of dimension r
    through q, with algebra lifts; q may carry leading axes, which the
    results keep.

    Returns (vectors, lifts): vectors is the (r, n, n) array of the leading
    left singular vectors of the conjugation map at q, and lifts the (r, d)
    array of matching coefficient vectors X (least-squares, one valid
    choice), from one batched SVD and a least-squares solve per q.
    """
    fmat = _conjugation_map(model, q)
    u = np.linalg.svd(fmat, full_matrices=False)[0][..., :r]
    lift_mat = np.empty(fmat.shape[:-2] + (model.d, r), dtype=complex)
    for idx in np.ndindex(fmat.shape[:-2]):
        lift_mat[idx] = np.linalg.lstsq(fmat[idx], u[idx], rcond=None)[0]
        resid = np.linalg.norm(fmat[idx] @ lift_mat[idx] - u[idx], axis=0)
        if np.any(resid > 1e-8):
            raise LiftFailed(f"no algebra lift for frame vector "
                             f"(residual {resid.max():.3e})")
    vecs = np.swapaxes(u, -1, -2).reshape(u.shape[:-2] + (r, model.n, model.n))
    return vecs, np.swapaxes(lift_mat, -1, -2)


class TangentFrame:
    """Concatenated frame over all factors with coefficient extraction, at
    one point or, with a leading point axis on every array, at every point
    of a batch (`at` gives one point's).

    Group factors use the left-trivialized frame q e_i; class factors the
    orthonormalized image of the conjugation map, with lifts recorded.
    """

    def __init__(self, site, per_factor, lifts, extract, stacked):
        self.site = site
        self.per_factor = per_factor    # per factor a (k_f, n, n) array
        self.lifts = lifts              # per factor a (k_f, d) array, None on groups
        # per factor its coefficient extractor, rows acting on vec'd ambient
        # tangents
        self._extract = extract
        # all frame vectors as one batched tangent, (nfac, dim, n, n): factor
        # f's entry is zero on the rows of the other factors' vectors
        self.stacked = stacked
        self.rows = []                  # per factor its slice of frame rows
        off = 0
        for vecs in per_factor:
            self.rows.append(slice(off, off + vecs.shape[-3]))
            off += vecs.shape[-3]
        self.dim = off

    def at(self, i):
        """The frame at point i of a batch's frame."""
        return TangentFrame(self.site, [vecs[i] for vecs in self.per_factor],
                            [None if lf is None else lf[i] for lf in self.lifts],
                            [ex[i] for ex in self._extract], self.stacked[i])

    def components(self, tangent):
        """Frame components of an ambient tangent (list, array or Tangent).

        Factor matrices may carry leading batch axes, the same on every
        factor; the result keeps them, shape (..., dim).  On a batch's frame
        the first of them is the point axis.
        """
        comps = tangent.comps if isinstance(tangent, Tangent) else tangent
        batch = next((np.shape(v)[:-2] for v in comps if v is not None), ())
        npoint = self.stacked.ndim - 4
        out = np.zeros(batch + (self.dim,), dtype=complex)
        for v, extract, rows in zip(comps, self._extract, self.rows):
            if v is None:
                continue
            v = np.asarray(v, dtype=complex)
            flat = v.reshape(v.shape[:-2] + (-1,))
            extract = extract.reshape(extract.shape[:npoint]
                                      + (1,) * (len(batch) - npoint)
                                      + extract.shape[npoint:])
            out[..., rows] += (extract @ flat[..., None])[..., 0]
        return out


def site_frame(site, points):
    """The frame at a SitePoint, or at every point of a PointBatch, from its
    factor matrices and inverses."""
    model, mats = site.model, points.mats
    n = model.n
    per_factor, lifts, extract = [], [], []
    for i, (fac, qi) in enumerate(zip(site.factors,
                                      np.moveaxis(points.inverses(), -3, 0))):
        q = mats[..., i, :, :]
        if fac.kind == "group":
            vecs = q[..., None, :, :] @ model.basis
            lifts.append(None)
            # v -> coeffs(q^-1 v)
            extract.append(model.basis_pinv @ np.kron(qi, np.eye(n)))
        else:
            vecs, lf = class_tangent_frame(model, q, site.class_dims[i])
            lifts.append(lf)
            # the conjugate frame vectors
            extract.append(vecs.reshape(vecs.shape[:-2] + (n * n,)).conj())
        per_factor.append(vecs)
    dim = sum(vecs.shape[-3] for vecs in per_factor)
    stacked = np.zeros(mats.shape[:-3] + (site.nfac, dim, n, n), dtype=complex)
    off = 0
    for f, vecs in enumerate(per_factor):
        stacked[..., f, off:off + vecs.shape[-3], :, :] = vecs
        off += vecs.shape[-3]
    return TangentFrame(site, per_factor, lifts, extract, stacked)


def _retract(site, q):
    if site.sl_like:
        n = site.model.n
        return q / np.power(np.linalg.det(q), 1.0 / n)[..., None, None]
    return q


_BATCH_POINTS = 64          # points per batch: memory does not grow with samples


def _site_factors(site, g):
    """(S, nfac, n, n) factor matrices from (S, nfac, n, n) group elements:
    each group factor retracted, each class factor its representative
    conjugated, from one inversion of the class factors' stack."""
    cls = site.class_indices()
    g_inv = dict(zip(cls, np.linalg.inv(g[:, cls]).swapaxes(0, 1))) if cls else {}
    return np.stack([_retract(site, g[:, i]) if fac.kind == "group"
                     else g[:, i] @ fac.class_rep @ g_inv[i]
                     for i, fac in enumerate(site.factors)], axis=1)


def random_points(site, rng, count):
    """count random site points, in batches of at most _BATCH_POINTS: the
    draws and values of count `random_point` calls, in order."""
    mats = _site_factors(site, random_group_elements(site.model, rng,
                                                     (count, site.nfac)))
    return [point for start in range(0, count, _BATCH_POINTS)
            for point in PointBatch(site, mats[start:start + _BATCH_POINTS]).points()]


def seeded_factors(site, seeds):
    """(len(seeds), nfac, n, n): per seed, the factor matrices of
    random_point(site, np.random.default_rng(seed)), every seed's draw a
    row of one exponential, one retraction and one conjugation."""
    return _site_factors(site, seeded_group_elements(site.model, seeds,
                                                     (site.nfac,)))


def random_point(site, rng):
    """Random site point: exponentials over group factors, conjugated reps on
    class factors; SL-like models are retracted by a principal determinant
    root.  A batch of one (`random_points`)."""
    return random_points(site, rng, 1)[0]
