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
read-only (S, nfac, n, n) stack; a check draws its points with
`random_points`, in the order of S `random_point` calls and in batches of at
most _BATCH_POINTS, so memory does not grow with the sample count (the
relator solver's chunks share that cap); their factor exponentials are one
stack of `liealg.random_group_elements`.  Data that depends only on a point
is built once per batch: a memo miss at any point builds the entry for every
point of the batch at once, from (S, ...) stacks, and the batch keeps it.  A
`SitePoint` holds only its batch and its index, and keeps per key its slice
of each entry, a view of the batch's stack; the batch never refers back to
its points.  Every point comes from a batch (`PointBatch.points`): a check's
drawn points, the conjugated points of the equivariance check and the
solved rows of a relator-solver chunk are each one batch, and
`random_point` is a batch of one.  Stacked products and inversions give
each slice the bits of the one-point computation, so a point's data does
not depend on its batch.
`SitePoint.memo` hands the arrays out read-only.  Besides the frame, each
tensor's frame matrix and each momentum component's linearization, it keeps
the factor inverses, one batched inversion that every inverse letter, the
frame's coefficient extractors and the 2-form's class terms read, and three
entries per word, keyed by the word and built on first request:

- the value g and its inverse, evaluated from the letters and inverted
  once (no frame; a positive one-letter word reads its inverse from the
  factor inverses);
- Ad_g and Ad_g^-1, from that entry (no frame);
- the trivialized differentials L, R over the frame vectors, which read
  g^-1 from the first entry and the derivative of g along every frame
  vector of the word's factors, formed on those factors' frame rows only
  (the other rows are zero).

One recurrence differentiates every word outside the relator solver:
`word_tangent` carries the running product W through the letters once and,
for each of several tangents, its derivative D, D <- D t + W dt, and hands
out (W, D, ...) at every prefix.  It reads the letters from its caller, who
holds them: a point's are its factors and `inverses()` (`SitePoint.letters`).
A batch sweeps a word once, along every factor of it at once, and keeps
the state at each prefix, so a word that begins one already swept costs no
letter: its value and derivatives are read there.  Callers that need many
words (the 2-form's frame matrix) ask for the longest first.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .duals import dinv, matmul, value
from .errors import BadSignature, LiftFailed
from .liealg import _rank, adjoint_matrix, random_group_elements

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
    "PointBatch",
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
        """(g, g^-1): the word's value at the point, the running product of
        the batch's sweep of a word it begins, or else folded from its
        `letters`, and the inverse of that value (a one-letter word with a
        positive letter reads it from `inverses()`)."""
        return self.memo(("value", word), lambda batch: _word_value(batch, word))

    def word_ad(self, word):
        """(Ad_g, Ad_g^-1) for g the word's value; Ad_g reads the g^-1 of
        `word_value`."""
        return self.memo(("ad", word), lambda batch: _word_ad(batch, word))

    def word_differentials(self, word):
        """(L, R): the (frame.dim, d) algebra coefficients of g^-1 dW(v_a) and
        dW(v_a) g^-1 over the frame vectors v_a, dW read from the batch's
        sweep of a word this one begins, or from one `word_tangent` sweep of
        this word along every factor of it at once; zero on the rows of the
        other factors.  NotInSpan when a row leaves the algebra."""
        return self.memo(("differentials", word),
                         lambda batch: _word_differentials(batch, word))


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
        # word prefix -> its state in a word_tangent sweep (_prefix_state)
        self._prefixes = {}

    def points(self):
        return [SitePoint(self, i) for i in range(len(self.mats))]

    def letters(self, word):
        """The word's letters as (S, n, n) stacks (`SitePoint.letters`)."""
        return _letters(word, self.mats.swapaxes(0, 1),
                        self.inverses().swapaxes(0, 1))

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

    def letters(self, word):
        """The word's letters as matrices: a factor, or its inverse read
        from `inverses()`."""
        return _letters(word, self.mats, self.inverses())


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


def word_tangent(word, letters, tangents):
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

    Returns per prefix, shortest first, the tuple (W, D_1, ..., D_m) of its
    value and its derivative along each tangent; a derivative is a zero of
    the letters' shape while no component has moved a letter.  A word that
    begins another reads its state there.
    """
    comps = [t.comps if isinstance(t, Tangent) else t for t in tangents]
    prod, outs, zero = None, [None] * len(comps), None
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
        if zero is None and any(out is None for out in outs):
            zero = np.zeros(np.shape(value(letters[0])), dtype=complex)
        states.append((prod, *(zero if out is None else out for out in outs)))
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


def _with_inverse(word, g, inverses):
    """(g, g^-1) for the value g of a non-empty word.  A one-letter word
    with a positive letter reads g^-1 from the factor inverses; any other
    word inverts g with dinv."""
    if len(word) == 1 and word[0][1] == 1:
        return g, inverses[word[0][0]]
    return g, dinv(g)


def _word_value(batch, word):
    if not word:
        n = batch.site.model.n
        eye = np.broadcast_to(np.eye(n, dtype=complex), (len(batch.mats), n, n))
        return eye, eye
    if word in batch._prefixes:
        g = batch._prefixes[word][0][:, 0]
    else:
        g = reduce(operator.matmul, batch.letters(word))
    return _with_inverse(word, g, batch.inverses().swapaxes(0, 1))


def _word_ad(batch, word):
    g, gi = batch.word_value(word)
    model = batch.site.model
    # the inverse of g^-1 is recomputed, not read as g: keeps the last bits
    return (adjoint_matrix(model, g, gi),
            adjoint_matrix(model, gi, np.linalg.inv(gi)))


def _prefix_state(batch, word):
    """(W, {f: D_f}) of a non-empty word at the batch's points: W its value,
    (S, 1, n, n), and D_f its derivative along factor f's frame vectors,
    (S, k_f, n, n), for every factor f of the word.  Read from the sweep of
    a word that it begins, or else from one `word_tangent` sweep of the word
    itself, along every factor's frame vectors at once, whose every prefix
    the batch keeps."""
    if word not in batch._prefixes:
        factors = sorted({f for f, _ in word})
        per_factor = batch.frame().per_factor
        tangents = [[per_factor[f] if g == f else None
                     for g in range(batch.site.nfac)] for f in factors]
        letters = [t[:, None] for t in batch.letters(word)]
        for k, (prod, *derivs) in enumerate(
                word_tangent(word, letters, tangents), 1):
            batch._prefixes.setdefault(word[:k],
                                       (prod, dict(zip(factors, derivs))))
    return batch._prefixes[word]


def _word_differentials(batch, word):
    frame, model = batch.frame(), batch.site.model
    left = np.zeros((len(batch.mats), frame.dim, model.d), dtype=complex)
    right = np.zeros_like(left)
    if not word:
        return left, right
    derivs = _prefix_state(batch, word)[1]
    gi = batch.word_value(word)[1][:, None]
    # the rows of the word's factors; every other row is zero
    factors = sorted({f for f, _ in word})
    rows = np.r_[tuple(frame.rows[f] for f in factors)]
    dv = np.concatenate([derivs[f] for f in factors], axis=1)
    left[:, rows] = model.coeffs(gi @ dv)
    right[:, rows] = model.coeffs(matmul(dv, gi))
    return left, right


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


def random_points(site, rng, count):
    """count random site points, in batches of at most _BATCH_POINTS: the
    draws and values of count `random_point` calls, in order."""
    g = random_group_elements(site.model, rng, (count, site.nfac))
    cls = site.class_indices()
    g_inv = dict(zip(cls, np.linalg.inv(g[:, cls]).swapaxes(0, 1))) if cls else {}
    mats = np.stack([_retract(site, g[:, i]) if fac.kind == "group"
                     else g[:, i] @ fac.class_rep @ g_inv[i]
                     for i, fac in enumerate(site.factors)], axis=1)
    return [point for start in range(0, count, _BATCH_POINTS)
            for point in PointBatch(site, mats[start:start + _BATCH_POINTS]).points()]


def random_point(site, rng):
    """Random site point: exponentials over group factors, conjugated reps on
    class factors; SL-like models are retracted by a principal determinant
    root.  A batch of one (`random_points`)."""
    return random_points(site, rng, 1)[0]
