"""Sites (products of group and conjugacy-class factors), points, words, frames.

A site fixes the algebra model, the pairing, and an ordered list of factors.
Factor i is addressed by the letter chr(ord('a')+i) in word strings; uppercase
means inverse.  A point carries its factor matrices as one read-only
(nfac, n, n) array.  All tangent data is "ambient": one n-by-n matrix per
factor (None = zero).  A frame holds per factor an array of its k_f frame
vectors, (k_f, n, n), their algebra lifts on class factors, (k_f, d), and
the slice of its rows in the frame; a central class has k_f = 0, and its
empty arrays pass through every frame computation.

Data that depends only on a point is built once and kept behind it, and
`SitePoint.memo` hands its arrays out read-only.  Besides the frame, each
tensor's frame matrix and each momentum component's linearization, it keeps
the factor inverses, one batched inversion that every inverse letter, the
frame's coefficient extractors and the 2-form's class terms read, and three
entries per word, keyed by the word and built on first request:

- the value g and its inverse, evaluated from the letters and inverted
  once (no frame);
- Ad_g and Ad_g^-1, from that entry (no frame);
- the trivialized differentials L, R over the frame vectors, which read
  g^-1 from the first entry and the derivative of g along every frame
  vector at once from `word_tangent`.

One recurrence differentiates every word outside the relator solver:
`word_tangent` carries the running product W and its derivative D through
the letters, D <- D t + W dt, and reads the letters from its caller, who
holds them: a point's are its factors and `inverses()` (`SitePoint.letters`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .duals import dexpm, dinv, value
from .errors import BadSignature, LiftFailed
from .liealg import _rank, adjoint_matrix, random_algebra_element

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
    "conjugate_point",
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


class SitePoint:
    def __init__(self, site, mats):
        self.site = site
        self.mats = np.array(mats, dtype=complex)      # (nfac, n, n)
        self.mats.setflags(write=False)
        self._memo = {}

    def memo(self, key, build):
        """build(), computed on the first request for key at this point and
        shared afterwards; an array result, or each array of a tuple result,
        is handed out read-only."""
        if key not in self._memo:
            out = build()
            for arr in out if isinstance(out, tuple) else (out,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            self._memo[key] = out
        return self._memo[key]

    def frame(self):
        return self.memo("frame", lambda: site_frame(self.site, self))

    def inverses(self):
        """(nfac, n, n): every factor's inverse, from one batched inversion."""
        return self.memo("inverses", lambda: np.linalg.inv(self.mats))

    def letters(self, word):
        """The word's letters as matrices: a factor, or its inverse read
        from `inverses()`."""
        return _letters(word, self.mats, self.inverses())

    def word_value(self, word):
        """(g, g^-1): the word's value at the point, folded from its
        `letters`, and the inverse of that value."""
        return self.memo(("value", word), lambda: _word_value(self, word))

    def word_ad(self, word):
        """(Ad_g, Ad_g^-1) for g the word's value; Ad_g reads the g^-1 of
        `word_value`."""
        return self.memo(("ad", word), lambda: _word_ad(self, word))

    def word_differentials(self, word):
        """(L, R): the (frame.dim, d) algebra coefficients of g^-1 dW(v_a) and
        dW(v_a) g^-1 over the frame vectors v_a, dW from one `word_tangent`
        pass over the point's letters along all frame vectors at once.
        NotInSpan when a row leaves the algebra."""
        return self.memo(("differentials", word),
                         lambda: _word_differentials(self, word))


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
    """Evaluate a word at per-factor matrices (Dual-transparent)."""
    out = None
    for f, p in word:
        term = mats[f] if p == 1 else dinv(mats[f])
        out = term if out is None else out @ term
    if out is None:
        # empty word: identity of the right size
        size = value(mats[0]).shape[-1]
        return np.eye(size, dtype=complex)
    return out


def word_tangent(word, letters, tangent):
    """Derivative of the value of a non-empty word in the direction of an
    ambient tangent, from the word's letters as matrices (a factor, or its
    inverse), which the caller holds, so nothing is inverted here.

    tangent may be a Tangent, a plain list or an (nfac, ...) array; None
    components contribute zero.  One pass over the letters carries the
    running product W and its derivative D: a letter t with derivative dt,
    which is -t v t for an inverse letter, gives D <- D t + W dt, the
    recurrence a Dual evaluation of word_eval performs.  Dual-transparent.
    """
    comps = tangent.comps if isinstance(tangent, Tangent) else tangent
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
    if out is None:
        size = value(letters[0]).shape[-1]
        return np.zeros((size, size), dtype=complex)
    return out


def _letters(word, mats, inverses):
    """The word's letters as matrices: a factor's, or its given inverse."""
    return [mats[f] if p == 1 else inverses[f] for f, p in word]


def _word_value(point, word):
    letters = point.letters(word)
    g = (reduce(np.matmul, letters) if letters
         else np.eye(point.site.model.n, dtype=complex))
    return g, np.linalg.inv(g)


def _word_ad(point, word):
    g, gi = point.word_value(word)
    model = point.site.model
    # the inverse of g^-1 is recomputed, not read as g: keeps the last bits
    return (adjoint_matrix(model, g, gi),
            adjoint_matrix(model, gi, np.linalg.inv(gi)))


def _word_differentials(point, word):
    _, gi = point.word_value(word)
    stacked = point.frame().stacked
    # the empty word is constant
    dv = (word_tangent(word, point.letters(word), stacked) if word
          else np.zeros_like(stacked[0]))
    model = point.site.model
    return model.coeffs(gi @ dv), model.coeffs(dv @ gi)


def _conjugation_map(model, q):
    """(n^2, d): the columns qX - Xq over the basis elements X."""
    return (q @ model.basis - model.basis @ q).reshape(model.d, -1).T


def class_tangent_frame(model, q, r):
    """Orthonormal ambient basis of {qX - Xq}, the class of dimension r
    through q, with algebra lifts.

    Returns (vectors, lifts): vectors is the (r, n, n) array of the leading
    left singular vectors of the conjugation map at q, and lifts the (r, d)
    array of matching coefficient vectors X (least-squares, one valid
    choice).
    """
    fmat = _conjugation_map(model, q)
    u = np.linalg.svd(fmat, full_matrices=False)[0][:, :r]
    lift_mat, *_ = np.linalg.lstsq(fmat, u, rcond=None)
    resid = np.linalg.norm(fmat @ lift_mat - u, axis=0)
    if np.any(resid > 1e-8):
        raise LiftFailed(f"no algebra lift for frame vector "
                         f"(residual {resid.max():.3e})")
    return u.T.reshape(r, model.n, model.n), lift_mat.T


class TangentFrame:
    """Concatenated frame over all factors with coefficient extraction.

    Group factors use the left-trivialized frame q e_i; class factors the
    orthonormalized image of the conjugation map, with lifts recorded.
    """

    def __init__(self, site, point, per_factor, lifts):
        self.site = site
        self.per_factor = per_factor    # per factor a (k_f, n, n) array
        self.lifts = lifts              # per factor a (k_f, d) array, None on groups
        self.rows = []                  # per factor its slice of frame rows
        off = 0
        for vecs in per_factor:
            self.rows.append(slice(off, off + len(vecs)))
            off += len(vecs)
        self.dim = off
        n = site.model.n
        # per-factor coefficient extractors (rows act on vec'd ambient
        # tangents): v -> coeffs(q^-1 v) on a group factor, the conjugate
        # frame vectors on a class factor
        self._extract = [
            site.model.basis_pinv @ np.kron(qi, np.eye(n))
            if fac.kind == "group" else vecs.reshape(-1, n * n).conj()
            for fac, qi, vecs in zip(site.factors, point.inverses(), per_factor)]
        # all frame vectors as one batched tangent, (nfac, dim, n, n): factor
        # f's entry is zero on the rows of the other factors' vectors
        self.stacked = np.zeros((site.nfac, self.dim, n, n), dtype=complex)
        for f, vecs in enumerate(per_factor):
            self.stacked[f, self.rows[f]] = vecs

    def components(self, tangent):
        """Frame components of an ambient tangent (list, array or Tangent).

        Factor matrices may carry leading batch axes, the same on every
        factor; the result keeps them, shape (..., dim).
        """
        comps = tangent.comps if isinstance(tangent, Tangent) else tangent
        batch = next((np.shape(v)[:-2] for v in comps if v is not None), ())
        out = np.zeros(batch + (self.dim,), dtype=complex)
        for v, extract, rows in zip(comps, self._extract, self.rows):
            if v is None:
                continue
            v = np.asarray(v, dtype=complex)
            flat = v.reshape(v.shape[:-2] + (-1,))
            out[..., rows] += (extract @ flat[..., None])[..., 0]
        return out


def site_frame(site, point):
    per_factor, lifts = [], []
    for i, (fac, q) in enumerate(zip(site.factors, point.mats)):
        if fac.kind == "group":
            per_factor.append(q @ site.model.basis)
            lifts.append(None)
        else:
            vecs, lf = class_tangent_frame(site.model, q, site.class_dims[i])
            per_factor.append(vecs)
            lifts.append(lf)
    return TangentFrame(site, point, per_factor, lifts)


def _retract(site, q):
    if site.sl_like:
        n = site.model.n
        det = np.linalg.det(q)
        return q / det ** (1.0 / n)
    return q


def random_point(site, rng):
    """Random site point: exponentials over group factors, conjugated reps on
    class factors; SL-like models are retracted by a principal determinant root.
    The factors' coefficients are drawn in factor order and exponentiated as
    one batch."""
    model = site.model
    g = dexpm(model.from_coeffs(np.stack(
        [random_algebra_element(model, rng) for _ in site.factors])))
    cls = site.class_indices()
    g_inv = dict(zip(cls, np.linalg.inv(g[cls]))) if cls else {}
    mats = [_retract(site, g[i]) if fac.kind == "group"
            else g[i] @ fac.class_rep @ g_inv[i]
            for i, fac in enumerate(site.factors)]
    return SitePoint(site, mats)


def conjugate_point(point, g):
    """Simultaneous conjugation of every factor by one group element."""
    return SitePoint(point.site, g @ point.mats @ np.linalg.inv(g))

