"""Sites (products of group and conjugacy-class factors), points, words, frames.

A site fixes the algebra model, the pairing, and an ordered list of factors.
Factor i is addressed by the letter chr(ord('a')+i) in word strings; uppercase
means inverse.  Points carry one invertible matrix per factor.
All tangent data is "ambient": one n-by-n matrix per factor (None = zero).

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
  g^-1 from the first entry.  Each letter's derivative lives on its own
  factor's frame rows, and all letters are carried through the rest of the
  word at once, one matrix product per letter of the word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .duals import dexpm, dinv
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
        self.sl_like = model.is_traceless()
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
        self.mats = [np.asarray(m, dtype=complex) for m in mats]
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
        return self.memo("inverses", lambda: np.linalg.inv(np.stack(self.mats)))

    def word_value(self, word):
        """(g, g^-1): the word's value at the point, its inverse letters
        read from `inverses()`, and the inverse of that value."""
        return self.memo(("value", word), lambda: _word_value(self, word))

    def word_ad(self, word):
        """(Ad_g, Ad_g^-1) for g the word's value; Ad_g reads the g^-1 of
        `word_value`."""
        return self.memo(("ad", word), lambda: _word_ad(self, word))

    def word_differentials(self, word):
        """(L, R): the (frame.dim, d) algebra coefficients of g^-1 dW(v_a) and
        dW(v_a) g^-1 over the frame vectors v_a, each letter's derivative
        taken on its own factor's frame rows and carried through the word
        with the other letters'.  NotInSpan when a row leaves the algebra."""
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
        from .duals import value
        size = value(mats[0]).shape[-1]
        return np.eye(size, dtype=complex)
    return out


def word_tangent(word, mats, tangent):
    """Derivative of word_eval in the direction of an ambient tangent.

    tangent may be a Tangent or a plain list; None components contribute zero.
    Exact product rule with d(A^{-1}) = -A^{-1} dA A^{-1}; Dual-transparent.
    """
    comps = tangent.comps if isinstance(tangent, Tangent) else tangent
    terms = []
    for f, p in word:
        terms.append(mats[f] if p == 1 else dinv(mats[f]))
    out = None
    for i, (f, p) in enumerate(word):
        v = comps[f]
        if v is None:
            continue
        if p == 1:
            dterm = v
        else:
            ti = terms[i]
            dterm = -(ti @ v @ ti)
        piece = dterm
        for j in range(i - 1, -1, -1):
            piece = terms[j] @ piece
        for j in range(i + 1, len(terms)):
            piece = piece @ terms[j]
        out = piece if out is None else out + piece
    if out is None:
        from .duals import value
        size = value(mats[0]).shape[-1]
        return np.zeros((size, size), dtype=complex)
    return out


def _letters(word, mats, inverses):
    """The word's letters as matrices: a factor's, or its given inverse."""
    return [mats[f] if p == 1 else inverses[f] for f, p in word]


def _word_value(point, word):
    letters = _letters(word, point.mats, point.inverses())
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
    """Every frame vector's word derivative, the products taken in
    word_tangent's order: letter i's derivative, a (d_f, n, n) block on its
    factor's frame rows, is multiplied on the left by letters i-1, ..., 0 and
    then on the right by letters i+1, ..., L-1; the blocks of all letters
    move through each letter together."""
    model, n = point.site.model, point.site.model.n
    frame = point.frame()
    _, gi = point.word_value(word)
    letters = _letters(word, point.mats, point.inverses())
    rows = [slice(frame.offsets[f], frame.offsets[f] + len(frame.per_factor[f]))
            for f, _ in word]
    pieces = np.zeros((len(word), max((r.stop - r.start for r in rows),
                                      default=0), n, n), dtype=complex)
    for i, (f, p) in enumerate(word):
        v = frame.stacked[f][rows[i]]
        pieces[i, :len(v)] = v if p == 1 else -(letters[i] @ v @ letters[i])
    for j in range(len(word) - 2, -1, -1):
        pieces[j + 1:] = letters[j] @ pieces[j + 1:]
    for j in range(1, len(word)):
        pieces[:j] = pieces[:j] @ letters[j]
    dv = np.zeros((frame.dim, n, n), dtype=complex)
    for i, r in enumerate(rows):
        dv[r] += pieces[i, :r.stop - r.start]
    return model.coeffs(gi @ dv), model.coeffs(dv @ gi)


def _conjugation_map(model, q):
    """(n^2, d): the columns qX - Xq over the basis elements X."""
    return np.stack([(q @ b - b @ q).reshape(-1) for b in model.basis], axis=1)


def class_tangent_frame(model, q, r):
    """Orthonormal ambient basis of {qX - Xq}, the class of dimension r
    through q, with algebra lifts.

    Returns (vectors, lifts): vectors is a list of r n-by-n matrices, the
    leading left singular vectors of the conjugation map at q, and lifts the
    matching coefficient vectors X (least-squares, one valid choice).
    """
    if not r:
        return [], []
    n = model.n
    fmat = _conjugation_map(model, q)
    u, _, _ = np.linalg.svd(fmat, full_matrices=False)
    vecs = []
    lifts = []
    lift_mat, *_ = np.linalg.lstsq(fmat, u[:, :r], rcond=None)
    for i in range(r):
        vecs.append(u[:, i].reshape(n, n))
        resid = np.linalg.norm(fmat @ lift_mat[:, i] - u[:, i])
        if resid > 1e-8:
            raise LiftFailed(f"no algebra lift for frame vector (residual {resid:.3e})")
        lifts.append(lift_mat[:, i])
    return vecs, lifts


class TangentFrame:
    """Concatenated frame over all factors with coefficient extraction.

    Group factors use the left-trivialized frame q e_i; class factors the
    orthonormalized image of the conjugation map, with lifts recorded.
    """

    def __init__(self, site, point, per_factor, lifts):
        self.site = site
        self.per_factor = per_factor    # list of lists of ambient matrices
        self.lifts = lifts              # list of (list of coeff vectors | None)
        self.offsets = []
        off = 0
        for vecs in per_factor:
            self.offsets.append(off)
            off += len(vecs)
        self.dim = off
        # per-factor coefficient extractors (rows act on vec'd ambient tangents)
        self._extract = []
        for i, fac in enumerate(site.factors):
            if fac.kind == "group":
                qi = point.inverses()[i]
                n = site.model.n
                # v -> coeffs(q^{-1} v): linear map composed with left mult by q^{-1}
                left = np.kron(qi, np.eye(n))
                self._extract.append(site.model.basis_pinv @ left)
            else:
                vecs = per_factor[i]
                if vecs:
                    umat = np.stack([v.reshape(-1) for v in vecs], axis=1)
                    self._extract.append(umat.conj().T)
                else:
                    self._extract.append(np.zeros((0, site.model.n ** 2)))
        # all frame vectors as one batched tangent: per factor a (dim, n, n)
        # stack, zero on the rows of the other factors' vectors
        n = site.model.n
        self.stacked = []
        for i, vecs in enumerate(per_factor):
            block = np.zeros((self.dim, n, n), dtype=complex)
            if vecs:
                block[self.offsets[i]:self.offsets[i] + len(vecs)] = vecs
            self.stacked.append(block)

    def components(self, tangent):
        """Frame components of an ambient tangent (list or Tangent).

        Factor matrices may carry leading batch axes, the same on every
        factor; the result keeps them, shape (..., dim).
        """
        comps = tangent.comps if isinstance(tangent, Tangent) else tangent
        batch = next((np.shape(v)[:-2] for v in comps if v is not None), ())
        out = np.zeros(batch + (self.dim,), dtype=complex)
        for i, vecs in enumerate(self.per_factor):
            v = comps[i]
            if v is None or not vecs:
                continue
            v = np.asarray(v, dtype=complex)
            flat = v.reshape(v.shape[:-2] + (-1,))
            c = (self._extract[i] @ flat[..., None])[..., 0]
            out[..., self.offsets[i]:self.offsets[i] + len(vecs)] += c
        return out

    def assemble(self, coeffs):
        """Ambient Tangent from frame components."""
        comps = [None] * self.site.nfac
        for i, vecs in enumerate(self.per_factor):
            if not vecs:
                continue
            seg = coeffs[self.offsets[i]:self.offsets[i] + len(vecs)]
            acc = None
            for c, v in zip(seg, vecs):
                term = c * v
                acc = term if acc is None else acc + term
            comps[i] = acc
        return Tangent(comps)


def site_frame(site, point):
    per_factor = []
    lifts = []
    for i, fac in enumerate(site.factors):
        if fac.kind == "group":
            q = point.mats[i]
            per_factor.append([q @ b for b in site.model.basis])
            lifts.append(None)
        else:
            vecs, lf = class_tangent_frame(site.model, point.mats[i],
                                           site.class_dims[i])
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
    gi = np.linalg.inv(g)
    return SitePoint(point.site, [g @ m @ gi for m in point.mats])

