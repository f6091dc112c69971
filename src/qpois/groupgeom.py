"""Sites (products of group and conjugacy-class factors), points, words, frames.

A site fixes the algebra model, the pairing, and an ordered list of factors.
Factor i is addressed by the letter chr(ord('a')+i) in word strings; uppercase
means inverse.  Points carry one invertible matrix per factor plus, for class
factors, the conjugator used to reach the point from the class representative.
All tangent data is "ambient": one n-by-n matrix per factor (None = zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .duals import Dual, dexpm, dinv
from .errors import BadSignature, LiftFailed, NotInSpan, NotTangent

__all__ = [
    "Factor",
    "Site",
    "SitePoint",
    "Tangent",
    "TangentFrame",
    "parse_word",
    "word_eval",
    "word_tangent",
    "word_differentials",
    "maurer_cartan",
    "fund_tangent",
    "class_tangent_frame",
    "site_frame",
    "random_point",
    "conjugate_point",
    "dual_lift",
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

    def letter(self, i):
        return chr(ord("a") + i)

    def group_indices(self):
        return [i for i, f in enumerate(self.factors) if f.kind == "group"]

    def class_indices(self):
        return [i for i, f in enumerate(self.factors) if f.kind == "class"]


class SitePoint:
    def __init__(self, site, mats, conjs=None):
        self.site = site
        self.mats = [np.asarray(m, dtype=complex) for m in mats]
        self.conjs = list(conjs) if conjs is not None else [None] * site.nfac
        self._frame = None

    def frame(self):
        if self._frame is None:
            self._frame = site_frame(self.site, self)
        return self._frame


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


def word_differentials(frame, word):
    """Trivialized differentials of a word on every frame vector at once.

    Returns (left, right, g): g is the word value at the frame's point, and
    left / right are the (frame.dim, d) algebra coefficients of g^{-1} dW(v_a)
    and dW(v_a) g^{-1}.  NotInSpan when a row leaves the algebra.
    """
    model = frame.site.model
    mats = frame.point.mats
    g = word_eval(word, mats)
    gi = np.linalg.inv(g)
    dv = np.broadcast_to(word_tangent(word, mats, frame.stacked),
                         (frame.dim, model.n, model.n))
    return model.coeffs(gi @ dv), model.coeffs(dv @ gi), g


def maurer_cartan(model, q, v, side="left", check=True):
    """Algebra coefficients of q^{-1} v (left) or v q^{-1} (right)."""
    qi = np.linalg.inv(q)
    m = qi @ v if side == "left" else v @ qi
    try:
        return model.coeffs(m, check=check)
    except NotInSpan as exc:
        raise NotInSpan(f"tangent does not trivialize into the algebra: {exc}") from exc


def fund_tangent(site, point, x_coeffs, factors=None):
    """Fundamental tangent of the conjugation action: q X - X q per factor.

    factors limits the action to a subset (used when fusing); default all.
    """
    x = site.model.from_coeffs(x_coeffs)
    idx = range(site.nfac) if factors is None else factors
    comps = [None] * site.nfac
    for i in idx:
        q = point.mats[i]
        comps[i] = q @ x - x @ q
    return Tangent(comps)


def class_tangent_frame(model, q, tol=1e-10):
    """Orthonormal ambient basis of {qX - Xq}, with algebra lifts.

    Returns (vectors, lifts): vectors is a list of n-by-n matrices, lifts the
    matching coefficient vectors X (least-squares, one valid choice).
    """
    n = model.n
    cols = []
    for b in model.basis:
        cols.append((q @ b - b @ q).reshape(-1))
    fmat = np.stack(cols, axis=1) if cols else np.zeros((n * n, 0))
    if fmat.shape[1] == 0 or not np.abs(fmat).max():
        return [], []
    u, s, _ = np.linalg.svd(fmat, full_matrices=False)
    r = int(np.sum(s > tol * s[0]))
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
        self.point = point
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
                qi = np.linalg.inv(point.mats[i])
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

    def vector(self, a):
        """Frame vector a as a Tangent (with lift metadata on class factors)."""
        for i, vecs in enumerate(self.per_factor):
            k = a - self.offsets[i]
            if 0 <= k < len(vecs):
                comps = [None] * self.site.nfac
                comps[i] = vecs[k]
                lifts = {}
                if self.lifts[i] is not None:
                    lifts[i] = self.lifts[i][k]
                return Tangent(comps, lifts)
        raise IndexError(a)

    def vectors(self):
        return [self.vector(a) for a in range(self.dim)]

    def components(self, tangent, check=False, tol=1e-8):
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
            if check and self.site.factors[i].kind == "class":
                umat = np.stack([w.reshape(-1) for w in vecs], axis=1)
                resid = np.linalg.norm((umat @ c[..., None])[..., 0] - flat, axis=-1)
                if np.any(resid > tol * (1 + np.linalg.norm(flat, axis=-1))):
                    raise NotTangent(f"vector not tangent to class factor {i} "
                                     f"(residual {np.max(resid):.3e})")
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
            vecs, lf = class_tangent_frame(site.model, point.mats[i])
            per_factor.append(vecs)
            lifts.append(lf)
    return TangentFrame(site, point, per_factor, lifts)


def _retract(site, q):
    if site.sl_like:
        n = site.model.n
        det = np.linalg.det(q)
        return q / det ** (1.0 / n)
    return q


def random_point(site, rng, scale=0.35, prior=None):
    """Random site point: exponentials over group factors, conjugated reps on
    class factors; SL-like models are retracted by a principal determinant root."""
    from .liealg import random_algebra_element

    mats = []
    conjs = []
    for i, fac in enumerate(site.factors):
        xi = site.model.from_coeffs(random_algebra_element(site.model, rng, scale))
        g = dexpm(xi)
        if fac.kind == "group":
            base = prior.mats[i] if prior is not None else np.eye(site.model.n)
            mats.append(_retract(site, g @ base))
            conjs.append(None)
        else:
            k = g
            mats.append(k @ fac.class_rep @ np.linalg.inv(k))
            conjs.append(k)
    return SitePoint(site, mats, conjs)


def conjugate_point(point, g):
    """Simultaneous conjugation of every factor by one group element."""
    gi = np.linalg.inv(g)
    mats = [g @ m @ gi for m in point.mats]
    conjs = []
    for c in point.conjs:
        conjs.append(None if c is None else g @ c)
    return SitePoint(point.site, mats, conjs)


def dual_lift(fn, point, tangent):
    """Directional derivative of a scalar function of the factor matrices."""
    comps = tangent.comps if isinstance(tangent, Tangent) else tangent
    mats = []
    for q, v in zip(point.mats, comps):
        if v is None:
            mats.append(q)
        else:
            mats.append(Dual(q, np.asarray(v, dtype=complex)))
    out = fn(mats)
    if isinstance(out, Dual):
        return out.eps
    return 0.0 * out
