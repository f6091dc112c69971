"""Structured bivectors/2-forms with group-valued momentum words.

This module assembles the standard one-factor structure, the double and its
internal fusion, conjugacy-class pairs, and genus-(l)/puncture-(n) surface
sites.  The constructors are atom arithmetic (`fields`): the one-factor
bivector is wedge(R_f, L_f), the double's is wedge(L_i, R_j) + wedge(R_i,
L_j), and fusing two actions a1, a2 adds -wedge(a1, a2) to the bivector and
makes a1 + a2 the fused action.  It also measures the residuals of the
defining laws: momentum conditions, duality, reconstruction, non-degeneracy
ranks, quasi-closedness, and equivariance.  Each of these reads the
descriptor's type: the bivector side of a QuasiPoissonDescriptor, the 2-form
side of a QuasiHamiltonianDescriptor.  One rank rule, `liealg._rank`, serves
every kernel, span and rank count here and in the Dirac layer.

At a point, each momentum component is linearized once
(`component_linear`): the (N, d) left and right trivialized word
differentials L and R over the N frame vectors and Ad_g, Ad_g^-1 come from
the point's per-word entries (`SitePoint.word_differentials`, `word_ad`),
shared with the 2-form frame matrix and the Dirac layer; the component adds
only its (N, d) action columns A.  Together with the bivector and 2-form
frame matrices P and Sigma, the frame-level laws are matrix identities on
this data: 2 P^T L = A H (I + Ad^-T) and A^T Sigma = (1/2) S (L + R)^T for
the momentum laws, rho = sum A (L - R)^T, and reconstruction as (M pinv)^T,
pinv that of the stacked momentum map [L | Sigma^T] or [A | P^T], whose
corank is the non-degeneracy certificate: one full SVD per point gives
both.  Equivariance compares P and Sigma with their values at the
conjugated point through the frame matrix T of the conjugation map.  The
linearizations, P and Sigma are built once per batch of points
(`groupgeom.PointBatch`), keyed by the frozen component and the tensor, and
each point reads its slice, so equal components of a dual pair share one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadSignature,
    IncompatibleActions,
    NotEpimorphism,
    NotTangent,
)
from .fields import (
    Bivector,
    FormField,
    PairTerm,
    TauTerm,
    differential,
    eval_lambda,
    exterior_d3,
    jacobiator,
    op_L,
    op_R,
    op_apply,
    op_fund,
    section_value,
    wedge,
)
from .groupgeom import Factor, Site, Words, parse_word
from .liealg import _rank

__all__ = [
    "MomentumComponent",
    "ComponentLinear",
    "component_linear",
    "nullspace",
    "orthonormal_columns",
    "intersection_dim",
    "QuasiPoissonDescriptor",
    "QuasiHamiltonianDescriptor",
    "pg_descriptor",
    "class_descriptors",
    "double_descriptors",
    "internally_fused",
    "fuse_bivector",
    "fuse_form",
    "assemble_surface_site",
    "relator_word",
    "surface_letters",
    "momentum_residual",
    "rho_matrix",
    "duality_residual",
    "reconstruct_dual",
    "nondegeneracy_check",
    "quasi_closed_residual",
    "cn1_residual",
    "jacobiator_vs_phi",
    "eval_phi_actions",
    "equivariance_residual",
    "restrict_to_class",
]


@dataclass(frozen=True)
class MomentumComponent:
    """One group-valued momentum component with its infinitesimal action; a
    value, so equal components share their linearization at a point."""

    word: tuple                 # parsed word over the site letters
    action: tuple               # atom coefficients of the matching action

    def __post_init__(self):
        # a tuple, so that equal components hash alike
        object.__setattr__(self, "action", tuple(self.action))


@dataclass
class QuasiPoissonDescriptor:
    site: Site
    bivector: Bivector
    momentum: list


@dataclass
class QuasiHamiltonianDescriptor:
    site: Site
    form: FormField
    momentum: list


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _conj_component(site, word_text, factors):
    return MomentumComponent(parse_word(site, word_text), op_fund(site, factors))


def _one_factor(site, f):
    """Factor f's one-factor structure: the bivector (1/2) eta^{jk} e_j^R
    wedge e_k^L, the conjugation component with f's letter as word, and the
    tau term, the 2-form on a class factor."""
    return (Bivector(site, wedge(op_R(site, f), op_L(site, f))),
            _conj_component(site, site.letter(f), [f]), TauTerm(f))


def pg_descriptor(site):
    """The one-factor bivector of the first factor with its letter as
    momentum word."""
    biv, comp, _ = _one_factor(site, 0)
    return QuasiPoissonDescriptor(site, biv, [comp])


def class_descriptors(site):
    """Conjugacy-class pair on the first factor: restricted bivector and the
    tau 2-form, momentum the inclusion letter."""
    if site.factors[0].kind != "class":
        raise BadSignature("class pair needs a class factor")
    biv, comp, tau = _one_factor(site, 0)
    return (QuasiPoissonDescriptor(site, biv, [comp]),
            QuasiHamiltonianDescriptor(site, FormField(site, tau_terms=[tau]),
                                       [comp]))


def _double_momentum(site, i, j):
    a, b = site.letter(i), site.letter(j)
    act1 = op_L(site, j) - op_R(site, i)      # x . (q1,q2) = (x q1, q2 x^-1)
    act2 = op_L(site, i) - op_R(site, j)      # y . (q1,q2) = (q1 y^-1, y q2)
    return [MomentumComponent(parse_word(site, a + b), act1),
            MomentumComponent(parse_word(site, a.upper() + b.upper()), act2)]


def double_descriptors(site, i, j):
    """The two-factor double: bivector (1/2)(L1^R2 + R1^L2) and 2-form
    -(1/2)(omega1 . omegabar2 + omegabar1 . omega2), with the product and the
    inverse-product words as momentum pair."""
    biv = Bivector(site, wedge(op_L(site, i), op_R(site, j))
                   + wedge(op_R(site, i), op_L(site, j)))
    wa = parse_word(site, site.letter(i))
    wb = parse_word(site, site.letter(j))
    form = FormField(site, pair_terms=[
        PairTerm(-0.5, wa, wb),
        PairTerm(0.5, wb, wa),
    ])
    mom = _double_momentum(site, i, j)
    return (QuasiPoissonDescriptor(site, biv, mom),
            QuasiHamiltonianDescriptor(site, form, mom))


def _merged_component(comp1, comp2):
    """The fused component: product word, sum of the two actions."""
    return MomentumComponent(tuple(comp1.word) + tuple(comp2.word),
                             np.add(comp1.action, comp2.action))


def fuse_bivector(site, biv, comp1, comp2):
    """Fuse two action components: subtract (1/2) a1 wedge a2, contracted
    through the 2-tensor, and multiply the words."""
    if comp1 is comp2:
        raise IncompatibleActions("cannot fuse a component with itself")
    fused = Bivector(site, biv.kmat - wedge(comp1.action, comp2.action))
    return fused, _merged_component(comp1, comp2)


def fuse_form(site, form, comp1, comp2):
    """Form-mode fusion: subtract half the pulled-back mixed pairing."""
    corr = FormField(site, pair_terms=[
        PairTerm(-0.5, comp1.word, comp2.word)])
    return form + corr, _merged_component(comp1, comp2)


def internally_fused(site, i, j):
    """Fuse the double's two action components into one conjugation action."""
    qp, qh = double_descriptors(site, i, j)
    biv, merged = fuse_bivector(site, qp.bivector, qp.momentum[0], qp.momentum[1])
    form, merged_f = fuse_form(site, qh.form, qh.momentum[0], qh.momentum[1])
    return (QuasiPoissonDescriptor(site, biv, [merged]),
            QuasiHamiltonianDescriptor(site, form, [merged_f]))


def surface_letters(genus, npunct):
    gens = [chr(ord("a") + k) for k in range(2 * genus + npunct)]
    blocks = []
    for k in range(genus):
        x, y = gens[2 * k], gens[2 * k + 1]
        blocks.append(x + y + x.upper() + y.upper())
    blocks.extend(gens[2 * genus:])
    return gens, blocks


def relator_word(site, genus, npunct):
    _, blocks = surface_letters(genus, npunct)
    return parse_word(site, "".join(blocks))


def assemble_surface_site(model, pairing, genus, class_reps, variant="classes"):
    """Site plus quasi-Poisson/quasi-Hamiltonian pair for a surface signature.

    genus >= 0 torus blocks, one factor per class representative; variant
    "fullgroups" replaces class factors by full group factors (bivector only
    when punctures are present).
    """
    npunct = len(class_reps)
    if genus == 0 and npunct < 3:
        raise BadSignature("genus zero needs at least three punctures")
    if variant not in ("classes", "fullgroups"):
        raise BadSignature(f"unknown variant {variant!r}")
    factors = [Factor("group") for _ in range(2 * genus)]
    for rep in class_reps:
        if variant == "classes":
            factors.append(Factor("class", rep))
        else:
            factors.append(Factor("group"))
    site = Site(model, pairing, factors)

    units = []          # (bivector, form or None, component)
    for k in range(genus):
        qp, qh = internally_fused(site, 2 * k, 2 * k + 1)
        units.append((qp.bivector, qh.form, qp.momentum[0]))
    for f in range(2 * genus, 2 * genus + npunct):
        biv, comp, tau = _one_factor(site, f)
        form = FormField(site, tau_terms=[tau]) if variant == "classes" else None
        units.append((biv, form, comp))

    biv, form, comp = units[0]
    for nbiv, nform, ncomp in units[1:]:
        if form is not None and nform is not None:
            form, _ = fuse_form(site, form + nform, comp, ncomp)
        else:
            form = None
        biv, comp = fuse_bivector(site, biv + nbiv, comp, ncomp)
    qp = QuasiPoissonDescriptor(site, biv, [comp])
    qh = None
    if form is not None:
        qh = QuasiHamiltonianDescriptor(site, form, [comp])
    return site, qp, qh


# ---------------------------------------------------------------------------
# frame-level data shared by the residual computations
# ---------------------------------------------------------------------------

def nullspace(mat):
    """Orthonormal columns spanning the kernel, as many as the columns of
    mat minus its rank."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, sv, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[_rank(sv):].conj().T


def orthonormal_columns(cols):
    """Orthonormal columns spanning the column span."""
    cols = np.asarray(cols, dtype=complex)
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :_rank(sv)]


def intersection_dim(cols_a, cols_b):
    """dim of the intersection of two spans given by orthonormal columns."""
    ra, rb = cols_a.shape[1], cols_b.shape[1]
    if ra == 0 or rb == 0:
        return 0
    sv = np.linalg.svd(np.concatenate([cols_a, cols_b], axis=1), compute_uv=False)
    return ra + rb - _rank(sv)


class ComponentLinear(NamedTuple):
    """Linear data of one momentum component at a point, in frame coordinates.

    left / right are the (N, d) coefficients of g^-1 dW(v_a) and dW(v_a) g^-1
    over the frame vectors v_a, and ad / ad_inv are Ad_g and Ad_g^-1: the
    arrays of the word's entries at the point.  action is the (N, d) matrix
    whose column j is the frame components of the action of the basis
    element e_j.
    """

    left: np.ndarray
    right: np.ndarray
    ad: np.ndarray
    ad_inv: np.ndarray
    action: np.ndarray


def component_linear(point, comp):
    """The word's differentials and adjoints at a point plus the component's
    action columns; built once per batch of points and component, with
    read-only arrays."""
    return point.memo(comp, lambda batch: _component_linear(batch, comp))


def _component_linear(batch, comp):
    # per factor its (S, 1, n, n) stack, so each point acts on the basis
    mats = batch.mats.swapaxes(0, 1)[:, :, None]
    action = batch.frame().components(
        op_apply(comp.action, mats, batch.site.model.basis)).swapaxes(-1, -2)
    return ComponentLinear(*batch.word_differentials(comp.word),
                           *batch.word_ad(comp.word), action)


def _linears(desc, point):
    return [component_linear(point, c) for c in desc.momentum]


def _bivector_momentum_rhs(lin, h_up):
    """A H (I + Ad^-T): the action side of the bivector momentum law."""
    return lin.action @ h_up @ (np.eye(len(h_up)) + lin.ad_inv.T)


def momentum_residual(desc, point):
    """Deviation from the descriptor's momentum law, as a matrix identity per
    component over the frame (N) and the algebra basis (d).

    QuasiPoissonDescriptor: max | 2 P^T L - A H (I + Ad^-T) |, the covector
      form of 2 P#((dPhi)* beta) = action(psi_H((L* + R*) beta));
    QuasiHamiltonianDescriptor: max | A^T Sigma - (1/2) S (L + R)^T |, the
      frame form of sigma(action(X), v) = (1/2) X . ((omega + omegabar)(dPhi v)).
    """
    site = desc.site
    lins = _linears(desc, point)
    if isinstance(desc, QuasiPoissonDescriptor):
        h = site.pairing.eta_upper
        pmat = desc.bivector.frame_matrix(point)
        gaps = [2.0 * pmat.T @ lin.left - _bivector_momentum_rhs(lin, h)
                for lin in lins]
    else:
        smat = site.pairing.eta_lower
        sigma = desc.form.frame_matrix(point)
        gaps = [lin.action.T @ sigma - 0.5 * smat @ (lin.left + lin.right).T
                for lin in lins]
    return float(np.max([np.abs(gap).max() for gap in gaps], initial=0.0))


def _rho(lins, nfr):
    return sum((lin.action @ (lin.left - lin.right).T for lin in lins),
               np.zeros((nfr, nfr), dtype=complex))


def rho_matrix(desc, point):
    """Frame matrix of the composite action((L^-1 - R^-1) dPhi): the sum over
    components of A (L - R)^T."""
    return _rho(_linears(desc, point), point.frame().dim)


def duality_residual(qp, qh, point):
    """max of || P# sigma_b - (Id - rho/4) || and the transposed identity."""
    site = qp.site
    site.pairing.require_invertible()
    pmat = qp.bivector.frame_matrix(point)
    smat = qh.form.frame_matrix(point)
    rho = rho_matrix(qp, point)
    eye = np.eye(len(rho))
    r1 = pmat.T @ smat.T - (eye - 0.25 * rho)
    r2 = smat.T @ pmat.T - (eye - 0.25 * rho.T)
    return float(max(np.abs(r1).max(), np.abs(r2).max()))


def _memo_key(desc):
    form = isinstance(desc, QuasiHamiltonianDescriptor)
    return desc.form if form else desc.bivector, tuple(desc.momentum)


def _stacked_map(desc, point):
    """The (N, m d + N) stacked momentum map at a point, [L | Sigma^T] of a
    QuasiHamiltonianDescriptor or [A | P^T] of a QuasiPoissonDescriptor,
    with its rank and kernel from one full SVD; once per point and key."""
    tensor, momentum = _memo_key(desc)
    form = isinstance(desc, QuasiHamiltonianDescriptor)

    def build(p):
        cols = [lin.left if form else lin.action for lin in _linears(desc, p)]
        stacked = np.concatenate([*cols, tensor.frame_matrix(p).T], axis=1)
        kernel = nullspace(stacked)
        return stacked, stacked.shape[1] - kernel.shape[1], kernel

    return point.point_memo(("stacked", tensor, momentum), build)


def reconstruct_dual(desc, point):
    """Rebuild the dual tensor at a point from the momentum identities: P
    from a QuasiHamiltonianDescriptor's Sigma, Sigma from a
    QuasiPoissonDescriptor's P.  The laws say that a matrix M vanishes on
    the kernel of the stacked momentum map (`_stacked_map`, NotEpimorphism
    unless onto) and that the dual tensor is (M pinv(stacked))^T.  Returns
    (frame matrix, kernel residual: the largest column norm of M on that
    kernel), made once per point and key (`SitePoint.point_memo`)."""
    return point.point_memo(_memo_key(desc),
                            lambda p: _reconstruct_dual(desc, p))


def _reconstruct_dual(desc, point):
    s_low, h_up = desc.site.pairing.require_invertible()
    stacked, rank, kernel = _stacked_map(desc, point)
    nfr = point.frame().dim
    if rank < nfr:
        raise NotEpimorphism("stacked momentum map is rank-deficient at this point")
    lins = _linears(desc, point)
    rho = _rho(lins, nfr)
    eye = np.eye(nfr)
    if isinstance(desc, QuasiHamiltonianDescriptor):
        m = np.concatenate([*(0.5 * _bivector_momentum_rhs(lin, h_up) for lin in lins),
                            eye - 0.25 * rho], axis=1)
    else:
        m = np.concatenate([*(0.5 * lin.left @ (np.eye(len(s_low)) + lin.ad.T) @ s_low
                              for lin in lins),
                            eye - 0.25 * rho.T], axis=1)
    out = (m @ np.linalg.pinv(stacked)).T     # row/column convention: transpose map
    kresid = float(np.linalg.norm(m @ kernel, axis=0).max(initial=0.0))
    return out, kresid


def nondegeneracy_check(desc, point):
    """Rank certificate of momentum-relative non-degeneracy, zero when
    non-degenerate: the corank of the stacked map that reconstruction
    inverts, for a 2-form dim (ker sigma-flat cap ker dPhi)."""
    return point.frame().dim - _stacked_map(desc, point)[1]


# ---------------------------------------------------------------------------
# quasi-closedness and the structural calibration identity
# ---------------------------------------------------------------------------

def _random_sections(site, rng, shape):
    """Random constant sections, as factor indices (shape) and algebra
    coefficients (shape + (d,)), drawn one section after another in C order:
    its factor, then the real and the imaginary parts of its coefficients."""
    d = site.model.d
    fac = np.empty(shape, dtype=int)
    x = np.empty(shape + (d,), dtype=complex)
    for k in np.ndindex(shape):
        fac[k] = rng.integers(site.nfac)
        x[k] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return fac, x


def _worst(worst, values):
    """Max of worst and every |value|, NaN if any is NaN, with the scalar
    modulus of each entry: numpy's vectorized complex modulus can round
    differently in the last bit."""
    return float(np.max([worst] + [abs(v) for v in np.ravel(values)]))


_TRIPLES = 4                # random section triples drawn per point


def _closure_residual(site, form, pullbacks, points, seed):
    """max |d form (S1,S2,S3) - sum_c c lambda(dW S1, dW S2, dW S3)| over
    _TRIPLES random section triples at each point, the sum over the
    (coefficient c, word W) pullbacks of the cubic form.

    Every point's triples are drawn first, in point order, as (P, _TRIPLES,
    3) factor indices and (P, _TRIPLES, 3, d) coefficients; then they go to
    one `exterior_d3` and to one `Words` store over each point's factors and
    inverses, (P, 1, n, n), which sweeps every pullback word along the
    sections' tangents as rows, (P, 3 _TRIPLES, n, n), and inverts its value
    once for one `eval_lambda` per word."""
    model, npts, n = site.model, len(points), site.model.n
    rng = np.random.Generator(np.random.PCG64(seed))
    fac, x = _random_sections(site, rng, (npts, _TRIPLES, 3))
    mats = np.stack([p.mats for p in points])
    lhs = exterior_d3(site, form, mats, fac, x).reshape(npts, _TRIPLES)
    at = mats.swapaxes(0, 1)[:, :, None]
    inverses = np.stack([p.inverses() for p in points]).swapaxes(0, 1)
    words = Words(at, inverses[:, :, None])
    ts = {0: section_value(site, fac.reshape(npts, -1),
                           x.reshape(npts, 3 * _TRIPLES, -1), at)}
    rhs = 0.0
    for coef, word in pullbacks:
        dv = np.broadcast_to(words.derivative(word, ts, 0),
                             (npts, 3 * _TRIPLES, n, n)).reshape(
            npts, _TRIPLES, 3, n, n)
        rhs = rhs + coef * eval_lambda(model, site.pairing, words.inverse(word),
                                       dv[:, :, 0], dv[:, :, 1], dv[:, :, 2])
    return _worst(0.0, lhs - rhs)


def quasi_closed_residual(desc, points, seed):
    """max |d sigma (S1,S2,S3) - sum_i lambda(dPhi_i S1, dPhi_i S2, dPhi_i S3)|."""
    return _closure_residual(desc.site, desc.form,
                             [(1.0, comp.word) for comp in desc.momentum],
                             points, seed)


def cn1_residual(site, points, seed):
    """Calibration: half the exterior derivative of the mixed pairing equals
    the two factor pullbacks of the cubic form minus its product pullback."""
    if site.nfac < 2:
        raise BadSignature("needs two group factors")
    wa, wb, wab = (parse_word(site, w) for w in ("a", "b", "ab"))
    form = FormField(site, pair_terms=[PairTerm(0.5, wa, wb)])
    return _closure_residual(site, form, [(1.0, wa), (1.0, wb), (-1.0, wab)],
                             points, seed)


# ---------------------------------------------------------------------------
# the quasi-Poisson law and equivariance
# ---------------------------------------------------------------------------

def eval_phi_actions(desc, point, phi, alpha, beta, gamma):
    """Half-contraction of the cubic tensor through every action component."""
    total = 0.0
    for lin in _linears(desc, point):
        a, b, c = (np.asarray(cov) @ lin.action for cov in (alpha, beta, gamma))
        total = total + 0.5 * np.einsum("jks,j,k,s->", phi, a, b, c)
    return total


def jacobiator_vs_phi(desc, point, fns, phi):
    """|Jacobiator(f1,f2,f3) - 2 phi_M(df1,df2,df3)| at the point, phi the
    cubic tensor (`liealg.cartan3`)."""
    jac = jacobiator(desc.bivector, point, *fns)
    covs = [differential(point, fn) for fn in fns]
    rhs = 2.0 * eval_phi_actions(desc, point, phi, *covs)
    return float(abs(jac - rhs))


def equivariance_residual(qp, qh, point, cpoint, g, gi):
    """Invariance of the tensors under simultaneous conjugation by g, as
    matrix identities on the frame matrices; gi is g^-1 and cpoint the
    conjugated point, whose factors are g q g^-1.

    With T the (N, N) matrix whose row a holds the frame components at
    cpoint of g v_a g^-1, this is the max of |P(cpoint) - T^T P(point) T| and
    |Sigma(point) - T Sigma(cpoint) T^T|; the Sigma term is left out when qh
    is None.
    """
    tmat = cpoint.frame().components(g @ point.frame().stacked @ gi)
    biv = qp.bivector
    gaps = [np.abs(biv.frame_matrix(cpoint)
                   - tmat.T @ biv.frame_matrix(point) @ tmat).max()]
    if qh is not None:
        form = qh.form
        gaps.append(np.abs(form.frame_matrix(point)
                           - tmat @ form.frame_matrix(cpoint) @ tmat.T).max())
    return float(np.max(gaps))


_TANGENCY_TOL = 1e-8


def restrict_to_class(biv, point, factor):
    """Tangency residual of an ambient bivector's image to a class factor:
    the largest part of its sharp image on the factor's block that leaves
    the factor's frame vectors."""
    site = biv.site
    if site.factors[factor].kind != "class":
        raise BadSignature("restriction target must be a class factor")
    n = site.model.n
    pamb = biv.ambient_matrix(point)
    # sharp image lives in the row space of pamb^T; project factor block
    umat = point.frame().per_factor[factor].reshape(-1, n * n).T
    proj = umat @ umat.conj().T
    rows = slice(factor * n * n, (factor + 1) * n * n)
    image_rows = pamb.T[rows, :]
    resid = float(np.abs(image_rows - proj @ image_rows).max())
    if resid > _TANGENCY_TOL * (1 + float(np.abs(pamb).max())):
        raise NotTangent(f"bivector image leaves the class tangents "
                         f"(residual {resid:.3e})")
    return resid
