"""Invariant trace-word functions and reduced brackets at representation points.

Functions here are callables on the list of factor matrices, transparent to
the dual-number lifts used for differentiation.  Trace words generate enough
invariants at desk scale; sums and products of them are plain Python
compositions.  The sampler solves the relator constraint by damped
Gauss-Newton over per-factor retractions, so class factors keep their
spectrum exactly; it accepts a step when the 2-norm of the gap drops, and
sets the damping from the gain ratio.  The solver carries every factor's
inverse along with the factor, so no letter is inverted again: each
iteration's Jacobian reads the prefix products that its gap folded and
sweeps the relator once for the suffix products, one SVD of it gives the
steps of all damping trials, and a trial retracts every factor, and its
inverse, from one batched matrix exponential and one batched inversion.
The solves of a chunk of seeds, at most a batch of points
(`groupgeom._BATCH_POINTS`), run in lockstep, with the (B, ...) stacks of
all rows in each of these steps, and each row gets the bits of its one-row
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import Dual, _dexpm_rows, dtrace, matmul
from .errors import MaxIters, NotInvariant, Stalled
from .fields import PAIR_WEIGHT, bracket_funcs, differential, jacobiator
from .groupgeom import (
    _BATCH_POINTS,
    PointBatch,
    SitePoint,
    _letters,
    parse_word,
    random_point,
    word_eval,
    word_tangent,
)
from .liealg import random_group_elements

__all__ = [
    "TraceFunction",
    "RepSample",
    "invariance_residual",
    "bracket",
    "hamiltonian_field",
    "level_tangency_residual",
    "jacobi_invariants",
    "poisson_ideal_residual",
    "solve_relator",
    "solve_relators",
]


class TraceFunction:
    """Trace of a word value: conjugation-invariant by construction."""

    def __init__(self, site, word):
        self.site = site
        self.word = parse_word(site, word) if isinstance(word, str) else tuple(word)

    def __call__(self, mats):
        return dtrace(word_eval(self.word, mats))

    def __repr__(self):
        letters = "".join(
            self.site.letter(f) if p == 1 else self.site.letter(f).upper()
            for f, p in self.word)
        return f"TraceFunction({letters!r})"


_INVARIANCE_PROBES = 4


def invariance_residual(fn, point, rng):
    """Max |f(g p g^-1) - f(p)| over sampled group elements g; NaN if any
    probe is NaN."""
    g = random_group_elements(point.site.model, rng, (_INVARIANCE_PROBES,))
    moved = g[:, None] @ point.mats @ np.linalg.inv(g)[:, None]
    base = complex(fn(point.mats))
    gaps = [abs(complex(fn(mats)) - base) for mats in moved]
    return float(np.max(gaps, initial=0.0))


def bracket(biv, f, h, point):
    """Bracket {f, h}: full pairing of the bivector with df and dh."""
    return bracket_funcs(biv, point, f, h)


_INVARIANCE_TOL = 1e-8


def hamiltonian_field(biv, f, point, seed):
    """Tangent P-sharp(df) of an invariant function, as one (nfac, n, n)
    array of factor components.

    The invariance precondition is sampled; a function that visibly varies
    under simultaneous conjugation, or gives NaN, is refused.
    """
    resid = invariance_residual(f, point, np.random.default_rng(seed))
    if not resid <= _INVARIANCE_TOL:
        raise NotInvariant(
            f"function varies under conjugation (residual {resid:.3e})")
    df = differential(point, f)
    return np.tensordot(biv.frame_matrix(point).T @ df,
                        point.frame().stacked, axes=(0, 1))


def level_tangency_residual(desc, f, point, seed):
    """Max |d(word)(X_f)| over the descriptor's momentum words.

    The field of an invariant function is tangent to every momentum level.
    """
    xf = hamiltonian_field(desc.bivector, f, point, seed)
    return float(np.max([np.abs(word_tangent(comp.word, point.letters(comp.word),
                                             [xf], None)[-1][1]).max()
                         for comp in desc.momentum], initial=0.0))


def jacobi_invariants(biv, f, h, k, points):
    """Max |Jacobiator(f, h, k)| over the points; zero on invariants."""
    return float(np.max([abs(jacobiator(biv, p, f, h, k)) for p in points],
                        initial=0.0))


def poisson_ideal_residual(biv, phi_word, f, points):
    """Max |{f, chi o word}| over points of a level set of the word.

    chi runs over traces of the first n matrix powers; these pullbacks cut
    out the conjugacy-class level set, and their brackets with invariants
    vanish along it.  Per point, df is evaluated once, and the word's value
    and derivative along every frame vector, from the sweep of the point's
    batch (`SitePoint.word_derivative`), form one Dual; each power is the
    previous one times it, and a bracket is 2 df . P . dchi.
    """
    site = biv.site
    if isinstance(phi_word, str):
        phi_word = parse_word(site, phi_word)
    resid = []
    for pt in points:
        pmat, df = biv.frame_matrix(pt), differential(pt, f)
        w = Dual(*pt.word_derivative(phi_word))
        power = w
        for m in range(site.model.n):
            if m:
                power = power @ w
            resid.append(abs(PAIR_WEIGHT * (df @ pmat @ dtrace(power).eps)))
    return float(np.max(resid, initial=0.0))


# ---------------------------------------------------------------------------
# Relator sampling (damped Gauss-Newton over per-factor retractions)
# ---------------------------------------------------------------------------

@dataclass
class RepSample:
    point: SitePoint
    residual: float
    iters: int


def _relator_gap(word, mats, invs, target_inv):
    """Every row's gap word(p) target^-1 - I, (B, n, n), from the rows'
    (B, nfac, n, n) factors and factor inverses, and the products of the
    word's first 1, ..., L letters that its fold passes through, as one
    (L, B, n, n) stack (`_relator_jacobian` reads them)."""
    n = target_inv.shape[0]
    letters = _letters(word, mats.swapaxes(0, 1), invs.swapaxes(0, 1))
    prefixes = np.empty((len(word),) + letters[0].shape, dtype=complex)
    prefixes[0] = letters[0]
    for k, t in enumerate(letters[1:], 1):
        np.matmul(prefixes[k - 1], t, out=prefixes[k])
    return prefixes[-1] @ target_inv - np.eye(n), prefixes


def _real_stack(m):
    """(B, 2 n n): each row's matrix flattened, real parts then imaginary."""
    flat = m.reshape(len(m), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _apply_step(site, mats, invs, steps):
    """Every row's retraction by its step, as (moved factors, their
    inverses): right-translate group factors by g = exp(xi), so
    (q g)^-1 = g^-1 q^-1, and conjugate class factors by g = exp(theta), so
    (g q g^-1)^-1 = g q^-1 g^-1.  A row's factors are exponentiated with the
    scaling power of their own largest norm, as in a one-row batch."""
    model = site.model
    seg = steps.reshape(len(steps), site.nfac, model.d, 2)
    g = _dexpm_rows(model.from_coeffs(seg[..., 0] + 1j * seg[..., 1]))
    g_inv = np.linalg.inv(g)
    moved, moved_inv = mats @ g, g_inv @ invs
    cls = site.class_indices()
    if cls:
        moved[:, cls] = g[:, cls] @ mats[:, cls] @ g_inv[:, cls]
        moved_inv[:, cls] = g[:, cls] @ invs[:, cls] @ g_inv[:, cls]
    return moved, moved_inv


def _relator_jacobian(site, word, mats, invs, prefixes, target_inv):
    """(B, 2 n n, 2 nfac d): every row's real Jacobian of the stacked
    relator gap in the step parameters, from the prefix products of its gap
    (`_relator_gap`) and one sweep of suffix products; an inverse letter
    reads invs, the factor inverses.

    With P_i the product of the first i letters (P_0 = I) and S_i that of
    the letters from i on, target_inv folded in, letter i of factor f moves
    the gap by P_i V S_(i+1), or by -P_(i+1) V S_i when the letter is
    inverted, for each of f's d step directions V (q e_j on a group factor,
    e_j q - q e_j on a class factor).  All letters' terms come from two
    stacked products, (P V) S, and each factor sums its letters' terms in
    letter order.  Columns f*d..(f+1)*d hold factor f's directions, as the
    rows of TangentFrame.stacked, and each direction fills a real and an
    imaginary column."""
    d, n, nfac = site.model.d, site.model.n, site.nfac
    rows, basis = len(mats), site.model.basis
    letters = _letters(word, mats.swapaxes(0, 1), invs.swapaxes(0, 1))
    # P_0 .. P_L and S_0 .. S_L as (L + 1, B, n, n) stacks
    prefix = np.empty((len(word) + 1, rows, n, n), dtype=complex)
    prefix[0], prefix[1:] = np.eye(n), prefixes
    suffix = np.empty_like(prefix)
    suffix[-1] = target_inv
    for i in reversed(range(len(word))):
        np.matmul(letters[i], suffix[i + 1], out=suffix[i])
    # every factor's step directions, (B, nfac, d, n, n)
    qs = mats[:, :, None]
    directions = qs @ basis
    for f in site.class_indices():
        directions[:, f] = basis @ qs[:, f] - directions[:, f]
    # letter i's term, P_i V S_(i+1), or -P_(i+1) V S_i when inverted, as
    # a (B, L, d, n, n) stack
    fs, inverted = zip(*((f, p == -1) for f, p in word))
    left = np.arange(len(word)) + inverted
    right = np.arange(len(word)) + np.logical_not(inverted)
    terms = matmul(prefix[left].swapaxes(0, 1)[:, :, None] @ directions[:, fs],
                   suffix[right].swapaxes(0, 1)[:, :, None])
    # each factor's terms, added in letter order
    delta = np.zeros((rows, nfac, d, n, n), dtype=complex)
    for k, (f, p) in enumerate(word):
        if p == 1:
            delta[:, f] += terms[:, k]
        else:
            delta[:, f] -= terms[:, k]
    delta = delta.reshape(rows, nfac * d, -1)
    jmat = np.empty((rows, 2 * n * n, 2 * nfac * d))
    jmat[..., 0::2] = np.concatenate([delta.real, delta.imag], axis=2).swapaxes(1, 2)
    jmat[..., 1::2] = np.concatenate([-delta.imag, delta.real], axis=2).swapaxes(1, 2)
    return jmat


def _step_parts(jmat, rvec):
    """(s, V^T, U^T r) of every row's SVD J = U diag(s) V^T: the parts its
    damped steps at every damping are made of."""
    u, s, vt = np.linalg.svd(jmat, full_matrices=False)
    return s, vt, (u.swapaxes(1, 2) @ rvec[..., None])[..., 0]


def _damped_steps(s, vt, ur, mu):
    """Every row's damped Gauss-Newton step x at its damping mu,
    (J^T J + mu I) x = -J^T r, from the parts of its SVD:
    x = -V diag(s / (s^2 + mu)) U^T r."""
    scaled = s / (s * s + mu[:, None]) * ur
    return -(vt.swapaxes(1, 2) @ scaled[..., None])[..., 0]


_MAX_ITERS = 200
_TOL = 1e-10                # sup-norm of the relator gap that counts as solved


def solve_relators(site, word, target, seeds):
    """Per seed, a site point solving  word(p) = target  by damped
    Gauss-Newton from the random point of the seed: its RepSample, or the
    SolverStopped that ended it, in seed order.

    Parameters are per-factor algebra coefficients treated as independent
    real pairs; the residual r is the stacked real/imaginary part of
    word(p) target^-1 - I.  The factor inverses are inverted once at the
    start and then carried along with the point.  Each iteration takes the
    Jacobian J from the prefix products of its gap and one suffix sweep
    over the relator, and one SVD of J, which gives the step x for every
    damping trial; a trial is accepted when |r|^2 drops, and its gap and
    prefix products are the next iteration's.  The damping
    mu follows the gain ratio rho, the actual drop of |r|^2 over the drop
    |r|^2 - |r + J x|^2 the linear model predicts (Nielsen's rule, as in
    Madsen-Nielsen-Tingleff 2004): an accepted step scales mu by
    max(1/3, 1 - (2 rho - 1)^3) and resets nu to 2, and a rejected one
    scales mu by nu and doubles nu.  The predicted drop is taken as
    |J x|^2 + 2 mu |x|^2, which equals it by the normal equations and,
    unlike the difference, does not cancel for tiny steps.  Every iteration
    tries at least one step; it stalls when mu reaches 1e14 without a drop.
    The returned residual is the sup-norm of the gap.

    The rows solve in lockstep, in chunks of at most _BATCH_POINTS seeds,
    the size of a batch of points, so that memory does not grow with the
    seeds: each sweep tries one step for every row of the chunk still
    solving, as (B, ...) stacks of factors, gaps, Jacobians, SVDs, steps and
    retractions, and rebuilds the Jacobian and SVD only of the rows that
    accepted their last trial.  Each row keeps its own mu, nu, iteration
    count and outcome, and its result equals its one-row solve bit for bit.
    The solved rows of a chunk are the points of one PointBatch, built when
    the chunk returns.
    """
    if isinstance(word, str):
        word = parse_word(site, word)
    target_inv = np.linalg.inv(np.asarray(target, dtype=complex))
    seeds = list(seeds)
    return [out for start in range(0, len(seeds), _BATCH_POINTS)
            for out in _solve_lockstep(site, word, target_inv,
                                       seeds[start:start + _BATCH_POINTS])]


def _solve_lockstep(site, word, target_inv, seeds):
    """One chunk of solve_relators: every seed's row, solved together."""
    mats = np.stack([random_point(site, np.random.default_rng(seed)).mats
                     for seed in seeds])
    invs = np.linalg.inv(mats)
    gap, prefixes = _relator_gap(word, mats, invs, target_inv)
    rvec = _real_stack(gap)
    current = [float(np.abs(g).max()) for g in gap]
    rows, m, p = len(mats), rvec.shape[1], 2 * site.nfac * site.model.d
    k = min(m, p)
    # per row: its last Jacobian, the SVD parts of its steps, and |r|^2
    jmat, vt = np.empty((rows, m, p)), np.empty((rows, k, p))
    s, ur = np.empty((rows, k)), np.empty((rows, k))
    cost = [0.0] * rows
    mu, nu = np.full(rows, 1e-3), np.full(rows, 2.0)
    iters = [0] * rows
    outs = [None] * rows
    fresh = list(range(rows))     # the rows that start an iteration
    while True:
        for b in fresh:
            if current[b] <= _TOL:
                # its point comes with the chunk's other solved rows
                outs[b] = RepSample(None, current[b], iters[b])
            elif iters[b] == _MAX_ITERS:
                outs[b] = MaxIters(
                    f"no convergence in {_MAX_ITERS} iterations "
                    f"(residual {current[b]:.3e})",
                    best_residual=current[b], iters=_MAX_ITERS)
        fresh = [b for b in fresh if outs[b] is None]
        if fresh:
            jmat[fresh] = _relator_jacobian(site, word, mats[fresh],
                                            invs[fresh], prefixes[:, fresh],
                                            target_inv)
            s[fresh], vt[fresh], ur[fresh] = _step_parts(jmat[fresh],
                                                         rvec[fresh])
            for b in fresh:
                cost[b] = float(rvec[b] @ rvec[b])
        active = [b for b in range(rows) if outs[b] is None]
        if not active:
            solved = [b for b, out in enumerate(outs) if isinstance(out, RepSample)]
            for b, point in zip(solved, PointBatch(site, mats[solved]).points()):
                outs[b].point = point
            return outs
        x = _damped_steps(s[active], vt[active], ur[active], mu[active])
        trial, trial_invs = _apply_step(site, mats[active], invs[active], x)
        trial_gap, trial_prefixes = _relator_gap(word, trial, trial_invs,
                                                 target_inv)
        trial_rvec = _real_stack(trial_gap)
        fresh = []
        for i, b in enumerate(active):
            trial_cost = float(trial_rvec[i] @ trial_rvec[i])
            if trial_cost < cost[b]:
                jx = jmat[b] @ x[i]
                rho = (cost[b] - trial_cost) / float(
                    jx @ jx + 2.0 * mu[b] * (x[i] @ x[i]))
                mats[b], invs[b], rvec[b] = trial[i], trial_invs[i], trial_rvec[i]
                prefixes[:, b] = trial_prefixes[:, i]
                current[b] = float(np.abs(trial_gap[i]).max())
                mu[b] *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu[b] = 2.0
                iters[b] += 1
                fresh.append(b)
                continue
            mu[b] *= nu[b]
            nu[b] *= 2.0
            if mu[b] >= 1e14:
                outs[b] = Stalled(
                    f"no descent direction (residual {current[b]:.3e})",
                    best_residual=current[b], iters=iters[b] + 1)


def solve_relator(site, word, target, seed=0):
    """The solve of one seed by solve_relators, a batch of one: its
    RepSample, or its SolverStopped raised.  A command solves its rows in
    lockstep through solve_relators, and each of those rows equals this
    solve of its seed bit for bit."""
    (out,) = solve_relators(site, word, target, [seed])
    if isinstance(out, RepSample):
        return out
    raise out
