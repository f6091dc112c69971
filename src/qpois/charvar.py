"""Invariant trace-word functions and reduced brackets at representation points.

Functions here are callables on the list of factor matrices, transparent to
the dual-number lifts used for differentiation.  Trace words generate enough
invariants at desk scale; sums and products of them are plain Python
compositions.  The sampler solves the relator constraint by damped
Gauss-Newton over per-factor retractions, so class factors keep their
spectrum exactly; it accepts a step when the 2-norm of the gap drops, and
sets the damping from the gain ratio.  The solver carries every factor's
inverse along with the factor, so no letter is inverted again: each
iteration sweeps the relator once for its Jacobian (prefix and suffix
products), takes one SVD of it for the steps of all damping trials, and
retracts every factor of a trial, and its inverse, from one batched matrix
exponential and one batched inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .duals import dexpm, dtrace
from .errors import MaxIters, NotInvariant, Stalled
from .fields import bracket_funcs, differential, jacobiator
from .groupgeom import (
    SitePoint,
    _letters,
    conjugate_point,
    parse_word,
    random_point,
    word_eval,
    word_tangent,
)
from .liealg import random_algebra_element

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
    site = point.site
    base = complex(fn(point.mats))
    gaps = []
    for _ in range(_INVARIANCE_PROBES):
        xi = site.model.from_coeffs(random_algebra_element(site.model, rng))
        moved = conjugate_point(point, dexpm(xi))
        gaps.append(abs(complex(fn(moved.mats)) - base))
    return float(np.max(gaps, initial=0.0))


def bracket(biv, f, h, point):
    """Bracket {f, h}: full pairing of the bivector with df and dh."""
    return bracket_funcs(biv, point, f, h)


_INVARIANCE_TOL = 1e-8


def hamiltonian_field(biv, f, point, seed=0):
    """Tangent P-sharp(df) of an invariant function.

    The invariance precondition is sampled; a function that visibly varies
    under simultaneous conjugation, or gives NaN, is refused.
    """
    resid = invariance_residual(f, point, np.random.default_rng(seed))
    if not resid <= _INVARIANCE_TOL:
        raise NotInvariant(
            f"function varies under conjugation (residual {resid:.3e})")
    df = differential(point, f)
    return point.frame().assemble(biv.frame_matrix(point).T @ df)


def level_tangency_residual(desc, f, point, seed=0):
    """Max |d(word)(X_f)| over the descriptor's momentum words.

    The field of an invariant function is tangent to every momentum level.
    """
    xf = hamiltonian_field(desc.bivector, f, point, seed=seed)
    return float(np.max([np.abs(word_tangent(comp.word, point.mats, xf)).max()
                         for comp in desc.momentum], initial=0.0))


def jacobi_invariants(biv, f, h, k, points):
    """Max |Jacobiator(f, h, k)| over the points; zero on invariants."""
    return float(np.max([abs(jacobiator(biv, p, f, h, k)) for p in points],
                        initial=0.0))


def poisson_ideal_residual(biv, phi_word, target, f, points):
    """Max |{f, chi o word - chi(target)}| over level-set points.

    chi runs over traces of the first n matrix powers; these pullbacks cut
    out the conjugacy-class level set, and their brackets with invariants
    vanish along it.
    """
    site = biv.site
    if isinstance(phi_word, str):
        phi_word = parse_word(site, phi_word)
    target = np.asarray(target, dtype=complex)
    resid = []
    for m in range(1, site.model.n + 1):
        cval = complex(np.trace(np.linalg.matrix_power(target, m)))

        def vanishing(mats, _m=m, _c=cval):
            w = word_eval(phi_word, mats)
            acc = w
            for _ in range(_m - 1):
                acc = acc @ w
            return dtrace(acc) - _c

        resid += [abs(bracket_funcs(biv, pt, f, vanishing)) for pt in points]
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
    n = target_inv.shape[0]
    return (reduce(np.matmul, _letters(word, mats, invs)) @ target_inv
            - np.eye(n))


def _real_stack(m):
    flat = np.asarray(m).reshape(-1)
    return np.concatenate([flat.real, flat.imag])


def _apply_step(site, point, invs, step):
    """One batched retraction, (moved point, its factor inverses):
    right-translate group factors by g = exp(xi), so (q g)^-1 = g^-1 q^-1,
    and conjugate class factors by g = exp(theta), so (g q g^-1)^-1 =
    g q^-1 g^-1."""
    model = site.model
    seg = step.reshape(site.nfac, model.d, 2)
    g = dexpm(model.from_coeffs(seg[..., 0] + 1j * seg[..., 1]))
    g_inv = np.linalg.inv(g)
    mats = point.mats
    moved, moved_inv = mats @ g, g_inv @ invs
    cls = site.class_indices()
    if cls:
        moved[cls] = g[cls] @ mats[cls] @ g_inv[cls]
        moved_inv[cls] = g[cls] @ invs[cls] @ g_inv[cls]
    return SitePoint(site, moved), moved_inv


def _relator_jacobian(site, word, mats, invs, target_inv):
    """Real Jacobian of the stacked relator gap in the step parameters, from
    one sweep over the relator; an inverse letter reads invs, the factor
    inverses.

    With prefix products P_i of the first i letters and suffix products S_i
    of the letters from i on, target_inv folded in, letter i of factor f
    moves the gap by P_i V S_(i+1), or by -P_(i+1) V S_i when the letter is
    inverted, for each of f's d step directions V (q e_j on a group factor,
    e_j q - q e_j on a class factor).  Rows f*d..(f+1)*d hold factor f's
    directions, as in TangentFrame.stacked, and each direction fills a real
    and an imaginary column."""
    d, n, nfac = site.model.d, site.model.n, site.nfac
    basis = site.model.basis
    terms = _letters(word, mats, invs)
    prefix = [np.eye(n, dtype=complex)]
    for t in terms:
        prefix.append(prefix[-1] @ t)
    suffix = [target_inv]
    for t in reversed(terms):
        suffix.append(t @ suffix[-1])
    suffix.reverse()
    directions = [q @ basis if fac.kind == "group" else basis @ q - q @ basis
                  for fac, q in zip(site.factors, mats)]
    delta = np.zeros((nfac, d, n, n), dtype=complex)
    for i, (f, p) in enumerate(word):
        if p == 1:
            delta[f] += prefix[i] @ directions[f] @ suffix[i + 1]
        else:
            delta[f] -= prefix[i + 1] @ directions[f] @ suffix[i]
    delta = delta.reshape(nfac * d, -1)
    jmat = np.empty((2 * n * n, 2 * nfac * d))
    jmat[:, 0::2] = np.concatenate([delta.real, delta.imag], axis=1).T
    jmat[:, 1::2] = np.concatenate([-delta.imag, delta.real], axis=1).T
    return jmat


def _damped_steps(jmat, rvec):
    """mu -> the damped Gauss-Newton step x, (J^T J + mu I) x = -J^T r, for
    every damping mu from one SVD J = U diag(s) V^T:
    x = -V diag(s / (s^2 + mu)) U^T r."""
    u, s, vt = np.linalg.svd(jmat, full_matrices=False)
    ur = u.T @ rvec
    return lambda mu: -(vt.T @ (s / (s * s + mu) * ur))


_MAX_ITERS = 200
_TOL = 1e-10                # sup-norm of the relator gap that counts as solved


def solve_relator(site, word, target, seed=0):
    """Sample a site point solving  word(p) = target  by damped Gauss-Newton
    from the random point of the seed.

    Parameters are per-factor algebra coefficients treated as independent
    real pairs; the residual r is the stacked real/imaginary part of
    word(p) target^-1 - I.  The factor inverses are inverted once at the
    start and then carried along with the point.  Each iteration takes the
    Jacobian J from one sweep over the relator and one SVD of it, which
    gives the step x for every damping trial; a trial is accepted when
    |r|^2 drops, and its gap is the next iteration's residual.  The damping
    mu follows the gain ratio rho, the actual drop of |r|^2 over the drop
    |r|^2 - |r + J x|^2 the linear model predicts (Nielsen's rule, as in
    Madsen-Nielsen-Tingleff 2004): an accepted step scales mu by
    max(1/3, 1 - (2 rho - 1)^3) and resets nu to 2, and a rejected one
    scales mu by nu and doubles nu.  The predicted drop is taken as
    |J x|^2 + 2 mu |x|^2, which equals it by the normal equations and,
    unlike the difference, does not cancel for tiny steps.  Every iteration
    tries at least one step; it stalls when mu reaches 1e14 without a drop.
    The returned residual is the sup-norm of the gap.
    """
    if isinstance(word, str):
        word = parse_word(site, word)
    target = np.asarray(target, dtype=complex)
    target_inv = np.linalg.inv(target)

    point = random_point(site, np.random.default_rng(seed))
    invs = point.inverses()
    gap = _relator_gap(word, point.mats, invs, target_inv)
    rvec = _real_stack(gap)
    current = float(np.abs(gap).max())
    mu, nu = 1e-3, 2.0
    for it in range(_MAX_ITERS):
        if current <= _TOL:
            return RepSample(point, current, it)
        jmat = _relator_jacobian(site, word, point.mats, invs, target_inv)
        step = _damped_steps(jmat, rvec)
        cost = float(rvec @ rvec)
        while True:
            x = step(mu)
            trial, trial_invs = _apply_step(site, point, invs, x)
            trial_gap = _relator_gap(word, trial.mats, trial_invs, target_inv)
            trial_rvec = _real_stack(trial_gap)
            trial_cost = float(trial_rvec @ trial_rvec)
            if trial_cost < cost:
                jx = jmat @ x
                rho = (cost - trial_cost) / float(jx @ jx + 2.0 * mu * (x @ x))
                point, invs, gap, rvec = trial, trial_invs, trial_gap, trial_rvec
                current = float(np.abs(gap).max())
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                break
            mu *= nu
            nu *= 2.0
            if mu >= 1e14:
                raise Stalled(
                    f"no descent direction (residual {current:.3e})",
                    best_residual=current, iters=it + 1)
    if current <= _TOL:
        return RepSample(point, current, _MAX_ITERS)
    raise MaxIters(
        f"no convergence in {_MAX_ITERS} iterations (residual {current:.3e})",
        best_residual=current, iters=_MAX_ITERS)
