"""Batch driver: JSON config in, canonical JSON reports out.

Subcommands
  verify <core|duality|dirac|moduli|all>  structural verification sweeps
  bracket                                 invariant-trace brackets at solved points
  sample                                  relator samples as matrix literals

Every command takes --config/--seed/--out; reports are canonical JSON (sorted
keys, floats at 17 significant digits, no timestamps) so a rerun with the same
config and seed is byte-identical.  Checks run one after another.  A run
draws its points once, and every check that reads drawn points takes a prefix
of them; each check's other draws come from its own random stream.  A check
that cannot run because the input refuses it (degenerate pairing, missing
2-form) is reported as skipped with the reason; a numerical violation, a NaN
residual or an unexpected error is a failure.  Exit status is zero exactly
when no check failed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import platform
import sys
from dataclasses import dataclass
from functools import cached_property

import click
import numpy as np

from . import __version__
from .charvar import (
    RepSample,
    TraceFunction,
    bracket as bracket_value,
    jacobi_invariants,
    level_tangency_residual,
    poisson_ideal_residual,
    solve_relators,
)
from .dirac import (
    cartan_dirac_fibers,
    dirac_booleans,
    projections_pq,
    prop_tech_chain,
)
from .duals import dexpm, dtrace
from .errors import (
    ConfigError,
    DegeneratePairing,
    IoError,
    NotTangent,
    QpoisError,
    expect,
    is_finite_number,
)
from .groupgeom import Factor, PointBatch, Site, parse_word, random_points
from .liealg import (
    _AD_SAMPLES,
    ad_invariance_residual,
    cartan3,
    cubic_alternation,
    random_group_elements,
    verify_chi_identity,
)
from .models import DEFAULT_GROUP, model_from_config
from .quasi import (
    assemble_surface_site,
    class_descriptors,
    cn1_residual,
    duality_residual,
    equivariance_residual,
    intersection_dim,
    jacobiator_vs_phi,
    momentum_residual,
    nondegeneracy_check,
    quasi_closed_residual,
    reconstruct_dual,
    relator_word,
    restrict_to_class,
)

__all__ = [
    "load_config",
    "run_suite",
    "compute_brackets",
    "sample_points",
    "write_report",
    "canonical_json",
    "main",
]

log = logging.getLogger("qpois.cli")

SCHEMA_VERSION = 1

_SUITES = ("core", "duality", "dirac", "moduli", "all")

_DEFAULT_TOLS = {
    "linear": 1e-10,
    "momentum": 1e-9,
    "duality": 1e-8,
    "derivative": 1e-7,
    "solver": 1e-10,
    "rank": 1e-8,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _parse_matrix(lit, loc):
    """Row-major nested arrays of [re, im] pairs -> complex ndarray."""
    expect(isinstance(lit, list) and lit, loc, "matrix literal must be a "
           "non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(lit):
        expect(isinstance(row, list) and row, f"{loc}[{r}]",
               "row must be a non-empty list of [re, im] pairs")
        if width is None:
            width = len(row)
        expect(len(row) == width, f"{loc}[{r}]",
               f"row length {len(row)} differs from {width}")
        out_row = []
        for c, entry in enumerate(row):
            expect(isinstance(entry, list) and len(entry) == 2
                   and all(map(is_finite_number, entry)),
                   f"{loc}[{r}][{c}]",
                   "entry must be a [re, im] pair of finite numbers")
            out_row.append(complex(entry[0], entry[1]))
        rows.append(out_row)
    return np.array(rows, dtype=complex)


_GROUP_TOL = 1e-10


def _group_element(mat, loc, model):
    """mat, refused unless it is an element of the model's group: of the
    model's shape, in the matrix span of the identity and the model's basis
    (all matrices for SL and GL, the diagonal for abelian, the block diagonal
    for sl2_abelian), invertible, and of determinant 1 on every diagonal
    block where the model is traceless (the whole matrix for SL, the sl(2)
    block of sl2_abelian).  The span test is relative to the matrix's norm,
    and the determinant tests to Hadamard's bound on |det|, the product of
    the row norms, so diag(3, 1/3) and omega I pass as written in floats."""
    n = model.n
    expect(mat.shape == (n, n), loc, f"expected shape {(n, n)}, got {mat.shape}")
    span = np.column_stack([np.eye(n).reshape(-1), model.basis_mat])
    coef, *_ = np.linalg.lstsq(span, mat.reshape(-1), rcond=None)
    expect(np.linalg.norm(span @ coef - mat.reshape(-1))
           <= _GROUP_TOL * np.linalg.norm(mat), loc,
           "outside the span of the identity and the model's basis, "
           "not a group element")
    det = complex(np.linalg.det(mat))
    bound = float(np.prod(np.linalg.norm(mat, axis=1)))
    expect(abs(det) > _GROUP_TOL * bound, loc,
           "singular matrix, not a group element")
    for blk in model.traceless_blocks:
        _expect_det(mat, loc, blk, 1.0, f"outside SL({blk.stop - blk.start})")
    return mat


def _expect_det(mat, loc, blk, want, why):
    """Refuse mat unless its determinant on the diagonal block blk is want,
    relative to the larger of |want| and Hadamard's bound on the block's
    |det|, the product of its row norms."""
    sub = mat[blk, blk]
    det = complex(np.linalg.det(sub))
    bound = float(np.prod(np.linalg.norm(sub, axis=1)))
    where = "" if len(sub) == len(mat) else f" on rows {blk.start}..{blk.stop - 1}"
    expect(abs(det - want) <= _GROUP_TOL * max(abs(want), bound), loc,
           f"determinant {det:.6g}{where} is not {want:.6g}, {why}")


def _matrix_literal(mat):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat)]


def load_config(path):
    """Read and validate a run configuration; ConfigError names the location."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    expect(isinstance(raw, dict), path, "top level must be an object")
    return raw


@dataclass
class Setup:
    raw: dict
    model: object
    pairing: object
    site: object
    qp: object
    qh: object
    genus: int
    class_reps: list
    relator: tuple           # the parsed relator word of the site
    words: list              # the parsed words
    pairs: list
    targets: list            # (label, matrix)
    seed: int
    samples: int
    tols: dict
    check_filter: list | None

    @cached_property
    def phi(self):
        """The cubic tensor, made once per run for the Jacobiator check."""
        return cartan3(self.model, self.pairing)

    @cached_property
    def invariance_gate(self):
        """The sampled ad-invariance residual of the pairing, made once per
        run from the first draw of the pairing_ad_invariance check's stream:
        that check reports it, and the checks needing an invariant pairing
        are gated on it."""
        sub = int(_check_rng(self, "pairing_ad_invariance").integers(2 ** 31))
        return float(ad_invariance_residual(self.model, self.pairing, seed=sub))

    @cached_property
    def solved(self):
        """Relator solves shared by the moduli checks and made once per run:
        per target, the outcomes of min(samples, 4) solves."""
        return [[out for _, out in per] for per in _solve_targets(
            self, _check_rng(self, "relator_solver"), min(self.samples, 4))]

    @cached_property
    def points(self):
        """The run's `samples` drawn points, made once from the stream
        tagged "points": every check that reads drawn points takes a prefix
        of them, so their batch data is built once per run."""
        return random_points(self.site, _check_rng(self, "points"), self.samples)


def _solve_targets(setup, rng, count):
    """Per target, count (solver seed, outcome) pairs: the seeds drawn from
    rng target after target, and every target's rows solved in one lockstep
    `solve_relators` call."""
    subs = [int(rng.integers(2 ** 31)) for _ in setup.targets for _ in range(count)]
    targets = np.repeat(np.stack([mat for _, mat in setup.targets]), count, axis=0)
    pairs = list(zip(subs, solve_relators(setup.site, setup.relator, targets,
                                          subs)))
    return [pairs[i:i + count] for i in range(0, len(pairs), count)]


def _config_word(site, text, where):
    try:
        return parse_word(site, text)
    except QpoisError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_setup(raw, seed=None):
    """Construct the models, the site, and the shipped descriptor pair."""
    model, pairing = model_from_config(raw.get("group", DEFAULT_GROUP),
                                       raw.get("pairing"))

    site_spec = raw.get("site", {})
    expect(isinstance(site_spec, dict), "site", "must be an object")
    genus = site_spec.get("genus", 1)
    expect(isinstance(genus, int) and not isinstance(genus, bool) and genus >= 0,
           "site.genus", "must be a non-negative integer")
    reps_lit = site_spec.get("class_reps", [])
    expect(isinstance(reps_lit, list), "site.class_reps", "must be a list")
    class_reps = [_group_element(_parse_matrix(lit, f"site.class_reps[{i}]"),
                                 f"site.class_reps[{i}]", model)
                  for i, lit in enumerate(reps_lit)]
    variant = site_spec.get("variant", "classes")
    expect(variant in ("classes", "fullgroups"), "site.variant",
           "must be 'classes' or 'fullgroups'")
    try:
        site, qp, qh = assemble_surface_site(model, pairing, genus, class_reps,
                                             variant=variant)
    except QpoisError as exc:
        raise ConfigError(f"site: {exc}") from exc

    words = raw.get("words")
    if words is None:
        words = ["a", "b", "ab"]        # every site has at least two factors
    expect(isinstance(words, list) and words
           and all(isinstance(w, str) for w in words),
           "words", "must be a non-empty list of word strings")
    parsed = [_config_word(site, w, f"words[{i}]") for i, w in enumerate(words)]

    pairs = raw.get("bracket_pairs")
    if pairs is None:
        pairs = [[words[0], words[0]]]
        if len(words) > 1:
            pairs.append([words[0], words[1]])
    expect(isinstance(pairs, list), "bracket_pairs", "must be a list")
    for i, pair in enumerate(pairs):
        expect(isinstance(pair, list) and len(pair) == 2
               and all(isinstance(w, str) for w in pair),
               f"bracket_pairs[{i}]", "must be a [word, word] pair")
        for w in pair:
            _config_word(site, w, f"bracket_pairs[{i}]")

    targets_lit = raw.get("targets", ["identity"])
    expect(isinstance(targets_lit, list) and targets_lit,
           "targets", "must be a non-empty list")
    # a target outside the group, or one no solution reaches, stalls every
    # relator solve; on fullgroups the punctures are free group factors
    targets = []
    for i, lit in enumerate(targets_lit):
        if lit == "identity":
            label, mat = "identity", np.eye(model.n, dtype=complex)
        elif lit == "minus_identity":
            label, mat = "minus_identity", -np.eye(model.n, dtype=complex)
        else:
            label, mat = f"matrix_{i}", _parse_matrix(lit, f"targets[{i}]")
        mat = _group_element(mat, f"targets[{i}]", model)
        # commutators have determinant 1 and conjugation keeps a class's
        # determinant: on each block a solution's target has their product
        if variant == "classes":
            for blk in model.blocks:
                want = np.prod([np.linalg.det(r[blk, blk]) for r in class_reps])
                _expect_det(mat, f"targets[{i}]", blk, complex(want),
                            "the class representatives' product: no relator "
                            "solution reaches it")
        targets.append((label, mat))

    cfg_seed = raw.get("seed", 0)
    expect(isinstance(cfg_seed, int) and not isinstance(cfg_seed, bool)
           and cfg_seed >= 0, "seed", "must be a non-negative integer")
    samples = raw.get("samples", 8)
    expect(isinstance(samples, int) and not isinstance(samples, bool)
           and samples >= 1, "samples", "must be a positive integer")

    tols = dict(_DEFAULT_TOLS)
    user_tols = raw.get("tolerances", {})
    expect(isinstance(user_tols, dict), "tolerances", "must be an object")
    for key, val in user_tols.items():
        expect(key in _DEFAULT_TOLS, f"tolerances.{key}",
               f"unknown tier (known: {sorted(_DEFAULT_TOLS)})")
        expect(is_finite_number(val) and val > 0, f"tolerances.{key}",
               "must be a positive finite number")
        tols[key] = float(val)

    check_filter = raw.get("checks")
    if check_filter is not None:
        expect(isinstance(check_filter, list)
               and all(isinstance(c, str) for c in check_filter),
               "checks", "must be a list of check ids")
        known = {c.check_id for c in _ALL_CHECKS}
        for c in check_filter:
            expect(c in known, "checks", f"unknown check id {c!r}")

    return Setup(raw=raw, model=model, pairing=pairing, site=site, qp=qp, qh=qh,
                 genus=genus, class_reps=class_reps,
                 relator=relator_word(site, genus, len(class_reps)),
                 words=parsed, pairs=[list(p) for p in pairs],
                 targets=targets,
                 seed=int(seed if seed is not None else cfg_seed),
                 samples=int(samples), tols=tols, check_filter=check_filter)


# ---------------------------------------------------------------------------
# check registry
# ---------------------------------------------------------------------------

class _Skip(Exception):
    """Internal: the check does not apply to this configuration."""


class _Fail(Exception):
    """Internal: the check failed for a structural (non-residual) reason."""


@dataclass(frozen=True)
class Check:
    """One registered check.

    With `points` unset, fn(setup, rng) returns (residual, samples).  With it
    set, the runner hands fn the first min(samples, points) of the run's
    points (`Setup.points`) and fn(setup, point, rng) returns the residual at
    one of them.  rng is the check's own stream, for its other draws.
    """

    check_id: str
    name: str
    suite: str
    tier: str
    fn: object
    needs_invariant: bool = True
    needs_invertible: bool = False
    needs_form: bool = False
    points: float | None = None


_ALL_SAMPLES = math.inf      # Check.points: every sample


def _check_rng(setup, check_id):
    tag = int.from_bytes(hashlib.sha256(check_id.encode()).digest()[:4], "big")
    return np.random.default_rng([setup.seed, tag])


def _coord_fn(rng, site):
    i = int(rng.integers(site.nfac))
    c = rng.standard_normal((site.model.n, site.model.n))
    return lambda mats: dtrace(c @ mats[i])


def _chk_basis_closure(s, rng):
    return float(s.model.closure_residual), 1


def _chk_ad_invariance(s, rng):
    return s.invariance_gate, _AD_SAMPLES


def _chk_cubic_antisym(s, rng):
    _, resid = cubic_alternation(s.model, s.pairing)
    return resid, 1


def _chk_chi_identity(s, rng):
    return float(verify_chi_identity(s.model, s.pairing)), 1


def _chk_jacobiator(s, p, rng):
    fns = []
    for _ in range(3):
        if rng.integers(2) and s.words:
            w = s.words[int(rng.integers(len(s.words)))]
            fns.append(TraceFunction(s.site, w))
        else:
            fns.append(_coord_fn(rng, s.site))
    return jacobiator_vs_phi(s.qp, p, fns, phi=s.phi)


def _chk_momentum_bivector(s, p, rng):
    return momentum_residual(s.qp, p)


def _chk_momentum_form(s, p, rng):
    return momentum_residual(s.qh, p)


def _chk_equivariance(s, rng):
    # one conjugating g per point from the check's stream; the conjugated
    # points are one batch
    pts = s.points[:min(s.samples, 4)]
    gs = random_group_elements(s.model, rng, (len(pts),))
    gis = np.linalg.inv(gs)
    moved = PointBatch(s.site, gs[:, None] @ np.stack([p.mats for p in pts])
                       @ gis[:, None]).points()
    return float(np.max([equivariance_residual(s.qp, s.qh, p, c, g, gi)
                         for p, c, g, gi in zip(pts, moved, gs, gis)])), len(pts)


def _chk_class_tangency(s, rng):
    count = min(s.samples, 4)
    if s.site.class_indices():
        factor, qp, pts = s.site.class_indices()[0], s.qp, s.points[:count]
    else:
        # a one-class site of its own, with its own draw
        rep = dexpm(0.6 * s.model.basis[0])
        site = Site(s.model, s.pairing, [Factor("class", rep)])
        qp, _ = class_descriptors(site)
        factor, pts = 0, random_points(site, rng, count)
    resid = []
    for p in pts:
        try:
            resid.append(restrict_to_class(qp.bivector, p, factor))
        except NotTangent as exc:
            raise _Fail(str(exc)) from exc
    return float(np.max(resid)), len(resid)


def _chk_quasi_closed(s, rng):
    pts = s.points[:min(s.samples, 4)]
    sub = int(rng.integers(2 ** 31))
    return float(quasi_closed_residual(s.qh, pts, seed=sub)), len(pts)


def _chk_cn1(s, rng):
    pts = s.points[:min(s.samples, 4)]
    sub = int(rng.integers(2 ** 31))
    return float(cn1_residual(s.site, pts, seed=sub)), len(pts)


def _chk_duality(s, p, rng):
    return duality_residual(s.qp, s.qh, p)


def _chk_reconstruction(s, p, rng):
    got_p, _ = reconstruct_dual(s.qh, p)
    got_s, _ = reconstruct_dual(s.qp, p)
    return np.max([np.abs(got_p - s.qp.bivector.frame_matrix(p)).max(),
                   np.abs(got_s - s.qh.form.frame_matrix(p)).max()])


def _chk_reconstruction_kernel(s, p, rng):
    _, k1 = reconstruct_dual(s.qh, p)
    _, k2 = reconstruct_dual(s.qp, p)
    return np.max([k1, k2])


def _chk_nondegeneracy(s, p, rng):
    return max(nondegeneracy_check(s.qp, p), nondegeneracy_check(s.qh, p))


def _chk_projections(s, p, rng):
    pp, qq = projections_pq(p, s.qp.momentum[0])
    eye = np.eye(pp.shape[0])
    return np.max([np.abs(pp @ pp - pp).max(), np.abs(qq @ qq - qq).max(),
                   np.abs(pp + qq - eye).max()])


def _chk_fibers(s, p, rng):
    e_sub, f_sub = cartan_dirac_fibers(p, s.qp.momentum[0])
    if intersection_dim(e_sub.basis, f_sub.basis):
        raise _Fail("canonical fibers are not complementary at a sample")
    return np.max([e_sub.isotropy_residual, f_sub.isotropy_residual])


def _chk_boolean_agreement(s, rng):
    disagreements = 0
    pts = s.points
    for p in pts:
        for ci in range(len(s.qh.momentum)):
            out = dirac_booleans(s.qh, p, component=ci)
            flags = (out["a"], out["b"], out["c"], out["d"])
            if len(set(flags)) != 1:
                disagreements += 1
    return float(disagreements), len(pts)


def _chk_rank_chain(s, p, rng):
    rep = prop_tech_chain(s.qh, p)
    if not (rep["mono_ok"] and rep["onto_ok"]):
        raise _Fail(f"rank certificates failed: {rep}")
    return np.max([rep["inclusion_residual"], rep["containment_residual"]])


def _converged_points(s):
    """Per target, the converged points among its first min(samples, 3)
    solves; a solver stop is reported once, by relator_solver."""
    per = min(s.samples, 3)
    points = [[out.point for out in outs[:per] if isinstance(out, RepSample)]
              for outs in s.solved]
    if not any(points):
        raise _Skip("no relator solve converged; see relator_solver")
    return points


def _chk_solver(s, rng):
    for (label, _), outs in zip(s.targets, s.solved):
        for k, out in enumerate(outs):
            if not isinstance(out, RepSample):
                raise _Fail(f"solver failed for target {label} (sample {k}): "
                            f"{out}; best residual {out.best_residual:.3e}")
    residuals = [out.residual for outs in s.solved for out in outs]
    return float(np.max(residuals)), len(residuals)


def _trace_key(word, sl2):
    """The trace function of a word as a key, empty for a constant: the least
    rotation of its free and cyclic reduction, on SL(2), where tr w equals
    tr w^-1, the smaller of that and the key of the inverse word."""
    red = []
    for f, p in word:
        if red and red[-1] == (f, -p):
            red.pop()
        else:
            red.append((f, p))
    while len(red) > 1 and red[0] == (red[-1][0], -red[-1][1]):
        red = red[1:-1]
    key = min((tuple(red[k:] + red[:k]) for k in range(len(red))), default=())
    if sl2:
        key = min(key, _trace_key([(f, -p) for f, p in reversed(word)], False))
    return key


def _chk_jacobi_level(s, rng):
    # equal or constant functions make the Jacobiator vanish identically
    keys = [_trace_key(w, s.site.sl_like and s.model.n == 2) for w in s.words]
    words = [w for i, (key, w) in enumerate(zip(keys, s.words))
             if key and key not in keys[:i]][:3]
    if len(words) < 3:
        raise _Skip("needs three words of distinct trace functions, "
                    f"{len(words)} configured")
    pts = [p for per_target in _converged_points(s) for p in per_target]
    fns = [TraceFunction(s.site, w) for w in words]
    return jacobi_invariants(s.qp.bivector, *fns, pts), len(pts)


def _chk_poisson_ideal(s, rng):
    f = TraceFunction(s.site, s.words[0])
    points = _converged_points(s)
    worst = np.max([poisson_ideal_residual(s.qp.bivector, s.relator, f, pts)
                    for pts in points])
    return float(worst), sum(map(len, points))


def _chk_level_tangency(s, p, rng):
    return np.max([level_tangency_residual(s.qp, TraceFunction(s.site, w), p,
                                           seed=int(rng.integers(2 ** 31)))
                   for w in s.words[:3]])


_ALL_CHECKS = [
    Check("basis_closure", "commutators stay in the basis span", "core",
          "linear", _chk_basis_closure, needs_invariant=False),
    Check("pairing_ad_invariance", "pairing invariance under sampled adjoints",
          "core", "linear", _chk_ad_invariance, needs_invariant=False),
    Check("cubic_antisymmetry", "cubic tensor total antisymmetry", "core",
          "linear", _chk_cubic_antisym),
    Check("doubled_bracket_identity",
          "doubled-algebra bracket identity of the canonical 2-tensor", "core",
          "linear", _chk_chi_identity),
    Check("jacobiator_vs_cubic", "bracket Jacobiator matches the cubic defect",
          "core", "derivative", _chk_jacobiator, points=_ALL_SAMPLES),
    Check("momentum_bivector_law", "bivector momentum law", "core", "momentum",
          _chk_momentum_bivector, points=_ALL_SAMPLES),
    Check("momentum_form_law", "2-form momentum law", "core", "momentum",
          _chk_momentum_form, needs_form=True, points=_ALL_SAMPLES),
    Check("equivariance", "tensor invariance under simultaneous conjugation",
          "core", "momentum", _chk_equivariance),
    Check("class_restriction_tangency",
          "bivector restricts tangentially to conjugacy classes", "core",
          "rank", _chk_class_tangency, needs_invariant=False),
    Check("quasi_closedness", "exterior derivative matches the pulled-back "
          "trivector", "core", "derivative", _chk_quasi_closed,
          needs_form=True),
    Check("mixed_closure_calibration",
          "mixed-pairing differential calibration on two factors", "core",
          "derivative", _chk_cn1),
    Check("duality_identity", "sharp-flat composition equals identity minus "
          "quarter twist", "duality", "duality", _chk_duality,
          needs_invertible=True, needs_form=True, points=_ALL_SAMPLES),
    Check("reconstruction_round_trip", "dual tensor rebuilt from the momentum "
          "identities", "duality", "duality", _chk_reconstruction,
          needs_invertible=True, needs_form=True, points=4),
    Check("reconstruction_kernel", "reconstruction is well defined on the "
          "stacked kernel", "duality", "duality", _chk_reconstruction_kernel,
          needs_invertible=True, needs_form=True, points=4),
    # the rank statement belongs to sites that ship a 2-form; without one
    # free class-less puncture factors keep an uncovered radial direction
    Check("quasi_nondegeneracy", "stacked sharp/fundamental map has full rank",
          "duality", "rank", _chk_nondegeneracy, needs_invertible=True,
          needs_form=True, points=4),
    Check("projection_idempotency", "split projections are idempotent and "
          "complementary", "dirac", "linear", _chk_projections,
          needs_invertible=True, points=_ALL_SAMPLES),
    Check("fiber_lagrangian", "canonical fibers are isotropic and "
          "complementary", "dirac", "linear", _chk_fibers,
          needs_invertible=True, points=6),
    Check("strongness_agreement", "four non-degeneracy criteria agree",
          "dirac", "rank", _chk_boolean_agreement, needs_invertible=True,
          needs_form=True),
    Check("rank_certificate_chain", "kernel-to-kernel rank certificates",
          "dirac", "rank", _chk_rank_chain, needs_invertible=True,
          needs_form=True, points=6),
    Check("relator_solver", "relator sampler converges", "moduli", "solver",
          _chk_solver),
    Check("jacobi_at_level", "Jacobi identity of invariant brackets at solved "
          "points", "moduli", "derivative", _chk_jacobi_level),
    Check("poisson_ideal", "brackets with class-function pullbacks vanish",
          "moduli", "derivative", _chk_poisson_ideal),
    Check("invariant_level_tangency", "invariant Hamiltonian fields are "
          "level tangent", "moduli", "momentum", _chk_level_tangency,
          needs_invariant=False, points=4),
]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _run_one(setup, chk):
    """The record of one check: skipped when its gates refuse the setup,
    else its residual against its tier.  A points check reads the first
    min(samples, chk.points) of the run's points and gets its own stream for
    its other draws, so its record is the same alone and in its suite."""
    tol = setup.tols[chk.tier]
    record = {
        "check_id": chk.check_id,
        "name": chk.name,
        "suite": chk.suite,
        "tolerance": tol,
        "seed": setup.seed,
        "max_residual": None,
        "samples": 0,
        "status": "skipped",
        "reason": None,
    }
    try:
        if chk.needs_invertible and not setup.pairing.invertible:
            raise _Skip("DegeneratePairing: pairing has no inverse 2-form on "
                        "this model")
        if chk.needs_invariant:
            gate = setup.invariance_gate
            if not gate <= setup.tols["linear"]:      # a NaN gate refuses too
                raise _Skip(f"pairing is not ad-invariant "
                            f"(residual {gate:.3e}); see pairing_ad_invariance")
        if chk.needs_form and setup.qh is None:
            raise _Skip("site variant ships no 2-form")
        rng = _check_rng(setup, chk.check_id)
        if chk.points is None:
            residual, nsamp = chk.fn(setup, rng)
        else:
            pts = setup.points[:min(setup.samples, chk.points)]
            # np.max, not max(): a NaN at any point must fail the check
            residual = np.max([chk.fn(setup, p, rng) for p in pts])
            nsamp = len(pts)
        record["max_residual"] = float(residual)
        record["samples"] = int(nsamp)
        record["status"] = "passed" if residual <= tol else "failed"
        if record["status"] == "failed":
            record["reason"] = "residual exceeds tolerance"
    except _Skip as exc:
        record["status"] = "skipped"
        record["reason"] = str(exc)
    except _Fail as exc:
        record["status"] = "failed"
        record["reason"] = str(exc)
    except DegeneratePairing as exc:
        record["status"] = "skipped"
        record["reason"] = f"DegeneratePairing: {exc}"
    except Exception as exc:   # surface as failed check, never crash
        log.debug("check %s raised", chk.check_id, exc_info=True)
        record["status"] = "failed"
        record["reason"] = f"{type(exc).__name__}: {exc}"
    log.info("check %s: %s (residual %s)", chk.check_id, record["status"],
             record["max_residual"])
    return record


def _environment():
    return {
        "package": f"qpois {__version__}",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _load_setup(config, seed):
    """The Setup of a config path or an already-loaded mapping; the seed
    argument, unless None, overrides the config seed."""
    raw = load_config(config) if isinstance(config, (str, os.PathLike)) else config
    return build_setup(raw, seed=seed)


def _report(kind, setup, **fields):
    """A report: the header every kind carries plus the kind's own fields."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "seed": setup.seed,
        "environment": _environment(),
        "config": setup.raw,
        **fields,
    }


def run_suite(config, suite, seed=None, jobs=None):
    """Run one verification suite; returns the report mapping.

    config may be a path or an already-loaded mapping.  The seed argument
    overrides the config seed.  The checks run one after another.  `jobs` is
    ignored: the benchmark harness (perfbench/run.py) still passes it.
    """
    if suite not in _SUITES:
        raise ConfigError(f"suite: unknown suite {suite!r} (known: {_SUITES})")
    setup = _load_setup(config, seed)
    wanted = [c for c in _ALL_CHECKS if suite == "all" or c.suite == suite]
    if setup.check_filter is not None:
        wanted = [c for c in wanted if c.check_id in setup.check_filter]
    records = sorted((_run_one(setup, c) for c in wanted),
                     key=lambda r: r["check_id"])
    return _report("verify", setup, suite=suite, empty=len(records) == 0,
                   checks=records,
                   overall_pass=all(r["status"] != "failed" for r in records))


def _solve_row(out, sub, **row):
    """One relator solve's outcome, from solver seed sub, as a report row:
    the given fields plus the solver's."""
    row.update(solver_seed=sub, solver_failed=False, residual=None, iters=None,
               reason=None)
    if not isinstance(out, RepSample):
        row.update(solver_failed=True, reason=f"{type(out).__name__}: {out}",
                   residual=float(out.best_residual), iters=out.iters)
    else:
        row.update(residual=out.residual, iters=out.iters)
    return row


def compute_brackets(config, seed=None):
    """Bracket table of invariant trace pairs at relator-solved points."""
    setup = _load_setup(config, seed)
    label, target = setup.targets[0]
    rng = np.random.default_rng([setup.seed, 0x6272])
    subs = [int(rng.integers(2 ** 31)) for _ in range(setup.samples)]
    outs = solve_relators(setup.site, setup.relator, target, subs)
    rows = []
    for k, (sub, out) in enumerate(zip(subs, outs)):
        row = _solve_row(out, sub, sample=k, values=None)
        if isinstance(out, RepSample):
            values = {}
            for u, v in setup.pairs:
                fu = TraceFunction(setup.site, u)
                fv = TraceFunction(setup.site, v)
                val = complex(bracket_value(setup.qp.bivector, fu, fv, out.point))
                values[f"tr[{u}],tr[{v}]"] = [float(val.real), float(val.imag)]
            row["values"] = values
        rows.append(row)
    return _report("bracket", setup, target=label,
                   relator=setup.site.spell(setup.relator), rows=rows,
                   overall_pass=not any(r["solver_failed"] for r in rows))


def sample_points(config, seed=None):
    """Relator samples serialized as matrix literals."""
    setup = _load_setup(config, seed)
    rng = np.random.default_rng([setup.seed, 0x736d])
    rows = []
    for (label, _), per in zip(setup.targets,
                               _solve_targets(setup, rng, setup.samples)):
        for k, (sub, out) in enumerate(per):
            row = _solve_row(out, sub, target=label, sample=k, mats=None)
            if isinstance(out, RepSample):
                row["mats"] = [_matrix_literal(m) for m in out.point.mats]
            rows.append(row)
    return _report("sample", setup, rows=rows,
                   overall_pass=not any(r["solver_failed"] for r in rows))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def canonical_json(obj):
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"NaN"'
        if math.isinf(x):
            return '"Infinity"' if x > 0 else '"-Infinity"'
        # -0.0 as "0": the text "-0" parses back as the integer 0
        return format(x + 0.0, ".17g")
    if isinstance(obj, complex):
        return canonical_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise IoError(f"non-string report key {key!r}")
            parts.append(json.dumps(key, ensure_ascii=True) + ":"
                         + canonical_json(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise IoError(f"cannot serialize {type(obj).__name__} into a report")


def write_report(report, path):
    """Write canonical JSON; byte-identical for identical reports."""
    text = canonical_json(report) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write report {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _setup_logging():
    level_name = os.environ.get("QPOIS_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(level_name)
    if level is None:
        level = logging.WARNING
        logging.basicConfig(level=level)
        log.warning("unknown QPOIS_LOG value %r (known: %s)", level_name,
                    sorted(levels))
    else:
        logging.basicConfig(level=level)


def _finish(make_report, out):
    """Make and write the report, print its summary, and exit: 2 when the
    config or a file refuses the run, else 0 exactly when nothing failed."""
    try:
        report = make_report()
        write_report(report, out)
    except (ConfigError, IoError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    checks = report.get("checks", report.get("rows", []))
    failed = [c for c in checks
              if c.get("status") == "failed" or c.get("solver_failed")]
    for c in failed:
        ident = c.get("check_id", f"sample {c.get('sample')}")
        click.echo(f"FAILED {ident}: {c.get('reason')}", err=True)
    n = len(checks)
    word = "check" if "checks" in report else "row"
    click.echo(f"{report['kind']}: {n} {word}{'s' if n != 1 else ''}, "
               f"{len(failed)} failed -> {out}")
    sys.exit(0 if report["overall_pass"] else 1)


def _common(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(), help="JSON run configuration")(fn)
    fn = click.option("--seed", type=click.IntRange(min=0), default=None,
                      help="override the config seed")(fn)
    fn = click.option("--out", "out_path", required=True, type=click.Path(),
                      help="report output path")(fn)
    return fn


@click.group()
def main():
    """Structure verification and bracket evaluation driver."""
    _setup_logging()


@main.command()
@click.argument("suite", type=click.Choice(_SUITES))
@_common
def verify(suite, config_path, seed, out_path):
    """Run a verification suite and write its report."""
    _finish(lambda: run_suite(config_path, suite, seed=seed), out_path)


@main.command()
@_common
def bracket(config_path, seed, out_path):
    """Evaluate invariant trace brackets at relator-solved points."""
    _finish(lambda: compute_brackets(config_path, seed=seed), out_path)


@main.command()
@_common
def sample(config_path, seed, out_path):
    """Solve the relator constraint and emit the sampled points."""
    _finish(lambda: sample_points(config_path, seed=seed), out_path)


if __name__ == "__main__":
    main()
