"""Batch driver: JSON config in, canonical JSON reports out.

Subcommands
  verify <core|duality|dirac|moduli|all>  structural verification sweeps
  bracket                                 invariant-trace brackets at solved points
  sample                                  relator samples as matrix literals

Every command takes --config/--seed/--out, and verify also --jobs; reports are
canonical JSON (sorted keys, floats at 17 significant digits, no timestamps) so
a rerun with the same config and seed is byte-identical at any job count.  A
check that cannot run because the input refuses it (degenerate pairing,
missing 2-form) is reported as skipped with the reason; a numerical violation
or an unexpected error is a failure.  Exit status is zero exactly when no
check failed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import click
import numpy as np

from . import __version__
from .charvar import (
    TraceFunction,
    bracket as bracket_value,
    jacobi_invariants,
    level_tangency_residual,
    poisson_ideal_residual,
    solve_relator,
)
from .dirac import (
    cartan_dirac_fibers,
    dirac_booleans,
    intersection_dim,
    projections_pq,
    prop_tech_chain,
)
from .duals import dexpm
from .errors import (
    BadSignature,
    ConfigError,
    DegeneratePairing,
    IoError,
    MaxIters,
    QpoisError,
    Stalled,
)
from .groupgeom import conjugate_point, parse_word, random_point
from .liealg import ad_invariance_residual, cartan3, verify_chi_identity
from .models import model_from_config
from .quasi import (
    assemble_surface_site,
    class_descriptors,
    cn1_residual,
    duality_residual,
    equivariance_residual,
    jacobiator_vs_phi,
    momentum_residual,
    nondegeneracy_check,
    quasi_closed_residual,
    reconstruct_dual,
    relator_word,
    restrict_to_class,
)
from .groupgeom import Factor, Site

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

def _expect(cond, loc, msg):
    if not cond:
        raise ConfigError(f"{loc}: {msg}")


def _parse_matrix(lit, loc):
    """Row-major nested arrays of [re, im] pairs -> complex ndarray."""
    _expect(isinstance(lit, list) and lit, loc, "matrix literal must be a "
            "non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(lit):
        _expect(isinstance(row, list) and row, f"{loc}[{r}]",
                "row must be a non-empty list of [re, im] pairs")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"{loc}[{r}]",
                f"row length {len(row)} differs from {width}")
        out_row = []
        for c, entry in enumerate(row):
            _expect(isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                            for x in entry),
                    f"{loc}[{r}][{c}]", "entry must be a [re, im] number pair")
            out_row.append(complex(entry[0], entry[1]))
        rows.append(out_row)
    return np.array(rows, dtype=complex)


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
    _expect(isinstance(raw, dict), path, "top level must be an object")
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
    variant: str
    words: list
    pairs: list
    targets: list            # (label, matrix)
    seed: int
    samples: int
    tols: dict
    check_filter: list | None
    invariance_gate: float | None = None
    extras: dict = field(default_factory=dict)


def _build_pairing(model, base_pairing, spec):
    if not spec:
        return base_pairing
    _expect(isinstance(spec, dict), "pairing", "must be an object")
    scale = spec.get("trace_scale", 1.0)
    _expect(isinstance(scale, (int, float)) and not isinstance(scale, bool),
            "pairing.trace_scale", "must be a number")
    mask = spec.get("mask")
    from .liealg import PairingData, trace_pairing

    if mask is None:
        return trace_pairing(model, scale=float(scale))
    _expect(isinstance(mask, list) and len(mask) == model.d
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in mask),
            "pairing.mask", f"must be a list of {model.d} numbers")
    base = trace_pairing(model, scale=float(scale)).eta_lower
    m = np.asarray(mask, dtype=float)
    lower = base * np.outer(m, m)
    sv = np.linalg.svd(lower, compute_uv=False)
    if sv.size and sv[-1] > 1e-10 * sv[0]:
        upper = np.linalg.inv(lower)
    else:
        upper = np.linalg.pinv(lower)
    return PairingData(eta_lower=lower, eta_upper=upper)


def build_setup(raw, seed=None):
    """Construct the models, the site, and the shipped descriptor pair."""
    group = raw.get("group", {"family": "SL", "n": 2})
    _expect(isinstance(group, dict), "group", "must be an object")
    family = group.get("family", "SL")
    if family == "product":
        group = dict(group, family="sl2_abelian")
    try:
        model, pairing = model_from_config(group)
    except QpoisError as exc:
        raise ConfigError(f"group: {exc}") from exc

    pairing = _build_pairing(model, pairing, raw.get("pairing"))

    site_spec = raw.get("site", {})
    _expect(isinstance(site_spec, dict), "site", "must be an object")
    genus = site_spec.get("genus", 1)
    _expect(isinstance(genus, int) and not isinstance(genus, bool) and genus >= 0,
            "site.genus", "must be a non-negative integer")
    reps_lit = site_spec.get("class_reps", [])
    _expect(isinstance(reps_lit, list), "site.class_reps", "must be a list")
    class_reps = [_parse_matrix(lit, f"site.class_reps[{i}]")
                  for i, lit in enumerate(reps_lit)]
    for i, rep in enumerate(class_reps):
        _expect(rep.shape == (model.n, model.n), f"site.class_reps[{i}]",
                f"expected shape {(model.n, model.n)}, got {rep.shape}")
    variant = site_spec.get("variant", "classes")
    _expect(variant in ("classes", "fullgroups"), "site.variant",
            "must be 'classes' or 'fullgroups'")
    try:
        site, qp, qh = assemble_surface_site(model, pairing, genus, class_reps,
                                             variant=variant)
    except QpoisError as exc:
        raise ConfigError(f"site: {exc}") from exc

    words = raw.get("words")
    if words is None:
        words = ["a", "b", "ab"] if site.nfac >= 2 else ["a"]
    _expect(isinstance(words, list) and words
            and all(isinstance(w, str) for w in words),
            "words", "must be a non-empty list of word strings")
    for i, w in enumerate(words):
        try:
            parse_word(site, w)
        except QpoisError as exc:
            raise ConfigError(f"words[{i}]: {exc}") from exc

    pairs = raw.get("bracket_pairs")
    if pairs is None:
        pairs = [[words[0], words[0]]]
        if len(words) > 1:
            pairs.append([words[0], words[1]])
    _expect(isinstance(pairs, list), "bracket_pairs", "must be a list")
    for i, pair in enumerate(pairs):
        _expect(isinstance(pair, list) and len(pair) == 2
                and all(isinstance(w, str) for w in pair),
                f"bracket_pairs[{i}]", "must be a [word, word] pair")
        for w in pair:
            try:
                parse_word(site, w)
            except QpoisError as exc:
                raise ConfigError(f"bracket_pairs[{i}]: {exc}") from exc

    targets_lit = raw.get("targets", ["identity"])
    _expect(isinstance(targets_lit, list) and targets_lit,
            "targets", "must be a non-empty list")
    targets = []
    for i, lit in enumerate(targets_lit):
        if lit == "identity":
            targets.append(("identity", np.eye(model.n, dtype=complex)))
        elif lit == "minus_identity":
            # SL(n) holds -I only for even n; an unreachable target stalls
            # every relator solve
            _expect(not model.is_traceless() or model.n % 2 == 0,
                    f"targets[{i}]", f"minus_identity has determinant -1, "
                    f"outside SL({model.n})")
            targets.append(("minus_identity", -np.eye(model.n, dtype=complex)))
        else:
            mat = _parse_matrix(lit, f"targets[{i}]")
            _expect(mat.shape == (model.n, model.n), f"targets[{i}]",
                    f"expected shape {(model.n, model.n)}, got {mat.shape}")
            targets.append((f"matrix_{i}", mat))

    cfg_seed = raw.get("seed", 0)
    _expect(isinstance(cfg_seed, int) and not isinstance(cfg_seed, bool)
            and cfg_seed >= 0, "seed", "must be a non-negative integer")
    samples = raw.get("samples", 8)
    _expect(isinstance(samples, int) and not isinstance(samples, bool)
            and samples >= 1, "samples", "must be a positive integer")

    tols = dict(_DEFAULT_TOLS)
    user_tols = raw.get("tolerances", {})
    _expect(isinstance(user_tols, dict), "tolerances", "must be an object")
    for key, val in user_tols.items():
        _expect(key in _DEFAULT_TOLS, f"tolerances.{key}",
                f"unknown tier (known: {sorted(_DEFAULT_TOLS)})")
        _expect(isinstance(val, (int, float)) and not isinstance(val, bool)
                and val > 0, f"tolerances.{key}", "must be a positive number")
        tols[key] = float(val)

    check_filter = raw.get("checks")
    if check_filter is not None:
        _expect(isinstance(check_filter, list)
                and all(isinstance(c, str) for c in check_filter),
                "checks", "must be a list of check ids")
        known = {c.check_id for c in _ALL_CHECKS}
        for c in check_filter:
            _expect(c in known, "checks", f"unknown check id {c!r}")

    return Setup(raw=raw, model=model, pairing=pairing, site=site, qp=qp, qh=qh,
                 genus=genus, class_reps=class_reps, variant=variant,
                 words=list(words), pairs=[list(p) for p in pairs],
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


@dataclass
class Check:
    check_id: str
    name: str
    suite: str
    tier: str
    fn: object
    needs_invariant: bool = True
    needs_invertible: bool = False


def _check_rng(setup, check_id):
    tag = int.from_bytes(hashlib.sha256(check_id.encode()).digest()[:4], "big")
    return np.random.default_rng([setup.seed, tag])


def _sample_points(setup, rng, count=None):
    count = setup.samples if count is None else count
    return [random_point(setup.site, rng) for _ in range(count)]


def _coord_fn(rng, site):
    i = int(rng.integers(site.nfac))
    c = rng.standard_normal((site.model.n, site.model.n))
    from .duals import dtrace

    return lambda mats: dtrace(c @ mats[i])


def _chk_basis_closure(s, rng):
    return float(s.model.closure_residual), 1


def _chk_ad_invariance(s, rng):
    sub = int(rng.integers(2 ** 31))
    return float(ad_invariance_residual(s.model, s.pairing, samples=16,
                                        seed=sub)), 16


def _chk_cubic_antisym(s, rng):
    h = s.pairing.require_upper()
    phi = np.einsum("ju,kuv,vs->jks", h, s.model.struct, h)
    worst = 0.0
    for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        worst = max(worst, float(np.abs(phi + np.transpose(phi, perm)).max()))
    return worst, 1


def _chk_chi_identity(s, rng):
    return float(verify_chi_identity(s.model, s.pairing)), 1


def _chk_jacobiator(s, rng):
    phi = cartan3(s.model, s.pairing)
    worst = 0.0
    pts = _sample_points(s, rng)
    for p in pts:
        fns = []
        for k in range(3):
            if rng.integers(2) and s.words:
                w = s.words[int(rng.integers(len(s.words)))]
                fns.append(TraceFunction(s.site, w))
            else:
                fns.append(_coord_fn(rng, s.site))
        worst = max(worst, jacobiator_vs_phi(s.qp, p, fns, phi=phi))
    return worst, len(pts)


def _chk_momentum_bivector(s, rng):
    pts = _sample_points(s, rng)
    worst = max(momentum_residual(s.qp, p, "bivector") for p in pts)
    return float(worst), len(pts)


def _chk_momentum_form(s, rng):
    if s.qh is None:
        raise _Skip("site variant ships no 2-form")
    pts = _sample_points(s, rng)
    worst = max(momentum_residual(s.qh, p, "twoform") for p in pts)
    return float(worst), len(pts)


def _chk_equivariance(s, rng):
    from .liealg import random_algebra_element

    pts = _sample_points(s, rng, count=min(s.samples, 4))
    worst = 0.0
    for p in pts:
        g = dexpm(s.model.from_coeffs(random_algebra_element(s.model, rng)))
        sub = int(rng.integers(2 ** 31))
        worst = max(worst, equivariance_residual(s.qp, p, g, seed=sub,
                                                 probes=4, mode="bivector"))
        if s.qh is not None:
            worst = max(worst, equivariance_residual(s.qh, p, g, seed=sub,
                                                     probes=4, mode="twoform"))
    return float(worst), len(pts)


def _chk_class_tangency(s, rng):
    from .errors import NotTangent

    if s.site.class_indices():
        site, factor = s.site, s.site.class_indices()[0]
        qp = s.qp
    else:
        rep = dexpm(0.6 * s.model.basis[0])
        site = Site(s.model, s.pairing, [Factor("class", rep)])
        qp, _ = class_descriptors(site)
        factor = 0
    worst = 0.0
    count = min(s.samples, 4)
    for _ in range(count):
        p = random_point(site, rng)
        try:
            _, resid = restrict_to_class(qp.bivector, p, factor)
        except NotTangent as exc:
            raise _Fail(str(exc)) from exc
        worst = max(worst, resid)
    return float(worst), count


def _chk_quasi_closed(s, rng):
    if s.qh is None:
        raise _Skip("site variant ships no 2-form")
    pts = _sample_points(s, rng, count=min(s.samples, 4))
    sub = int(rng.integers(2 ** 31))
    return float(quasi_closed_residual(s.qh, pts, seed=sub, triples=4)), len(pts)


def _chk_cn1(s, rng):
    if s.site.nfac < 2:
        raise _Skip("needs at least two factors")
    pts = _sample_points(s, rng, count=min(s.samples, 4))
    sub = int(rng.integers(2 ** 31))
    return float(cn1_residual(s.site, pts, seed=sub, triples=4)), len(pts)


def _chk_duality(s, rng):
    if s.qh is None:
        raise _Skip("site variant ships no 2-form")
    pts = _sample_points(s, rng)
    worst = max(duality_residual(s.qp, s.qh, p) for p in pts)
    return float(worst), len(pts)


def _chk_reconstruction(s, rng):
    if s.qh is None:
        raise _Skip("site variant ships no 2-form")
    worst = 0.0
    count = min(s.samples, 4)
    for _ in range(count):
        p = random_point(s.site, rng)
        frame = p.frame()
        pmat = s.qp.bivector.frame_matrix(p, frame)
        smat = s.qh.form.frame_matrix(p, frame)
        got_p, _ = reconstruct_dual(s.qh, p, "P-from-sigma")
        got_s, _ = reconstruct_dual(s.qp, p, "sigma-from-P")
        worst = max(worst, float(np.abs(got_p - pmat).max()),
                    float(np.abs(got_s - smat).max()))
    return worst, count


def _chk_reconstruction_kernel(s, rng):
    if s.qh is None:
        raise _Skip("site variant ships no 2-form")
    worst = 0.0
    count = min(s.samples, 4)
    for _ in range(count):
        p = random_point(s.site, rng)
        _, k1 = reconstruct_dual(s.qh, p, "P-from-sigma")
        _, k2 = reconstruct_dual(s.qp, p, "sigma-from-P")
        worst = max(worst, k1, k2)
    return worst, count


def _chk_nondegeneracy(s, rng):
    if s.qh is None:
        # the rank statement belongs to sites that ship a 2-form; without one
        # free class-less puncture factors keep an uncovered radial direction
        raise _Skip("site variant ships no 2-form; rank statement not claimed")
    worst = 0
    count = min(s.samples, 4)
    for _ in range(count):
        p = random_point(s.site, rng)
        rep = nondegeneracy_check(s.qp, p, "bivector")
        worst = max(worst, rep["deficit"])
        rep2 = nondegeneracy_check(s.qh, p, "twoform")
        worst = max(worst, rep2["intersection_dim"])
    return float(worst), count


def _chk_projections(s, rng):
    word = s.qp.momentum[0].word
    pts = _sample_points(s, rng)
    worst = 0.0
    for p in pts:
        pp, qq = projections_pq(s.site, p, word)
        eye = np.eye(pp.shape[0])
        worst = max(worst, float(np.abs(pp @ pp - pp).max()),
                    float(np.abs(qq @ qq - qq).max()),
                    float(np.abs(pp + qq - eye).max()))
    return worst, len(pts)


def _chk_fibers(s, rng):
    word = s.qp.momentum[0].word
    worst = 0.0
    count = min(s.samples, 6)
    for _ in range(count):
        p = random_point(s.site, rng)
        e_sub, f_sub = cartan_dirac_fibers(s.site, p, word)
        worst = max(worst, e_sub.isotropy_residual, f_sub.isotropy_residual)
        if intersection_dim(e_sub.basis, f_sub.basis):
            raise _Fail("canonical fibers are not complementary at a sample")
    return float(worst), count


def _chk_boolean_agreement(s, rng):
    if s.qh is None:
        raise _Skip("site variant ships no 2-form")
    disagreements = 0
    pts = _sample_points(s, rng)
    for p in pts:
        for ci in range(len(s.qh.momentum)):
            out = dirac_booleans(s.qh, p, component=ci)
            flags = (out["a"], out["b"], out["c"], out["d"])
            if len(set(flags)) != 1:
                disagreements += 1
    return float(disagreements), len(pts)


def _chk_rank_chain(s, rng):
    if s.qh is None:
        raise _Skip("site variant ships no 2-form")
    worst = 0.0
    count = min(s.samples, 6)
    for _ in range(count):
        p = random_point(s.site, rng)
        rep = prop_tech_chain(s.qh, p, component=0)
        if not (rep["mono_ok"] and rep["onto_ok"]):
            raise _Fail(f"rank certificates failed: {rep}")
        worst = max(worst, rep["inclusion_residual"], rep["containment_residual"])
    return worst, count


def _solved_points(s, rng, per_target):
    word = relator_word(s.site, s.genus, len(s.class_reps))
    rows = []
    for label, target in s.targets:
        for k in range(per_target):
            sub = int(rng.integers(2 ** 31))
            try:
                out = solve_relator(s.site, word, target, seed=sub)
            except (MaxIters, Stalled) as exc:
                raise _Fail(
                    f"solver failed for target {label} (sample {k}): {exc}; "
                    f"best residual {exc.best_residual:.3e}") from exc
            rows.append((label, out))
    return rows


def _chk_solver(s, rng):
    rows = _solved_points(s, rng, per_target=min(s.samples, 4))
    worst = max(out.residual for _, out in rows)
    return float(worst), len(rows)


def _chk_jacobi_level(s, rng):
    rows = _solved_points(s, rng, per_target=min(s.samples, 3))
    pts = [out.point for _, out in rows]
    fns = [TraceFunction(s.site, w) for w in s.words[:3]]
    while len(fns) < 3:
        fns.append(fns[-1])
    return jacobi_invariants(s.qp.bivector, fns[0], fns[1], fns[2], pts), len(pts)


def _chk_poisson_ideal(s, rng):
    word = relator_word(s.site, s.genus, len(s.class_reps))
    f = TraceFunction(s.site, s.words[0])
    worst = 0.0
    total = 0
    for label, target in s.targets:
        rows = []
        for k in range(min(s.samples, 3)):
            sub = int(rng.integers(2 ** 31))
            try:
                rows.append(solve_relator(s.site, word, target, seed=sub).point)
            except (MaxIters, Stalled) as exc:
                raise _Fail(
                    f"solver failed for target {label}: {exc}") from exc
        worst = max(worst, poisson_ideal_residual(s.qp.bivector, word, target,
                                                  f, rows))
        total += len(rows)
    return worst, total


def _chk_level_tangency(s, rng):
    pts = _sample_points(s, rng, count=min(s.samples, 4))
    worst = 0.0
    for p in pts:
        for w in s.words[:3]:
            f = TraceFunction(s.site, w)
            worst = max(worst, level_tangency_residual(s.qp, f, p,
                                                       seed=int(rng.integers(2 ** 31))))
    return float(worst), len(pts)


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
          "core", "derivative", _chk_jacobiator),
    Check("momentum_bivector_law", "bivector momentum law", "core", "momentum",
          _chk_momentum_bivector),
    Check("momentum_form_law", "2-form momentum law", "core", "momentum",
          _chk_momentum_form),
    Check("equivariance", "tensor invariance under simultaneous conjugation",
          "core", "momentum", _chk_equivariance),
    Check("class_restriction_tangency",
          "bivector restricts tangentially to conjugacy classes", "core",
          "rank", _chk_class_tangency, needs_invariant=False),
    Check("quasi_closedness", "exterior derivative matches the pulled-back "
          "trivector", "core", "derivative", _chk_quasi_closed),
    Check("mixed_closure_calibration",
          "mixed-pairing differential calibration on two factors", "core",
          "derivative", _chk_cn1),
    Check("duality_identity", "sharp-flat composition equals identity minus "
          "quarter twist", "duality", "duality", _chk_duality,
          needs_invertible=True),
    Check("reconstruction_round_trip", "dual tensor rebuilt from the momentum "
          "identities", "duality", "duality", _chk_reconstruction,
          needs_invertible=True),
    Check("reconstruction_kernel", "reconstruction is well defined on the "
          "stacked kernel", "duality", "duality", _chk_reconstruction_kernel,
          needs_invertible=True),
    Check("quasi_nondegeneracy", "stacked sharp/fundamental map has full rank",
          "duality", "rank", _chk_nondegeneracy, needs_invertible=True),
    Check("projection_idempotency", "split projections are idempotent and "
          "complementary", "dirac", "linear", _chk_projections,
          needs_invertible=True),
    Check("fiber_lagrangian", "canonical fibers are isotropic and "
          "complementary", "dirac", "linear", _chk_fibers,
          needs_invertible=True),
    Check("strongness_agreement", "four non-degeneracy criteria agree",
          "dirac", "rank", _chk_boolean_agreement, needs_invertible=True),
    Check("rank_certificate_chain", "kernel-to-kernel rank certificates",
          "dirac", "rank", _chk_rank_chain, needs_invertible=True),
    Check("relator_solver", "relator sampler converges", "moduli", "solver",
          _chk_solver),
    Check("jacobi_at_level", "Jacobi identity of invariant brackets at solved "
          "points", "moduli", "derivative", _chk_jacobi_level),
    Check("poisson_ideal", "brackets with class-function pullbacks vanish",
          "moduli", "derivative", _chk_poisson_ideal),
    Check("invariant_level_tangency", "invariant Hamiltonian fields are "
          "level tangent", "moduli", "momentum", _chk_level_tangency,
          needs_invariant=False),
]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _invariance_gate(setup):
    if setup.invariance_gate is None:
        setup.invariance_gate = float(ad_invariance_residual(
            setup.model, setup.pairing, samples=8, seed=setup.seed))
    return setup.invariance_gate


def _run_one(setup, chk):
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
            gate = _invariance_gate(setup)
            if gate > setup.tols["linear"]:
                raise _Skip(f"pairing is not ad-invariant "
                            f"(residual {gate:.3e}); see pairing_ad_invariance")
        residual, nsamp = chk.fn(setup, _check_rng(setup, chk.check_id))
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


def run_suite(config, suite, seed=None, jobs=None):
    """Run one verification suite; returns the report mapping.

    config may be a path or an already-loaded mapping.  The seed argument
    overrides the config seed.  Results are independent of the job count.
    """
    if suite not in _SUITES:
        raise ConfigError(f"suite: unknown suite {suite!r} (known: {_SUITES})")
    raw = load_config(config) if isinstance(config, (str, os.PathLike)) else config
    setup = build_setup(raw, seed=seed)
    wanted = [c for c in _ALL_CHECKS if suite == "all" or c.suite == suite]
    if setup.check_filter is not None:
        wanted = [c for c in wanted if c.check_id in setup.check_filter]
    jobs = jobs or min(len(wanted) or 1, os.cpu_count() or 1)
    if jobs > 1 and len(wanted) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(lambda c: _run_one(setup, c), wanted))
    else:
        records = [_run_one(setup, c) for c in wanted]
    records.sort(key=lambda r: r["check_id"])
    failures = [r for r in records if r["status"] == "failed"]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify",
        "suite": suite,
        "seed": setup.seed,
        "environment": _environment(),
        "config": setup.raw,
        "empty": len(records) == 0,
        "checks": records,
        "overall_pass": len(failures) == 0,
    }


def compute_brackets(config, seed=None):
    """Bracket table of invariant trace pairs at relator-solved points."""
    raw = load_config(config) if isinstance(config, (str, os.PathLike)) else config
    setup = build_setup(raw, seed=seed)
    word = relator_word(setup.site, setup.genus, len(setup.class_reps))
    label, target = setup.targets[0]
    rng = np.random.default_rng([setup.seed, 0x6272])
    rows = []
    any_failed = False
    for k in range(setup.samples):
        sub = int(rng.integers(2 ** 31))
        row = {"sample": k, "solver_seed": sub, "solver_failed": False,
               "residual": None, "iters": None, "reason": None, "values": None}
        try:
            out = solve_relator(setup.site, word, target, seed=sub)
        except (MaxIters, Stalled) as exc:
            row["solver_failed"] = True
            row["reason"] = f"{type(exc).__name__}: {exc}"
            row["residual"] = (float(exc.best_residual)
                               if exc.best_residual is not None else None)
            row["iters"] = exc.iters
            any_failed = True
            rows.append(row)
            continue
        row["residual"] = out.residual
        row["iters"] = out.iters
        values = {}
        for u, v in setup.pairs:
            fu = TraceFunction(setup.site, u)
            fv = TraceFunction(setup.site, v)
            val = complex(bracket_value(setup.qp.bivector, fu, fv, out.point))
            values[f"tr[{u}],tr[{v}]"] = [float(val.real), float(val.imag)]
        row["values"] = values
        rows.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bracket",
        "seed": setup.seed,
        "environment": _environment(),
        "config": setup.raw,
        "target": label,
        "relator": "".join(
            setup.site.letter(f) if p == 1 else setup.site.letter(f).upper()
            for f, p in word),
        "rows": rows,
        "overall_pass": not any_failed,
    }


def sample_points(config, seed=None):
    """Relator samples serialized as matrix literals."""
    raw = load_config(config) if isinstance(config, (str, os.PathLike)) else config
    setup = build_setup(raw, seed=seed)
    word = relator_word(setup.site, setup.genus, len(setup.class_reps))
    rng = np.random.default_rng([setup.seed, 0x736d])
    rows = []
    any_failed = False
    for label, target in setup.targets:
        for k in range(setup.samples):
            sub = int(rng.integers(2 ** 31))
            row = {"target": label, "sample": k, "solver_seed": sub,
                   "solver_failed": False, "residual": None, "iters": None,
                   "reason": None, "mats": None}
            try:
                out = solve_relator(setup.site, word, target, seed=sub)
                row["residual"] = out.residual
                row["iters"] = out.iters
                row["mats"] = [_matrix_literal(m) for m in out.point.mats]
            except (MaxIters, Stalled) as exc:
                row["solver_failed"] = True
                row["reason"] = f"{type(exc).__name__}: {exc}"
                row["residual"] = (float(exc.best_residual)
                                   if exc.best_residual is not None else None)
                row["iters"] = exc.iters
                any_failed = True
            rows.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sample",
        "seed": setup.seed,
        "environment": _environment(),
        "config": setup.raw,
        "rows": rows,
        "overall_pass": not any_failed,
    }


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
        return format(x, ".17g")
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


def _finish(report, out):
    write_report(report, out)
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
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="worker count (results are job-count independent)")
def verify(suite, config_path, seed, out_path, jobs):
    """Run a verification suite and write its report."""
    try:
        report = run_suite(config_path, suite, seed=seed, jobs=jobs)
    except (ConfigError, IoError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _finish(report, out_path)


@main.command()
@_common
def bracket(config_path, seed, out_path):
    """Evaluate invariant trace brackets at relator-solved points."""
    try:
        report = compute_brackets(config_path, seed=seed)
    except (ConfigError, IoError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _finish(report, out_path)


@main.command()
@_common
def sample(config_path, seed, out_path):
    """Solve the relator constraint and emit the sampled points."""
    try:
        report = sample_points(config_path, seed=seed)
    except (ConfigError, IoError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _finish(report, out_path)


if __name__ == "__main__":
    main()
