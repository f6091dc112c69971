"""Workload definitions: the configs each workload runs, derived from a seed.

A workload is a list of units.  A unit is one call the `qpois` command would
make (`verify all`, `sample` or `bracket`) on one generated config.  The
benchmark seed reaches the program only as the `seed` field of the configs.
The configs that carry a named, always-failing fault keep a fixed seed, so
that the failing share of operations never depends on the benchmark seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def diag_literal(*entries):
    """Diagonal matrix as the config's nested [re, im] literal."""
    n = len(entries)
    return [[[float(entries[i]) if i == j else 0.0, 0.0] for j in range(n)]
            for i in range(n)]


def config(family, n, genus, seed, class_reps=(), targets=("identity",),
           words=None, pairs=None, checks=None):
    cfg = {
        "group": {"family": family, "n": n},
        "site": {"genus": genus, "class_reps": list(class_reps)},
        "targets": list(targets),
        "seed": seed,
    }
    if words is not None:
        cfg["words"] = list(words)
    if pairs is not None:
        cfg["bracket_pairs"] = [[u, v] for u, v, _ in pairs]
    if checks is not None:
        cfg["checks"] = sorted(checks)
    return cfg


# The README example config, verbatim.
README_CONFIG = {
    "group": {"family": "SL", "n": 2},
    "pairing": None,
    "site": {"genus": 1, "class_reps": [], "variant": "classes"},
    "words": ["a", "b", "ab"],
    "bracket_pairs": [["a", "b"], ["a", "ab"]],
    "targets": ["identity", "minus_identity"],
    "seed": 7,
    "samples": 8,
    "tolerances": {"derivative": 1e-7},
    "checks": None,
}

# Goldman's closed form for the bracket of trace functions: +1 means
# {tr u, tr v} = 2 C(u, v) (one positive intersection), 0 means disjoint curves.
PAIRS_G1 = [("a", "b", 1), ("a", "ab", 1)]
PAIRS_G2 = PAIRS_G1 + [("a", "c", 0), ("ab", "cd", 0)]

TWO_PUNCTURES = [diag_literal(2, 0.5), diag_literal(3, 1 / 3)]

# Checks that need an inverse of the pairing; on sl2_abelian each must skip.
NEEDS_INVERTIBLE = frozenset({
    "duality_identity", "reconstruction_round_trip", "reconstruction_kernel",
    "quasi_nondegeneracy", "projection_idempotency", "fiber_lagrangian",
    "strongness_agreement", "rank_certificate_chain",
})
ALL_CHECKS = NEEDS_INVERTIBLE | {
    "basis_closure", "pairing_ad_invariance", "cubic_antisymmetry",
    "doubled_bracket_identity", "jacobiator_vs_cubic", "momentum_bivector_law",
    "momentum_form_law", "equivariance", "class_restriction_tangency",
    "quasi_closedness", "mixed_closure_calibration", "relator_solver",
    "jacobi_at_level", "poisson_ideal", "invariant_level_tangency",
}
# Two Dirac checks fail on some seeds only, at absolute tolerances on
# ill-conditioned samples: projection_idempotency (SL(3) genus 1 at seeds 15
# and 25, SL(2) genus 2 at 33) and strongness_agreement (SL(2) genus 2 at 53).
# Seeded configs leave them out; the fixed two-puncture config keeps both,
# and projection_idempotency fails there on every pass.
SEEDED_CHECKS = ALL_CHECKS - {"projection_idempotency", "strongness_agreement"}


@dataclass
class Unit:
    name: str
    kind: str                    # "verify", "sample" or "bracket"
    config: dict
    pairs: list = field(default_factory=list)   # (u, v, sign) Goldman oracle
    known_failures: frozenset = frozenset()     # check ids, or targets for rows


@dataclass
class Workload:
    name: str
    units: list
    expect_skips: frozenset = frozenset()       # exact skip set per verify unit


def verify_nondeg(seed):
    return Workload("verify-nondeg", [
        Unit("sl2-g2", "verify", config("SL", 2, 2, seed, checks=SEEDED_CHECKS),
             PAIRS_G2),
        # fixed seed: projection_idempotency fails here on every pass
        Unit("sl2-g1-2punct", "verify",
             config("SL", 2, 1, 0, class_reps=TWO_PUNCTURES), PAIRS_G1,
             known_failures=frozenset({"projection_idempotency"})),
        Unit("sl3-g1", "verify", config("SL", 3, 1, seed, checks=SEEDED_CHECKS),
             PAIRS_G1),
    ])


def verify_degenerate(seed):
    return Workload("verify-degenerate", [
        Unit("sl2ab-g2", "verify", config("sl2_abelian", 2, 2, seed), PAIRS_G2),
        Unit("sl2ab-g3", "verify", config("sl2_abelian", 2, 3, seed), PAIRS_G2),
    ], expect_skips=NEEDS_INVERTIBLE)


def moduli_sample(seed):
    g2 = config("SL", 2, 2, seed, words=["a", "b", "ab", "c", "cd"],
                pairs=PAIRS_G2)
    # fixed seeds: the minus_identity solves stall on some rows (charvar)
    g2_minus = config("SL", 2, 2, 7, targets=["minus_identity"])
    sl3 = config("SL", 3, 1, seed, pairs=PAIRS_G1)
    stalls = frozenset({"minus_identity"})
    return Workload("moduli-sample", [
        Unit("readme", "sample", README_CONFIG, known_failures=stalls),
        Unit("readme", "bracket", README_CONFIG, PAIRS_G1),
        Unit("sl2-g2", "sample", g2),
        Unit("sl2-g2", "bracket", g2, PAIRS_G2),
        Unit("sl2-g2-minus", "sample", g2_minus, known_failures=stalls),
        Unit("sl3-g1", "sample", sl3),
        Unit("sl3-g1", "bracket", sl3, PAIRS_G1),
    ])


WORKLOADS = {
    "verify-nondeg": verify_nondeg,
    "verify-degenerate": verify_degenerate,
    "moduli-sample": moduli_sample,
}
