"""Output checks that share no code with the program they check.

Everything here is plain numpy on the matrices a report emits: relator gaps
recomputed from the sample literals, determinants and class traces, and
Goldman's closed form for the bracket of trace functions (Goldman 1986),

    {tr u, tr v} = 2 * sign * C(U, V),   C(U, V) = tr(UV) - tr U tr V / n,

for a pair of words meeting once with the given sign, and 0 for disjoint
words.  The factor 2 is the full pairing of the bivector with both slot
orders.  On the degenerate sl2_abelian model the tensor lives on the sl(2)
block only, so C is taken on the upper-left 2x2 blocks.  Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib

import numpy as np

GAP_TOL = 1e-9
DET_TOL = 1e-9
TRACE_TOL = 1e-9
GOLDMAN_RTOL = 1e-9


def literal_matrix(lit):
    """Nested [re, im] literal -> complex matrix."""
    return np.array([[complex(re, im) for re, im in row] for row in lit])


def word_value(mats, word):
    """Product of factor matrices; letters a, b, ... name factors, capitals
    their inverses."""
    out = np.eye(mats[0].shape[0], dtype=complex)
    for ch in word:
        m = mats[ord(ch.lower()) - ord("a")]
        out = out @ (m if ch.islower() else np.linalg.inv(m))
    return out


def relator(genus, npunct):
    """Surface relator [a,b][c,d]... followed by the puncture letters."""
    letters = [chr(ord("a") + k) for k in range(2 * genus + npunct)]
    handles = "".join(x + y + x.upper() + y.upper()
                      for x, y in zip(letters[0:2 * genus:2],
                                      letters[1:2 * genus:2]))
    return handles + "".join(letters[2 * genus:])


def target_matrix(label, n):
    if label == "identity":
        return np.eye(n, dtype=complex)
    if label == "minus_identity":
        return -np.eye(n, dtype=complex)
    raise ValueError(f"no oracle for target {label!r}")


def casimir_contraction(u, v, family):
    """Sum of H^{ij} tr(U e_i) tr(V e_j) for the config's invariant tensor."""
    if family == "sl2_abelian":
        u, v = u[:2, :2], v[:2, :2]
    n = u.shape[0]
    return np.trace(u @ v) - np.trace(u) * np.trace(v) / n


def goldman_problems(got, mats, pairs, family, where):
    """Compare bracket values {"tr[u],tr[v]": [re, im]} with the closed form."""
    problems = []
    for u, v, sign in pairs:
        key = f"tr[{u}],tr[{v}]"
        if key not in got:
            problems.append(f"{where}: no bracket value for {key}")
            continue
        uu, vv = word_value(mats, u), word_value(mats, v)
        want = 2 * sign * casimir_contraction(uu, vv, family)
        value = complex(*got[key])
        scale = 1.0 + np.linalg.norm(uu) * np.linalg.norm(vv)
        if abs(value - want) > GOLDMAN_RTOL * scale:
            problems.append(f"{where}: {key} = {value:.6g}, closed form "
                            f"{want:.6g}")
    return problems


def point_problems(mats, cfg, target_label, where):
    """Relator gap, determinants and class traces of one solved point."""
    family = cfg["group"]["family"]
    site = cfg.get("site", {})
    genus = site.get("genus", 1)
    reps = [literal_matrix(r) for r in site.get("class_reps", [])]
    n = mats[0].shape[0]
    if len(mats) != 2 * genus + len(reps):
        return [f"{where}: {len(mats)} factors, expected {2 * genus + len(reps)}"]
    problems = []
    target = target_matrix(target_label, n)
    gap = word_value(mats, relator(genus, len(reps))) @ np.linalg.inv(target)
    gap = float(np.abs(gap - np.eye(n)).max())
    if gap > GAP_TOL:
        problems.append(f"{where}: relator gap {gap:.3e}")
    if family == "SL":
        worst = max(abs(np.linalg.det(m) - 1) for m in mats)
        if worst > DET_TOL:
            problems.append(f"{where}: det off by {worst:.3e}")
    for k, rep in enumerate(reps):
        m = mats[2 * genus + k]
        if abs(np.trace(m) - np.trace(rep)) > TRACE_TOL * (1 + abs(np.trace(rep))):
            problems.append(f"{where}: class factor {k} left its trace")
    return problems


def sample_row_problems(row, cfg, where):
    """point_problems on the matrix literals a `sample` row emits."""
    return point_problems([literal_matrix(m) for m in row["mats"]], cfg,
                          row["target"], where)


def verify_problems(report, known_failures, expect_skips, where):
    """Status consistency, the exact skip set and no unexpected failure."""
    problems = []
    skipped = set()
    for rec in report["checks"]:
        cid, status, resid = rec["check_id"], rec["status"], rec["max_residual"]
        if status == "passed" and not resid <= rec["tolerance"]:
            problems.append(f"{where}: {cid} passed at residual {resid}")
        elif status == "failed" and cid not in known_failures:
            problems.append(f"{where}: {cid} failed: {rec['reason']}")
        elif status == "skipped":
            skipped.add(cid)
            if expect_skips and not rec["reason"].startswith("DegeneratePairing"):
                problems.append(f"{where}: {cid} skipped: {rec['reason']}")
    if skipped != set(expect_skips):
        problems.append(f"{where}: skipped {sorted(skipped)}, expected "
                        f"{sorted(expect_skips)}")
    return problems


class ReportDigests:
    """The first bytes seen for each unit; later passes must repeat them."""

    def __init__(self):
        self.first = {}

    def problems(self, key, data):
        digest = hashlib.sha256(data).hexdigest()
        first = self.first.setdefault(key, digest)
        if digest != first:
            return [f"{key}: report bytes differ from the first pass"]
        return []
