"""Typed failure modes raised by the toolkit.

Every guarded numerical refusal gets its own class so callers (and the CLI)
can distinguish "the input is outside the contract" from genuine bugs.
The two config helpers at the end are shared by every config reader.
"""

import math


class QpoisError(Exception):
    pass


class NotClosed(QpoisError):
    """Bracket of basis elements leaves the span of the basis."""


class RankDeficient(QpoisError):
    """Supplied basis matrices are linearly dependent."""


class NotInSpan(QpoisError):
    """A matrix expected to lie in the algebra span does not."""


class NotConvenient(QpoisError):
    """Pairing/structure data fails the invariance or antisymmetry it needs."""


class DegeneratePairing(QpoisError):
    """An inverse of the bilinear form was requested but the form is singular."""


class NotTangent(QpoisError):
    """Vector is not tangent to the constraint set (class factor, level set)."""


class LiftFailed(QpoisError):
    """No algebra lift X with q X - X q matching the given tangent."""


class IncompatibleActions(QpoisError):
    """Fusion requested across sites built over different models/pairings."""


class BadSignature(QpoisError):
    """Site shape does not match what the construction needs."""


class NotInvariant(QpoisError):
    """Function expected to be conjugation invariant is not (sampled check)."""


class NotEpimorphism(QpoisError):
    """A map contractually surjective is rank deficient at this point."""


class SolverStopped(QpoisError):
    """The relator solver stopped short of its tolerance, with the best
    residual it reached and the iterations it took."""

    def __init__(self, msg, best_residual, iters):
        super().__init__(msg)
        self.best_residual = best_residual
        self.iters = iters


class MaxIters(SolverStopped):
    """The solver used up its iterations."""


class Stalled(SolverStopped):
    """No damping of the solver's step gave descent."""


class ConfigError(QpoisError):
    """Run configuration file is malformed or inconsistent."""


class IoError(QpoisError):
    """Report/config file could not be read or written."""


def expect(cond, loc, msg):
    """ConfigError naming the config location unless cond holds."""
    if not cond:
        raise ConfigError(f"{loc}: {msg}")


def is_finite_number(x):
    """A JSON number that is a finite float; json.loads also reads NaN,
    Infinity and integers too large for a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False
