"""Exception hierarchy for the tree transport toolkit.

All domain errors derive from :class:`TreeOTError` so callers (and the CLI)
can distinguish domain failures (exit code 1) from usage errors (exit code 2).
"""


class TreeOTError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedTree(TreeOTError):
    """The input graph is not a valid metric tree (cycle, disconnection,
    nonpositive length, or an infinite edge with two endpoints)."""


class OutOfInterval(TreeOTError):
    """A geodesic was evaluated outside its parameter interval."""


class EqualEnds(TreeOTError):
    """A bi-infinite geodesic was requested between a boundary end and itself."""


class ConstantGeodesic(TreeOTError):
    """The operation needs a non-constant geodesic."""


class FlagInvalid(TreeOTError):
    """A flag (vertex, edge pair) is not well formed: equal edges or edges
    not incident to the vertex."""


class MalformedForRadon(TreeOTError):
    """The tree violates the requirements of the Radon operations
    (it has a leaf or a valency-2 vertex)."""


class PlanNotOptimal(TreeOTError):
    """A transport plan supplied where an optimal one is required fails the
    cyclical monotonicity certificate."""


class MarginalMismatch(TreeOTError):
    """A coupling's marginals do not match the prescribed measures."""


class LeafyTree(TreeOTError):
    """The operation requires a tree without leaves (geodesic completeness)."""


class NotDiracBased(TreeOTError):
    """The dynamical plan does not start at a Dirac mass."""


class NonUnitMeasure(TreeOTError):
    """A cone measure was required to have unit quadratic speed mean."""


class NotAntipodal(TreeOTError):
    """Two boundary measures are not antipodal (their supports overlap)."""


class DiagonalMass(TreeOTError):
    """A transport problem on the boundary would be forced to place positive
    mass on a diagonal pair, where the base-to-geodesic distance is infinite."""


class NotRealizable(TreeOTError):
    """The requested pair of boundary measures is not the pair of ends of any
    finite-second-moment complete geodesic (divergent generated family)."""


class InconsistentData(TreeOTError):
    """Radon data does not come from any vertex function (re-transform of the
    reconstruction disagrees with the input)."""


class NonFiniteValue(TreeOTError):
    """A number that must be finite is NaN or infinite, or the square of a
    distance or speed exceeds the float range."""


class SolverFailure(TreeOTError):
    """An internal solver or self-check failed: the transport simplex did not
    converge, its dual certificate does not hold, or a constructed result
    fails its own verification."""
