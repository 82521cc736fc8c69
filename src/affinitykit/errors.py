"""Exception types shared across the package.

Two intermediate bases split the hierarchy by how the CLI reports them:
``InputError`` covers invalid data or configuration, ``NumericError``
covers iterative or algebraic procedures that fail at runtime.
"""


class AffinityKitError(Exception):
    """Base class for every error raised by affinitykit."""


class InputError(AffinityKitError):
    """Invalid user-supplied data, shapes, or configuration."""


class NumericError(AffinityKitError):
    """A numerical procedure failed (non-convergence, singular system)."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with the requested operation."""


class NonFiniteInput(InputError):
    """An input array contains NaN or infinite entries."""


class EmptyDataset(InputError):
    """A feature table is too small (fewer than 2 samples or 2 features)."""


class NonPositiveBandwidth(InputError):
    """Gaussian kernel bandwidth must be strictly positive."""


class EmptyNeighborhood(InputError):
    """A mask row allows no neighbors, so its softmax is undefined."""


class ZeroDegreeRow(InputError):
    """Degree normalization hit a row whose weights sum to zero."""


class NegativeEntries(InputError):
    """A nonnegative matrix was required but negative entries are present."""


class ZeroMatrix(InputError):
    """The all-zero matrix has no principal eigenvector to normalize."""


class ConvergenceBoundError(InputError):
    """alpha * rho >= 1, so the affinity power series does not converge."""


class NonFiniteScores(InputError):
    """Ranking scores contain NaN or infinite values."""


class KOutOfRange(InputError):
    """Requested top-k size is outside 1..N."""


class DivisibilityError(InputError):
    """Embedding width is not divisible by the number of heads."""


class EmptyFile(InputError):
    """The input file contains no rows."""


class RaggedRows(InputError):
    """A CSV row has a different number of cells than the header."""


class NonNumericCell(InputError):
    """A CSV data cell could not be parsed as a finite number."""


class NonConvergence(NumericError):
    """An iterative method hit its iteration cap; the message gives its last state."""


class SingularSystem(NumericError):
    """The closed-form linear system is singular; the convergence bound
    alpha * rho < 1 was violated by the supplied scaling."""
