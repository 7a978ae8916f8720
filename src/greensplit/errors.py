"""Exception types raised across the package.

Every error that can escape a public API call is defined here so callers
(and the command-line layer, which maps them to exit codes) can catch by
class rather than by message text.  The memory-refusal policy that the
simulator and the distributed solver share lives here too.
"""

import math
import os
import sys


class GreensplitError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GreensplitError):
    """A scenario document or network description violates the data contract."""


def check_memory(planned: float, what: str) -> None:
    """Refuse a request whose arrays would hold ``planned`` bytes, over half
    of physical memory, with one :class:`ValidationError` that names it as
    ``what``.  ``planned`` may be an integer past the range of a float."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if planned > physical / 2:
        gib = planned / 2**30 if planned <= sys.float_info.max else math.inf
        raise ValidationError(
            f"{what} would hold about {gib:.3g} GiB, over half of the "
            f"{physical / 2**30:.1f} GiB of physical memory"
        )


class DimensionError(GreensplitError):
    """Operands with inconsistent shapes reached a numerical routine."""


class EigenFailure(GreensplitError):
    """The eigenvalue backend failed to converge."""


class UnstableMatrix(GreensplitError):
    """A routine that requires a Hurwitz matrix received one that is not."""


class SolveFailure(GreensplitError):
    """A matrix equation solve broke down or left a large residual."""


class DegenerateSystem(GreensplitError):
    """The smoothing equation has no root because the cost surface is identically zero."""


class NoConvergence(GreensplitError):
    """An iterative root search exhausted its bracket growth or iteration budget."""


class ZeroTrace(GreensplitError):
    """The sensitivity normalizer vanished, so no descent direction exists."""


class NoStableStart(GreensplitError):
    """No tested initial split produced a stable averaged system."""


class InconsistentLocal(GreensplitError):
    """An agent's local share fails to reproduce its slice of the global problem."""


class NotConverged(GreensplitError):
    """The distributed iteration ran out of rounds before agents agreed."""
