"""Model couplings and the numerical-failure type every engine raises.

A leaf module, importing nothing else from the package: the horizon model
(`cosmo`) and the command-line front end take their parameter record from
here without loading the series engine (`lrbound`, `pathcount`,
`velocity`).  `lrbound` re-exports `Couplings`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

DEFAULT_STEP_FACTOR = math.sqrt(2.0)


class NumericalFailure(RuntimeError):
    """A computation that cannot produce a certified result for valid input.

    Base of `lrbound.ConvergenceError` and `velocity.ThresholdUnreachableError`;
    the command line maps it to exit code 3.
    """


@dataclass(frozen=True)
class Couplings:
    """Model couplings and observable norms entering the bound prefactor.

    g multiplies the charging-energy term, J the plaquette term; the bound
    depends on them only through the product g J.  step_factor is the
    per-step weight (0 < step_factor <= 2).
    """

    g: float
    J: float
    origin_norm: float = 1.0
    probe_norm: float = 1.0
    step_factor: float = DEFAULT_STEP_FACTOR

    def __post_init__(self) -> None:
        if not (self.g > 0 and math.isfinite(self.g)):
            raise ValueError(f"g must be finite and > 0, got {self.g}")
        if not (self.J > 0 and math.isfinite(self.J)):
            raise ValueError(f"J must be finite and > 0, got {self.J}")
        if not (self.origin_norm > 0 and math.isfinite(self.origin_norm)):
            raise ValueError(f"origin_norm must be finite and > 0, got {self.origin_norm}")
        if not (self.probe_norm > 0 and math.isfinite(self.probe_norm)):
            raise ValueError(f"probe_norm must be finite and > 0, got {self.probe_norm}")
        if not (0.0 < self.step_factor <= 2.0):
            raise ValueError(f"step_factor must lie in (0, 2], got {self.step_factor}")
        # The cone velocity takes sqrt(8 g J) and every series term log(g J),
        # so 8 g J must be finite and g J a normal float.
        gJ = self.g * self.J
        if not (sys.float_info.min <= gJ and math.isfinite(8.0 * gJ)):
            raise ValueError(
                f"g*J must lie in [{sys.float_info.min}, {sys.float_info.max / 8}], "
                f"got g*J = {gJ} (g = {self.g}, J = {self.J})"
            )

    @property
    def coupling_speed(self) -> float:
        """Natural velocity scale sqrt(2 g J) of the quadratic theory."""
        return math.sqrt(2.0 * self.g * self.J)

    @property
    def prefactor(self) -> float:
        """Overall factor 2 |P| |Q| multiplying the series."""
        return 2.0 * self.origin_norm * self.probe_norm
