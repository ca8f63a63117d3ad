"""Residual reports: named residual grids with interior max-abs and rms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .grid import Grid2

DEFAULT_MARGIN = 2


@dataclass(frozen=True)
class ResidualReport:
    """A named residual field with interior statistics.

    max_abs and rms are taken over the grid minus DEFAULT_MARGIN boundary layers,
    where the one-sided stencils would otherwise pollute convergence rates (an
    axis of 3 or 4 nodes trims 1); the dict's margin is the one every side kept.
    """

    name: str
    residual: Grid2
    max_abs: float
    rms: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs": self.max_abs,
            "rms": self.rms,
            "margin": min(DEFAULT_MARGIN, (min(self.residual.nu, self.residual.nv) - 1) // 2),
            "grid_shape": [self.residual.nu, self.residual.nv],
        }


def interior(values: np.ndarray) -> np.ndarray:
    m_u, m_v = (min(DEFAULT_MARGIN, (n - 1) // 2) for n in values.shape[:2])
    return values[m_u:values.shape[0] - m_u, m_v:values.shape[1] - m_v]


def make_report(name: str, residual: Grid2) -> ResidualReport:
    """Report of a residual grid over its interior. Finite inputs can still
    overflow a residual; a non-finite statistic raises RangeError."""
    inner = interior(residual.values)
    max_abs = float(np.max(np.abs(inner)))
    rms = float(np.sqrt(np.mean(inner * inner)))
    if not (np.isfinite(max_abs) and np.isfinite(rms)):
        raise RangeError(f"{name} residual is not finite (interior max abs {max_abs}, "
                         f"rms {rms})")
    return ResidualReport(name=name, residual=residual, max_abs=max_abs, rms=rms)
