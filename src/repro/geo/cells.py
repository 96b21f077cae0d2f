"""Geospatial cell division (S4.1 Step 1, Fig. 15b, Table 3).

SpaceCore redefines cells and tracking areas as *geospatial* regions
tied to the constellation's orbital geometry rather than to individual
(fast-moving) satellites.  At constellation initialisation (t = 0) the
satellites' projections form a regular grid in the (alpha, gamma)
system; the cells are the grid's Voronoi regions, frozen forever after.
A static UE therefore never changes cell as satellites sweep overhead
-- the property that eliminates the mobility-registration storms of
S3.2.

Cell identifiers are ``(column, row)``: ``column`` indexes the plane
direction (alpha), ``row`` the in-plane direction (gamma).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

from ..constants import EARTH_RADIUS_KM, TWO_PI
from ..orbits.constellation import Constellation
from ..orbits.coordinates import InclinedCoordinateSystem, wrap_signed

CellId = Tuple[int, int]


@dataclass(frozen=True)
class CellStatistics:
    """Min/max/avg cell footprint over non-empty cells (Table 3)."""

    num_cells: int
    min_km2: float
    max_km2: float
    avg_km2: float


class GeospatialCellGrid:
    """The frozen geospatial cell grid of one constellation.

    Columns sit ``delta_raan`` apart in alpha; rows sit ``delta_phase``
    apart in gamma.  A ground point has two torus representations
    (ascending and descending great-circle branches); it belongs to the
    cell whose grid node is angularly nearest across both
    representations.  For "star" constellations whose ascending nodes
    span only half the circle, the descending branch is what covers the
    other half -- the same mechanism, no special case.
    """

    def __init__(self, constellation: Constellation):
        self.constellation = constellation
        self.system = InclinedCoordinateSystem(constellation.inclination_rad)
        self.num_columns = constellation.num_planes
        self.num_rows = constellation.sats_per_plane
        self.delta_alpha = constellation.delta_raan
        self.delta_gamma = constellation.delta_phase

    # -- identity -------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return self.num_columns * self.num_rows

    # -- point -> cell ----------------------------------------------------------

    def _nearest_node(self, alpha: float,
                      gamma: float) -> Tuple[CellId, float, bool]:
        """Nearest grid node to one (alpha, gamma) representation.

        Returns ``(cell, distance, is_virtual)``.  The alpha ring only
        hosts real columns over ``raan_spread``; a representation whose
        nearest column index falls beyond the populated planes (only
        possible for "star" constellations with a half-circle spread)
        is flagged *virtual* and snapped to the closest real column.
        """
        col = round(alpha / self.delta_alpha)
        alpha_err = alpha - col * self.delta_alpha
        ring_cols = int(round(TWO_PI / self.delta_alpha))
        col_wrapped = col % ring_cols
        virtual = col_wrapped >= self.num_columns
        if virtual:
            nearest_real = min(
                range(self.num_columns),
                key=lambda c: abs(wrap_signed(alpha - c * self.delta_alpha)),
            )
            alpha_err = wrap_signed(alpha - nearest_real * self.delta_alpha)
            col_wrapped = nearest_real
        row = round(gamma / self.delta_gamma) % self.num_rows
        gamma_err = wrap_signed(gamma - round(gamma / self.delta_gamma)
                                * self.delta_gamma)
        distance = math.hypot(alpha_err, gamma_err)
        return (col_wrapped, row), distance, virtual

    def cell_of(self, lat: float, lon: float) -> CellId:
        """Cell containing a ground point (radians in).

        The ascending-branch representation is authoritative whenever
        it lands on a populated plane column; this keeps the tiling
        stable (nearby points share cells) instead of flip-flopping
        between the two nearly-tied branch representations.  The
        descending branch only decides for points whose ascending node
        falls in the unpopulated half of a star constellation's ring.
        """
        ascending, descending = self.system.both_representations(lat, lon)
        asc_cell, asc_dist, asc_virtual = self._nearest_node(*ascending)
        if not asc_virtual:
            return asc_cell
        desc_cell, desc_dist, desc_virtual = self._nearest_node(*descending)
        if not desc_virtual:
            return desc_cell
        return asc_cell if asc_dist <= desc_dist else desc_cell

    # -- cell -> geometry --------------------------------------------------------

    def cell_center(self, cell: CellId) -> Tuple[float, float]:
        """(lat, lon) radians of a cell's grid node."""
        col, row = cell
        alpha = (col % self.num_columns) * self.delta_alpha
        gamma = (row % self.num_rows) * self.delta_gamma
        return self.system.to_geodetic(alpha, gamma)

    def analytic_cell_area_km2(self, cell: CellId) -> float:
        """First-order area of one cell from the coordinate Jacobian.

        ``dA = R^2 sin(i) |cos gamma| dalpha dgamma``: cells are widest
        where orbits cross the equator and pinch toward the turn
        points.  Empirical sizes (Monte Carlo over the actual
        :meth:`cell_of` assignment) differ near the band edges where
        clamped polar points are absorbed; use
        :meth:`cell_size_statistics` for Table 3.
        """
        _, row = cell
        gamma = (row % self.num_rows) * self.delta_gamma
        jacobian = math.sin(self.system.inclination) * abs(math.cos(gamma))
        return (EARTH_RADIUS_KM * EARTH_RADIUS_KM * jacobian
                * self.delta_alpha * self.delta_gamma)

    def cell_size_statistics(self, samples: int = 40000) -> CellStatistics:
        """Monte-Carlo estimate of min/max/avg non-empty cell footprints.

        Points are drawn uniformly on the sphere and attributed via
        :meth:`cell_of`; each sample carries an equal share of the
        Earth's surface area.  Reproduces the structure of Table 3.
        """
        rng = random.Random(7)
        counts: dict = {}
        for _ in range(samples):
            # Uniform on the sphere: lon uniform, sin(lat) uniform.
            lat = math.asin(2.0 * rng.random() - 1.0)
            lon = rng.uniform(-math.pi, math.pi)
            cell = self.cell_of(lat, lon)
            counts[cell] = counts.get(cell, 0) + 1
        earth_area = 4.0 * math.pi * EARTH_RADIUS_KM**2
        share = earth_area / samples
        areas = [c * share for c in counts.values()]
        return CellStatistics(
            num_cells=len(areas),
            min_km2=min(areas),
            max_km2=max(areas),
            avg_km2=sum(areas) / len(areas),
        )

    def crossing_rate_per_user(self, speed_km_s: float) -> float:
        """Cell crossings per second for a UE moving at ``speed_km_s``.

        The paper's claim that UE-driven mobility registrations are
        rare rests on the cells being enormous (Table 3): a UE crossing
        a cell of typical linear size L every L / v seconds.
        """
        stats_area = (4.0 * math.pi * EARTH_RADIUS_KM**2
                      * math.sin(self.constellation.inclination_rad)
                      / self.num_cells)
        linear = math.sqrt(stats_area)
        return speed_km_s / linear
