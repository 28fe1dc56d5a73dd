"""Parameter grids: the cells a campaign sweeps.

A campaign is a cartesian product — scenario × parameter axes × seeds —
expanded into :class:`CampaignCell` records.  Cells are plain picklable
data (scenario *name* plus keyword parameters), so a process pool can
rebuild and run each one in a worker via the scenario library.

>>> grid = ParameterGrid("ramp", axes={"n_stations": [10, 20]}, seeds=2)
>>> len(grid)
4
>>> [c.name for c in grid.cells()][:2]
['ramp/n_stations=10/seed=0', 'ramp/n_stations=10/seed=1']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

__all__ = ["CampaignCell", "ParameterGrid"]


@dataclass(frozen=True)
class CampaignCell:
    """One unit of campaign work: a named scenario, parameterised.

    ``fidelity`` selects the simulation engine (see
    :data:`repro.sim.FIDELITY_MODES`); it rides *outside* ``params``
    because it is not a scenario parameter — it changes how the same
    scenario is executed, and store keys must distinguish the two.
    ``None`` means the default engine and keeps legacy cell names and
    store keys byte-identical.
    """

    scenario: str
    params: tuple[tuple[str, object], ...] = ()
    seed: int | None = None
    fidelity: str | None = None

    @property
    def name(self) -> str:
        """Stable human-readable cell id, e.g. ``ramp/n_stations=20/seed=1``."""
        parts = [self.scenario]
        parts += [f"{key}={value}" for key, value in self.params]
        if self.fidelity is not None:
            parts.append(f"fidelity={self.fidelity}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return "/".join(parts)

    @property
    def kwargs(self) -> dict[str, object]:
        """Keyword arguments for ``repro.sim.build_scenario``.

        ``fidelity`` is deliberately absent: it is not a scenario
        parameter (``scenario_config`` would reject it) — executors
        pass ``cell.fidelity`` to ``build_scenario`` separately.
        """
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs


@dataclass(frozen=True)
class ParameterGrid:
    """Cartesian sweep specification over one library scenario.

    ``axes`` maps parameter names (scenario factory arguments or
    :class:`~repro.sim.scenarios.ScenarioConfig` fields) to the values
    to sweep; ``seeds`` is either a count (seeds ``0..n-1``) or an
    explicit sequence of seed values.  ``fixed`` parameters apply to
    every cell without multiplying the grid.
    """

    scenario: str
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    seeds: int | Sequence[int] = 1
    fixed: Mapping[str, object] = field(default_factory=dict)
    fidelity: str | None = None

    def __post_init__(self) -> None:
        for key, values in self.axes.items():
            if len(values) == 0:
                raise ValueError(f"axis {key!r} has no values")
            if key in self.fixed:
                raise ValueError(f"{key!r} is both an axis and fixed")
        if isinstance(self.seeds, int) and self.seeds < 1:
            raise ValueError("need at least one seed")
        if self.fidelity is not None:
            from ..sim import FIDELITY_MODES

            if self.fidelity not in FIDELITY_MODES:
                choices = ", ".join(repr(m) for m in FIDELITY_MODES)
                raise ValueError(
                    f"unknown fidelity {self.fidelity!r}: expected one of {choices}"
                )

    @property
    def seed_values(self) -> tuple[int, ...]:
        if isinstance(self.seeds, int):
            return tuple(range(self.seeds))
        return tuple(int(s) for s in self.seeds)

    def __len__(self) -> int:
        n = len(self.seed_values)
        for values in self.axes.values():
            n *= len(values)
        return n

    def validate(self) -> "ParameterGrid":
        """Check the scenario name and every axis/fixed key, eagerly.

        Raises ``KeyError`` (unknown scenario) or
        :class:`~repro.sim.library.UnknownParameterError` (unknown
        parameter, with a "did you mean ...?" suggestion) *before* any
        cell is dispatched — a typo'd ``--vary n_statoins=...`` fails
        here in milliseconds instead of as one failure record per grid
        point after the pool spins up.  Returns ``self`` for chaining.
        """
        from ..sim import validate_scenario_params

        validate_scenario_params(self.scenario, list(self.fixed) + list(self.axes))
        return self

    def cells(self) -> list[CampaignCell]:
        """Expand the grid, axes varying slowest-first, seeds innermost."""
        keys = list(self.axes)
        fixed = tuple(sorted(self.fixed.items()))
        out: list[CampaignCell] = []
        for combo in product(*(self.axes[key] for key in keys)):
            params = fixed + tuple(zip(keys, combo))
            for seed in self.seed_values:
                out.append(
                    CampaignCell(
                        scenario=self.scenario,
                        params=params,
                        seed=seed,
                        fidelity=self.fidelity,
                    )
                )
        return out

    def extend(
        self,
        *,
        axes: Mapping[str, Sequence[object]] | None = None,
        seeds: int | Sequence[int] | None = None,
    ) -> "ParameterGrid":
        """A grown grid that keeps every existing cell and adds new ones.

        ``axes`` appends values to existing axes (duplicates ignored,
        order preserved) or introduces new axes; ``seeds`` grows the
        seed set — an int raises the count (``seeds 0..n-1`` stay a
        prefix), a sequence appends explicit seed values.  Because the
        original cells survive verbatim, running the extended grid
        against a :class:`~repro.campaign.store.CampaignStore` that
        already holds the original campaign recomputes **only** the new
        cells; :meth:`new_cells` names them without a store.

        Note: introducing a brand-new axis *key* changes every cell's
        parameter set, so none of the original cells survive — extend
        along existing axes (or seeds) for incremental growth.
        """
        merged_axes: dict[str, list[object]] = {
            key: list(values) for key, values in self.axes.items()
        }
        for key, values in (axes or {}).items():
            bucket = merged_axes.setdefault(key, [])
            for value in values:
                if value not in bucket:
                    bucket.append(value)
        merged_seeds: int | Sequence[int] = self.seeds
        if seeds is not None:
            if isinstance(seeds, int):
                if not isinstance(self.seeds, int):
                    raise ValueError(
                        "cannot grow an explicit seed list by count; "
                        "pass the seed values to add"
                    )
                if seeds < self.seeds:
                    raise ValueError(
                        f"cannot shrink seeds: {seeds} < {self.seeds}"
                    )
                merged_seeds = seeds
            else:
                current = list(self.seed_values)
                for seed in seeds:
                    if int(seed) not in current:
                        current.append(int(seed))
                merged_seeds = tuple(current)
        return ParameterGrid(
            scenario=self.scenario,
            axes=merged_axes,
            seeds=merged_seeds,
            fixed=dict(self.fixed),
            fidelity=self.fidelity,
        )

    def new_cells(self, base: "ParameterGrid") -> list[CampaignCell]:
        """Cells of this grid that ``base`` does not contain (diffing).

        The incremental-extension primitive for store-less campaigns:
        ``run_campaign(extended.new_cells(original))`` runs exactly the
        added work.  Cells compare by value (scenario, params, seed).
        """
        existing = set(base.cells())
        return [cell for cell in self.cells() if cell not in existing]
