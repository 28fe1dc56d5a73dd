"""Campaign subsystem: parameter-grid sweeps across a process pool.

The paper's results are *comparisons* — conditions against conditions.
This package runs those comparisons at scale: a
:class:`~repro.campaign.grid.ParameterGrid` expands scenario × axes ×
seeds into cells, :func:`~repro.campaign.runner.run_campaign` executes
the cells across worker processes (each one streaming its live
simulated capture straight through the single-pass analysis pipeline,
bounded memory end to end), and :mod:`repro.campaign.summary`
aggregates the per-cell congestion findings into campaign-level tables,
delivery-vs-offered-load curves and utilization-knee estimates.

Campaigns are crash-safe and incremental: pass ``store_dir=`` and every
finished cell is persisted immediately to a content-addressed
:class:`~repro.campaign.store.CampaignStore` keyed by (scenario,
resolved config, seed, code-version salt).  Re-invoking the same
campaign performs zero simulation work; extending the grid
(:meth:`~repro.campaign.grid.ParameterGrid.extend`) recomputes only the
new cells; per-cell exceptions become :class:`~repro.jobs.JobError`
failure records instead of sinking the run.

    from repro.campaign import ParameterGrid, run_campaign, render_campaign

    grid = ParameterGrid(
        "ramp", axes={"n_stations": [10, 20, 40, 60]}, seeds=2
    )
    result = run_campaign(grid, workers=4)
    print(render_campaign(result))

CLI equivalent: ``python -m repro.tools campaign --scenario ramp
--vary n_stations=10,20,40,60 --seeds 2 --workers 4``.

Beyond one process pool, ``run_campaign(dispatch="distributed")`` (or a
hand-run ``repro campaign-coordinator`` plus ``repro campaign-worker``
processes) executes the same grid through a fault-tolerant lease-based
protocol (:mod:`repro.campaign.dispatch`): workers lease cell batches
over a socket, write results into per-worker store shards, and dead or
stalled workers are survived via lease reclaim, bounded retries and a
loss-free shard merge (:mod:`repro.campaign.merge`).
"""

from ..store import code_version_salt
from .dispatch import Coordinator, DispatchError
from .grid import CampaignCell, ParameterGrid
from .merge import MergeConflictError, MergeReport, merge_shards, shard_roots
from .runner import CampaignResult, CellResult, run_campaign
from .store import CampaignStore, StoreStatus, cell_key
from .worker import run_worker
from .summary import (
    campaign_table,
    delivery_curve,
    group_over_seeds,
    load_knee,
    render_campaign,
    utilization_knee,
)

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "CampaignStore",
    "CellResult",
    "Coordinator",
    "DispatchError",
    "MergeConflictError",
    "MergeReport",
    "ParameterGrid",
    "StoreStatus",
    "campaign_table",
    "cell_key",
    "code_version_salt",
    "delivery_curve",
    "group_over_seeds",
    "load_knee",
    "merge_shards",
    "render_campaign",
    "run_campaign",
    "run_worker",
    "shard_roots",
    "utilization_knee",
]
