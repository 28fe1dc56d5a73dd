"""Named scenario library: ready-made configs for diverse conditions.

The paper's findings come from *comparing* conditions — congested vs.
uncongested hours, RTS/CTS on vs. off, rate fallback under load.  This
registry packages those conditions (and the pathologies behind them) as
named scenarios, so campaigns can sweep them by name.  Each is declared
once, as a function that returns the scenario's
:class:`~repro.sim.scenarios.ScenarioConfig`, placement included:

* ``ramp`` / ``day`` / ``plenary`` — the classic calibrated configs;
* ``uniform`` — one plain room with constant Poisson rates;
* ``hidden-terminal`` — two station clusters that can reach the AP but
  not hear each other (the §5 collision pathology RTS/CTS targets);
* ``hotspot-plenary`` — users piled around hotspot foci with heavy
  bursty arrivals, the registration-desk crowding case;
* ``co-channel`` — several APs sharing one channel, so cells contend
  instead of being isolated (the paper's §4.1 channel-overlap worry);
* ``roaming-storm`` — heavy shadowing plus handoffs, churning
  associations like Figure 4(b)'s moving user counts.

A scenario takes its factory's keyword arguments plus any
:class:`~repro.sim.scenarios.ScenarioConfig` field as an override, e.g.
``build_scenario("hidden-terminal", n_stations=12, duration_s=20.0,
rtscts_fraction=1.0)``.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import fields as dataclass_fields, replace
from typing import Callable, Iterable

from .._suggest import unknown_name_message
from .builder import build
from .scenarios import (
    RAMP_MIX,
    ScenarioConfig,
    _is_finite,
    ietf_day_config,
    ietf_plenary_config,
    load_ramp_config,
)
from .topology import EndClusterPlacement, HotspotPlacement
from .traffic import CONFERENCE_MIX, ConstantRate, ModulatedRate

__all__ = [
    "SCENARIO_LIBRARY",
    "UnknownParameterError",
    "available_scenarios",
    "scenario_config",
    "scenario_parameters",
    "validate_scenario_params",
    "build_scenario",
    "co_channel_config",
    "roaming_storm_config",
    "uniform_config",
]


class UnknownParameterError(TypeError):
    """A scenario was given a parameter name it does not understand.

    Subclasses :class:`TypeError` because that is what an unknown
    keyword has always raised (from ``dataclasses.replace``) — but
    carries a "did you mean ...?" message listing the scenario's valid
    parameter names instead of a bare traceback.
    """


def available_scenarios() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIO_LIBRARY)


def _factory_keywords(factory: Callable) -> set[str]:
    """The keyword arguments a config factory declares."""
    return {
        pname
        for pname, param in inspect.signature(factory).parameters.items()
        if param.kind
        not in (inspect.Parameter.VAR_KEYWORD, inspect.Parameter.VAR_POSITIONAL)
    }


def scenario_parameters(name: str) -> tuple[str, ...]:
    """Every parameter name the named scenario accepts, sorted.

    The union of the factory's declared keyword arguments and the
    :class:`ScenarioConfig` fields (a field the factory does not declare
    is an override of the config it returns).
    """
    declared = _factory_keywords(_lookup(name))
    declared.update(f.name for f in dataclass_fields(ScenarioConfig))
    return tuple(sorted(declared))


def validate_scenario_params(name: str, params: Iterable[str]) -> None:
    """Raise :class:`UnknownParameterError` for any unknown parameter.

    The silent-typo guard: ``n_statoins=40`` fails here with a
    "did you mean 'n_stations'?" message naming every valid parameter,
    instead of a ``TypeError`` deep inside ``dataclasses.replace``.
    """
    valid = scenario_parameters(name)
    for key in params:
        if key not in valid:
            raise UnknownParameterError(
                unknown_name_message(f"scenario {name!r} parameter", key, valid)
            )


def _lookup(name: str) -> Callable[..., ScenarioConfig]:
    factory = SCENARIO_LIBRARY.get(name)
    if factory is None:
        raise KeyError(
            unknown_name_message("scenario", name, available_scenarios())
        )
    return factory


def scenario_config(name: str, **params) -> ScenarioConfig:
    """The whole network the named scenario runs with ``params``.

    Parameters the factory's signature declares go to the factory;
    anything else must be a :class:`ScenarioConfig` field and replaces
    it.  Unknown names raise :class:`UnknownParameterError` with a "did
    you mean ...?" suggestion.
    """
    factory = _lookup(name)
    validate_scenario_params(name, params)
    declared = _factory_keywords(factory)
    config = factory(**{k: v for k, v in params.items() if k in declared})
    overrides = {k: v for k, v in params.items() if k not in declared}
    return replace(config, **overrides) if overrides else config


def build_scenario(name: str, fidelity: str = "default", **params):
    """Build (but do not run) the named scenario — call ``run()`` or
    ``stream()`` on the result.

    ``fidelity`` picks the engine: ``"default"`` (golden-digest-pinned
    discrete events) or ``"fast"`` (columnar batch-stepped core,
    statistically validated).  It is deliberately *not* a scenario
    parameter — it never alters the wired network, only the machinery
    that runs it — so it rides outside ``params`` and campaign grids
    key it separately.
    """
    return build(scenario_config(name, **params), fidelity)


def _constant_rate(name: str, pps) -> ConstantRate:
    """A factory's ``*_pps`` keyword as a schedule; a value that is not a
    finite, non-negative real is refused by the keyword's name."""
    if not isinstance(pps, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {pps!r}")
    if not (_is_finite(pps) and pps >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {pps!r}")
    return ConstantRate(pps)


def uniform_config(
    n_stations: int = 10,
    n_aps: int = 1,
    duration_s: float = 20.0,
    seed: int = 7,
    uplink_pps: float = 8.0,
    downlink_pps: float = 18.0,
    rate_algorithm: str = "arf",
    rtscts_fraction: float = 0.0,
    obstructed_fraction: float = 0.25,
) -> ScenarioConfig:
    """A plain one-room cell with constant Poisson rates.

    The declarative face of a bare :class:`ScenarioConfig`: every
    argument is a scalar, so a spec file or ``--set KEY=VALUE`` on the
    command line (``uniform`` is the scenario ``simulate`` runs unless
    told otherwise) can describe the run without constructing schedule
    objects — ``uplink_pps``/``downlink_pps`` become
    :class:`~repro.sim.traffic.ConstantRate` schedules.  Any other
    :class:`ScenarioConfig` field is accepted as an override.
    """
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=n_aps,
        duration_s=duration_s,
        seed=seed,
        uplink=_constant_rate("uplink_pps", uplink_pps),
        downlink=_constant_rate("downlink_pps", downlink_pps),
        rate_algorithm=rate_algorithm,
        rtscts_fraction=rtscts_fraction,
        obstructed_fraction=obstructed_fraction,
    )


def _hidden_terminal(
    n_stations: int = 8,
    duration_s: float = 20.0,
    seed: int = 31,
    room_width_m: float = 64.0,
    uplink_pps: float = 22.0,
    rtscts_fraction: float = 0.0,
) -> ScenarioConfig:
    """Two station clusters at opposite ends of a long narrow room.

    At path-loss exponent 3.5 and 15 dBm transmit power the ~58 m
    cluster separation puts each cluster below the other's -85 dBm
    carrier-sense threshold while the ~30 m AP link still delivers
    ~20 dB SNR: both ends talk to the AP, neither defers to the other,
    and uplink DATA collides at the AP.  Sweep ``rtscts_fraction``
    0 → 1 to reproduce the RTS/CTS trade-off of the paper's Figure 7.
    """
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=1,
        duration_s=duration_s,
        seed=seed,
        channels=(1,),
        room_width_m=room_width_m,
        room_depth_m=8.0,
        placement=EndClusterPlacement(),
        # Deterministic geometry: hiddenness must come from path
        # loss, not a lucky shadowing draw.
        shadowing_sigma_db=0.0,
        path_loss_exponent=3.5,
        station_tx_power_dbm=15.0,
        rtscts_fraction=rtscts_fraction,
        obstructed_fraction=0.0,
        uplink=_constant_rate("uplink_pps", uplink_pps),
        downlink=ConstantRate(4.0),
        size_mix=CONFERENCE_MIX,
    )


def _hotspot_plenary(
    n_stations: int = 24,
    duration_s: float = 45.0,
    seed: int = 33,
    burst_sigma: float = 1.3,
    spread_m: float = 4.0,
) -> ScenarioConfig:
    """Plenary-hall cells with users piled around hotspot foci.

    Instead of a uniform floor, stations cluster near the doors and the
    front rows, so one AP's cell is much denser than the others while
    heavy log-normal burst modulation (``burst_sigma``) slams the
    offered load around — the crowding that drove the paper's plenary
    captures deep into congestion.
    """
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=3,
        duration_s=duration_s,
        seed=seed,
        channels=(1, 6, 11),
        room_width_m=40.0,
        room_depth_m=25.0,
        placement=HotspotPlacement(
            centres=((0.15, 0.5), (0.85, 0.55), (0.5, 0.3)),
            spread_m=spread_m,
        ),
        shadowing_sigma_db=6.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        rate_adaptation_kwargs={"up_threshold": 5, "down_threshold": 3},
        obstructed_fraction=0.2,
        size_mix=RAMP_MIX,
        uplink=ModulatedRate(
            ConstantRate(10.0), sigma=burst_sigma, seed=seed + 51
        ),
        downlink=ModulatedRate(
            ConstantRate(30.0), sigma=burst_sigma, seed=seed + 52
        ),
    )


def co_channel_config(
    n_stations: int = 18,
    n_aps: int = 3,
    duration_s: float = 30.0,
    seed: int = 35,
) -> ScenarioConfig:
    """Several AP cells forced onto one shared channel.

    The paper's venue spread its APs over channels 1/6/11; this
    scenario deliberately does not, so neighbouring cells carrier-sense
    and collide with each other.  Sweeping ``n_aps`` shows co-channel
    overlap eating the capacity that extra APs were supposed to add.
    """
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=n_aps,
        duration_s=duration_s,
        seed=seed,
        channels=(1,),           # every AP on the same channel
        room_width_m=70.0,
        room_depth_m=25.0,
        shadowing_sigma_db=5.0,
        path_loss_exponent=3.1,
        station_tx_power_dbm=13.0,
        obstructed_fraction=0.15,
        uplink=ConstantRate(7.0),
        downlink=ConstantRate(20.0),
        size_mix=CONFERENCE_MIX,
    )


def roaming_storm_config(
    n_stations: int = 20,
    duration_s: float = 40.0,
    seed: int = 37,
) -> ScenarioConfig:
    """Association churn: heavy shadowing plus periodic handoffs.

    Stations start on the nearest AP, but with 9 dB link shadowing the
    strongest beacon is often a different one; the roaming manager then
    keeps moving users as scans fire — Figure 4(b)'s shifting
    association counts, plus the reassociation management traffic the
    sniffers record.
    """
    return ScenarioConfig(
        n_stations=n_stations,
        n_aps=4,
        duration_s=duration_s,
        seed=seed,
        channels=(1, 6, 11),
        room_width_m=60.0,
        room_depth_m=25.0,
        # Heavy per-link shadowing: nearest-by-distance association is
        # frequently not strongest-by-beacon, so the first scans set
        # off a wave of reassociations.
        shadowing_sigma_db=9.0,
        path_loss_exponent=3.2,
        station_tx_power_dbm=12.0,
        roaming=True,
        obstructed_fraction=0.1,
        uplink=ConstantRate(6.0),
        downlink=ConstantRate(16.0),
        size_mix=CONFERENCE_MIX,
    )


#: name -> function returning the scenario's :class:`ScenarioConfig`.
SCENARIO_LIBRARY: dict[str, Callable[..., ScenarioConfig]] = {
    "ramp": load_ramp_config,
    "day": ietf_day_config,
    "plenary": ietf_plenary_config,
    "uniform": uniform_config,
    "hidden-terminal": _hidden_terminal,
    "hotspot-plenary": _hotspot_plenary,
    "co-channel": co_channel_config,
    "roaming-storm": roaming_storm_config,
}
