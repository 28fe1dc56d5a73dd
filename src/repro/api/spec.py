"""Declarative experiment specs: one file == one reproducible study.

An :class:`ExperimentSpec` is the value object behind the whole
``repro.api`` layer: the fluent :class:`~repro.api.experiment.Experiment`
builder accumulates one, spec *files* (TOML via stdlib ``tomllib``, or
JSON) parse into one, and every
:class:`~repro.api.result.ExperimentResult` carries the resolved spec
it ran — so any result can be re-run bit-exactly from
``result.spec()``.

A spec file is at most four tables::

    # study.toml — a 10-line campaign
    name = "ramp-sweep"
    scenario = "ramp"
    seeds = 2

    [vary]
    n_stations = [10, 20, 40]

    [params]
    duration_s = 12.0

    [run]
    workers = 4

``scenario`` names a library scenario (``repro.sim.available_scenarios``);
``pcaps = ["a.pcap", ...]`` analyzes captures instead (entries may be
files, directories or glob patterns, expanded deterministically), and
``pcaps = {corpus = "captures/", where = "channel=6"}`` analyzes an
indexed corpus through the query planner.  ``[params]``
fixes scenario parameters for every cell, ``[vary]`` declares sweep
axes, ``seeds`` multiplies the grid, and ``[run]`` holds execution
options (workers, store, resume, retry_failed, keep_reports,
timeout_s, dispatch).  Unknown keys anywhere fail with a
"did you mean ...?" error before anything runs.

>>> spec = ExperimentSpec.from_toml(
...     'scenario = "ramp"\\nseeds = 2\\n[vary]\\nn_stations = [10, 20]\\n'
... )
>>> spec.mode
'campaign'
>>> ExperimentSpec.from_toml(spec.to_toml()) == spec
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

from .._suggest import unknown_name_message
from . import _toml

__all__ = ["ExperimentSpec", "SpecError", "load_spec"]


class SpecError(ValueError):
    """An experiment spec that cannot be parsed or validated."""


#: Keys allowed at the top level of a spec mapping/file.
_TOP_KEYS = (
    "name",
    "scenario",
    "pcaps",
    "seeds",
    "fidelity",
    "analyses",
    "params",
    "vary",
    "run",
)

#: Keys allowed inside the ``[run]`` table.
_RUN_KEYS = (
    "workers",
    "store",
    "resume",
    "retry_failed",
    "keep_reports",
    "timeout_s",
    "dispatch",
)


def _err(message: str, source: str | None) -> SpecError:
    prefix = f"{source}: " if source else ""
    return SpecError(prefix + message)


@dataclass(frozen=True)
class ExperimentSpec:
    """Immutable description of one experiment (see module docstring).

    ``params`` and ``vary`` are stored as tuples of pairs so specs are
    hashable and order-stable (axis order decides cell naming order);
    mappings are accepted everywhere one is constructed.
    """

    scenario: str | None = None
    pcaps: tuple[str, ...] = ()
    corpus: str | None = None
    corpus_where: str | None = None
    name: str | None = None
    params: tuple[tuple[str, object], ...] = ()
    vary: tuple[tuple[str, tuple[object, ...]], ...] = ()
    seeds: int | tuple[int, ...] | None = None
    fidelity: str | None = None
    analyses: tuple[str, ...] = ()
    workers: int | None = None
    store: str | None = None
    resume: bool = True
    retry_failed: bool = False
    keep_reports: bool = False
    timeout_s: float | None = None
    dispatch: str | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_mapping(
        cls, data: Mapping[str, object], *, source: str | None = None
    ) -> "ExperimentSpec":
        """Build a spec from the file-format mapping, strictly.

        Every unknown key — top level, ``[run]`` — raises
        :class:`SpecError` with a "did you mean ...?" suggestion;
        scenario *parameter* names are checked later by
        :meth:`validate` (they need the scenario library).
        """
        if not isinstance(data, Mapping):
            raise _err(f"spec must be a mapping, got {type(data).__name__}", source)
        for key in data:
            if key not in _TOP_KEYS:
                raise _err(unknown_name_message("spec key", str(key), _TOP_KEYS), source)

        def typed(key, kinds, kind_name, default=None):
            value = data.get(key, default)
            if value is not None and not isinstance(value, kinds):
                raise _err(f"{key!r} must be {kind_name}, got {value!r}", source)
            return value

        scenario = typed("scenario", str, "a scenario name string")
        name = typed("name", str, "a string")
        fidelity = typed("fidelity", str, "a fidelity mode string")

        pcaps_raw = data.get("pcaps", ())
        corpus: str | None = None
        corpus_where: str | None = None
        if isinstance(pcaps_raw, Mapping):
            for key in pcaps_raw:
                if key not in ("corpus", "where"):
                    raise _err(
                        unknown_name_message(
                            "pcaps key", str(key), ("corpus", "where")
                        ),
                        source,
                    )
            corpus_raw = pcaps_raw.get("corpus")
            if not isinstance(corpus_raw, (str, Path)):
                raise _err(
                    f"pcaps 'corpus' must be a directory path, "
                    f"got {corpus_raw!r}",
                    source,
                )
            corpus = str(corpus_raw)
            where_raw = pcaps_raw.get("where")
            if where_raw is not None and not isinstance(where_raw, str):
                raise _err(
                    f"pcaps 'where' must be a query string, got {where_raw!r}",
                    source,
                )
            corpus_where = where_raw
            pcaps_raw = ()
        if isinstance(pcaps_raw, (str, Path)):
            pcaps_raw = [pcaps_raw]
        if not isinstance(pcaps_raw, Sequence) or not all(
            isinstance(p, (str, Path)) for p in pcaps_raw
        ):
            raise _err(f"'pcaps' must be a list of paths, got {pcaps_raw!r}", source)
        pcaps = tuple(str(p) for p in pcaps_raw)

        seeds_raw = data.get("seeds")
        seeds: int | tuple[int, ...] | None
        if seeds_raw is None:
            seeds = None
        elif isinstance(seeds_raw, bool) or not isinstance(
            seeds_raw, (int, Sequence)
        ):
            raise _err(f"'seeds' must be an int or a list of ints, got {seeds_raw!r}", source)
        elif isinstance(seeds_raw, int):
            seeds = seeds_raw
        else:
            if not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds_raw):
                raise _err(f"'seeds' list must hold ints, got {seeds_raw!r}", source)
            seeds = tuple(int(s) for s in seeds_raw)

        analyses_raw = data.get("analyses", ())
        if isinstance(analyses_raw, str):
            analyses_raw = [analyses_raw]
        if not isinstance(analyses_raw, Sequence) or not all(
            isinstance(a, str) for a in analyses_raw
        ):
            raise _err(f"'analyses' must be a list of names, got {analyses_raw!r}", source)

        params_raw = data.get("params", {})
        if not isinstance(params_raw, Mapping):
            raise _err(f"[params] must be a table, got {params_raw!r}", source)
        vary_raw = data.get("vary", {})
        if not isinstance(vary_raw, Mapping):
            raise _err(f"[vary] must be a table, got {vary_raw!r}", source)
        vary: list[tuple[str, tuple[object, ...]]] = []
        for key, values in vary_raw.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise _err(
                    f"vary axis {key!r} must be a list of values, got {values!r}",
                    source,
                )
            vary.append((str(key), tuple(values)))

        run_raw = data.get("run", {})
        if not isinstance(run_raw, Mapping):
            raise _err(f"[run] must be a table, got {run_raw!r}", source)
        for key in run_raw:
            if key not in _RUN_KEYS:
                raise _err(unknown_name_message("run option", str(key), _RUN_KEYS), source)

        def run_opt(key, kinds, kind_name, default=None):
            value = run_raw.get(key, default)
            if value is not None and (
                not isinstance(value, kinds) or isinstance(value, bool) != (kinds is bool)
            ):
                raise _err(f"run option {key!r} must be {kind_name}, got {value!r}", source)
            return value

        return cls(
            scenario=scenario,
            pcaps=pcaps,
            corpus=corpus,
            corpus_where=corpus_where,
            name=name,
            params=tuple((str(k), v) for k, v in params_raw.items()),
            vary=tuple(vary),
            seeds=seeds,
            fidelity=fidelity,
            analyses=tuple(analyses_raw),
            workers=run_opt("workers", int, "an int"),
            store=run_opt("store", str, "a directory path string"),
            resume=run_opt("resume", bool, "a boolean", True),
            retry_failed=run_opt("retry_failed", bool, "a boolean", False),
            keep_reports=run_opt("keep_reports", bool, "a boolean", False),
            timeout_s=run_opt("timeout_s", (int, float), "a number of seconds"),
            dispatch=run_opt("dispatch", str, "a dispatch mode string"),
        )

    @classmethod
    def from_toml(cls, text: str, *, source: str | None = None) -> "ExperimentSpec":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise _err(f"invalid TOML: {error}", source) from None
        return cls.from_mapping(data, source=source)

    @classmethod
    def from_json(cls, text: str, *, source: str | None = None) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise _err(f"invalid JSON: {error}", source) from None
        return cls.from_mapping(data, source=source)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a ``.toml`` or ``.json`` spec file (by extension)."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise SpecError(f"cannot read spec {path}: {error}") from None
        try:
            # Newlines fold as text-mode reading folds them.
            text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError as error:
            raise SpecError(
                f"spec {path} is not UTF-8: byte 0x{raw[error.start]:02x} "
                f"at offset {error.start}"
            ) from None
        suffix = path.suffix.lower()
        if suffix == ".toml":
            return cls.from_toml(text, source=str(path))
        if suffix == ".json":
            return cls.from_json(text, source=str(path))
        raise SpecError(
            f"unsupported spec extension {suffix!r} for {path} "
            f"(use .toml or .json)"
        )

    # -- serialization -----------------------------------------------------

    def to_mapping(self) -> dict[str, object]:
        """The file-format mapping (inverse of :meth:`from_mapping`)."""
        out: dict[str, object] = {}
        if self.name is not None:
            out["name"] = self.name
        if self.scenario is not None:
            out["scenario"] = self.scenario
        if self.pcaps:
            out["pcaps"] = list(self.pcaps)
        if self.corpus is not None:
            corpus_table: dict[str, object] = {"corpus": self.corpus}
            if self.corpus_where is not None:
                corpus_table["where"] = self.corpus_where
            out["pcaps"] = corpus_table
        if self.seeds is not None:
            out["seeds"] = (
                self.seeds if isinstance(self.seeds, int) else list(self.seeds)
            )
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        if self.analyses:
            out["analyses"] = list(self.analyses)
        if self.params:
            out["params"] = dict(self.params)
        if self.vary:
            out["vary"] = {key: list(values) for key, values in self.vary}
        run: dict[str, object] = {}
        if self.workers is not None:
            run["workers"] = self.workers
        if self.store is not None:
            run["store"] = self.store
        if self.resume is not True:
            run["resume"] = self.resume
        if self.retry_failed:
            run["retry_failed"] = self.retry_failed
        if self.keep_reports:
            run["keep_reports"] = self.keep_reports
        if self.timeout_s is not None:
            run["timeout_s"] = self.timeout_s
        if self.dispatch is not None:
            run["dispatch"] = self.dispatch
        if run:
            out["run"] = run
        return out

    def to_toml(self) -> str:
        """TOML text that parses back to an equal spec."""
        return _toml.dumps(self.to_mapping())

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text that parses back to an equal spec."""
        return json.dumps(self.to_mapping(), indent=indent)

    def save(self, path: str | Path) -> Path:
        """Write the spec next to its results (``.toml`` or ``.json``)."""
        path = Path(path)
        if path.suffix.lower() == ".json":
            path.write_text(self.to_json() + "\n")
        else:
            path.write_text(self.to_toml())
        return path

    @property
    def hash(self) -> str:
        """Stable content hash of the spec (provenance key)."""
        text = json.dumps(self.to_mapping(), sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    # -- semantics ---------------------------------------------------------

    @property
    def mode(self) -> str:
        """``'analysis'`` (pcaps/corpus), ``'campaign'`` (vary/seeds) or ``'single'``."""
        if self.pcaps or self.corpus is not None:
            return "analysis"
        if self.vary or self.seeds is not None:
            return "campaign"
        return "single"

    def validate(self) -> "ExperimentSpec":
        """Full semantic check; raises :class:`SpecError`.  Returns self.

        Covers source arity, scenario existence and parameter names
        (with "did you mean ...?" suggestions), parameter values (each
        grid point's scenario config is resolved, seeds aside),
        axis/params overlap, seed and worker sanity, analysis names, and
        store/mode fit.
        """
        from ..pipeline import resolve_consumer_names
        from ..sim import (
            UnknownParameterError,
            scenario_config,
            validate_scenario_params,
        )

        analysis_source = bool(self.pcaps) or self.corpus is not None
        if self.pcaps and self.corpus is not None:
            raise SpecError(
                "give either a 'pcaps' list or a corpus table, not both"
            )
        if self.scenario is not None and analysis_source:
            raise SpecError("give either 'scenario' or 'pcaps', not both")
        if self.scenario is None and not analysis_source:
            raise SpecError("spec needs a source: a 'scenario' name or 'pcaps'")
        if analysis_source and (
            self.vary or self.params or self.seeds is not None
        ):
            raise SpecError(
                "'params'/'vary'/'seeds' apply to scenario experiments, "
                "not pcap analysis"
            )
        if analysis_source and self.fidelity is not None:
            raise SpecError(
                "'fidelity' selects a simulation engine — it does not "
                "apply to pcap analysis"
            )
        if self.corpus_where is not None and self.corpus is None:
            raise SpecError("'where' needs a corpus (pcaps = {corpus = ...})")
        if self.corpus is not None:
            from ..corpus import CorpusError, parse_query

            if self.analyses:
                raise SpecError(
                    "'analyses' subsets are not supported with a corpus — "
                    "stored corpus reports are always complete"
                )
            if not Path(self.corpus).is_dir():
                raise SpecError(f"corpus not found: {self.corpus}")
            try:
                parse_query(self.corpus_where)
            except CorpusError as error:
                raise SpecError(f"bad corpus query: {error}") from None
        if self.fidelity is not None:
            from ..sim import FIDELITY_MODES

            if self.fidelity not in FIDELITY_MODES:
                raise SpecError(
                    unknown_name_message("fidelity", self.fidelity, FIDELITY_MODES)
                )
        if self.pcaps:
            # Entries may be files, directories or glob patterns;
            # expansion is deterministic and "nothing matched" is a
            # clean error, not a traceback.
            from ..corpus import CorpusError, expand_captures

            try:
                expand_captures(self.pcaps)
            except CorpusError as error:
                raise SpecError(str(error)) from None
        if self.scenario is not None:
            overlap = {k for k, _ in self.params} & {k for k, _ in self.vary}
            if overlap:
                raise SpecError(
                    f"{sorted(overlap)} appear in both [params] and [vary]"
                )
            for key, values in self.vary:
                if len(values) == 0:
                    raise SpecError(f"vary axis {key!r} has no values")
            try:
                validate_scenario_params(
                    self.scenario,
                    [k for k, _ in self.params] + [k for k, _ in self.vary],
                )
            except (KeyError, UnknownParameterError) as error:
                message = error.args[0] if error.args else str(error)
                raise SpecError(str(message)) from None
            axes = [key for key, _ in self.vary]
            for combo in product(*(values for _, values in self.vary)):
                point = self.params + tuple(zip(axes, combo))
                try:
                    scenario_config(self.scenario, **dict(point))
                except (ValueError, TypeError) as error:
                    where = ", ".join(f"{k}={v}" for k, v in point)
                    raise SpecError(f"{where or self.scenario}: {error}") from None
        if isinstance(self.seeds, int) and self.seeds < 1:
            raise SpecError("'seeds' must be >= 1")
        if isinstance(self.seeds, tuple) and not self.seeds:
            raise SpecError("'seeds' list must not be empty")
        if self.workers is not None and self.workers < 1:
            raise SpecError("run option 'workers' must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecError("run option 'timeout_s' must be > 0")
        if self.dispatch is not None:
            from ..campaign.runner import DISPATCH_MODES

            if self.dispatch not in DISPATCH_MODES:
                raise SpecError(
                    unknown_name_message(
                        "dispatch mode", self.dispatch, DISPATCH_MODES
                    )
                )
            if self.dispatch == "distributed" and self.mode != "campaign":
                raise SpecError(
                    "run option 'dispatch = \"distributed\"' needs a "
                    "campaign — add 'seeds' or a [vary] axis"
                )
            if self.dispatch == "distributed" and self.keep_reports:
                raise SpecError(
                    "'keep_reports' is incompatible with distributed "
                    "dispatch (full reports do not travel the wire)"
                )
        if self.store is not None and self.mode != "campaign":
            raise SpecError(
                "run option 'store' needs a campaign — add 'seeds' or a "
                "[vary] axis (a stored cell is keyed by its grid point)"
            )
        try:
            resolve_consumer_names(self.analyses, roster=True)
        except KeyError as error:
            raise SpecError(str(error.args[0])) from None
        return self

    def with_options(self, **changes) -> "ExperimentSpec":
        """``dataclasses.replace`` with ``None`` meaning "keep current"."""
        effective = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **effective) if effective else self


def load_spec(path: str | Path) -> ExperimentSpec:
    """Module-level alias of :meth:`ExperimentSpec.from_file`."""
    return ExperimentSpec.from_file(path)


# Sanity: the dataclass and the file format stay in sync.  The corpus
# pair rides inside the 'pcaps' table on disk, hence the explicit add.
assert {f.name for f in fields(ExperimentSpec)} == (
    set(_TOP_KEYS) - {"params", "vary", "run"}
) | {"params", "vary"} | set(_RUN_KEYS) | {"corpus", "corpus_where"}
