"""Determinism rules: seed-driven RNG discipline, no wall-clock reads.

The reproduction's first invariant is that a (scenario, params, seed)
cell is a pure function: golden-trace digests, the content-addressed
campaign store and distributed-dispatch idempotency all depend on it.
These rules fence the code paths that execute cells — the simulator
package and the campaign package — against these leaks:

* the stdlib ``random`` module (global, seedless by default),
* numpy's legacy module-level RNG (``np.random.<fn>`` shares hidden
  global state across everything in the process),
* unseeded ``np.random.default_rng()`` (fresh OS entropy per call),
* wall-clock reads (``time.time``, ``datetime.now``) leaking into
  results or keys.  Monotonic timing (``perf_counter``/``monotonic``)
  stays allowed: elapsed-time fields are declared volatile and the
  store compares modulo them,
* rewinding a generator (assigning ``<rng>.bit_generator.state``), so
  that each stream is drawn once, in order, when its events happen.
  Reading the state stays allowed.

Wall-clock-legitimate sites (the coordinator's operator-facing status
file stamp) carry a reasoned ``lint-ok`` pragma — that is the
allowlist, kept next to the code it excuses.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted_name
from ..findings import Finding
from . import in_dirs, make, rule

#: Cell-execution paths: the simulator, and the campaign layer that
#: hashes, dispatches and replays cells.
SCOPE = in_dirs("src/repro/sim/", "src/repro/campaign/")

#: numpy legacy module-level RNG functions (hidden shared global state).
NP_GLOBAL_FNS = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "choice",
        "exponential",
        "gamma",
        "get_state",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

#: Call targets that read the wall clock (both import spellings).
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_DEFAULT_RNG = ("np.random.default_rng", "numpy.random.default_rng")


@rule(
    "det-stdlib-random",
    family="determinism",
    severity="error",
    summary="stdlib `random` imported on a cell-execution path",
    scope=SCOPE,
)
def check_stdlib_random(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    yield make(
                        ctx,
                        "det-stdlib-random",
                        node,
                        "stdlib `random` is process-global and seedless "
                        "by default — use a seeded "
                        "`np.random.default_rng(seed)` threaded from the "
                        "cell seed",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "random":
                yield make(
                    ctx,
                    "det-stdlib-random",
                    node,
                    "importing from stdlib `random` — use a seeded "
                    "`np.random.default_rng(seed)` instead",
                )


@rule(
    "det-np-global",
    family="determinism",
    severity="error",
    summary="numpy legacy module-level RNG (shared hidden state)",
    scope=SCOPE,
)
def check_np_global(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in NP_GLOBAL_FNS
        ):
            yield make(
                ctx,
                "det-np-global",
                node,
                f"`{name}` draws from numpy's hidden module-level RNG — "
                "every draw must come from an explicitly seeded "
                "Generator owned by the cell",
            )


@rule(
    "det-unseeded-rng",
    family="determinism",
    severity="error",
    summary="`np.random.default_rng()` without a seed (OS entropy)",
    scope=SCOPE,
)
def check_unseeded_rng(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in _DEFAULT_RNG and not node.args and not node.keywords:
            yield make(
                ctx,
                "det-unseeded-rng",
                node,
                "`default_rng()` with no seed pulls fresh OS entropy — "
                "derive the seed from the cell's declared seed",
            )


@rule(
    "det-wall-clock",
    family="determinism",
    severity="error",
    summary="wall-clock read (`time.time`, `datetime.now`) on a "
    "cell-execution path",
    scope=SCOPE,
)
def check_wall_clock(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in WALL_CLOCK:
            yield make(
                ctx,
                "det-wall-clock",
                node,
                f"`{name}()` reads the wall clock — results and store "
                "keys must not depend on when a cell ran "
                "(perf_counter/monotonic for elapsed timing is fine); "
                "operator-facing sites take a reasoned lint-ok pragma",
            )


@rule(
    "det-rng-rewind",
    family="determinism",
    severity="error",
    summary="assignment to `<rng>.bit_generator.state` (a rewound stream)",
    scope=SCOPE,
)
def check_rng_rewind(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "state"
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "bit_generator"
        ):
            yield make(
                ctx,
                "det-rng-rewind",
                node,
                "assigning `bit_generator.state` rewinds a stream — draw "
                "each value once, when its event happens, so every "
                "stream is a plain function of its seed",
            )
