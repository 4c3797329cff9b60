"""``reprolint`` configuration, read from ``[tool.reprolint]`` in pyproject.

Everything has a working default so the linter runs unconfigured; the
pyproject table overrides paths, exclusions, globally disabled rules and
the module scopes of the scoped rule families::

    [tool.reprolint]
    paths = ["src"]
    disable = []
    kernel-modules = ["repro.imaging", "repro.features", "repro.engine.chaos"]
    scoring-modules = ["repro.pipelines", "repro.imaging", "repro.neural"]
    lock-modules = ["repro.serving", "repro.engine"]
    resilience-modules = ["repro.serving", "repro.store"]
    rng-scope-modules = ["repro.pipelines", "repro.imaging", "repro.openset"]
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, fields
from pathlib import Path


def _tuple(values: object) -> tuple[str, ...]:
    if isinstance(values, str):
        return (values,)
    if isinstance(values, (list, tuple)):
        return tuple(str(v) for v in values)
    raise TypeError(f"expected a string list, got {values!r}")


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration.

    ``kernel_modules`` scope the wall-clock rule (DET102): modules whose
    functions must be pure in time.  ``scoring_modules`` scope the bare
    ``np.empty`` rule (NUM203): modules whose arrays feed scores.
    ``lock_modules`` scope the lock-discipline family (LCK3xx).
    ``resilience_modules`` scope the swallowed-error family (RES4xx):
    modules where every error must propagate, be recorded, or degrade
    loudly.  ``rng_scope_modules`` root the RNG-flow rules (DET13x): an
    unseeded generator constructed in (or reachable from) these modules
    taints scoring, calibration or chaos results.
    """

    paths: tuple[str, ...] = ("src",)
    exclude: tuple[str, ...] = ()
    disable: tuple[str, ...] = ()
    kernel_modules: tuple[str, ...] = (
        "repro.imaging",
        "repro.features",
        "repro.engine.chaos",
    )
    scoring_modules: tuple[str, ...] = (
        "repro.pipelines",
        "repro.imaging",
        "repro.neural",
        "repro.features",
        "repro.openset",
    )
    lock_modules: tuple[str, ...] = ("repro.serving", "repro.engine")
    resilience_modules: tuple[str, ...] = (
        "repro.serving",
        "repro.store",
        "repro.openset",
    )
    rng_scope_modules: tuple[str, ...] = (
        "repro.pipelines",
        "repro.imaging",
        "repro.openset",
        "repro.engine.chaos",
        "repro.index",
    )

    _KEYS = {
        "paths": "paths",
        "exclude": "exclude",
        "disable": "disable",
        "kernel-modules": "kernel_modules",
        "scoring-modules": "scoring_modules",
        "lock-modules": "lock_modules",
        "resilience-modules": "resilience_modules",
        "rng-scope-modules": "rng_scope_modules",
    }

    @classmethod
    def from_pyproject(cls, root: str | Path = ".") -> "LintConfig":
        """The config of the project at *root* (defaults when absent)."""
        pyproject = Path(root) / "pyproject.toml"
        if not pyproject.is_file():
            return cls()
        with pyproject.open("rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("reprolint", {})
        return cls.from_mapping(table)

    @classmethod
    def from_mapping(cls, table: dict[str, object]) -> "LintConfig":
        """A config from an already-parsed ``[tool.reprolint]`` table."""
        known = {f.name for f in fields(cls)}
        kwargs: dict[str, tuple[str, ...]] = {}
        for key, value in table.items():
            attr = cls._KEYS.get(key, key.replace("-", "_"))
            if attr not in known:
                raise ValueError(f"unknown [tool.reprolint] key {key!r}")
            kwargs[attr] = _tuple(value)
        return cls(**kwargs)
