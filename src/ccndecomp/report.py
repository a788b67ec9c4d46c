"""Shared report container for randomized property checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


def jsonable(value: Any) -> Any:
    """Best-effort conversion of check inputs (weights, states, tuples) into
    JSON-serializable structures."""
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


@dataclass
class CheckReport:
    """Pass/fail flags per named property plus reproducible counterexamples.

    A counterexample entry carries the property name, the offending inputs
    and both sides of the violated equality; together with ``seed`` it is
    enough to replay the failure.
    """

    name: str
    trials: int
    seed: int
    tolerance: float | None
    checks: dict[str, bool]
    counterexamples: list[dict] = field(default_factory=list)

    @classmethod
    def start(cls, name: str, props: Iterable[str], trials: int, seed: int,
              tolerance: float | None = None) -> "CheckReport":
        """A report with every property passing, for a run of ``trials``
        random trials (at least one)."""
        if trials < 1:
            raise ValueError("trials must be >= 1")
        return cls(name, trials, seed, tolerance, dict.fromkeys(props, True))

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def record(self, prop: str, **details: Any) -> None:
        self.checks[prop] = False
        if len(self.counterexamples) < 32:
            entry = {"property": prop}
            entry.update({k: jsonable(v) for k, v in details.items()})
            self.counterexamples.append(entry)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "checks": dict(sorted(self.checks.items())),
            "ok": self.ok,
            "counterexamples": self.counterexamples,
        }
