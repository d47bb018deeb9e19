"""Search outcomes and the node budget shared by all backtracking deciders.

Searches return either a certificate or one of the outcome objects below;
they never raise to signal a negative or truncated answer.  A node budget
caps the number of search-tree nodes a decider may expand, so exhaustive
searches degrade to an explicit ``BudgetExceeded`` instead of hanging.
"""

from dataclasses import dataclass, field

from .errors import ParameterError


@dataclass(frozen=True)
class Unshellable:
    """No shelling exists, as the exhausted search or a failed necessary
    condition showed: ``decided_by`` is ``"search"``, or the failed test of
    ``shelling._refuted`` (``"link"``, ``"betti1"`` or ``"core"``); equality
    ignores it."""

    decided_by: str = field(default="search", compare=False)


@dataclass(frozen=True)
class NotCollapsible:
    """No collapse sequence reaches a point (the greedy peel got stuck)."""


@dataclass(frozen=True)
class Impossible:
    """No triangle removal of the requested size leaves a collapsible
    complex: ``decided_by`` names the test that showed it, ``"euler"`` (the
    size is not the reduced Euler characteristic), or the failed test of
    ``collapse.least_removal`` (``"betti1"`` or ``"core"``); equality
    ignores it."""

    decided_by: str = field(default="core", compare=False)


@dataclass(frozen=True)
class NotSaturated:
    """No saturating order / no weakly saturated subgraph of the requested kind."""


@dataclass(frozen=True)
class BudgetExceeded:
    """The search ran out of nodes before reaching a verdict."""

    stage: str | None = None


class OutOfBudget(Exception):
    """Internal control-flow signal; callers receive BudgetExceeded instead."""


class Budget:
    """Counts search-tree nodes; ``spend`` raises once the limit is crossed.

    A limit of ``None`` means unbounded.  One budget instance may be shared
    by several search stages (e.g. across a certificate pipeline).
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None):
        if limit is not None and limit < 0:
            raise ParameterError("budget limit must be >= 0")
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.limit is not None and self.used > self.limit:
            raise OutOfBudget()


def as_budget(budget: "int | Budget | None") -> Budget:
    """Accept an int limit, an existing Budget, or None (unbounded)."""
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)
