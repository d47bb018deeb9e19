"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every ``shellsat.*``
module attribute that refers to it (which covers ``from .x import y``
copies) and, for ``Complex`` methods, on the class; ``uninstall`` puts the
originals back.  Spans nest as ``cli.main`` -> ``certificates.run_chain``
-> ``complexes.skeleton`` -> ``complexes.from_facets``, so each layer's
self time is its span's duration minus its children's.

Search functions get an ``outcomes.Budget`` with the limit they were
given (an int budget is converted), so nodes are read as the change in
``budget.used``; the shared chain budget is read the same way.
"""

import inspect
import sys
from time import perf_counter

# Span name -> (module, attribute).  Attributes of "complexes.Complex" are
# methods.  "complexes.parse_sc" is the parser the CLI calls.
TRACED = {
    "cli.main": ("cli", "main"),
    "complexes.parse_sc": ("complexes", "parse_sc_with_warnings"),
    "complexes.from_facets": ("complexes", "from_facets"),
    "complexes.skeleton": ("complexes.Complex", "skeleton"),
    "complexes.barycentric_subdivision": ("complexes.Complex", "barycentric_subdivision"),
    "complexes.is_flag2": ("complexes.Complex", "is_flag2"),
    "shelling.find_shelling": ("shelling", "find_shelling"),
    "shelling.verify": ("shelling", "first_shelling_violation"),
    "collapse.is_collapsible": ("collapse", "is_collapsible"),
    "collapse.after_removing": ("collapse", "collapsible_after_removing"),
    "collapse.verify": ("collapse", "collapse_violation"),
    "wsat.decide_tree": ("wsat", "decide_wsat_eq_treesize"),
    "wsat.number": ("wsat", "wsat_number"),
    "wsat.verify": ("wsat", "saturation_violation"),
    "certificates.run_chain": ("certificates", "run_chain"),
    "certificates.shelling_to_saturated_tree": ("certificates", "shelling_to_saturated_tree"),
    "certificates.saturation_to_collapse": ("certificates", "saturation_to_collapse"),
    "certificates.report": ("certificates", "format_chain_report"),
    "certificates.report_json": ("certificates", "chain_report_json"),
}

# Spans whose time is reported under another span's name.
SAME_LAYER = {"certificates.report_json": "certificates.report"}


def _facets_built(result) -> int:
    complex_ = result[0] if isinstance(result, tuple) else result
    return len(complex_.facets)


def _steps(result) -> int:
    cert = result[1] if isinstance(result, tuple) else result
    return len(getattr(cert, "steps", ()))


# Counted spans: name -> function of the result giving the count (None: nodes only).
BUILDS = {"complexes.from_facets": _facets_built, "complexes.parse_sc": _facets_built}
SEARCHES = {
    "shelling.find_shelling": lambda r: len(getattr(r, "order", ())),
    "certificates.run_chain": None,
    "collapse.is_collapsible": _steps,
    "collapse.after_removing": _steps,
    "wsat.decide_tree": None,
    "wsat.number": None,
}

FIELDS = ("id", "call", "parent", "name", "start", "end", "nodes", "useful", "built")


class Tracer:
    """Keeps spans in memory; ``dump`` returns them for writing at the end."""

    package = "shellsat"

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = 0
        self.saved: list[tuple[object, str, object]] = []
        self.budget_type = sys.modules[f"{self.package}.outcomes"].Budget

    def begin_call(self) -> None:
        self.call += 1

    def _wrap(self, name: str, fn):
        tracer = self
        built = BUILDS.get(name)
        search = name in SEARCHES
        useful = SEARCHES.get(name)
        signature = inspect.signature(fn) if search else None

        def traced(*args, **kwargs):
            budget = None
            if search:
                bound = signature.bind(*args, **kwargs)
                budget = bound.arguments.get("budget")
                if not isinstance(budget, tracer.budget_type):
                    budget = tracer.budget_type(budget)
                    bound.arguments["budget"] = budget
                args, kwargs = bound.args, bound.kwargs
                before = budget.used
            record = [len(tracer.spans), tracer.call,
                      tracer.stack[-1] if tracer.stack else None,
                      SAME_LAYER.get(name, name), 0.0, 0.0, None, None, None]
            tracer.spans.append(record)
            tracer.stack.append(record[0])
            record[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                tracer.stack.pop()
                if budget is not None:
                    record[6] = budget.used - before
            if useful is not None:
                record[7] = useful(result)
            if built is not None:
                record[8] = built(result)
            return result

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == self.package or name.startswith(self.package + ".")}
        for span, (where, attr) in TRACED.items():
            if where == "complexes.Complex":
                owner = sys.modules[f"{self.package}.complexes"].Complex
                original = owner.__dict__[attr]
                self.saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
                continue
            original = getattr(modules[f"{self.package}.{where}"], attr)
            wrapper = self._wrap(span, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def dump(self) -> dict:
        return {"fields": list(FIELDS), "spans": self.spans}


def layer_totals(spans: list[list]) -> dict:
    """Per span name: self seconds, inclusive seconds, nodes, useful, built."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + (s[5] - s[4])
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s[3], {"self": 0.0, "incl": 0.0, "nodes": 0,
                                     "useful": 0, "built": 0})
        duration = s[5] - s[4]
        t["self"] += duration - child_time.get(s[0], 0.0)
        t["incl"] += duration
        t["nodes"] += s[6] or 0
        t["useful"] += s[7] or 0
        t["built"] += s[8] or 0
    return totals
