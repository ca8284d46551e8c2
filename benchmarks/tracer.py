"""Spans around funskewclust's public functions, recorded from outside the package.

The tracer replaces module attributes that the package calls through with
wrappers that record one span per call: its name, start, end, parent span and
the op it belongs to.  Spans stay in memory; the benchmark summarises them and
writes them out when the run ends.  Nothing in the package changes.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# Span name -> the (module, attribute) pairs the package calls it through.
# em.py imports sigma_y_project, unified_log_core and gig_moments by name, so
# they are wrapped where em looks them up; log_bessel_k is looked up in three
# modules.  cli.cmd_fit imports the io and funbasis names at call time, so
# wrapping the module attribute reaches it.
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "em.select_model": [("funskewclust.em", "select_model")],
    "em.fit": [("funskewclust.em", "fit")],
    "em.initialize": [("funskewclust.em", "initialize")],
    "em.m_step": [("funskewclust.em", "m_step")],
    "em.solve_concentration": [("funskewclust.em", "solve_concentration")],
    "model.sigma_y_project": [("funskewclust.em", "sigma_y_project")],
    "skewdist.unified_log_core": [("funskewclust.em", "unified_log_core")],
    "gig.gig_moments": [("funskewclust.em", "gig_moments")],
    "special.log_bessel_k": [("funskewclust.special", "log_bessel_k"),
                             ("funskewclust.gig", "log_bessel_k"),
                             ("funskewclust.skewdist", "log_bessel_k")],
    "io.read_curves_csv": [("funskewclust.io", "read_curves_csv")],
    "io.write": [("funskewclust.io", "result_to_json"),
                 ("funskewclust.io", "write_labels_csv"),
                 ("funskewclust.io", "write_bic_table_csv")],
    "funbasis.fit_coefficients": [("funskewclust.funbasis", "fit_coefficients")],
}

# Span record fields, in list order.
ID, PARENT, NAME, OP, START, END, EXTRA = range(7)

Annotator = Callable[[tuple, dict, object], dict]


class MissingTargetError(RuntimeError):
    """A wrapped attribute no longer exists; the benchmark must be updated."""


class Tracer:
    """Records nested spans while installed; single-threaded callers only."""

    def __init__(self, targets: Dict[str, List[Tuple[str, str]]] = TARGETS,
                 annotators: Optional[Dict[str, Annotator]] = None):
        self.targets = targets
        self.annotators = annotators or {}
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[list] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = self.annotators.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][ID] if stack else None, name, self.op,
                    clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[EXTRA] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if annotate is not None:
                span[EXTRA] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it.

        Raises MissingTargetError before patching anything if a target
        attribute is gone, and RuntimeError if restoring fails.
        """
        found = []
        for name, places in self.targets.items():
            for module_name, attr in places:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    raise MissingTargetError(
                        f"{module_name}.{attr} no longer exists; update "
                        f"TARGETS in benchmarks/tracer.py")
                found.append((name, module, attr, original))
        try:
            for name, module, attr, original in found:
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for _, module, attr, original in found:
                setattr(module, attr, original)
            left = [f"{m.__name__}.{a}" for _, m, a, o in found
                    if getattr(m, a) is not o]
            if left:
                raise RuntimeError(f"tracer failed to restore {left}")

    def children(self) -> Dict[int, List[list]]:
        kids: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                kids[span[PARENT]].append(span)
        return kids

    def self_time(self, span: list, kids: List[list]) -> float:
        """Duration minus the part of the span's interval its children cover."""
        covered, reach = 0.0, span[START]
        for child in sorted(kids, key=lambda s: s[START]):
            lo, hi = max(child[START], reach), min(child[END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (span[END] - span[START]) - covered

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        kids = self.children()
        out: Dict[str, dict] = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
                                for name in self.targets}
        for span in self.spans:
            row = out[span[NAME]]
            row["calls"] += 1
            row["s"] += span[END] - span[START]
            row["self_s"] += self.self_time(span, kids.get(span[ID], []))
        return out

    def check_self_time(self, name: str, rel_tol: float = 1e-9) -> List[str]:
        """Children's time plus self time must equal each `name` span's total."""
        kids = self.children()
        problems = []
        for span in self.spans:
            if span[NAME] != name:
                continue
            mine = kids.get(span[ID], [])
            total = span[END] - span[START]
            parts = self.self_time(span, mine) + sum(c[END] - c[START] for c in mine)
            if abs(parts - total) > rel_tol * max(total, 1e-6):
                problems.append(f"{name} span {span[ID]}: children + self = "
                                f"{parts!r} s but total = {total!r} s")
        return problems

    def write(self, path, origin: float) -> None:
        """Spans as gzipped JSON lines, times in seconds from `origin`."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                rec = {"id": span[ID], "parent": span[PARENT], "name": span[NAME],
                       "op": span[OP], "start": span[START] - origin,
                       "end": span[END] - origin}
                if span[EXTRA]:
                    rec.update(span[EXTRA])
                fh.write(json.dumps(rec) + "\n")
