"""Spans around the public functions of each orderproof module.

``installed`` rebinds every public function listed in ``TRACED`` (and the
``SubproductSampler`` class) in each ``orderproof`` module that holds it,
since ``protocol`` and ``prover`` import names such as ``get_chain`` by
name.  Nothing under ``src/`` is edited.  A span records its name, start,
end, parent span, trial id and the current oracle's query count at both
ends; spans stay in memory and are written out at the end of the run.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from orderproof import polycyclic, protocol, prover, sampling

ID, NAME, START, END, PARENT, TRIAL, Q0, Q1, NOTE = range(9)

TRACED = {
    polycyclic: ("compute_pcgs", "refine_with_primes", "get_chain"),
    prover: ("honest_commitment",),
    protocol: (
        "run_repeated",
        "run_protocol_2msg",
        "run_protocol_3msg",
        "verifier_setup_2msg",
        "verifier_check_commitment",
        "verifier_finalize",
        "challenge_to_wire",
        "response_to_wire",
        "commitment_to_wire",
        "canonical_json_bytes",
        "challenge_from_wire",
        "response_from_wire",
        "commitment_from_wire",
    ),
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span recorder for one single-threaded run.

    ``trial`` is the id stamped on new spans: a trial number, or one of
    "setup", "check" and "probe".  ``oracle`` is the group whose query
    counter spans read.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.trial: int | str = "setup"
        self.oracle = None
        self._chains: weakref.WeakSet = weakref.WeakSet()

    def _queries(self) -> int:
        return 0 if self.oracle is None else self.oracle.query_counts().total

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` recording one span per call; ``note(result)`` is kept.

        A span is stored as a tuple when it closes: tuples of atoms leave
        the garbage collector's tracking, so a long trace does not slow
        the collections that the traced program itself triggers.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            trial, q0 = self.trial, self._queries()
            stack.append(span_id)
            returned = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((span_id, name, start, end, parent, trial, q0, self._queries(),
                              note(result) if returned and note is not None else None))

        return traced

    def _chain_note(self, chain) -> int | None:
        """Table entries of a chain first seen now (built by this call), else None."""
        if chain in self._chains:
            return None
        self._chains.add(chain)
        return sum(chain.level_order(j) for j in range(len(chain) + 1))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                    "parent": s[PARENT], "trial": s[TRIAL], "queries": s[Q1] - s[Q0],
                }) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names in every loaded orderproof module."""
    notes = {
        "get_chain": tracer._chain_note,
        "verifier_check_commitment": lambda reason: reason is not None,
    }
    replacements = {}
    for module, names in TRACED.items():
        for name in names:
            fn = getattr(module, name)
            replacements[id(fn)] = (fn, tracer.wrap(f"{_short(module)}.{name}", fn, notes.get(name)))

    original = sampling.SubproductSampler

    class TracedSubproductSampler(original):
        __init__ = tracer.wrap("sampling.cube_build", original.__init__)
        draw = tracer.wrap("sampling.draw", original.draw)

    replacements[id(original)] = (original, TracedSubproductSampler)

    patched = []
    modules = [m for n, m in sys.modules.items() if n == "orderproof" or n.startswith("orderproof.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


class SpanTotals:
    """Per (name, phase) totals of span counts, self/inclusive time and queries.

    A span's self time is its duration minus that of its direct children;
    self queries likewise.  ``noted_ns`` is the inclusive time of spans
    with a true note, such as the ``get_chain`` calls that built a chain.
    The phase is "trial" for numbered trials, else the span's trial id.
    """

    def __init__(self, spans: list[tuple]):
        child_ns = [0] * len(spans)
        child_q = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
                child_q[s[PARENT]] += s[Q1] - s[Q0]
        self.negative_self = 0
        self._totals: dict = defaultdict(lambda: {
            "calls": 0, "self_ns": 0, "incl_ns": 0, "self_q": 0, "incl_q": 0,
            "notes": [], "noted_ns": 0,
        })
        for s in spans:
            incl_ns, incl_q = s[END] - s[START], s[Q1] - s[Q0]
            self_ns, self_q = incl_ns - child_ns[s[ID]], incl_q - child_q[s[ID]]
            if self_ns < 0 or self_q < 0:
                self.negative_self += 1
            phase = "trial" if isinstance(s[TRIAL], int) else s[TRIAL]
            t = self._totals[(s[NAME], phase)]
            t["calls"] += 1
            t["self_ns"] += self_ns
            t["incl_ns"] += incl_ns
            t["self_q"] += self_q
            t["incl_q"] += incl_q
            if s[NOTE] is not None:
                t["notes"].append(s[NOTE])
            if s[NOTE]:
                t["noted_ns"] += incl_ns

    def get(self, names, phases, key: str):
        """Sum of ``key`` over the given span names and phases."""
        if key == "notes":
            return [n for name in names for p in phases for n in self._totals[(name, p)]["notes"]]
        return sum(self._totals[(name, p)][key] for name in names for p in phases)
