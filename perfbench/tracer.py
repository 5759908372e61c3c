"""Span tracing from outside the library.

The benchmark wraps the public functions of each marcumq module in its
own process; the library itself is not changed.  A span carries a name,
a start and an end (``perf_counter_ns``) and the index of the span that
was open when it began (-1 for a root).  Spans are kept in flat arrays
in memory -- a paper_repro pass records a few hundred thousand -- and
written out once at the end.

A span's self time is its duration minus the time its children cover.
The worker is one thread, so the children of a span run one after
another inside it and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array

# span name -> (module, attribute names); a layer is the part before the dot
TARGETS = {
    "specfun.i0e": ("marcumq.specfun", ("bessel_i0_scaled",)),
    "specfun.i1e": ("marcumq.specfun", ("bessel_i1_scaled",)),
    "specfun.bessel_plain": ("marcumq.specfun", ("bessel_i0", "bessel_i1")),
    "specfun.erfcx": ("marcumq.specfun", ("erfcx",)),
    "specfun.erfc_diff": ("marcumq.specfun", ("erfc_diff",)),
    "specfun.erfc_diff_centered": ("marcumq.specfun", ("erfc_diff_centered",)),
    "specfun.erf": ("marcumq.specfun", ("erf", "erfc")),
    "oracle.q1_reference": ("marcumq.oracle", ("q1_reference",)),
    "oracle.quadrature": ("marcumq.oracle", ("q1_quadrature",)),
    "oracle.series": ("marcumq.oracle", ("q1_series",)),
    "oracle.rice_pdf": ("marcumq.oracle", ("rice_pdf",)),
    "bounds.eval_all": ("marcumq.bounds", ("eval_all",)),
    "bounds.evaluate": ("marcumq.bounds", ("evaluate",)),
    "bounds.compute_zeta": ("marcumq.bounds", ("compute_zeta",)),
    "analysis.error_table": ("marcumq.analysis", ("error_table",)),
    "analysis.figure_data": ("marcumq.analysis", ("figure_data",)),
    "analysis.scan": (
        "marcumq.analysis",
        (
            "scan_g_negative",
            "scan_f_ratio_monotone",
            "scan_shifted_exp_chain",
            "scan_envelope_ordering",
            "scan_sandwich",
            "scan_jp_dominance",
        ),
    ),
    "cli.main": ("marcumq.cli", ("main",)),
}


class Tracer:
    """Records nested spans of one thread into flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._intern(name)
        name_of, start, end, parent, stack = self.name_of, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        start, end = self.start, self.end
        covered = [0] * len(start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        return [end[i] - start[i] - covered[i] for i in range(len(start))]

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, inclusive ns, self ns)."""
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        excl = [0] * len(self.names)
        for i, s in enumerate(self.self_ns()):
            n = self.name_of[i]
            calls[n] += 1
            incl[n] += self.end[i] - self.start[i]
            excl[n] += s
        return {name: (calls[n], incl[n], excl[n]) for n, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write the spans as gzip csv: span,name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name_of[i]]},{self.start[i]},{self.end[i]},{self.parent[i]}\n")


@contextlib.contextmanager
def installed(wrap, targets: dict = TARGETS):
    """Replace every target function by ``wrap(span_name, fn)`` in every
    loaded marcumq module.

    Modules import each other's functions by name (``oracle`` holds its
    own reference to ``specfun.bessel_i0_scaled``), so each binding of a
    target is replaced, not only the one in the defining module.  Names a
    module no longer defines are skipped.  Everything is put back on exit.
    """
    wrapped = {}
    for span, (module, attrs) in targets.items():
        for attr in attrs:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is not None:
                wrapped[id(fn)] = (fn, wrap(span, fn))
    patched = []
    for name, module in list(sys.modules.items()):
        if name != "marcumq" and not name.startswith("marcumq."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
