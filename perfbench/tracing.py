"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the public functions of each oscint module (and
rebinds every other module's reference to them, which covers names taken
with `from .linalg import ...`), the two per-point methods the quadrature
kernel calls, numpy's `leggauss` as `quadrature` reaches it, and the
click command callbacks.  Spans stay in memory until `write`.

A span on a thread with no open span of its own (the quadrature chunk
worker) takes as parent the innermost open span of the main thread, which
is blocked waiting for it.  Self time is a span's duration minus the part
of it covered by its children, on any thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("linalg", "snarl", "resolution", "poly", "quadrature", "records", "schemas", "cli")
LEGGAUSS = "quadrature.leggauss"  # numpy's work: kept out of quadrature's self time


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, thread, name, op, start, end)
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else -1
            sid = next(tracer._ids)
            if count is not None:
                tracer.counters[name + count[0]] += count[1](args)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, threading.get_ident(), name,
                                     tracer.op, start, end))

        return traced

    def install(self, package, mods: dict) -> None:
        """Wrap each layer's public functions and rebind every reference to
        them in the package's modules."""
        every = [package] + list(mods.values())
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                count = (".cells", lambda a: a[0].rows * a[0].cols) if name == "linalg.rref" else None
                wrapped = self.wrap(name, fn, count)
                for other in every:
                    for ref, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, ref, wrapped)
        poly, quad = mods["poly"], mods["quadrature"]
        poly.MultiPoly.evaluate_array = self.wrap("poly.evaluate_array",
                                                  poly.MultiPoly.evaluate_array)
        quad.BumpSpec.cutoff = self.wrap("quadrature.cutoff", quad.BumpSpec.cutoff)
        legendre = quad.np.polynomial.legendre
        legendre.leggauss = self.wrap(LEGGAUSS, legendre.leggauss)
        for name, command in mods["cli"].main.commands.items():
            command.callback = self.wrap(f"cli.{name}", command.callback)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,thread,name,op,start,end\n")
            for sid, parent, thread, name, op, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{thread},{name},{op},{start!r},{end!r}\n")

    def summary(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name, and self
        seconds per layer; inclusive time counts a name once per nesting."""
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            children[s[1]].append(s)
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        for sid, parent, _, name, _, start, end in self.spans:
            calls[name] += 1
            anc = parent
            while anc in by_id and by_id[anc][3] != name:
                anc = by_id[anc][1]
            if anc not in by_id:
                incl[name] += end - start
            own = end - start - _covered(start, end, children.get(sid, ()))
            self_s[name] += own
            if name != LEGGAUSS:
                layer_self[name.split(".")[0]] += own
        return {"calls": dict(calls), "s": dict(incl), "self_s": dict(self_s),
                "layer_self_s": dict(layer_self), "counters": dict(self.counters)}


def _covered(start: float, end: float, kids) -> float:
    """Length of [start, end] covered by the union of the kids' intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for k in sorted(kids, key=lambda s: s[5]):
        lo, hi = max(k[5], start), min(k[6], end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
