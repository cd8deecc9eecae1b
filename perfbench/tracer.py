"""Span tracer that works from outside the gkzmono package.

For the traced run only, each named function is replaced by a timing
wrapper in every namespace of the package that binds it (module globals and
class dictionaries, found by identity), so calls between modules and inside
a module are all seen.  ``uninstall`` puts every original object back.
Nothing in ``src/`` is changed, and the untraced run never touches a binding.

A span records name, start, end, the nearest recorded ancestor and the op
id.  Self time is the duration minus the time of the traced calls made
inside it.  Very frequent leaf-side spans are not stored one by one but
summed per (op, parent span).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Spans, named module.function (or module.Class.method) inside gkzmono.
SPANS = (
    "cli.run",
    "classify.classify",
    "cones.reduce_configuration",
    "cones.Configuration.face_lattice",
    "cones.enumerate_faces",
    "cones.is_face",
    "resonance.resonance_centers",
    "pyramids.is_pyramid",
    "volume.generic_rank",
    "volume.face_volume",
    "volume.normalized_volume",
    "intlinalg.smith_normal_form",
    "intlinalg.hermite_normal_form",
    "intlinalg.kernel_lattice_basis",
    "toric.hypergeometric_system",
    "toric.toric_ideal_generators",
    "groebner.buchberger",
    "exporters.export",
)

# Called hundreds of times per op under brute face enumeration.
AGGREGATED = frozenset({
    "cones.is_face",
    "intlinalg.smith_normal_form",
    "intlinalg.hermite_normal_form",
    "intlinalg.kernel_lattice_basis",
})

# Work done by one call, read from its result.
WORK = {
    "cones.is_face": lambda face: int(face is not None),
    "cones.enumerate_faces": len,
    "groebner.buchberger": len,
    "toric.toric_ideal_generators": len,
}

PACKAGE = "gkzmono"


def package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def namespaces() -> list:
    """Module globals and class dictionaries of the package."""
    spaces = {}
    for module in package_modules():
        spaces[id(module)] = module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                spaces[id(value)] = value
    return list(spaces.values())


def _space_name(space) -> str:
    if isinstance(space, type):
        return f"{space.__module__}.{space.__qualname__}"
    return space.__name__


def bindings_snapshot() -> dict:
    """(namespace, attribute) -> id of the bound object, for every binding."""
    return {
        (_space_name(space), key): id(value)
        for space in namespaces()
        for key, value in list(vars(space).items())
    }


def lru_caches() -> dict:
    """Every functools.lru_cache in the package, by module.function name."""
    found = {}
    for module in package_modules():
        for value in vars(module).values():
            if callable(value) and hasattr(value, "cache_info"):
                owner = getattr(value, "__module__", "") or ""
                if owner.startswith(PACKAGE + "."):
                    name = f"{owner[len(PACKAGE) + 1:]}.{value.__qualname__}"
                    found[name] = value
    return found


class Tracer:
    """Spans of the traced calls; ``op_id`` is set by the caller per op."""

    def __init__(self):
        self.op_id = -1
        self.records: list = []
        self.aggregates: dict = {}
        self.work: dict = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list = []
        self._bindings: list = []

    # -- installation -----------------------------------------------------

    def _resolve(self, name: str):
        module_name, *path = name.split(".")
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
        return vars(owner).get(path[-1])

    def install(self, names=SPANS):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        spaces = namespaces()
        for name in names:
            original = self._resolve(name)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._bindings.append((space, key, original))
                        setattr(space, key, wrapper)

    def uninstall(self):
        for space, key, original in reversed(self._bindings):
            setattr(space, key, original)
        self._bindings = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        records = self.records
        aggregates = self.aggregates
        aggregate = name in AGGREGATED
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if aggregate:
                frame = [parent, 0.0]
            else:
                frame = [len(records), 0.0]
                records.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                if aggregate:
                    key = (self.op_id, parent, name)
                    slot = aggregates.get(key)
                    if slot is None:
                        slot = aggregates[key] = [0, 0.0, 0.0]
                    slot[0] += 1
                    slot[1] += duration
                    slot[2] += own
                else:
                    records[frame[0]] = (name, start, end, parent, self.op_id, own)
            if work is not None:
                self.work[name] += work(result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def totals(self, scale) -> dict:
        """name -> [calls, self seconds scaled per op by scale[op_id]]."""
        out = {name: [0, 0.0] for name in SPANS}
        for name, _start, _end, _parent, op, own in self.records:
            out[name][0] += 1
            out[name][1] += own * scale[op]
        for (op, _parent, name), (calls, _total, own) in self.aggregates.items():
            out[name][0] += calls
            out[name][1] += own * scale[op]
        return out

    def dump(self, path):
        """Write the spans (and the per-parent sums) as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, own in self.records:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self": own,
                }) + "\n")
            for (op, parent, name), (calls, total, own) in sorted(self.aggregates.items()):
                fh.write(json.dumps({
                    "name": name, "aggregate": calls, "duration": total,
                    "parent": parent, "op": op, "self": own,
                }) + "\n")
