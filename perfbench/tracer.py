"""Outside-in span tracer for the biprox benchmark.

The tracer wraps, from outside the package, the functions where one biprox
module calls into another's public names.  A wrapped function is replaced in
every ``biprox`` module namespace that binds it, so calls made through a
module-level import (``from .permgroup import subgroup_generated``) and calls
inside the defining module are both seen.  Classes are traced through their
``__init__``, which catches every construction whatever name it goes by.

A target that no longer exists (a deleted function or module) is reported as
absent instead of failing, so the benchmark keeps running across deletions.

Each span records its name, start, end, parent span and item id.  Self time
is a span's duration minus the time covered by its direct child spans; total
time counts only outermost spans of a name, so recursion is not counted twice.
Times come from the clock the tracer is given: the benchmark passes the speed
probe's reference clock (speed.py), so they are reference seconds.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, distinct-key function or None).  A key function takes
# the call's positional arguments and returns a hashable identity of the
# work done, used for the distinct_ratio metric.


def _group_key(args) -> tuple:
    """Element set of a constructed FiniteGroup (args[0] is the instance)."""
    return tuple(e.images for e in args[0].elements)


def _step_key(args) -> tuple:
    """(outer, inner) element sets of a step_context(ctx, outer, inner) call."""
    return tuple(tuple(p.images for p in sub.perms()) for sub in args[1:3])


TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("catalog", "catalog_group", None),
    ("permgroup", "FiniteGroup", _group_key),
    ("permgroup", "subgroup_generated", None),
    ("permgroup", "all_subgroups", None),
    ("permgroup", "quotient_group", None),
    ("lattice", "from_subgroups", None),
    ("lattice", "is_distributive", None),
    ("lattice", "boolean_rank", None),
    ("interval", "equivalence_key", None),
    ("interval", "inclusions_equivalent", None),
    ("boxalgebra", "BoxContext", None),
    ("boxalgebra", "biprojection_lattice", None),
    ("boxalgebra", "generate_biprojection", None),
    ("boxalgebra", "is_central", None),
    ("boxalgebra", "is_normal_biprojection", None),
    ("boxalgebra", "minimal_central_projections", None),
    ("boxalgebra", "minimal_projections_under", None),
    ("boxalgebra", "compress_lower", None),
    ("boxalgebra", "compress_upper", None),
    ("properties", "step_context", _step_key),
    ("properties", "lengths", None),
    ("properties", "classify", None),
    ("cli", "enumerate_pairs", None),
    ("cli", "subgroup_class_representatives", None),
    ("cli", "equivalence_classes", None),
)


class Stat:
    """Aggregates of one traced name."""

    __slots__ = ("calls", "total", "self_time", "active", "keys", "keys_ok", "raised")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0
        self.keys: set = set()
        self.keys_ok = True
        self.raised: Dict[str, int] = {}


class Tracer:
    """Span recorder; create one per process and call install() once."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.stats: Dict[str, Stat] = {}
        self.absent: List[str] = []
        # span: (id, name, start, end, parent id or -1, item id)
        self.spans: List[tuple] = []
        self._stack: List[list] = []  # [span id, child time]
        self._item: object = None

    def mark(self, item: object) -> None:
        """Set the item id attached to spans that start from now on."""
        self._item = item

    def install(self) -> None:
        for module_name, attr, key in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"biprox.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(name)
                continue
            self.stats[name] = Stat()
            if isinstance(target, type):
                target.__init__ = self._wrap(name, target.__init__, key)
                continue
            wrapped = self._wrap(name, target, key)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "biprox" or mod_name.startswith("biprox.")):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, bound, wrapped)

    def _wrap(self, name: str, fn: Callable, key: Optional[Callable]) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans) + len(stack), 0.0]
            parent = stack[-1][0] if stack else -1
            item = self._item
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                kind = type(exc).__name__
                stat.raised[kind] = stat.raised.get(kind, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                duration = end - start
                stat.calls += 1
                stat.self_time += duration - frame[1]
                if stat.active == 0:
                    stat.total += duration
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], name, start, end, parent, item))
                if key is not None and stat.keys_ok:
                    try:
                        stat.keys.add(key(args))
                    except (AttributeError, TypeError, IndexError):
                        stat.keys_ok = False

        return wrapper

    def write_spans(self, path) -> None:
        """Write the spans as tab-separated lines: id, name, start, end,
        parent id, item id (times in seconds on the tracer's clock)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tparent\titem\n")
            for sid, name, start, end, parent, item in sorted(self.spans):
                out.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
