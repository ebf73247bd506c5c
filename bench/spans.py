"""Spans around calls into the program, installed from outside it.

``Tracer.install`` replaces every public function of the named pls_lab
modules, and every public method of the classes they define, with a
wrapper that times the call. Names bound by ``from x import y`` in other
pls_lab modules are re-pointed at the same wrapper. A span's self time is
its duration minus the time of the spans it called.

Process-pool workers are forked from the traced process and inherit the
wrappers; a worker writes its spans to ``spool_dir`` each time its
outermost span ends, and ``Tracer.merged`` adds them to the parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

# Spans that also count the minor page faults taken while they run.
FAULT_SPANS = {"optimizers.run_optimizer"}


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.parent_pid = self.pid
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s, faults]
        self.stack: list[list[float]] = []
        self.flushes = 0

    def _enter_process(self):
        # first span in a forked worker: drop the parent's copied spans
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.stats = {}
            self.stack = []

    def wrap(self, name: str, fn):
        count_faults = name in FAULT_SPANS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._enter_process()
            frame = [0.0]
            self.stack.append(frame)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if count_faults else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += took
                s = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                s[0] += 1
                s[1] += took
                s[2] += took - frame[0]
                if count_faults:
                    s[3] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                if not self.stack and os.getpid() != self.parent_pid:
                    self._flush()

        return span

    def _flush(self):
        self.flushes += 1
        path = self.spool_dir / f"{os.getpid()}-{self.flushes}.json"
        path.write_text(json.dumps(self.stats))
        self.stats = {}

    def install(self, module_names):
        replaced = {}
        for short in module_names:
            mod = importlib.import_module(f"pls_lab.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{short}.{attr}", obj)
                    setattr(mod, attr, replaced[obj])
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in [m for k, m in sys.modules.items() if k.startswith("pls_lab")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, prefix: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{prefix}.{attr}", obj.__func__)))

    def merged(self) -> dict[str, list[float]]:
        """The parent's spans plus every worker's spooled spans."""
        total = {k: list(v) for k, v in self.stats.items()}
        for path in sorted(self.spool_dir.glob("*.json")):
            for name, s in json.loads(path.read_text()).items():
                t = total.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    t[i] += s[i]
        return total
