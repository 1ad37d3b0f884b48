"""Run one `qact` verb with every public function of every layer timed.

    python perfbench/tracer.py SPANS_OUT VERB [qact options...]

Behaves like `python -m qact VERB ...` (same report, exit code and
traceback) and also writes SPANS_OUT, a JSON summary of the spans.  Names
are wrapped where callers look them up: in every qact module namespace that
binds the function, on the class for methods, and on `numpy.linalg` for the
kernel calls qact makes.  Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

from perlayer import MOR_BASIS, QACT_LAYERS
from spans import SpanAggregator

LINALG = ("lstsq", "svd", "eigh", "eigvalsh", "pinv", "norm", "inv", "det",
          "matrix_rank", "solve", "qr", "eig", "eigvals", "cholesky")


class Tracer:
    def __init__(self):
        self.agg = SpanAggregator()
        self.mor_keys: set = set()
        self.mor_repeats = 0
        self.load_bytes = 0
        self.max_out_bytes = 0

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        agg, clock = self.agg, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if agg.is_open(name):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            agg.enter(name, layer, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                agg.exit(clock())
            if after is not None:
                after(result)
            return result

        return traced

    # hooks for the counts beyond calls and time

    def _mor_key(self, args):
        key = (args[1].key, args[2].key)
        if key in self.mor_keys:
            self.mor_repeats += 1
        self.mor_keys.add(key)

    def _load_size(self, args):
        self.load_bytes += os.path.getsize(args[0])

    def _out_size(self, result):
        import numpy as np

        parts = result if isinstance(result, tuple) else (result,)
        for part in parts:
            if isinstance(part, np.ndarray):
                self.max_out_bytes = max(self.max_out_bytes, part.nbytes)

    def instrument(self):
        import numpy.linalg

        replaced = {}
        for layer in QACT_LAYERS:
            mod = sys.modules[f"qact.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    before = self._load_size if (layer, attr) == ("serialize", "load_json") else None
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}", layer, before))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._instrument_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qact" or mod_name.startswith("qact."):
                for attr, obj in list(vars(mod).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, attr, hit[1])
        for fname in LINALG:
            fn = getattr(numpy.linalg, fname, None)
            if fn is not None:
                setattr(numpy.linalg, fname,
                        self.wrap(fn, f"linalg.{fname}", "linalg", after=self._out_size))

    def _instrument_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            before = self._mor_key if name == MOR_BASIS else None
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name, layer)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name, layer, before))

    def dump(self, path, import_s):
        data = {
            "import_s": import_s,
            "mor_basis_repeats": self.mor_repeats,
            "load_bytes": self.load_bytes,
            "linalg_max_out_bytes": self.max_out_bytes,
            **self.agg.summary(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)


def main(argv):
    out, qact_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import qact.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.instrument()
    try:
        code = qact.cli.main(qact_argv)
    except SystemExit as stop:
        code = stop.code
    finally:
        tracer.dump(out, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
