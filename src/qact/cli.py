"""Command line driver.

Verbs: validate, validate-graded, build, spectral, roundtrip,
module-functor, fullness, cocycle-check, deform.

A verb writes the sections the library's checks return, as they return
them: validation, build and deform hand back their sections, and a check
that fails is a section with "passed" false, never an exception.  One rule
sets the exit code of every verb: 1 if some top-level section of the report
has "passed" false (an action file that is not an action fails every action
verb through its "action" section), 0 if none has.  The other codes: 2
input error (a missing, unreadable, non-UTF-8 or malformed input file, a
--tolerance that is not finite and positive, or a negative --seed; the
report holds "error"), 3 internal error (any other exception; the report
names its type and message under "internal_error").  The report is written
to --report (or stdout) either way; a --report path or a stdout that cannot
be written (closed, or a full device) gives exit 2 and one line on stderr
naming it.  Identical inputs produce byte-identical reports under one BLAS
thread setting (another thread count can move a value at the 1e-16 level).
No verb draws: --seed seeds nothing and is only validated and recorded as
the report's "seed", because benchmark job lines pass it.  serialize.dumps
writes the report text.

A verb runs the code of only the layers it uses.  The layers are bound
here as lazy modules (importlib.util.LazyLoader), whose code runs on their
first attribute access: `validate`, `validate-graded` and `build` never run
`actions` or `cocycles`, `module-functor` never runs `cocycles` or
`reconstruction`, `fullness` never runs `functors`, `staralg`,
`reconstruction` or `cocycles`, and `cocycle-check` runs none of `actions`,
`algebras`, `blockdecomp`, `functors`, `reconstruction` and `staralg`.  All
of them are bound, so `import qact.cli` still puts every layer in
sys.modules, where a tool that wraps the layers' functions before calling
`main` finds them (perfbench/tracer.py does).

The process entry, qact/__main__.py's `run` (`python -m qact` and the
installed `qact` script), imports this module with the collector off: with
it on, that import window, numpy included, ran 29 generation-0 and 2
generation-1 collections, 3.6-4.1 ms per process, over objects that nearly
all live until the process ends (346 that do not, about 0.2 MB, are left
uncollected).  It then calls gc.freeze(), turns the collector back on, and
calls gc.freeze() again after `main` returns.  The collections inside
`main` then skip the objects the imports made, and the collections of
interpreter shutdown, which would walk numpy's objects and every layer,
walk none: the time from `main`'s return to the end of the process went
from 36-45 ms to 8-11 ms (medians of 9, on the benchmark's
spectral/z4_translation, roundtrip/clock5 and module-functor/z8_translation
jobs, 2-vCPU host).  `main` itself leaves the collector alone, so whatever
calls it in process (the tests, perfbench/tracer.py) keeps its collector;
the benchmark's traced passes keep this cost, so its per-layer
trace.overhead_ratio may rise, which is no end-to-end metric.
"""

from __future__ import annotations

import argparse
import errno
import importlib.util
import json
import os
import sys

import numpy as np

from .errors import (
    ActionError,
    AlgebraError,
    BackendError,
    CocycleError,
    IncompleteDataError,
    InputError,
    SchemaError,
)
from .thresholds import DEFAULT_TOL

SCHEMA = "report.v1"


def _bind_lazily(name: str) -> None:
    """Put the layer qact.<name> in sys.modules and on the package, its code
    to run on its first attribute access; a loaded layer stays as it is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)


for _name in ("actions", "algebras", "blockdecomp", "cocycles", "functors", "groups",
              "reconstruction", "repcat", "serialize", "staralg"):
    _bind_lazily(_name)
# bound above, so these name the lazy modules without running them
from . import actions, cocycles, functors, reconstruction, serialize


# malformed or mismatched data surfaced by the library maps to exit code 2
INPUT_ERRORS = (ActionError, AlgebraError, BackendError, CocycleError,
                IncompleteDataError, SchemaError)


def _load(path, loader, what):
    try:
        data = serialize.load_json(path)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}")
    except OSError as err:
        raise InputError(f"{what} file {path} cannot be read: {err.strerror}")
    except UnicodeDecodeError as err:
        raise InputError(f"{what} file {path} is not UTF-8 text: {err.reason}")
    except json.JSONDecodeError as err:
        raise InputError(f"{what} file {path} is not valid JSON: {err}")
    try:
        return loader(data)
    except KeyError as err:
        raise InputError(f"{what} file {path}: missing key {err}")
    except (SchemaError, ValueError) as err:
        raise InputError(f"{what} file {path}: {err}")


def _need_inputs(args, count):
    if len(args.input) != count:
        raise InputError(
            f"verb {args.verb!r} needs {count} --input file(s), got {len(args.input)}"
        )


def _need_backend(args):
    if not args.backend:
        raise InputError(f"verb {args.verb!r} needs --backend")
    return _load(args.backend, serialize.backend_from_json, "backend")


def _checked_action(args, report):
    """The action file of an action verb, checked to be an action: a failed
    check is written under "action" and gives None; spectral writes its
    check either way."""
    act = _load(args.input[0], serialize.action_from_json, "action")
    check = act.validate(args.tolerance)
    if args.verb == "spectral" or not check["passed"]:
        report["action"] = check
    return act if check["passed"] else None


def run_verb(args) -> dict:
    """The report of one verb: its inputs loaded, the library's checks run,
    and each check's section placed under its name."""
    verb, tol = args.verb, args.tolerance
    report: dict = {
        "schema": SCHEMA,
        "verb": verb,
        "tolerance": tol,
        "seed": args.seed,
        "inputs": list(args.input),
        "backend": args.backend,
    }
    backend = None if verb == "validate-graded" else _need_backend(args)
    _need_inputs(args, 2 if verb == "deform" else 1)

    if verb == "validate-graded":
        bundle = _load(args.input[0], serialize.bundle_from_json, "bundle")
        report["validation"] = functors.validate_graded(bundle, tol)
    elif verb in ("validate", "build"):
        functor = _load(args.input[0], lambda d: serialize.functor_from_json(d, backend),
                        "functor")
        if verb == "validate":
            report["validation"] = functors.validate_functor(functor, tol)
            return report
        report["validation"], alg = reconstruction.build_algebra(functor, tol=tol)
        if alg is not None:
            report["build"] = reconstruction.build_report(alg)
    elif verb == "cocycle-check":
        cocycle = _load(args.input[0], serialize.cocycle_from_json, "cocycle")
        report["cocycle"] = cocycles.check_cocycle(cocycle, tol)
        if report["cocycle"]["passed"]:
            report["twist_element"] = cocycles.twist_element(backend, cocycle, tol)[1]
    elif (act := _checked_action(args, report)) is None:
        pass  # an action verb on no action: the failed check is the report
    elif verb == "spectral":
        spec = actions.spectral_functor(backend, act)
        report["fixed_algebra_blocks"] = list(spec.fixed.algebra.blocks)
        report["module_dims"] = {
            label: spec.functor.module(label).dim for label in backend.labels
        }
        report["validation"] = functors.validate_functor(spec.functor, tol)
    elif verb == "roundtrip":
        report.update(actions.roundtrip_check(backend, act, tol=tol))
    elif verb == "module-functor":
        _, mf, report["natural_iso_to_spectral"] = actions.canonical_module_iso(
            backend, act, tol=tol)
        report["endomorphism_blocks"] = list(mf.endomorphisms.algebra.blocks)
        report["module_dims"] = {
            label: mf.functor.module(label).dim for label in backend.labels
        }
        report["validation"] = functors.validate_functor(mf.functor, tol)
    elif verb == "fullness":
        module = actions.module_from_algebra(backend, act)
        report["certificate"] = actions.fullness_check(backend, module, tol=tol)
    else:  # deform
        cocycle = _load(args.input[1], serialize.cocycle_from_json, "cocycle")
        report["cocycle"] = cocycles.check_cocycle(cocycle, tol)
        if not report["cocycle"]["passed"]:
            return report
        model, report["deformed"] = cocycles.deform_action(backend, act, cocycle, tol=tol)
        report["center_dimension"] = model.center_dimension()
        if args.cross_test:
            report["cross_test"] = cocycles.deformation_cross_test(
                backend, act, cocycle, model, tol=tol)
    return report


def exit_code(report: dict) -> int:
    """1 if some top-level section of the report has "passed" false, else 0."""
    return int(any(isinstance(section, dict) and not section.get("passed", True)
                   for section in report.values()))


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qact",
        description="Validate, build, round-trip and deform symmetry actions "
                    "and their spectral data.",
    )
    parser.add_argument("verb", choices=[
        "validate", "validate-graded", "build", "spectral", "roundtrip",
        "module-functor", "fullness", "cocycle-check", "deform",
    ])
    parser.add_argument("--backend", help="backend table (JSON)")
    parser.add_argument("--input", action="append", default=[],
                        help="input file; repeat for verbs taking several")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    parser.add_argument("--report", help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cross-test", action="store_true", dest="cross_test",
                        help="deform: also rebuild through the twisted functor "
                             "and compare")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if not (np.isfinite(args.tolerance) and args.tolerance > 0):
            raise InputError(f"--tolerance must be finite and positive, got {args.tolerance}")
        if args.seed < 0:
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        report = run_verb(args)
        code = exit_code(report)
    except (InputError, *INPUT_ERRORS) as err:
        report = {"schema": SCHEMA, "verb": args.verb, "error": str(err)}
        code = 2
    except Exception as err:  # every verb ends in a report
        report = {"schema": SCHEMA, "verb": args.verb,
                  "internal_error": {"type": type(err).__name__, "message": str(err)}}
        code = 3
    text = serialize.dumps(report) + "\n"
    try:
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _write_stdout(text)
    except OSError as err:
        print(f"qact: cannot write the report to {args.report or 'stdout'}: {err.strerror}",
              file=sys.stderr)
        return 2
    return code


def _write_stdout(text: str) -> None:
    """Write and flush text on stdout.  If stdout cannot take it, raise
    OSError, and first point stdout at the null device, so the flush at
    exit finds nothing left to fail on."""
    if sys.stdout is None:  # the process started with stdout closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


if __name__ == "__main__":
    sys.exit(main())
