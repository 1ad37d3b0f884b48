"""Command line driver.

Verbs: validate, validate-graded, build, spectral, roundtrip,
module-functor, fullness, cocycle-check, deform.

Exit codes: 0 all residuals under tolerance, 1 validation failure (an
action file that is not an action fails every action verb this way),
2 input error (a --tolerance that is not finite and positive, or a
negative --seed, is one), 3 internal error (any other exception; the
report names its type and message under "internal_error").  The report
is written to --report (or stdout) either way; identical inputs and seed
produce byte-identical reports under one BLAS thread setting (another
thread count can move a value at the 1e-16 level).

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

The process entry, `python -m qact` (qact/__main__.py), calls gc.freeze()
after importing this module and again after `main` returns.  The
collections inside `main` then skip the objects the imports made, and the
collections of interpreter shutdown, which would walk numpy's objects and
every layer, walk none: the time from `main`'s return to the end of the
process went from 36-45 ms to 8-11 ms (medians of 9, on the benchmark's
spectral/z4_translation, roundtrip/clock5 and module-functor/z8_translation
jobs, 2-vCPU host).  `main` itself leaves the collector alone, so whatever
calls it (the tests, the installed `qact` script, perfbench/tracer.py) keeps
its collector; the benchmark's traced passes keep this cost, so its
per-layer trace.overhead_ratio may rise, which is no end-to-end metric.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys

import numpy as np

from .errors import (
    ActionError,
    AlgebraError,
    BackendError,
    CocycleError,
    IncompleteDataError,
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


class InputError(Exception):
    pass


# malformed or mismatched data surfaced by the library maps to exit code 2
INPUT_ERRORS = (ActionError, AlgebraError, BackendError, CocycleError,
                IncompleteDataError, SchemaError)


def render_report(report) -> str:
    """The report as json.dumps(..., indent=2, sort_keys=True) writes it,
    with numpy values as JSON values: dict keys become str, tuples lists,
    numpy scalars Python ones, a complex number its [re, im] pair and an
    array its encode_complex lists.

    With indent set, the json module encodes through its pure-Python
    encoder, value by value.  Here an array is written whole instead: the
    reprs of its floats (the json module's own spelling), joined level by
    level, with the same indentation and separators."""
    out: list[str] = []
    _render(report, 0, out)
    return "".join(out)


def _render(obj, level: int, out: list) -> None:
    if isinstance(obj, np.ndarray):
        out.append(_render_array(obj, level))
    elif isinstance(obj, dict):
        _render_items(sorted({str(k): v for k, v in obj.items()}.items()), "{}", level, out)
    elif isinstance(obj, (list, tuple)):
        _render_items([(None, v) for v in obj], "[]", level, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_text(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _render([float(obj.real), float(obj.imag)], level, out)
    else:
        out.append(json.dumps(obj))


def _render_items(items: list, brackets: str, level: int, out: list) -> None:
    """A JSON object (keys given) or array (keys None) of the items."""
    if not items:
        out.append(brackets)
        return
    pad = "\n" + "  " * (level + 1)
    out.append(brackets[0])
    for n, (key, value) in enumerate(items):
        out.append(pad if n == 0 else "," + pad)
        if key is not None:
            out.append(json.dumps(key) + ": ")
        _render(value, level + 1, out)
    out.append("\n" + "  " * level + brackets[1])


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _render_array(arr: np.ndarray, level: int) -> str:
    """serialize.encode_complex(arr) as an indented JSON array at `level`,
    built from the innermost axis out."""
    arr = np.asarray(arr, dtype=complex)
    pairs = np.stack([arr.real, arr.imag], -1)
    flat = pairs.ravel().tolist()
    items = list(map(float.__repr__, flat)) if np.isfinite(pairs).all() \
        else [_float_text(x) for x in flat]
    for axis in range(pairs.ndim - 1, -1, -1):
        size, groups = pairs.shape[axis], math.prod(pairs.shape[:axis])
        if size == 0:
            items = ["[]"] * groups
            continue
        pad = "\n" + "  " * (level + axis + 1)
        sep, close = "," + pad, "\n" + "  " * (level + axis) + "]"
        items = ["[" + pad + sep.join(items[g * size:(g + 1) * size]) + close
                 for g in range(groups)]
    return items[0]


def _load(path, loader, what):
    try:
        data = serialize.load_json(path)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}")
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


def run_verb(args) -> tuple[int, dict]:
    tol = args.tolerance
    report: dict = {
        "schema": SCHEMA,
        "verb": args.verb,
        "tolerance": tol,
        "seed": args.seed,
        "inputs": list(args.input),
        "backend": args.backend,
    }

    if args.verb == "validate":
        backend = _need_backend(args)
        _need_inputs(args, 1)
        functor = _load(args.input[0], lambda d: serialize.functor_from_json(d, backend),
                        "functor")
        val = functors.validate_functor(functor, tol)
        report["validation"] = val.summary()
        return (0 if val.passed else 1), report

    if args.verb == "validate-graded":
        _need_inputs(args, 1)
        bundle = _load(args.input[0], serialize.bundle_from_json, "bundle")
        val = functors.validate_graded(bundle, tol)
        report["validation"] = val.summary()
        return (0 if val.passed else 1), report

    if args.verb == "build":
        backend = _need_backend(args)
        _need_inputs(args, 1)
        functor = _load(args.input[0], lambda d: serialize.functor_from_json(d, backend),
                        "functor")
        try:
            alg = reconstruction.build_algebra(functor, tol=tol)
        except reconstruction.BuildError as err:
            report["validation"] = err.report.summary()
            return 1, report
        report["validation"] = alg.validation.summary()
        audit = reconstruction.build_report(alg, seed=args.seed)
        audit["multiplication_table"] = alg.model.table
        report["build"] = audit
        return (0 if audit["passed"] else 1), report

    if args.verb == "spectral":
        backend = _need_backend(args)
        _need_inputs(args, 1)
        act = _checked_action(args, report)
        if act is None:
            return 1, report
        spec = actions.spectral_functor(backend, act, seed=args.seed)
        val = functors.validate_functor(spec.functor, tol)
        report["fixed_algebra_blocks"] = list(spec.fixed.algebra.blocks)
        report["module_dims"] = {
            label: spec.functor.module(label).dim for label in backend.labels
        }
        report["validation"] = val.summary()
        return (0 if val.passed else 1), report

    if args.verb == "roundtrip":
        backend = _need_backend(args)
        _need_inputs(args, 1)
        act = _checked_action(args, report)
        if act is None:
            return 1, report
        try:
            cert = actions.roundtrip_check(backend, act, seed=args.seed, tol=tol)
        except reconstruction.BuildError as err:
            report["validation"] = err.report.summary()
            return 1, report
        report["certificate"] = {
            "passed": cert.passed,
            "residuals": cert.residuals,
            "dims": list(cert.dims),
            "isomorphism": cert.matrix,
        }
        return (0 if cert.passed else 1), report

    if args.verb == "module-functor":
        backend = _need_backend(args)
        _need_inputs(args, 1)
        act = _checked_action(args, report)
        if act is None:
            return 1, report
        spec, mf, iso = actions.canonical_module_iso(backend, act, tol=tol, seed=args.seed)
        val = functors.validate_functor(mf.functor, tol)
        report["endomorphism_blocks"] = list(mf.endomorphisms.algebra.blocks)
        report["module_dims"] = {
            label: mf.functor.module(label).dim for label in backend.labels
        }
        report["validation"] = val.summary()
        report["natural_iso_to_spectral"] = {
            "passed": iso.passed, "residuals": iso.residuals,
        }
        ok = val.passed and iso.passed
        return (0 if ok else 1), report

    if args.verb == "fullness":
        backend = _need_backend(args)
        _need_inputs(args, 1)
        act = _checked_action(args, report)
        if act is None:
            return 1, report
        module = actions.module_from_algebra(backend, act)
        cert = actions.fullness_check(backend, module, tol=tol)
        report["certificate"] = {
            "passed": cert.passed,
            "lower_constant": cert.lower_constant,
            "residuals": cert.residuals,
            "max_rank": cert.max_rank,
            "chosen": [label for label, _ in cert.chosen],
            "gram": cert.gram,
        }
        return (0 if cert.passed else 1), report

    if args.verb == "cocycle-check":
        backend = _need_backend(args)
        _need_inputs(args, 1)
        cocycle = _load(args.input[0], serialize.cocycle_from_json, "cocycle")
        chk = cocycles.check_cocycle(cocycle, tol)
        report["cocycle"] = chk
        if chk["passed"]:
            _, urep = cocycles.twist_element(backend, cocycle, tol)
            report["twist_element"] = urep
            ok = urep["passed"]
        else:
            ok = False
        return (0 if ok else 1), report

    if args.verb == "deform":
        backend = _need_backend(args)
        _need_inputs(args, 2)
        act = _checked_action(args, report)
        if act is None:
            return 1, report
        cocycle = _load(args.input[1], serialize.cocycle_from_json, "cocycle")
        chk = cocycles.check_cocycle(cocycle, tol)
        report["cocycle"] = chk
        if not chk["passed"]:
            return 1, report
        deformed = cocycles.deform_action(backend, act, cocycle, tol=tol, seed=args.seed)
        report["deformed"] = deformed.report
        report["center_dimension"] = deformed.model.center_dimension()
        ok = deformed.report["passed"]
        if args.cross_test:
            report["cross_test"] = cocycles.deformation_cross_test(
                backend, act, cocycle, deformed, tol=tol, seed=args.seed)
            ok = ok and report["cross_test"]["passed"]
        return (0 if ok else 1), report

    raise InputError(f"unknown verb {args.verb!r}")


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
        code, report = run_verb(args)
    except (InputError, *INPUT_ERRORS) as err:
        report = {"schema": SCHEMA, "verb": args.verb, "error": str(err)}
        code = 2
    except Exception as err:  # every verb ends in a report
        report = {"schema": SCHEMA, "verb": args.verb,
                  "internal_error": {"type": type(err).__name__, "message": str(err)}}
        code = 3
    text = render_report(report) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
