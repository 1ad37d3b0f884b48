"""Command line driver.

Verbs: validate, validate-graded, build, spectral, roundtrip,
module-functor, fullness, cocycle-check, deform.

Exit codes: 0 all residuals under tolerance, 1 validation failure,
2 input error, 3 internal error (any other exception; the report names its
type and message under "internal_error").  The report is written to
--report (or stdout) either way; identical inputs and seed produce
byte-identical reports.

A verb runs the code of only the layers it uses.  The layers are bound
here as lazy modules (importlib.util.LazyLoader), whose code runs on their
first attribute access: `validate`, `validate-graded` and `build` never run
`actions` or `cocycles`, and `module-functor` never runs `cocycles` or
`reconstruction`.  All of them are bound, so `import qact.cli` still puts
every layer in sys.modules, where a tool that wraps the layers' functions
before calling `main` finds them (perfbench/tracer.py does).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
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


def jsonable(obj):
    """The report with numpy values as JSON values; an array becomes its
    encode_complex lists, which are returned as they are."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return serialize.encode_complex(obj)
    return obj


def _load(path, loader, what):
    try:
        data = serialize.load_json(path)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}")
    except json.JSONDecodeError as err:
        raise InputError(f"{what} file {path} is not valid JSON: {err}")
    try:
        return loader(data)
    except (SchemaError, KeyError, ValueError) as err:
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
        act = _load(args.input[0], serialize.action_from_json, "action")
        act_report = act.validate(tol)
        report["action"] = act_report
        if not act_report["passed"]:
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
        act = _load(args.input[0], serialize.action_from_json, "action")
        cert = actions.roundtrip_check(backend, act, seed=args.seed, tol=tol)
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
        act = _load(args.input[0], serialize.action_from_json, "action")
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
        act = _load(args.input[0], serialize.action_from_json, "action")
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
        try:
            chk = cocycles.check_cocycle(cocycle, tol)
        except CocycleError as err:
            raise InputError(str(err))
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
        act = _load(args.input[0], serialize.action_from_json, "action")
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
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument("--report", help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cross-test", action="store_true", dest="cross_test",
                        help="deform: also rebuild through the twisted functor "
                             "and compare")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.tolerance <= 0:
        print("tolerance must be positive", file=sys.stderr)
        return 2
    try:
        code, report = run_verb(args)
    except (InputError, *INPUT_ERRORS) as err:
        report = {"schema": SCHEMA, "verb": args.verb, "error": str(err)}
        code = 2
    except Exception as err:  # every verb ends in a report
        report = {"schema": SCHEMA, "verb": args.verb,
                  "internal_error": {"type": type(err).__name__, "message": str(err)}}
        code = 3
    text = json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
