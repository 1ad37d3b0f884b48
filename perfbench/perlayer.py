"""Per-layer metrics of a traced pass, from the span summaries of its jobs.

Names follow `<layer>.<public name>.<s|calls>`: `.s` is the time inside the
outermost calls of that name and `.calls` the number of those calls, both
summed over the jobs of one pass.  `<layer>.self_s` is the layer's span time
minus the time of the spans it opened; `<layer>.calls` counts every span of
the layer.  The layer `linalg` is the `numpy.linalg` calls qact makes.
"""

from __future__ import annotations

QACT_LAYERS = ("cli", "serialize", "actions", "functors", "algebras", "reconstruction",
               "repcat", "blockdecomp", "cocycles", "staralg")
LAYERS = QACT_LAYERS + ("linalg",)

NAMED = (
    "algebras.adjoint_of.s", "algebras.adjoint_of.calls",
    "algebras.module_linear_residual.s",
    "algebras.Correspondence.right_mul.calls", "algebras.BlockAlgebra.coords.calls",
    "linalg.lstsq.s", "linalg.lstsq.calls",
    "functors.validate_functor.s", "functors.validate_functor.calls",
    "functors.Realization.f2_tensor.s", "functors.Realization.f2_tensor.calls",
    "functors.Realization.s_adjoint.calls",
    "repcat.Backend.mor_basis.s", "repcat.Backend.mor_basis.calls",
    "repcat.Backend.mor_basis.repeat_ratio",
    "repcat.Backend.decompose.calls", "repcat.Backend.tensor.calls",
    "actions.spectral_functor.s", "actions.roundtrip_check.s",
    "actions.module_functor.s", "actions.fullness_check.s",
    "actions.Action.validate.s",
    "linalg.svd.s", "linalg.svd.calls", "linalg.max_out_mb",
    "reconstruction.build_report.s",
    "reconstruction.ReconstructedAlgebra.operator_norm.calls",
    "reconstruction.ReconstructedAlgebra.multiply.calls", "linalg.eigh.calls",
    "blockdecomp.decompose_star_algebra.s", "blockdecomp.decompose_star_algebra.calls",
    "linalg.pinv.calls",
    "cocycles.deform_action.s", "cocycles.TwistedBackend.decompose.calls",
    "staralg.StarAlgebraModel.multiply.calls",
    "cli.import_s", "cli.spawn_s", "cli.report_s", "serialize.load_s",
    "serialize.load_bytes",
    "trace.overhead_ratio",
)

PER_LAYER = tuple(f"{layer}.self_s" for layer in LAYERS) + tuple(
    f"{layer}.calls" for layer in LAYERS) + NAMED

MOR_BASIS = "repcat.Backend.mor_basis"


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def merge(jobs: list[tuple[float, dict]]) -> dict:
    """Sum the span summaries of one pass; jobs holds (child wall, summary)."""
    total = {"calls": {}, "inclusive_s": {}, "self_s": {}, "layer_s": {},
             "import_s": 0.0, "spawn_s": 0.0, "report_s": 0.0, "load_bytes": 0,
             "mor_basis_repeats": 0, "linalg_max_out_bytes": 0}
    for wall, s in jobs:
        for key in ("calls", "inclusive_s", "self_s", "layer_s"):
            for name, value in s.get(key, {}).items():
                total[key][name] = total[key].get(name, 0) + value
        incl = s.get("inclusive_s", {})
        main_s = incl.get("cli.main", 0.0)
        total["import_s"] += s.get("import_s", 0.0)
        total["spawn_s"] += wall - main_s
        total["report_s"] += main_s - incl.get("cli.run_verb", 0.0) \
            - incl.get("cli.make_parser", 0.0)
        total["load_bytes"] += s.get("load_bytes", 0)
        total["mor_basis_repeats"] += s.get("mor_basis_repeats", 0)
        total["linalg_max_out_bytes"] = max(total["linalg_max_out_bytes"],
                                            s.get("linalg_max_out_bytes", 0))
    return total


def metric(name: str, t: dict) -> float:
    """One per-layer metric from a merged pass (trace.overhead_ratio aside)."""
    calls, incl = t["calls"], t["inclusive_s"]
    layer = name.split(".", 1)[0]
    if name.endswith(".self_s"):
        return t["self_s"].get(layer, 0.0)
    if name == f"{layer}.calls":
        return sum(v for k, v in calls.items() if k.split(".", 1)[0] == layer)
    if name == f"{MOR_BASIS}.repeat_ratio":
        n = calls.get(MOR_BASIS, 0)
        return t["mor_basis_repeats"] / n if n else 0.0
    if name == "linalg.max_out_mb":
        return t["linalg_max_out_bytes"] / 1e6
    if name in ("cli.import_s", "cli.spawn_s", "cli.report_s"):
        return t[name.split(".")[1]]
    if name == "serialize.load_s":
        # serialize work outside encode_complex, which writes the report
        return t["layer_s"].get("serialize", 0.0) - incl.get("serialize.encode_complex", 0.0)
    if name == "serialize.load_bytes":
        return t["load_bytes"]
    if name.endswith(".calls"):
        return calls.get(name[:-len(".calls")], 0)
    if name.endswith(".s"):
        return incl.get(name[:-len(".s")], 0.0)
    raise KeyError(name)
