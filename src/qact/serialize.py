"""JSON schemas for backends, correspondences, functors, actions, bundles
and cocycles, and the one JSON encoder of qact.

Complex entries are serialized as [re, im] pairs, which round-trip exactly
at double precision.  Every file carries a "schema" tag.

`dumps` is the only encoder: every data file (`dump_json`) and every report
of the command line is its text.  The `*_to_json` writers hand it complex
arrays as they are, so their dicts are for `dumps`; a reader takes the
parsed text, and an in-memory round trip goes through
`json.loads(dumps(...))`.

The readers of actions and cocycles import those layers when called, so
loading a backend, functor or bundle imports neither; `algebras` and
`functors` are reached through their modules, so loading a backend or a
cocycle runs neither when the CLI binds them lazily.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from . import algebras, functors
from .errors import SchemaError
from .groups import GroupPresentation, group_from_table
from .repcat import Backend, Irrep
from .thresholds import TABLE_MATCH_TOL

if TYPE_CHECKING:
    from .actions import Action
    from .cocycles import Cocycle


def decode_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise SchemaError("complex entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


# -- groups and backends -------------------------------------------------------


def group_to_json(group: GroupPresentation) -> dict:
    return {
        "elements": list(group.elements),
        "mul_table": [
            [group.elements[group.mul[i, j]] for j in range(group.order)]
            for i in range(group.order)
        ],
        "identity": group.elements[group.identity],
    }


def group_from_json(data: dict) -> GroupPresentation:
    try:
        return group_from_table(data["elements"], data["mul_table"], data["identity"])
    except KeyError as err:
        raise SchemaError(f"group table is missing {err}") from None


def backend_to_json(backend: Backend) -> dict:
    irreps = []
    for label in backend.labels:
        ir = backend.irrep(label)
        entry = {
            "label": ir.label,
            "dim": ir.dim,
            "rho": np.eye(ir.dim),
            "conj": ir.conj,
        }
        if backend.kind == "group":
            entry["matrices"] = {
                backend.group.elements[g]: ir.matrices[g]
                for g in range(backend.group.order)
            }
        irreps.append(entry)
    return {
        "schema": "backend.v1",
        "kind": backend.kind,
        "group": group_to_json(backend.group),
        "irreps": irreps,
    }


def backend_from_json(data: dict) -> Backend:
    if data.get("schema") != "backend.v1":
        raise SchemaError("not a backend file")
    group = group_from_json(data["group"])
    kind = data["kind"]
    irreps = []
    for entry in data["irreps"]:
        mats = None
        if kind == "group":
            mats = np.array([
                decode_complex(entry["matrices"][name]) for name in group.elements
            ])
        dim = int(entry["dim"])
        # every finite backend is of Kac type: the modular matrix rho of the
        # conjugate equations is the identity, and the table stores no other
        rho = decode_complex(entry["rho"])
        if rho.shape != (dim, dim) or not np.allclose(rho, np.eye(dim), rtol=0,
                                                      atol=TABLE_MATCH_TOL):
            raise SchemaError(f"rho of irrep {entry['label']!r} is not the identity; "
                              "only Kac-type tables are supported")
        irreps.append(Irrep(entry["label"], dim, mats, entry["conj"]))
    backend = Backend(kind, group, irreps)
    backend.check()
    return backend


# -- correspondences and functors ------------------------------------------------


def correspondence_to_json(corr: algebras.Correspondence) -> dict:
    return {
        "algebra": {"blocks": list(corr.algebra.blocks)},
        "dim": corr.dim,
        "left_action": corr.left,
        "right_action": corr.right,
        "inner": corr.inner_tensor,
    }


def correspondence_from_json(data: dict) -> algebras.Correspondence:
    algebra = algebras.BlockAlgebra(tuple(data["algebra"]["blocks"]))
    dim = int(data["dim"])
    if dim == 0:
        return algebras.zero_correspondence(algebra)
    return algebras.Correspondence(
        algebra, dim,
        decode_complex(data["left_action"]),
        decode_complex(data["right_action"]),
        decode_complex(data["inner"]),
    )


def functor_to_json(functor: functors.TensorFunctorData, backend_ref: str = "") -> dict:
    phi_entries = []
    for (alpha, beta, gamma) in sorted(functor.phi):
        for idx, tensor in enumerate(functor.phi[(alpha, beta, gamma)]):
            if tensor.size == 0:
                continue  # maps touching zero modules are rebuilt as zeros
            phi_entries.append({
                "alpha": alpha,
                "beta": beta,
                "gamma": gamma,
                "intertwiner_index": idx,
                "tensor": tensor,
            })
    return {
        "schema": "functor.v1",
        "backend_ref": backend_ref,
        "base_algebra": {"blocks": list(functor.algebra.blocks)},
        "modules": {
            label: correspondence_to_json(functor.module(label))
            for label in functor.backend.labels
        },
        "phi": phi_entries,
    }


def functor_from_json(data: dict, backend: Backend) -> functors.TensorFunctorData:
    if data.get("schema") != "functor.v1":
        raise SchemaError("not a functor file")
    algebra = algebras.BlockAlgebra(tuple(data["base_algebra"]["blocks"]))
    modules = {}
    for label in backend.labels:
        if label not in data["modules"]:
            raise SchemaError(f"functor file has no module for {label!r}")
        modules[label] = correspondence_from_json(data["modules"][label])
    buckets: dict[tuple[str, str, str], dict[int, np.ndarray]] = {}
    for entry in data["phi"]:
        key = (entry["alpha"], entry["beta"], entry["gamma"])
        buckets.setdefault(key, {})[int(entry["intertwiner_index"])] = decode_complex(
            entry["tensor"]
        )
    phi = {}
    for key, items in buckets.items():
        phi[key] = [items[i] for i in sorted(items)]
    return functors.TensorFunctorData(backend, algebra, modules, phi, name="loaded")


# -- actions ----------------------------------------------------------------------


def action_to_json(act: Action) -> dict:
    out = {
        "schema": "action.v1",
        "kind": act.kind,
        "algebra": {"blocks": list(act.algebra.blocks)},
        "group": group_to_json(act.group),
        "name": act.name,
    }
    if act.kind == "automorphism":
        out["data"] = {"maps": {
            x: act.map_matrix(x) for x in act.group.elements
        }}
    else:
        out["data"] = {"components": {
            x: act.component_rows(x) for x in act.group.elements
            if act.component_rows(x).shape[0]
        }}
    return out


def action_from_json(data: dict) -> Action:
    from .actions import Action

    if data.get("schema") != "action.v1":
        raise SchemaError("not an action file")
    algebra = algebras.BlockAlgebra(tuple(data["algebra"]["blocks"]))
    group = group_from_json(data["group"])
    kind = data["kind"]
    if kind == "automorphism":
        maps = {
            x: decode_complex(data["data"]["maps"][x]) for x in group.elements
        }
        return Action(kind, algebra, group, maps=maps,
                      name=data.get("name", "action"))
    comps = {}
    for x in group.elements:
        if x in data["data"]["components"]:
            comps[x] = decode_complex(data["data"]["components"][x]).reshape(
                -1, algebra.dim
            )
        else:
            comps[x] = np.zeros((0, algebra.dim))
    return Action(kind, algebra, group, components=comps,
                  name=data.get("name", "action"))


# -- bundles ------------------------------------------------------------------------


def bundle_to_json(bundle: functors.GradedBundle) -> dict:
    mult = []
    for a in bundle.group.elements:
        for b in bundle.group.elements:
            tensor = bundle.mult_tensor(a, b)
            if tensor.size == 0:
                continue  # the loader rebuilds zero-size maps from the fibers
            mult.append({"a": a, "b": b, "tensor": tensor})
    return {
        "schema": "bundle.v1",
        "group": group_to_json(bundle.group),
        "algebra": {"blocks": list(bundle.algebra.blocks)},
        "fibers": {
            name: correspondence_to_json(bundle.fiber(name))
            for name in bundle.group.elements
        },
        "mult": mult,
    }


def bundle_from_json(data: dict) -> functors.GradedBundle:
    if data.get("schema") != "bundle.v1":
        raise SchemaError("not a bundle file")
    group = group_from_json(data["group"])
    algebra = algebras.BlockAlgebra(tuple(data["algebra"]["blocks"]))
    fibers = {}
    for name in group.elements:
        if name not in data["fibers"]:
            raise SchemaError(f"bundle file has no fiber for {name!r}")
        fibers[name] = correspondence_from_json(data["fibers"][name])
    mult = {}
    for entry in data["mult"]:
        mult[(entry["a"], entry["b"])] = decode_complex(entry["tensor"])
    return functors.GradedBundle(group, algebra, fibers, mult)


# -- cocycles -------------------------------------------------------------------------


def cocycle_to_json(cocycle: Cocycle) -> dict:
    out = {
        "schema": "cocycle.v1",
        "kind": cocycle.kind,
        "group": group_to_json(cocycle.group),
    }
    g = cocycle.group
    if cocycle.kind == "dual":
        out["values"] = {
            f"({a},{b})": cocycle.raw[i, j]
            for i, a in enumerate(g.elements)
            for j, b in enumerate(g.elements)
        }
    else:
        out["tensor"] = cocycle.raw
    return out


def cocycle_from_json(data: dict) -> Cocycle:
    from .cocycles import make_cocycle

    if data.get("schema") != "cocycle.v1":
        raise SchemaError("not a cocycle file")
    group = group_from_json(data["group"])
    n = group.order
    if data["kind"] == "dual":
        vals = np.zeros((n, n), dtype=complex)
        for key, entry in data["values"].items():
            if not (key.startswith("(") and key.endswith(")")):
                raise SchemaError(f"bad cocycle key {key!r}")
            a, b = key[1:-1].split(",")
            value = decode_complex(entry)
            if value.shape != ():
                raise SchemaError(f"cocycle value {key} must be one [re, im] pair, "
                                  f"got shape {value.shape}")
            vals[group.index(a), group.index(b)] = value
        return make_cocycle("dual", group, vals)
    return make_cocycle("group", group, decode_complex(data["tensor"]))


# -- the encoder and file helpers ------------------------------------------------------


def dumps(obj) -> str:
    """obj as json.dumps(..., indent=2, sort_keys=True) writes it, with
    numpy values as JSON values: dict keys become str, tuples lists, numpy
    scalars Python ones, a complex number its [re, im] pair and an array
    nested lists of [re, im] pairs (its shape plus a last axis of 2, signed
    zeros kept).

    With indent set, the json module encodes through its pure-Python
    encoder, value by value.  Here an array is written whole instead: the
    reprs of its floats (the json module's own spelling), joined level by
    level, with the same indentation and separators."""
    out: list[str] = []
    _render(obj, 0, out)
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
    """The array's [re, im] pairs as an indented JSON array at `level`,
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


def dump_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data) + "\n")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
