"""JSON schemas for backends, correspondences, functors, actions, bundles
and cocycles.

Complex entries are serialized as [re, im] pairs, which round-trip exactly
at double precision.  Every file carries a "schema" tag.

The readers of actions and cocycles import those layers when called, so
loading a backend, functor or bundle imports neither; `algebras` and
`functors` are reached through their modules, so loading a backend or a
cocycle runs neither when the CLI binds them lazily.
"""

from __future__ import annotations

import json
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


def encode_complex(arr) -> list:
    """Nested lists of [re, im] pairs of Python floats, the array's shape
    plus a last axis of 2; signed zeros are kept."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


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
            "rho": encode_complex(np.eye(ir.dim)),
            "conj": ir.conj,
        }
        if backend.kind == "group":
            entry["matrices"] = {
                backend.group.elements[g]: encode_complex(ir.matrices[g])
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
        "left_action": encode_complex(corr.left),
        "right_action": encode_complex(corr.right),
        "inner": encode_complex(corr.inner_tensor),
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
                "tensor": encode_complex(tensor),
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
            x: encode_complex(act.map_matrix(x)) for x in act.group.elements
        }}
    else:
        out["data"] = {"components": {
            x: encode_complex(act.component_rows(x)) for x in act.group.elements
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
            mult.append({"a": a, "b": b, "tensor": encode_complex(tensor)})
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
            f"({a},{b})": encode_complex(cocycle.raw[i, j])
            for i, a in enumerate(g.elements)
            for j, b in enumerate(g.elements)
        }
    else:
        out["tensor"] = encode_complex(cocycle.raw)
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


# -- file helpers ------------------------------------------------------------------------


def dump_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
