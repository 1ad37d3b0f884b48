"""Job lists of the two benchmark workloads, generated from a seed.

Every input is built in-process from the `qact.fixtures` constructors and
written with `qact.serialize`.  The seed drives the `--seed` of every verb
and a random unitary that conjugates each action on a non-commutative
algebra, so fixed-point algebras are not aligned with the matrix-unit axes.
Verdicts must not depend on the seed.

Rungs are capped so that one pass of every workload takes a few seconds on
a 2-core machine; README.md lists the rungs left out and what they cost.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("block-ladder", "translation-ladder")

# Passes per run at --seconds 30; other run lengths scale the count.  A
# fixed count gives every run of a workload the same sample count, and
# these counts put the tail rank (the 11th largest job time) inside the
# samples of one job or of two jobs of equal cost, not between two jobs of
# different cost.
REFERENCE_SECONDS = 30
PASSES = {
    "block-ladder": 6,
    "translation-ladder": 3,
}

# The top rung of each workload, its slowest job on the reference machine;
# top_job_s follows this job, so it does not hop between near-equal jobs.
TOP_JOB = {
    "block-ladder": "roundtrip/clock5",
    "translation-ladder": "module-functor/z8_translation",
}


@dataclass(frozen=True)
class Job:
    """One `python -m qact <verb>` invocation; argv holds no --report/--seed."""

    id: str
    argv: tuple[str, ...]

    @property
    def inputs(self) -> list[str]:
        """Paths of the files the job reads, in argv order."""
        return [a for a in self.argv if a.endswith(".json")]


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / REFERENCE_SECONDS))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def conjugated(act, seed: int):
    """The action transported by Ad(U) for a seeded random block-diagonal
    unitary U of its algebra; actions on commutative algebras are returned
    unchanged, since Ad(U) is then the identity."""
    from qact.actions import Action

    alg = act.algebra
    if max(alg.blocks) == 1:
        return act
    rng = np.random.default_rng([seed, zlib.crc32(act.name.encode())])
    u = np.zeros((alg.n, alg.n), dtype=complex)
    for off, b in zip(alg.offsets(), alg.blocks):
        u[off:off + b, off:off + b] = haar_unitary(b, rng)
    c = np.array([alg.coords(u @ e @ u.conj().T) for e in alg.basis()]).T
    if act.kind == "automorphism":
        maps = {x: c @ act.map_matrix(x) @ c.conj().T for x in act.group.elements}
        return Action(act.kind, alg, act.group, maps=maps, name=act.name)
    comps = {x: act.component_rows(x) @ c.T for x in act.group.elements}
    return Action(act.kind, alg, act.group, components=comps, name=act.name)


class _Writer:
    """Writes each input once under `root` and returns its path."""

    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self.paths: dict[str, str] = {}

    def put(self, name: str, make) -> str:
        if name not in self.paths:
            from qact import serialize

            path = self.root / f"{name}.json"
            serialize.dump_json(make(), path)
            self.paths[name] = path.as_posix()
        return self.paths[name]


def _verb(verb, backend, *inputs, extra=()):
    argv = [verb]
    if backend is not None:
        argv += ["--backend", backend]
    for path in inputs:
        argv += ["--input", path]
    return tuple(argv) + tuple(extra)


def _action_jobs(w: _Writer, tag: str, backend_name: str, backend, act, verbs):
    """Jobs for the action verbs; `build` runs on the spectral functor."""
    from qact import serialize
    from qact.actions import spectral_functor

    bpath = w.put(backend_name, lambda: serialize.backend_to_json(backend))
    apath = w.put(f"action_{tag}", lambda: serialize.action_to_json(act))
    jobs = []
    for verb in verbs:
        if verb in ("build", "validate"):
            fpath = w.put(f"functor_{tag}", lambda: serialize.functor_to_json(
                spectral_functor(backend, act).functor))
            jobs.append(Job(f"{verb}/{tag}", _verb(verb, bpath, fpath)))
        else:
            jobs.append(Job(f"{verb}/{tag}", _verb(verb, bpath, apath)))
    return jobs


ALL_ACTION_VERBS = ("spectral", "roundtrip", "build")


def block_ladder(w: _Writer, seed: int) -> list[Job]:
    from qact.algebras import BlockAlgebra
    from qact.fixtures import clock_shift_grading, trivial_action
    from qact.groups import cyclic_group
    from qact.repcat import cyclic_backend, dual_backend

    jobs = []
    for n, verbs in ((3, ALL_ACTION_VERBS), (4, ALL_ACTION_VERBS), (5, ("roundtrip",))):
        backend = dual_backend(cyclic_group(n))
        act = conjugated(clock_shift_grading(n), seed)
        jobs += _action_jobs(w, f"clock{n}", f"dual_z{n}", backend, act, verbs)
    z2 = cyclic_backend(2)
    for k, verbs in ((2, ALL_ACTION_VERBS), (3, ("roundtrip",))):
        act = conjugated(trivial_action(z2, BlockAlgebra((k,)), name=f"trivial-m{k}"), seed)
        jobs += _action_jobs(w, f"trivial_m{k}", "z2", z2, act, verbs)
    return jobs


def translation_ladder(w: _Writer, seed: int) -> list[Job]:
    from qact.fixtures import translation_action
    from qact.repcat import cyclic_backend, symmetric3_backend

    ladder = (
        (4, ("spectral", "roundtrip", "build", "module-functor", "fullness")),
        (8, ("spectral", "roundtrip", "module-functor", "fullness")),
        (12, ("roundtrip",)),
    )
    jobs = []
    for n, verbs in ladder:
        backend = cyclic_backend(n)
        jobs += _action_jobs(w, f"z{n}_translation", f"z{n}", backend,
                             translation_action(backend), verbs)
    s3 = symmetric3_backend()
    jobs += _action_jobs(w, "s3_translation", "s3", s3, translation_action(s3),
                         ("spectral", "roundtrip", "build", "module-functor", "fullness"))
    return jobs + cocycle_jobs(w)


def cocycle_jobs(w: _Writer) -> list[Job]:
    """`cocycle-check` on the three shipped Z2xZ2 cocycles and the two
    `deform --cross-test` pairs of `tests/test_cli.py`: the cocycles and
    staralg layers, at the sizes of the shipped corpus."""
    from qact import serialize
    from qact.fixtures import (
        action_corpus,
        bicharacter_cocycle,
        group_backend_bicharacter_cocycle,
        standard_backends,
        trivial_cocycle,
    )
    from qact.groups import cyclic_group, direct_product

    backends = standard_backends()
    actions = action_corpus()
    z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
    cocycles = {
        "bicharacter_z2z2": ("dual_z2z2", lambda: bicharacter_cocycle([2, 2])),
        "trivial_z2z2": ("dual_z2z2", lambda: trivial_cocycle("dual", z2z2)),
        "group_bicharacter_z2z2": ("z2z2", group_backend_bicharacter_cocycle),
    }
    jobs, cpaths = [], {}
    for name, (bk, make) in cocycles.items():
        bpath = w.put(bk, lambda: serialize.backend_to_json(backends[bk]))
        cpaths[name] = w.put(f"cocycle_{name}", lambda: serialize.cocycle_to_json(make()))
        jobs.append(Job(f"cocycle-check/{name}", _verb("cocycle-check", bpath, cpaths[name])))
    for act_name, cocycle_name in (("z2z2_group_algebra", "bicharacter_z2z2"),
                                   ("z2z2_translation", "group_bicharacter_z2z2")):
        bk, act = actions[act_name]
        bpath = w.put(bk, lambda: serialize.backend_to_json(backends[bk]))
        apath = w.put(f"action_{act_name}", lambda: serialize.action_to_json(act))
        jobs.append(Job(f"deform-cross/{act_name}", _verb(
            "deform", bpath, apath, cpaths[cocycle_name], extra=("--cross-test",))))
    return jobs


JOB_LISTS = {
    "block-ladder": block_ladder,
    "translation-ladder": translation_ladder,
}


def build_jobs(workload: str, seed: int, root: Path) -> list[Job]:
    """Write the workload's inputs under root and return its job list."""
    return JOB_LISTS[workload](_Writer(Path(root)), seed)
