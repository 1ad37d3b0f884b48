"""Which recorded zeros of tests/golden/residuals.json are gauge-level.

    PYTHONPATH=src python tests/gauge_census.py [--seeds N] [--run KEY ...] [--paths]

Replays `record_golden.record()` under each gauge of `tests/test_gauge.py`:
the sign flip and the seeded unitaries of seeds 1..N (default 6).  A
recorded 0.0 that a gauge moves, to another value or out of the report,
records the basis this LAPACK returns rather than a structural zero.

For every golden run (or each run named by --run, a key of the golden
file) it prints the number of recorded zeros, how many of them each gauge
moves and how many any gauge moves (their union), then the totals and the
zeros that no gauge moves.  --paths lists each moved zero after its run,
with the gauges that move it.  Each replay of the whole record takes about
a second.
"""

from __future__ import annotations

import argparse
import collections
import sys

import pytest

import record_golden
import test_gauge


def gauges(seeds: int) -> dict:
    return {"sign-flip": test_gauge.sign_flip,
            **{f"seed-{s}": test_gauge.seeded_unitary(s) for s in range(1, seeds + 1)}}


def census(seeds: int = 6, keys=None) -> dict[str, dict[str, list[str]]]:
    """Per golden run (all, or those in keys): per gauge, the paths of the
    recorded zeros the gauge moves."""
    golden = record_golden._golden()
    keys = sorted(golden if keys is None else keys)
    skip = frozenset(golden) - set(keys)
    moved: dict[str, dict[str, list[str]]] = {key: {} for key in keys}
    for name, gauge in gauges(seeds).items():
        with pytest.MonkeyPatch.context() as mp:
            test_gauge.patch_seams(mp, gauge, collections.Counter())
            summaries = record_golden.record(skip)
        for key in keys:
            floats = summaries[key]["floats"]
            moved[key][name] = [path for path, old in golden[key]["floats"].items()
                                if old == 0.0 and floats.get(path) != 0.0]
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument("--run", action="append", dest="runs", metavar="KEY")
    parser.add_argument("--paths", action="store_true")
    args = parser.parse_args(argv)
    golden = record_golden._golden()
    unknown = sorted(set(args.runs or ()) - set(golden))
    if unknown:
        parser.error(f"no golden run {unknown[0]!r}")
    moved = census(args.seeds, args.runs)
    names = list(gauges(args.seeds))
    print("zeros", *names, "union", "run", sep="\t")
    totals = [0] * (len(names) + 2)
    touched = 0
    for key, by_gauge in moved.items():
        zeros = sum(v == 0.0 for v in golden[key]["floats"].values())
        union = sorted(set().union(*by_gauge.values()))
        row = [zeros, *(len(by_gauge[n]) for n in names), len(union)]
        totals = [t + r for t, r in zip(totals, row)]
        touched += bool(union)
        print(*row, key, sep="\t")
        if args.paths:
            for path in union:
                print("", path, ", ".join(n for n in names if path in by_gauge[n]), sep="\t")
    print(*totals, f"total of {len(moved)} runs", sep="\t")
    print(f"{totals[-1]} recorded zeros move under some gauge, in {touched} of "
          f"{len(moved)} runs; {totals[0] - totals[-1]} move under none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
