"""Does an incremental ``align_chain`` equal from-scratch alignment?

Run from the repository root::

    python3 perfbench/chain_parity.py [--seed 741815411] [--methods hybrid,overlap]

Builds the ``chain_session`` history for the seed and compares, for
every sliding window and method, ``Aligner(method, incremental=True)
.align_chain`` with a from-scratch ``Aligner(method).align`` of each
pair (``pairs``, ``unaligned_*`` and ``stats`` of the reports).  Prints
each mismatch and exits 1 if there is one, 0 otherwise.

On seed 741815411 the ``hybrid`` and ``overlap`` chains miss pairs of
version 2 -> 3 that the from-scratch alignments find, while ``deblank``
agrees: the composed deblanking base is the same partition as the
scratch one, but its colors are fresh ``("deblank-class", c)`` keys, so
the hybrid re-refinement no longer meets the colors that the scratch
deblanking run interned.  That is why ``chain_session`` runs
``deblank``; once this script passes for ``hybrid`` and ``overlap`` on
many seeds, the workload can go back to ``overlap``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro import align  # noqa: E402
from workloads import ChainSession, report_digest  # noqa: E402


def mismatches(seed: int, method: str) -> list[tuple[int, int]]:
    """``(window start, pair index)`` of every chain pair that differs."""
    workload = ChainSession(seed)
    workload.setup()
    graphs = workload.graphs
    scratch = [
        report_digest(
            align.Aligner(align.AlignConfig(method=method, jobs=1))
            .report(left, right).to_dict()
        )
        for left, right in zip(graphs, graphs[1:])
    ]
    found = []
    for start in workload.cycle():
        session = align.Aligner(
            align.AlignConfig(method=method, incremental=True, jobs=1)
        )
        results = session.align_chain(graphs[start:start + workload.WINDOW])
        for offset, result in enumerate(results):
            if report_digest(result.report(session.config).to_dict()) != scratch[start + offset]:
                found.append((start, start + offset))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=741815411)
    parser.add_argument("--methods", default="hybrid,overlap")
    args = parser.parse_args()
    failed = False
    for method in args.methods.split(","):
        found = mismatches(args.seed, method)
        failed |= bool(found)
        status = "mismatch (window start, pair): " + repr(found) if found else "equal"
        print(f"seed {args.seed} {method}: {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
