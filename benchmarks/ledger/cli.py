"""Command line of the ledger."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchmarks.ledger import spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
    )
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS],
                        help="one workload instead of all six")
    parser.add_argument("--seed", type=int, default=0,
                        help="inputs: content seed 12345+S, perturbation base 1000+100S")
    parser.add_argument("--seconds", type=float, default=spec.REFERENCE_SECONDS,
                        help="with --trace: size of the repetition (the full ledger always "
                             f"runs at {spec.REFERENCE_SECONDS}, --quick at {spec.QUICK_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE repetition in this process and print its JSON line: "
                             "0 = end-to-end metrics, 1 = traced, per-layer metrics")
    parser.add_argument("--detail", type=Path, default=None,
                        help="with --trace: also write the repetition's full record here")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition at 1/10 size, digests and metric names checked")
    parser.add_argument("--self-check", action="store_true",
                        help="two full sets on this tree; fail unless they agree within bounds; "
                             "a pass records the noise floors in baseline.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="apply every metric's bound to two result files")
    parser.add_argument("--rebless", action="store_true",
                        help="regenerate expected.json (refuses with a dirty src/)")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        from benchmarks.ledger import rep

        return rep.run(args.workload, args.seed, args.seconds, bool(args.trace), args.detail)

    from benchmarks.ledger import ledger

    if args.compare:
        return ledger.compare_files(*args.compare)
    if args.rebless:
        return ledger.rebless()
    workloads = [args.workload] if args.workload else [w.name for w in spec.WORKLOADS]
    if args.quick:
        return ledger.quick(workloads, args.seed)
    if args.self_check:
        return ledger.self_check(workloads, args.seed)
    return ledger.full(workloads, args.seed)


if __name__ == "__main__":
    sys.exit(main())
