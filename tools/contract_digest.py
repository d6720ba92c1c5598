"""Digests of focklab's behaviour contract, to compare two source trees.

Usage, from the repository root:

    python tools/contract_digest.py SRC_DIR

SRC_DIR is a ``src`` directory holding the ``focklab`` package to digest;
the directory above it supplies ``configs/`` and ``perfbench/``. It prints
one line per digest, "<sha256>  <label>":

* each of the nine shipped outputs of ``configs/``;
* ``repr(run_verification(seed))`` for seeds 42 and 2011;
* the combined digest of every CSV of one round of the benchmark's sweeps
  and phase_space workloads at seed 606, shipped outputs included;
* the bytes of the closed-form side of two consecutive rounds of the verify
  workload's pair ops at seed 606: each one-spec ``moment_series``,
  ``linear_entropy_closed_form``, ``phase_distribution_closed_form`` and
  ``q_function_closed_form`` value, cold and warm.

The CSVs are written and the pairs run by the benchmark's own ops
(``perfbench/workloads.py``'s ``build_ops``, CSVs digested by its
``Digests``). Run it on two trees and ``diff`` the outputs: the lines that
differ are the digests that moved.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
import tempfile

SEED = 606


def digest_lines(src: str) -> list[str]:
    """The contract's digests for the focklab package under ``src``."""
    root = os.path.dirname(src)
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import focklab

    if not os.path.realpath(focklab.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"contract_digest: imported focklab from {focklab.__file__}, not from {src}")
    import numpy as np
    from focklab.harness import QUANTITY_NAMES
    from focklab.verify import run_verification
    from workloads import VERIFY_SEEDS, Digests, build_ops, generate

    lines = []
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in ("sweeps", "phase_space"):
            digests = Digests()
            for op in build_ops(workload, generate(workload, SEED, QUANTITY_NAMES), root, out_dir, digests):
                for failure in op.check(op.call()):
                    print(f"contract_digest: {failure}", file=sys.stderr)
            shipped = sorted(name for name in digests.by_name if name.startswith("shipped-"))
            lines += [f"{digests.by_name[name]}  {name[len('shipped-'):]}.cfg" for name in shipped]
            lines.append(f"{digests.combined()}  {workload} round, seed {SEED}")
    for seed in VERIFY_SEEDS:
        report = repr(run_verification(seed)).encode()
        lines.append(f"{hashlib.sha256(report).hexdigest()}  verify report, seed {seed}")
    pairs = build_ops("verify", {"pairs": generate("verify", SEED)["pairs"], "verify_seeds": ()}, root, "", Digests())
    closed = hashlib.sha256()
    for _ in range(2):
        for op in pairs:
            result = op.call()
            for failure in op.check(result):
                print(f"contract_digest: {failure}", file=sys.stderr)
            closed.update(np.asarray(result[0]).tobytes())
    lines.append(f"{closed.hexdigest()}  verify pair closed forms, two rounds, seed {SEED}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not os.path.isfile(os.path.join(argv[1], "focklab", "__init__.py")):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    print("\n".join(digest_lines(os.path.abspath(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
