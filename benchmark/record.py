"""Record the reference outputs of one workload at one seed.

    python3 benchmark/record.py --workload suites-roots --seed 0

Writes ``benchmark/reference/<workload>-seed<seed>.json``, mapping a digest
of each case's identity to a digest of its output (`Case.to_dict()` for a
suite case, argv, exit code and stdout for a CLI query).  `run.py` compares
every later run against these files, so record only from a commit whose
reports are accepted as they stand.  Cases whose output differs from the
constructed expectation (the suites' known failing cases) are listed by
name in the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(run.SRC, run.PACKAGE)):
        print(f"no {run.PACKAGE} package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)

    pkg = run.load_package()
    digests = {}
    differs = []
    for case in run.make_cases(args.workload, args.seed, pkg):
        payload, errored = case.run(pkg)
        if errored:
            print(f"{case.label} errored; nothing recorded", file=sys.stderr)
            return 1
        digests[case.key()] = workloads.digest(payload)
        if payload != case.expected():
            differs.append(case.label)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "cases": len(digests),
        "differs_from_expected": differs,
        "digests": digests,
    }
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    path = run.reference_path(args.workload, args.seed)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{path}: {len(digests)} cases, {len(differs)} differ from the constructed expectation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
