"""Record the SHA-256 digest of every op's output for a range of seeds.

    python3 perfbench/record_golden.py --seeds 0-63

The benchmark then requires byte-identical output for those seeds.  Run this
only on a commit whose outputs are known good: it refuses to record a seed
whose outputs fail an oracle check or differ between repeated ops.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from run import BLAS_PINS, HERE, ROOT

os.environ.update(dict.fromkeys(BLAS_PINS, "1"))  # before numpy loads
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from worker import Runner  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
    for name in workloads.NAMES:
        for seed in range(lo, hi + 1):
            with tempfile.TemporaryDirectory(dir=HERE) as workdir:
                runner = Runner(workloads.build(name, seed, "full", workdir), workdir)
                runner.run_pass()
                failed, problems = runner.verdicts(None)
            if failed:
                print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = {
                label: digest for label, *_, digest in runner.records}
            print(f"{name} seed {seed}: {len(golden[name][str(seed)])} digests", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f" {json.dumps(name)}: {{\n" + ",\n".join(
                f"  {json.dumps(seed)}: {json.dumps(digests, sort_keys=True)}"
                for seed, digests in sorted(by_seed.items(), key=lambda kv: int(kv[0])))
            + "\n }" for name, by_seed in sorted(golden.items())))
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
