"""Record golden.json: the sha256 of every CLI job's stdout and the Wilf
classes, from the sources under src/ of this checkout.

    python3 perfbench/record_golden.py > perfbench/golden.json

Run it only at a commit whose output is known to be right; the benchmark
then fails any later commit whose stdout differs by a single byte.
"""

import hashlib
import json
import sys

from run import import_library
from workloads import WORKLOADS


def main() -> int:
    lib = import_library()
    digests, classes = {}, None
    for name in ("count-hand", "wilf-generic", "conjectures"):
        for item in WORKLOADS[name](lib, 0).run_pass():
            if item["rc"] != 0:
                raise SystemExit(f"{item['key']} exited {item['rc']}")
            digests[item["key"]] = hashlib.sha256(
                item["stdout"].encode()).hexdigest()
            if name == "wilf-generic":
                rows = [json.loads(line) for line in item["stdout"].splitlines()]
                classes = [r["patterns"].split() for r in rows[1:-1]
                           if r["class"] != ""]
    json.dump({"stdout_sha256": digests, "wilf_classes": classes},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
