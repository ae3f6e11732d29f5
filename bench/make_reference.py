"""Record the reference digests of the hunt workloads.

    python3 bench/make_reference.py

Each hunt runs once with ``--jobs 1``, as the benchmark runs it, and once
with ``--jobs 2``; the two outputs must be byte-identical (the output does not
depend on ``jobs``), and the digest of the ``--jobs 1`` output is written to
``bench/reference.json``.  It takes a few seconds.  Run this only when the
hunt's output is meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import REFERENCE, WORKLOADS, Hunt, digest, import_package  # noqa: E402


def main() -> int:
    cli = import_package()["rainbowmatch.cli"]
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        output = Path(tmp) / "hunt.jsonl"
        for workloads in WORKLOADS.values():
            for name, workload in workloads.items():
                if not isinstance(workload, Hunt):
                    continue
                outputs = []
                for jobs in (1, 2):
                    code = cli.run(workload.argv(jobs, output))
                    if code != 0:
                        print(f"{workload.key} --jobs {jobs} exited with {code}", file=sys.stderr)
                        return 1
                    outputs.append(output.read_bytes())
                if any(data != outputs[0] for data in outputs):
                    print(f"{workload.key}: output depends on --jobs", file=sys.stderr)
                    return 1
                reference[workload.key] = digest(outputs[0])
                print(f"{name}: {reference[workload.key]['summary']}")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
