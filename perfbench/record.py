"""Record the expected outputs of every seed slot into ``expected.json``.

    python3 perfbench/record.py

Run from the repository root, on a commit whose outputs are known good.
For each of the ``inputs.SEED_SLOTS`` input seeds it stores the input
fingerprint and, for the pipelines, the score of one pipeline run.  The
benchmark fails a run whose fingerprint or score differs from these, so
re-record only when a change of workload or of results is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from run import PIPELINES, WORKLOADS  # noqa: E402


def record_pipeline(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "pipeline", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
    )
    line = next(line for line in done.stdout.splitlines() if line.startswith("RESULT "))
    result = json.loads(line[len("RESULT "):])
    if not result["census_ok"]:
        raise SystemExit(f"{workload} seed {seed}: census differs from the reference engine")
    return {"fingerprint": result["fingerprint"], "score": result["scores"][0]}


def main() -> int:
    path = HERE / "expected.json"
    expected = {}
    for workload in WORKLOADS:
        slots = expected.setdefault(workload, {})
        for seed in range(inputs.SEED_SLOTS):
            if workload in PIPELINES:
                slots[str(seed)] = record_pipeline(workload, seed)
            else:
                graph = inputs.serve_graph(workload)
                slots[str(seed)] = {"fingerprint": inputs.fingerprint(graph)}
            print(workload, seed, slots[str(seed)], flush=True)
            path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
