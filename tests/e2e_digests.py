"""The end-to-end benchmark's digests, pinned.

Every workload of ``benchmarks/e2e/run.py`` prints a sha256 of its
virtual results: equal seed and equal digest mean behaviour did not
move.  ``e2e_digests.json`` records the digest of each workload at
seeds 0 and 1 and the commit they were recorded at.  This command runs
every workload at both seeds for a token run length (the digest does
not depend on it; about a minute in all) and fails unless each digest
equals its recorded value::

    python -m tests.e2e_digests            # check
    python -m tests.e2e_digests --write    # a deliberate regeneration

``--write`` rewrites the digests it measured; set ``rev`` to the commit
that lands them, as a corpus block's ``rev`` is set, and review the
diff like a corpus regeneration.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).parent
PINS = TESTS / "e2e_digests.json"
RUN = TESTS.parent / "benchmarks" / "e2e" / "run.py"
SEEDS = (0, 1)
SECONDS = "0.01"


def measure(workload: str, seed: int) -> str:
    """The digest ``run.py`` reports for one workload at one seed."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        subprocess.run(
            [
                sys.executable, str(RUN), "--workload", workload,
                "--seed", str(seed), "--seconds", SECONDS, "--json", str(out),
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        return json.loads(out.read_text())["digest"]


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print("usage: python -m tests.e2e_digests [--write]")
        return 2
    pins = json.loads(PINS.read_text())
    measured = {
        workload: {str(seed): measure(workload, seed) for seed in SEEDS}
        for workload in pins["digests"]
    }
    if write:
        pins["digests"] = measured
        PINS.write_text(json.dumps(pins, indent=2) + "\n")
        print(f"wrote {PINS.name}; set its rev to the commit that lands it")
        return 0
    moved = 0
    for workload, by_seed in measured.items():
        for seed, digest in by_seed.items():
            pinned = pins["digests"][workload][seed]
            ok = digest == pinned
            moved += not ok
            print(
                f"{workload} seed {seed}: {digest[:8]}… "
                + ("ok" if ok else f"MOVED (recorded {pinned[:8]}… at {pins['rev']})")
            )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
