"""Rewrite ``golden.json``: transcript hashes of the seed-driven workloads.

For each seed, records the SHA-256 of ``stats.json`` and of both key files
that ``session_small``, ``session_large`` and ``cli_outputs`` produce at
their benchmark sizes.  Run it only on purpose, when a change is meant to
alter transcripts, and say so in the change::

    python3 perfbench/make_golden.py            # seeds 0 to 31
    python3 perfbench/make_golden.py 1 2 3      # only these seeds
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(range(32))
    run.pin_threads()
    run.import_package()
    import workloads

    golden = {}
    if os.path.exists(workloads.GOLDEN_PATH):
        with open(workloads.GOLDEN_PATH, encoding="ascii") as fh:
            golden = json.load(fh)
    os.makedirs(run.WORKDIR, exist_ok=True)
    for seed in seeds:
        for make in (workloads.session_small, workloads.session_large):
            wl = make(seed)
            digest = workloads.session_transcript(wl.op())
            golden.setdefault(wl.name, {})[str(seed)] = digest
        wl = workloads.CliWorkload(seed, run.WORKDIR)
        out = tempfile.mkdtemp(prefix="golden-", dir=run.WORKDIR)
        try:
            if workloads.cli.main(wl.commands(out)[0]) != 0:
                raise SystemExit(f"simulate failed for seed {seed}")
            files = {"stats.json": "stats.json", "alice_key": "alice_key.txt",
                     "bob_key": "bob_key.txt"}
            digest = {}
            for key, name in files.items():
                with open(os.path.join(out, "sim", name), "rb") as fh:
                    digest[key] = workloads.sha256(fh.read())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        golden.setdefault(wl.name, {})[str(seed)] = digest
        print(f"seed {seed} done", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
