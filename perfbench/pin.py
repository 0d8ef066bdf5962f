"""Pin the digests of every analysis's canonical output into digests.json.

    python3 perfbench/pin.py

Run this at the commit the benchmark is anchored to, never to make a later
commit pass. Each workload, at full and smoke size, is set up under two
different seeds; the canonical outputs of the two must agree (no result
may depend on names) before their digest is written. An analysis cut at
``PIN_LIMIT_S`` is pinned as null: only its other checks apply.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import workloads
from run import _on_alarm, call_limited

# Far above every workload's own limit, so that only problems the benchmark
# cuts anyway (the slow violations problems, 60 s to minutes each) are pinned
# as null; every other analysis gets its output pinned.
PIN_LIMIT_S = 60.0


def canonical_outputs(workload, seed: int, workdir) -> dict[str, str | None]:
    out: dict[str, str | None] = {}
    for analysis in workload.setup(seed, workdir, []):
        output, failure = call_limited(analysis.run, PIN_LIMIT_S)
        if failure == "cut":
            out[analysis.name] = None
            print(f"{analysis.name}: cut at {PIN_LIMIT_S:g} s", file=sys.stderr)
            continue
        if failure == "raised":
            raise SystemExit(f"{analysis.name}: raised")
        problem = analysis.validate(output)
        if problem is not None:
            raise SystemExit(f"{analysis.name}: {problem}")
        text = analysis.canonical(output)
        if text is not None:
            out[analysis.name] = text
    return out


def main() -> int:
    workloads.load_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    work_root = workloads.HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=work_root))
    digests: dict[str, str | None] = {}
    try:
        for name in workloads.WORKLOADS:
            for smoke in (True, False):
                workload = workloads.build(name, smoke)
                first = canonical_outputs(workload, 0, workdir)
                second = canonical_outputs(workload, 1, workdir)
                for key, text in first.items():
                    if text is not None and second.get(key) is not None and text != second[key]:
                        raise SystemExit(f"{key}: output depends on the names in the input")
                    digests[key] = None if text is None else workloads.digest(text)
                    print(f"{key}: {digests[key]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
