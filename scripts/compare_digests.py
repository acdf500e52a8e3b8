#!/usr/bin/env python3
"""Whether a change writes what its base writes: compare two JSONs of
scripts/output_digests.py.

    python scripts/compare_digests.py base.json change.json

Every run of the base must be in the change with the same exit code, stdout
and files. A run only in the change, such as a workload added since the
base, is allowed. Each run that differs or is missing is named on stderr,
with what differs, and the exit code is then 1; else it is 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def differences(base: dict, change: dict) -> list[str]:
    """One line per run of base that change lacks or digests otherwise."""
    lines = []
    for run, was in sorted(base.items()):
        now = change.get(run)
        if now is None:
            lines.append(f"{run}: missing in the change")
            continue
        parts = [part for part in ("returncode", "stdout") if now[part] != was[part]]
        parts += [f"file {name}" for name in sorted(was["files"].keys() | now["files"].keys())
                  if was["files"].get(name) != now["files"].get(name)]
        if parts:
            lines.append(f"{run}: differs in {', '.join(parts)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    lines = differences(base, change)
    for line in lines:
        print(line, file=sys.stderr)
    added = sorted(change.keys() - base.keys())
    print(f"{len(base) - len(lines)} of {len(base)} runs alike; "
          f"{len(added)} only in the change{': ' if added else ''}{', '.join(added)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
