"""Cell-by-cell diff of the golden CLI outputs between two source trees.

    python tools/golden_diff.py OLD_TREE NEW_TREE [argv7 ...]

Each tree is the root of a fluxring checkout (it holds src/fluxring).
The script runs ``python -m fluxring`` from each tree on every argv of
GOLDEN_OUTPUTS in tests/test_acceptance.py (read from this checkout,
without importing it), or on the named argv ids only.  For each argv it
prints the sha256 of both outputs and, where they differ, every moved
cell with its distance in units in the last place.

Cells: a JSON output is flattened to paths such as
``checks[gen_eig_residuals].deviation`` (a list item with a "name" is
labelled by it); a CSV output to ``row<i>.<column>``, after its "#"
comment lines.  A CSV cell is compared at its printed precision.  Runs
are single-threaded (OPENBLAS_NUM_THREADS=1), as in the benchmark.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"


def golden_outputs(path: Path = CORPUS) -> list[tuple[list[str], str]]:
    """The (argv, digest) pairs of GOLDEN_OUTPUTS, read as literals."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GOLDEN_OUTPUTS" for t in node.targets):
            return [(list(argv), digest) for argv, digest in ast.literal_eval(node.value)]
    raise SystemExit(f"no GOLDEN_OUTPUTS in {path}")


def run(tree: Path, argv: list[str]) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "fluxring", *argv], env=env,
                          capture_output=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(argv)} exited {done.returncode}: "
                         f"{done.stderr.decode(errors='replace')}")
    return done.stdout


def _flatten(value, path: str, cells: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else str(key), cells)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            label = item.get("name", index) if isinstance(item, dict) else index
            _flatten(item, f"{path}[{label}]", cells)
    else:
        cells[path] = value


def cells(text: str) -> dict:
    """Path -> cell value for a JSON or CSV output."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    if body.lstrip().startswith(("{", "[")):
        out: dict = {}
        _flatten(json.loads(body), "", out)
        return out
    lines = body.splitlines()
    header = lines[0].split(",")
    return {f"row{i}.{column}": cell
            for i, line in enumerate(lines[1:]) for column, cell in zip(header, line.split(","))}


def _as_float(cell) -> float | None:
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _ordered(x: float) -> int:
    """Integers in the order of the floats, one apart for adjacent floats."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(a: float, b: float) -> int | None:
    """Floats between a and b, counting one end; None if either is NaN."""
    if math.isnan(a) or math.isnan(b):
        return None
    return abs(_ordered(a) - _ordered(b))


def diff(old: dict, new: dict) -> list[str]:
    lines = []
    for path in old.keys() | new.keys():
        if path not in new:
            lines.append(f"  {path}: {old[path]!r} -> (gone)")
        elif path not in old:
            lines.append(f"  {path}: (new) -> {new[path]!r}")
        elif old[path] != new[path]:
            a, b = _as_float(old[path]), _as_float(new[path])
            distance = "" if a is None or b is None else f" ({ulps(a, b)} ulps)"
            lines.append(f"  {path}: {old[path]!r} -> {new[path]!r}{distance}")
    return sorted(lines)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    old_tree, new_tree = Path(argv[0]), Path(argv[1])
    wanted = set(argv[2:])
    for k, (args, pinned) in enumerate(golden_outputs()):
        name = f"argv{k}"
        if wanted and name not in wanted:
            continue
        old, new = run(old_tree, args), run(new_tree, args)
        old_digest, new_digest = (hashlib.sha256(out).hexdigest() for out in (old, new))
        if old == new:
            print(f"{name}: unchanged {new_digest}")
            continue
        moved = diff(cells(old.decode()), cells(new.decode()))
        print(f"{name}: {' '.join(args)}")
        print(f"  old {old_digest}\n  new {new_digest}"
              f"{'' if new_digest == pinned else '  (pinned: ' + pinned + ')'}")
        print(f"  {len(moved)} cell(s) moved")
        print("\n".join(moved))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
