"""Run the wavelogit command line, as ``python -m wavelogit`` does, and count grid failures.

    python3 bench/grid_probe.py <counts.json> cv --data train.csv ...

The untraced run starts ``cv`` through this script instead of
``python -m wavelogit``. It calls the same ``wavelogit.cli.main`` with the same
arguments; the only addition is a wrapper around the selection function
``cli`` calls, which writes the grid size and the number of grid points that
failed (their ``SelectionResult.messages`` entry is set) to ``counts.json``.
"""

import json
import sys

import wavelogit.cli as cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    counts = {"grid_points": 0, "grid_failed": 0}
    for name in ("cross_validate", "select_by_aicc"):
        def counted(*args, _select=getattr(cli, name), **kwargs):
            result = _select(*args, **kwargs)
            counts["grid_points"] += len(result.configs)
            counts["grid_failed"] += sum(m is not None for m in result.messages)
            return result

        setattr(cli, name, counted)
    code = cli.main(argv)
    with open(out_path, "w") as fh:
        json.dump(counts, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
