"""The fixed cost every CLI call pays before checking: start the interpreter,
import gausym.cli, build the workload's field and its equal-measure grid.

Usage: python3 perfbench/setup_probe.py '<field spec JSON>' <dim> <grid>
where the spec is {"builtin": name, "params": {...}} or {"expr": text}.
"""

import json
import sys

import gausym.cli  # noqa: F401  (the import is part of the measured cost)
from gausym import builtin_field, equal_measure_grid, parse_field


def main(spec_text: str, dim: int, N: int):
    spec = json.loads(spec_text)
    if "expr" in spec:
        parse_field(spec["expr"], dim)
    else:
        builtin_field(spec["builtin"], spec["params"] or None, dim=dim)
    equal_measure_grid(dim, N)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
