"""Output checks: produced rows against the scalar oracle, and digests.

Expected parameters and seeds are derived here from the generated
``SweepSpec`` (sorted axes, row-major; child ``i`` of the master
``SeedSequence``), not read back from the engine, so a decode or
seed-derivation fault shows as a mismatch.  Values are compared with
``Pipeline.run`` — the engine's scalar oracle — to ``TOLERANCE``, or bit
for bit where the sweep is seeded and stochastic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

TOLERANCE = 1e-12


def scenario_params(spec, index: int) -> Dict[str, Any]:
    """Parameters of scenario ``index`` of ``spec`` (row-major over the
    sorted axes, base parameters underneath)."""
    params = dict(spec.base)
    remainder = index
    for name in reversed(sorted(spec.grid)):
        values = spec.grid[name]
        params[name] = values[remainder % len(values)]
        remainder //= len(values)
    return params


def scenario_seed(spec, index: int) -> Optional[int]:
    """Seed of scenario ``index``: child ``index`` of the master seed."""
    if spec.seed is None:
        return None
    child = np.random.SeedSequence(spec.seed, spawn_key=(index,))
    return int(child.generate_state(1)[0])


def n_scenarios(spec) -> int:
    count = 1
    for values in spec.grid.values():
        count *= len(values)
    return count


def _same(want: Any, got: Any, exact: bool) -> bool:
    if got == want:
        return True
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) and math.isnan(got):
            return True
        return not exact and abs(got - want) <= TOLERANCE
    return False


def compare_values(expected: Mapping[str, Any], actual: Mapping[str, Any],
                   exact: bool = False) -> List[str]:
    """Differences between an oracle row and a produced row."""
    problems = [
        f"{column}: {actual.get(column)!r} != oracle {want!r}"
        for column, want in expected.items()
        if column not in actual or not _same(want, actual[column], exact)
    ]
    extra = sorted(set(actual) - set(expected))
    if extra:
        problems.append(f"unexpected columns {extra}")
    return problems


def check_row(pipeline, spec, index: int, params: Mapping[str, Any],
              seed: Optional[int], values: Mapping[str, Any],
              exact: bool = False) -> List[str]:
    """One produced row against the generated spec and the oracle."""
    want_params = scenario_params(spec, index)
    want_seed = scenario_seed(spec, index)
    problems = []
    if dict(params) != want_params:
        problems.append(f"params {dict(params)} != {want_params}")
    if seed != want_seed:
        problems.append(f"seed {seed} != {want_seed}")
    if not problems:
        expected = pipeline.run(dict(want_params), want_seed)
        problems = compare_values(expected, values, exact)
    return [f"row {index}: {problem}" for problem in problems]


def check_jsonl(path: str, pipeline, spec, indices: Sequence[int]) -> List[str]:
    """Row count plus sampled rows of a streamed JSONL file.

    The file is read a line at a time and only sampled rows are parsed,
    so the check's memory stays far below the program's.
    """
    sampled = set(indices)
    problems: List[str] = []
    rows = 0
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            rows += 1
            if index not in sampled:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                problems.append(f"row {index}: not JSON")
                continue
            params = {name: row.pop(name, None)
                      for name in scenario_params(spec, index)}
            seed = row.pop("seed", None)
            problems += check_row(pipeline, spec, index, params, seed, row)
    expected_rows = n_scenarios(spec)
    if rows != expected_rows:
        problems.insert(0, f"{rows} rows, expected {expected_rows}")
    return problems


def check_result_set(results, pipeline, spec, indices: Sequence[int],
                     exact: bool) -> List[str]:
    """Row count plus sampled rows of an in-memory ``ResultSet``."""
    expected_rows = n_scenarios(spec)
    problems = []
    if len(results) != expected_rows:
        problems.append(f"{len(results)} rows, expected {expected_rows}")
    for index in indices:
        if index >= len(results):
            continue
        result = results[index]
        problems += check_row(pipeline, spec, index, result.spec.params,
                              result.spec.seed, result.values, exact)
    return problems


def check_cells(pipeline, spec, cells: Sequence[Dict[str, Any]],
                values: Sequence[Dict[str, Any]]) -> List[str]:
    """Store cells (full parameter points) against the oracle."""
    problems = []
    for point, got in zip(cells, values):
        params = {**spec.base, **point}
        problems += [f"cell {point}: {problem}" for problem in
                     compare_values(pipeline.run(params, None), got)]
    return problems


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def store_digest(path: str) -> str:
    """Content digest of a store directory: relative paths plus bytes."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            digest.update(os.path.relpath(full, path).encode("utf-8"))
            digest.update(file_digest(full).encode("ascii"))
    return digest.hexdigest()


def rows_digest(results) -> str:
    """Digest of a ``ResultSet``'s records in order."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps(
            [result.spec.params, result.spec.seed, dict(result.values)],
            sort_keys=True, default=str,
        ).encode("utf-8"))
    return digest.hexdigest()
