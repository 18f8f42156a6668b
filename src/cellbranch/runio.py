"""Artifact writers: CSV series, JSON summaries, and the run manifest.

Column orders are fixed so reruns with the same config and seed produce
byte-identical CSV bodies.  The manifest records what produced the artifacts
(config hash, seed, package and interpreter versions, wall time).
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np


def config_hash(raw_config: dict[str, Any]) -> str:
    canonical = json.dumps(raw_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence] | np.ndarray) -> None:
    """Write ``header`` and ``rows`` as an excel-dialect CSV (CRLF line ends).

    The header and rows given as sequences go through ``csv.writer``.  A 2-D
    numeric array is written in blocks of 4,096 rows, each block as one
    ``%``-format of ``"%s,...,%s\\r\\n"`` repeated once per row over the
    block's values as Python scalars (one ``tolist()`` of every row would
    peak memory).  ``%s`` writes an int with ``str`` and a float with
    ``repr``, as ``csv.writer`` does, so both paths write the same bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%s"] * rows.shape[1]) + writer.dialect.lineterminator
            for start in range(0, len(rows), 4096):
                block = rows[start:start + 4096]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
        else:
            writer.writerows(rows)


def write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_manifest(
    out_dir: Path,
    raw_config: dict[str, Any],
    seed: int,
    outputs: list[str],
    started: float,
) -> Path:
    try:
        version = metadata.version("cellbranch")
    except metadata.PackageNotFoundError:
        version = "unknown"
    payload = {
        "config_sha256": config_hash(raw_config),
        "seed": seed,
        "outputs": sorted(outputs),
        "package_version": version,
        "python_version": platform.python_version(),
        "wall_time_seconds": round(time.time() - started, 3),
    }
    path = out_dir / "manifest.json"
    write_json(path, payload)
    return path
