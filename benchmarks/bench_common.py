"""Shared helpers for the benchmark suite."""

import os
from pathlib import Path

from repro import storage
from repro.tables.io import write_csv

__all__ = ["bench_scale", "emit", "write_tables"]


def bench_scale() -> float:
    """Dataset scale for benches (override with REPRO_BENCH_SCALE)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a paper-vs-measured block and commit it under results/.

    The text goes through the storage layer as the CSVs beside it do: an
    atomic rename and a checksum sidecar, so a killed run never leaves a
    torn file.
    """
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    storage.commit_text(
        str(results_dir / f"{name}.txt"), banner,
        label=f"txt.{name}.txt", sidecar=True, durable=False,
    )


def write_tables(results_dir: Path, run, *stems: str) -> None:
    """Write the report's tables under results/ as ``<stem>.csv``."""
    for stem in stems:
        write_csv(run.tables[stem], str(results_dir / f"{stem}.csv"))
