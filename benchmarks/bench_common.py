"""Shared helpers for the benchmark suite."""

import os
from pathlib import Path

__all__ = ["bench_scale", "emit"]


def bench_scale() -> float:
    """Dataset scale for benches (override with REPRO_BENCH_SCALE)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a paper-vs-measured block and persist it under results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (results_dir / f"{name}.txt").write_text(banner, encoding="utf-8")
