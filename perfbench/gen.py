"""Input generator owned by the benchmark.

Writes TDFE feature files and a TAB-separated manifest with its own writer,
following the synthetic recipe the package documents: dimension 1 of every
video carries ``1 + 0.5*sin(2*pi*f_class*n + phase)`` plus Gaussian noise and
every other dimension is pure noise, so the only class signal is temporal.
It never calls the package, so later changes to the program cannot change
the inputs a seed produces.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TDFE_MAGIC = b"TDFE"
TDFE_VERSION = 1


@dataclass(frozen=True)
class DataRecipe:
    """Shape of one workload's dataset."""

    frequencies: tuple[float, ...]
    videos_per_class: int
    dims: int
    frames_min: int
    frames_max: int
    noise: float


def make_videos(recipe: DataRecipe, seed: int) -> list[tuple[str, int, np.ndarray]]:
    """(video_id, label, D x N float32 matrix) per video; deterministic per seed."""
    rng = np.random.default_rng(seed)
    # frame counts do not depend on the seed, so every seed gives the same
    # amount of work and the seed changes only phases and noise
    lengths = np.linspace(recipe.frames_min, recipe.frames_max, recipe.videos_per_class)
    videos = []
    for label, frequency in enumerate(recipe.frequencies):
        for j in range(recipe.videos_per_class):
            frames = int(round(lengths[(j * 7 + label) % recipe.videos_per_class]))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            values = rng.normal(0.0, recipe.noise, size=(recipe.dims, frames))
            values[0] += 1.0 + 0.5 * np.sin(2.0 * np.pi * frequency * np.arange(frames) + phase)
            videos.append((f"c{label}_{j:04d}", label, values.astype("<f4")))
    return videos


def write_tdfe(values: np.ndarray, path: Path) -> None:
    """TDFE layout: magic, uint32 version, D, N, then float32 values frame by frame."""
    dims, frames = values.shape
    with open(path, "wb") as fh:
        fh.write(TDFE_MAGIC + struct.pack("<III", TDFE_VERSION, dims, frames))
        fh.write(np.ascontiguousarray(values.T, dtype="<f4").tobytes())


def write_dataset(recipe: DataRecipe, seed: int, out_dir: Path) -> Path:
    """Write every video and ``manifest.tsv`` under ``out_dir``; returns the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for video_id, label, values in make_videos(recipe, seed):
        write_tdfe(values, out_dir / f"{video_id}.tdfe")
        lines.append(f"{video_id}\t{video_id}.tdfe\t{label}\n")
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest
