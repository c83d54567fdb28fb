"""The paper's central claim: fusing the time and DFT branches beats each branch
alone when each branch carries a cue the other cannot see.

The generator below puts one cue in each view. Dimension 1 oscillates at one of
two frequencies, which only the spectrum branch resolves, since every video's
mean over time is the same. Dimension 2 carries a static ±0.08 shift, which
only the time branch resolves, since a magnitude spectrum loses the sign of a
constant. The two cues split the four classes along different lines, so each
branch alone can tell at most two groups of two classes apart, and the fused
vector can tell all four apart.
"""

from dataclasses import replace

import numpy as np
import pytest

from tdfenc import (
    DatasetManifest,
    FeatureSequence,
    ManifestEntry,
    PipelineConfig,
    run_repeated_experiment,
    write_feature_sequence,
)

CLASSES, VIDEOS_PER_CLASS, DIMS, FRAMES, NOISE = 4, 24, 16, (100, 300), 0.3
# the frequency splits classes {0, 2} from {1, 3}; the shift {0, 1} from {2, 3}
FREQUENCIES = (0.06, 0.27, 0.06, 0.27)
SHIFTS = (-0.08, -0.08, 0.08, 0.08)


def complementary_cue_dataset(seed: int, out_dir) -> DatasetManifest:
    """Write the four-class dataset of one data seed as TDFE files; return its manifest."""
    rng = np.random.default_rng(seed)
    entries = []
    for c in range(CLASSES):
        for j in range(VIDEOS_PER_CLASS):
            frames = int(rng.integers(FRAMES[0], FRAMES[1] + 1))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            values = rng.normal(0.0, NOISE, size=(DIMS, frames))
            values[0] += 1.0 + 0.5 * np.sin(2.0 * np.pi * FREQUENCIES[c] * np.arange(frames) + phase)
            values[1] += SHIFTS[c]
            video_id = f"class{c}_{j:04d}"
            path = out_dir / f"{video_id}.tdfe"
            write_feature_sequence(FeatureSequence(video_id, values), path)
            entries.append(ManifestEntry(video_id, path, c))
    return DatasetManifest(tuple(entries), CLASSES)


@pytest.mark.parametrize(
    "data_seed,time_norm,dft_norm", [(1, 1.0, 1.0), (2, 0.3, 1.0), (3, 0.6, 0.4)]
)
def test_fusion_beats_each_branch_when_each_carries_a_cue(tmp_path, data_seed, time_norm, dft_norm):
    manifest = complementary_cue_dataset(data_seed, tmp_path)
    config = PipelineConfig(spectrum_length=200, svm_c=100.0, fusion_time_norm=time_norm,
                            fusion_dft_norm=dft_norm, seed=1)
    accuracy = {
        name: run_repeated_experiment(cfg, manifest, repetitions=3).mean_overall_accuracy
        for name, cfg in (
            ("fused", config),
            ("time", replace(config, dft_branch_enabled=False)),
            ("dft", replace(config, time_branch_enabled=False)),
        )
    }
    # each branch alone is above chance, so neither does all of the work
    assert accuracy["time"] > 0.25 and accuracy["dft"] > 0.25, accuracy
    assert accuracy["fused"] >= max(accuracy["time"], accuracy["dft"]) + 0.10, accuracy
