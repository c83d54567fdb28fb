"""The benchmark's workloads: dataset recipe, pipeline config and checks per workload.

Optimizer caps are set low enough to bind on almost every seed (K-means, EM
and SVM stop at their caps), which keeps the work of one run nearly the same
from seed to seed; the seed changes only phases and noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import DataRecipe

FOUR_FREQUENCIES = (0.06, 0.16, 0.27, 0.38)
EIGHT_FREQUENCIES = tuple(round(0.04 + 0.055 * c, 3) for c in range(8))
# Every config writes each key the correctness oracles read, so that they
# assume no program default. These three hold for every workload.
LAYOUT = "time_branch_enabled=true\ndft_branch_enabled=true\ndft_pool_axis=dimension\n"


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: DataRecipe
    config_text: str
    staged: bool


WORKLOADS = {
    w.name: w
    for w in (
        # emotion_defaults shape at a small scale; the only workload where
        # PCA runs. Norms 0.3/1.0 instead of the profile's 0.6/0.4 because
        # the time branch carries no class signal on this data.
        Workload(
            name="emotion-avg",
            recipe=DataRecipe(EIGHT_FREQUENCIES, 12, 256, 200, 400, 0.1),
            config_text=LAYOUT + (
                "pca_dims=16\nspectrum_length=500\ntime_encoder=average\n"
                "dft_encoder=average\nfusion_time_norm=0.3\nfusion_dft_norm=1.0\n"
                "svm_c=100\nsvm_max_epochs=200\nseed=1\n"
            ),
            staged=False,
        ),
        # action_defaults shape without PCA: VLAD time branch and FV spectrum
        # branch, so K-means, EM, FV and VLAD all run.
        Workload(
            name="action-fv-vlad",
            recipe=DataRecipe(FOUR_FREQUENCIES, 25, 16, 100, 300, 0.05),
            config_text=LAYOUT + (
                "spectrum_length=200\ntime_encoder=vlad\ntime_codebook_size=16\n"
                "dft_encoder=fv\ndft_codebook_size=16\nsigned_sqrt_l2=true\n"
                "fusion_time_norm=0.3\nfusion_dft_norm=1.0\nsvm_c=100\n"
                "svm_max_epochs=25\nkmeans_max_iters=60\ngmm_max_iters=60\nseed=1\n"
            ),
            staged=False,
        ),
        # the staged CLI: every artifact is written and read back. LLC with a
        # 256-word codebook makes K-means distance-bound and runs the
        # per-descriptor LLC solve. A 0.8 training share keeps K-means, not
        # the LLC encoder, the largest layer.
        Workload(
            name="staged-llc",
            recipe=DataRecipe(FOUR_FREQUENCIES, 20, 16, 100, 300, 0.2),
            config_text=LAYOUT + (
                "spectrum_length=200\ntime_encoder=llc\ntime_codebook_size=256\n"
                "llc_neighbors=5\nllc_lambda=0.0001\ndft_encoder=average\n"
                "fusion_time_norm=0.3\nfusion_dft_norm=1.0\n"
                "train_fraction=0.8\nsvm_c=100\nsvm_max_epochs=200\nkmeans_max_iters=40\nseed=1\n"
            ),
            staged=True,
        ),
    )
}
