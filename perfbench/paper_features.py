"""Make the fusion_paper inputs: the program's own backbone features at the paper's shape.

    python3 perfbench/paper_features.py --seed 1 --out features.npz

Synthesizes one pair per class of the 4x4 grid (16 pairs, the paper's batch)
with fp images of 200x400 and fv images of 160x560, initializes both branch
backbones at width 1.0 as the fused model does, and runs them in train mode
without gradients. fp gives 512x4x7 maps and fv 512x3x9, so `standardize` crops.
The arrays are saved as `a` (fp) and `b` (fv). The workload runs this in a
child process before anything is timed, so its memory (about 0.5 GiB) shows
in neither `setup_s` nor `peak_rss_mb`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from csafm.backbone import BackboneState, backbone_features  # noqa: E402
from csafm.data import SynthSpec, synth_generate  # noqa: E402
from csafm.tensor import Rng, derive_seed, no_grad  # noqa: E402
from csafm.train import batch_tensors  # noqa: E402

GRID = (4, 4)
FP_SIZE, FV_SIZE = (200, 400), (160, 560)


def features(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = Rng(derive_seed(seed, "paper_features"))
    spec = SynthSpec(grid=GRID, fp_size=FP_SIZE, fv_size=FV_SIZE, samples_per_class=1)
    pairs = synth_generate(spec, rng.spawn("images"))
    fp, fv, _ = batch_tensors(pairs, range(len(pairs)))
    with no_grad():
        a = backbone_features(fp, BackboneState.init(rng.spawn("fp"), 1.0), "train").data
        b = backbone_features(fv, BackboneState.init(rng.spawn("fv"), 1.0), "train").data
    return a, b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    a, b = features(args.seed)
    np.savez(args.out, a=a, b=b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
