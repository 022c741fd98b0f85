"""Lane check at the DeiT-tiny shape: the engine's outputs with its second
lane on and forced off, in one process, compared bit for bit.

    python tests/lane_check.py

At DeiT-tiny (224 px, 197 tokens, D=192, depth 12) and batch 2 it
collects recorded and ``no_grad`` logits, every parameter gradient of
the base and of a learnable compressed model, a traced scoring batch and
the parameters and moments after two AdamW steps of a distillation loss
(``helpers.lane_outputs``), once on two lanes and once on one.  It
prints each array that differs, how many of them differ and how many
tasks the lane ran, and exits 1 on any difference.  The lane runs only
where the process may use two CPUs.  As ``tests/identity.py`` does, it
pins OpenBLAS to one thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prunemerge.vit import ModelConfig

from helpers import on_and_off

DEIT_TINY = ModelConfig(image_size=224, patch_size=16, channels=3,
                        embed_dim=192, depth=12, heads=3, mlp_ratio=4,
                        num_classes=1000)


def main() -> int:
    on, tasks, off = on_and_off(DEIT_TINY, 2)
    different = sorted(name for name in on
                       if on[name].tobytes() != off[name].tobytes())
    for name in different:
        print(f"{name} differs")
    print(f"{len(on)} arrays compared; {len(different)} differ; "
          f"{tasks} tasks ran on the second lane")
    return 1 if different or sorted(on) != sorted(off) else 0


if __name__ == "__main__":
    sys.exit(main())
