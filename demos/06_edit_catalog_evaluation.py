"""Per-edit evaluation: how much detectability survives the attack.

For every editing operation in the catalog, splice a batch of synthetic
tiles, score a texture-based localization stand-in before and after the
counter-forensic attack, and tabulate the medians. The absolute numbers are
toy-detector numbers; the point is the direction and size of the drop,
edit by edit.

Run:  python demos/06_edit_catalog_evaluation.py   (~15 s)
"""

import numpy as np

from sarfx import (
    AttackConfig,
    EditOp,
    auc_roc,
    delta_enl,
    derive_seed,
    estimate_transfer_function,
    raised_cosine_filter,
    random_splice,
    residual_variance,
    run_attack,
    simulate_pristine,
    smooth_reflectivity,
    ssim,
)
from sarfx.experiment import edit_label

N = 256
TILES_PER_EDIT = 8

EDITS = [
    EditOp("gaussian_blur"),
    EditOp("upscale", range_class="near"),
    EditOp("upscale", range_class="far"),
    EditOp("downscale", range_class="near"),
    EditOp("downscale", range_class="far"),
    EditOp("rotate", range_class="near"),
    EditOp("rotate", range_class="far"),
]

# the acquisition system and the attacker's single complex sibling image
h_true = raised_cosine_filter(N, 0.8)
sibling = simulate_pristine(smooth_reflectivity(N, 990), h_true, seed=9990)
h_est = estimate_transfer_function([sibling], "direct", sigma=10.1, kernel_size=61)

print(f"{'edit':16s} {'AUC before':>11s} {'AUC after':>10s} {'drop':>7s} "
      f"{'SSIM':>7s} {'|dENL|%':>8s}")
for edit in EDITS:
    label = edit_label(edit)
    before, after, quality, denl = [], [], [], []
    for k in range(TILES_PER_EDIT):
        tile = simulate_pristine(smooth_reflectivity(N, 100 + k), h_true, seed=2000 + k).amplitude()
        spliced, mask, _ = random_splice(
            [tile], region=(64, 64), edit=edit, seed=derive_seed(41, label, str(k))
        )
        before.append(auc_roc(residual_variance(spliced), mask, polarity="max"))
        attacked = run_attack(spliced, AttackConfig(seed=3000 + k, transfer_function=h_est))
        after.append(auc_roc(residual_variance(attacked), mask, polarity="max"))
        quality.append(ssim(attacked, spliced))
        denl.append(delta_enl(attacked, spliced))
    b, a = np.median(before), np.median(after)
    print(f"{label:16s} {b:11.3f} {a:10.3f} {100 * (a - b) / b:6.1f}% "
          f"{np.median(quality):7.4f} {np.median(denl):8.4f}")

print("\nnegative drop = the stand-in detector loses localization power after")
print("the attack while the attacked tile stays near-identical to its input.")
