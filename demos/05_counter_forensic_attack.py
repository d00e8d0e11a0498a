"""The full counter-forensic attack, end to end.

Creates a spliced tile, runs the re-acquisition pipeline (phase-only speckle
injection -> system filtering -> histogram matching), and measures what the
attack does: quality metrics stay near-perfect while a texture-based
localization stand-in collapses toward chance.

Run:  python demos/05_counter_forensic_attack.py
"""

import numpy as np

from sarfx import (
    AttackConfig,
    EditOp,
    auc_roc,
    delta_enl,
    estimate_transfer_function,
    ms_ssim,
    raised_cosine_filter,
    random_splice,
    residual_variance,
    run_attack,
    simulate_pristine,
    smooth_reflectivity,
    ssim,
)

n = 256

# --- the world: a wide low-pass system and pristine acquisitions ------------
h_true = raised_cosine_filter(n, 0.8)

tile = simulate_pristine(smooth_reflectivity(n, 1), h_true, seed=11).amplitude()
sibling = simulate_pristine(smooth_reflectivity(n, 2), h_true, seed=12)  # attacker's complex image

# --- the manipulation --------------------------------------------------------
spliced, mask, provenance = random_splice(
    [tile], region=(64, 64), edit=EditOp("gaussian_blur"), seed=21
)
print("spliced a blurred 64x64 donor region at", provenance["target_origin"])

auc_before = auc_roc(residual_variance(spliced), mask, polarity="max")
print(f"stand-in detector AUC on the spliced tile: {auc_before:.3f}")

# --- the attack ---------------------------------------------------------------
h_est = estimate_transfer_function([sibling], "direct", sigma=10.1, kernel_size=61)
config = AttackConfig(
    seed=31,
    speckle_mode="phase_only",
    transfer_function=h_est,
    histogram_match=True,
)
attacked = run_attack(spliced, config)

auc_after = auc_roc(residual_variance(attacked), mask, polarity="max")
print(f"stand-in detector AUC after the attack:    {auc_after:.3f}")

# --- what did the attack cost? -------------------------------------------------
print("\nquality of the attacked tile against its input:")
print(f"  SSIM      {ssim(attacked, spliced):.4f}")
print(f"  MS-SSIM   {ms_ssim(attacked, spliced):.4f}")
print(f"  |dENL|    {delta_enl(attacked, spliced):.4f}%  (whole tile)")
same_multiset = np.array_equal(
    np.sort(attacked.values, axis=None), np.sort(spliced.values, axis=None)
)
print(f"  value multiset preserved exactly: {same_multiset}")

inside = mask.values.astype(bool)
mad_in = np.abs(attacked.values - spliced.values)[inside].mean()
mad_out = np.abs(attacked.values - spliced.values)[~inside].mean()
print(f"  content preserved: mean |change| inside splice {mad_in:.1f} "
      f"vs outside {mad_out:.1f}")
