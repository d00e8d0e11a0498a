"""Speckle fields and spectral analysis.

Draws full and phase-only speckle, each one complex plane, checks the
amplitude statistics against the Rayleigh moments, and shows how
multiplicative speckle whitens an image's spectrum (the effect the
re-acquisition attack relies on).

Run:  python demos/02_speckle_and_spectrum.py
"""

import numpy as np

from sarfx import (
    AmplitudeImage,
    DEFAULT_SIGMA_S,
    azimuthal_profile,
    forward_dft,
    generate_speckle,
    inject_speckle,
    smooth_spectrum,
)

# --- statistics of a full speckle field -----------------------------------
field = generate_speckle(512, 512, mode="full", sigma_s=DEFAULT_SIGMA_S, seed=7)
amp = np.abs(field)
print("full-mode speckle, sigma_s = 1/sqrt(2):")
print(f"  mean amplitude   {amp.mean():.4f}   (Rayleigh moment {DEFAULT_SIGMA_S * np.sqrt(np.pi / 2):.4f})")
print(f"  amplitude var    {amp.var():.4f}   (expected {(2 - np.pi / 2) * DEFAULT_SIGMA_S**2:.4f})")
print(f"  mean |S|^2       {np.mean(amp**2):.4f}   (energy preserving by construction)")

phase_only = generate_speckle(512, 512, mode="phase_only", seed=8)
print(f"\nphase-only speckle: max | |S| - 1 | = {np.abs(np.abs(phase_only) - 1).max():.2e}")

# --- spectral whitening ----------------------------------------------------
# A smooth scene concentrates its spectrum near DC; multiplying by a
# unit-modulus random-phase field spreads the energy across every frequency.
yy, xx = np.mgrid[0:256, 0:256]
scene = AmplitudeImage(1000.0 + 500.0 * np.sin(xx / 20.0) * np.cos(yy / 30.0))

profile_before = azimuthal_profile(forward_dft(scene))
# the field is handed over: the scene is multiplied into it in place
speckled = inject_speckle(scene, generate_speckle(256, 256, mode="phase_only", seed=9))
profile_after = azimuthal_profile(forward_dft(speckled))

print("\nradial spectrum profile (mean |F|^2 per annulus), before vs after injection:")
print("  radius    scene            speckled")
for r in (1, 4, 16, 48, 96, 128):
    print(f"  {r:6d}    {profile_before.values[r]:<13.4g}    {profile_after.values[r]:<13.4g}")
flat = profile_after.values[profile_after.counts > 0]
print(f"  speckled profile spread (std/mean over annuli): {flat.std() / flat.mean():.3f}")

# --- smoothing a magnitude spectrum ----------------------------------------
mag = np.abs(forward_dft(speckled).values)
smooth = smooth_spectrum(mag, sigma=8.0, kernel_size=49)
print(f"\nsmoothing keeps mass: sum ratio = {smooth.sum() / mag.sum():.6f}")
print(f"and damps local variability: std ratio = {smooth.std() / mag.std():.3f}")
