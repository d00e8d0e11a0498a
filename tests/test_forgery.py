import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sarfx import (
    AmplitudeImage,
    EditOp,
    GlobalEditOp,
    RasterError,
    SpliceSpec,
    edit_donor,
    global_edit,
    random_splice,
    sample_edit_parameter,
    splice,
)
from sarfx.forgery import (
    BLUR_SIGMA,
    EDIT_PARAMETER_RANGES,
    GLOBAL_NOISE_LEVEL,
    _gaussian_blur,
    draw_origins,
    edited_shape,
    place_splice,
    resize,
)
from sarfx.speckle import rng


def _random_amplitude(shape, seed, low=100.0, high=5000.0):
    rng = np.random.default_rng(seed)
    return AmplitudeImage(rng.uniform(low, high, shape))


# ---------------------------------------------------------------------------
# Edit ops
# ---------------------------------------------------------------------------


def test_edit_op_validation():
    with pytest.raises(ValueError, match="kind"):
        EditOp("sharpen")
    with pytest.raises(ValueError, match="range class"):
        EditOp("upscale", range_class="middling")
    with pytest.raises(ValueError, match="parameter"):
        EditOp("rotate", range_class="fixed")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^edit parameter must be finite"):
            EditOp("rotate", bad, "fixed")
        with pytest.raises(ValueError, match="^edit parameter must be finite"):
            EditOp("upscale", bad, "near")
    with pytest.raises(ValueError, match="^gaussian_blur sigma must be nonnegative, got -1.0$"):
        EditOp("gaussian_blur", -1.0)
    for kind in ("upscale", "downscale"):
        for factor in (0.0, -0.5):
            with pytest.raises(ValueError, match=f"^{kind} factor must be positive, got {factor}$"):
                EditOp(kind, factor, "fixed")
    EditOp("gaussian_blur", 0.0, "fixed")  # sigma 0 is a copy, not an error


def test_parameters_drawn_from_declared_ranges():
    for (kind, klass), (low, high) in EDIT_PARAMETER_RANGES.items():
        draws = [sample_edit_parameter(EditOp(kind, range_class=klass), seed) for seed in range(300)]
        assert all(low <= d <= high for d in draws)
        assert max(draws) - min(draws) > 0.3 * (high - low)  # actually spans the range
    assert sample_edit_parameter(EditOp("gaussian_blur"), 3) == 0.5
    assert sample_edit_parameter(EditOp("rotate", 90.0, "fixed"), 3) == 90.0


def test_edit_none_is_bit_exact():
    donor = _random_amplitude((16, 16), 0)
    assert edit_donor(donor, EditOp("none"), 5) is donor


def test_upscale_by_two_doubles_dims_and_keeps_constants():
    donor = AmplitudeImage(np.full((64, 64), 123.0))
    edited = edit_donor(donor, EditOp("upscale", 2.0, "fixed"), 0)
    assert edited.shape == (128, 128)
    assert np.abs(edited.values - 123.0).max() < 1e-9


def test_downscale_shrinks_dims():
    donor = _random_amplitude((64, 64), 1)
    edited = edit_donor(donor, EditOp("downscale", 0.5, "fixed"), 0)
    assert edited.shape == (32, 32)


def test_rotate_90_matches_index_permutation_oracle():
    donor = _random_amplitude((33, 33), 2)
    edited = edit_donor(donor, EditOp("rotate", 90.0, "fixed"), 0)
    assert np.abs(edited.values - np.rot90(donor.values, 1)).max() < 1e-9


def test_rotate_360_identity_and_nonnegativity():
    donor = _random_amplitude((32, 32), 3)
    full_turn = edit_donor(donor, EditOp("rotate", 360.0, "fixed"), 0)
    assert np.abs(full_turn.values - donor.values).max() < 1e-9
    tilted = edit_donor(donor, EditOp("rotate", 23.0, "fixed"), 0)
    assert np.all(tilted.values >= 0)
    assert tilted.shape == donor.shape


def test_blur_preserves_mean_and_nonnegativity():
    donor = _random_amplitude((64, 64), 4)
    edited = edit_donor(donor, EditOp("gaussian_blur"), 0)
    assert edited.shape == donor.shape
    assert np.all(edited.values >= 0)
    assert edited.values.mean() == pytest.approx(donor.values.mean(), rel=1e-3)
    assert edited.values.var() < donor.values.var()


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(1, 64), st.integers(1, 64)),
       sigma=st.sampled_from([0.0, 1e-16, 0.5]) | st.floats(0.0, 20.0),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 40), sigma=2.0, seed=0)
@example(shape=(40, 1), sigma=2.0, seed=1)
@example(shape=(3, 5), sigma=20.0, seed=2)  # radius 80, past both sides
def test_gaussian_blur_equals_ndimage(shape, sigma, seed):
    from scipy import ndimage

    values = np.random.default_rng(seed).uniform(0.0, 65535.0, shape)
    expected = ndimage.gaussian_filter(values, sigma, mode="reflect")
    assert np.array_equal(_gaussian_blur(values, sigma), expected)


def test_resize_validation():
    with pytest.raises(ValueError, match="positive"):
        resize(np.ones((8, 8)), 0.0)


# ---------------------------------------------------------------------------
# Splicing
# ---------------------------------------------------------------------------


def test_splice_identical_content_yields_target():
    target = _random_amplitude((32, 32), 5)
    spec = SpliceSpec((4, 6), (4, 6), (8, 8))
    out, mask = splice(target, target, spec)
    assert np.array_equal(out.values, target.values)
    assert mask.values.sum() == 64
    assert np.all(mask.values[4:12, 6:14] == 1)


def test_mask_popcount_matches_region():
    target = _random_amplitude((256, 256), 6)
    donor = _random_amplitude((256, 256), 7)
    out, mask = splice(target, donor, SpliceSpec((0, 0), (100, 100), (128, 128)))
    assert int(mask.values.sum()) == 128 * 128


def test_splice_matches_branch_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        th, tw = rng.integers(12, 24, 2)
        dh, dw = rng.integers(12, 24, 2)
        bh, bw = rng.integers(2, min(th, dh) + 1), rng.integers(2, min(tw, dw) + 1)
        target = _random_amplitude((th, tw), rng.integers(1 << 31))
        donor = _random_amplitude((dh, dw), rng.integers(1 << 31))
        dr = rng.integers(dh - bh + 1)
        dc = rng.integers(dw - bw + 1)
        tr = rng.integers(th - bh + 1)
        tc = rng.integers(tw - bw + 1)
        stencil = (rng.random((bh, bw)) > 0.3).astype(np.uint8)
        if stencil.sum() == 0:
            stencil[0, 0] = 1
        spec = SpliceSpec((int(dr), int(dc)), (int(tr), int(tc)), stencil)
        out, mask = splice(target, donor, spec)
        # literal per-pixel branch oracle
        for y in range(th):
            for x in range(tw):
                in_region = (
                    tr <= y < tr + bh and tc <= x < tc + bw and stencil[y - tr, x - tc] == 1
                )
                if in_region:
                    assert out.values[y, x] == donor.values[y - tr + dr, x - tc + dc]
                    assert mask.values[y, x] == 1
                else:
                    assert out.values[y, x] == target.values[y, x]
                    assert mask.values[y, x] == 0


def test_splice_out_of_bounds_rejected():
    target = _random_amplitude((32, 32), 9)
    donor = _random_amplitude((16, 16), 10)
    with pytest.raises(RasterError, match="donor region"):
        splice(target, donor, SpliceSpec((10, 10), (0, 0), (8, 8)))
    with pytest.raises(RasterError, match="target region"):
        splice(target, donor, SpliceSpec((0, 0), (30, 0), (8, 8)))


def test_random_splice_deterministic():
    tiles = [_random_amplitude((160, 160), seed) for seed in (20, 21)]
    a = random_splice(tiles, (64, 64), EditOp("gaussian_blur"), seed=99)
    b = random_splice(tiles, (64, 64), EditOp("gaussian_blur"), seed=99)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)
    assert a[2] == b[2]


def test_random_splice_origin_bounds():
    tiles = [_random_amplitude((1024, 1024), 22), _random_amplitude((1024, 1024), 23)]
    for seed in range(100):
        _, _, prov = random_splice(tiles, (128, 128), EditOp("none"), seed=seed)
        tr, tc = prov["target_origin"]
        assert 0 <= tr <= 896 and 0 <= tc <= 896
        dr, dc = prov["donor_origin"]
        assert 0 <= dr <= 896 and 0 <= dc <= 896


def test_random_splice_origin_distribution_10k():
    # Same drawing code path at desk scale: 1e4 draws must stay in bounds and
    # actually reach both ends of the admissible origin range.
    tiles = [_random_amplitude((40, 40), 28), _random_amplitude((40, 40), 29)]
    limit = 40 - 8  # inclusive max origin
    origins = np.empty((10_000, 2), dtype=np.int64)
    for seed in range(10_000):
        _, _, prov = random_splice(tiles, (8, 8), EditOp("none"), seed=seed)
        origins[seed] = prov["target_origin"]
    assert origins.min() == 0
    assert origins.max() == limit
    assert np.all((origins >= 0) & (origins <= limit))


def test_random_splice_single_tile_disjoint_regions():
    tile = _random_amplitude((200, 200), 24)
    for seed in range(50):
        _, _, prov = random_splice([tile], (64, 64), EditOp("none"), seed=seed)
        if prov["donor_tile_index"] == prov["target_tile_index"]:
            (dr, dc), (tr, tc) = prov["donor_origin"], prov["target_origin"]
            assert abs(dr - tr) >= 64 or abs(dc - tc) >= 64


def test_random_splice_too_small_tiles():
    tiny = _random_amplitude((64, 64), 25)
    with pytest.raises(RasterError, match="too small"):
        random_splice([tiny], (128, 128), EditOp("none"), seed=0)


def test_random_splice_single_tile_without_room_for_two_regions():
    tile = _random_amplitude((64, 64), 25)
    with pytest.raises(RasterError) as excinfo:
        random_splice([tile], region=(40, 40))
    assert str(excinfo.value) == "single (64, 64) tile is too small for disjoint 40x40 regions"


@pytest.mark.parametrize("op", [EditOp("none"), EditOp("upscale", range_class="near")], ids=["none", "upscale"])
def test_random_splice_places_disjoint_regions_on_a_tile_with_room_along_one_axis(op):
    # a 64x32 tile holds two disjoint 32x32 boxes only at rows 0 and 32; drawn by
    # repeated attempts, 36 of these seeds found no such pair
    tile = _random_amplitude((64, 32), 25)
    for seed in range(200):
        _, mask, prov = random_splice([tile], region=(32, 32), edit=op, seed=seed)
        (dr, dc), (tr, tc) = prov["donor_origin"], prov["target_origin"]
        assert abs(dr - tr) >= 32 and tc == 0
        assert int(mask.values.sum()) == 32 * 32


def test_random_splice_places_disjoint_regions_on_a_tile_with_room_along_both_axes():
    # about 0.4% of attempts land two 32x32 boxes apart on a 64x64 tile, so 1000
    # attempts found no pair for seeds 35, 81, 107, 115 and 133; those now construct
    tile = _random_amplitude((64, 64), 25)
    for seed in range(200):
        _, mask, prov = random_splice([tile], region=(32, 32), seed=seed)
        (dr, dc), (tr, tc) = prov["donor_origin"], prov["target_origin"]
        assert abs(dr - tr) >= 32 or abs(dc - tc) >= 32
        assert int(mask.values.sum()) == 32 * 32


def test_draw_origins_apart_along_one_axis_equals_its_construction():
    # rows have room, columns do not: the donor row is drawn among the places a box
    # away from some target place, then the target row among those a box from it
    for seed in range(20):
        donor, target = draw_origins(rng(seed), (100, 40), (70, 30), (30, 25), disjoint=True)
        gen = rng(seed)
        rows = [p for p in range(71) if p >= 30 or p <= 40 - 30]
        dr = rows[gen.integers(len(rows))]
        dc = int(gen.integers(16))
        rows = [p for p in range(41) if abs(p - dr) >= 30]
        assert (donor, target) == ((dr, dc), (rows[gen.integers(len(rows))], int(gen.integers(6))))
    # a given target origin keeps its place, and the donor is drawn a box away from it
    for seed in range(20):
        donor, target = draw_origins(rng(seed), (96, 32), (96, 32), (32, 32), target_origin=(20, 0),
                                     disjoint=True)
        gen = rng(seed)
        assert target == (20, 0) and donor == (52 + gen.integers(13), gen.integers(1))


def test_place_splice_rejects_an_edited_donor_smaller_than_the_region():
    tile = _random_amplitude((64, 64), 25)
    with pytest.raises(RasterError) as excinfo:
        place_splice(rng(0), tile, tile, (48, 48), EditOp("downscale", 0.5, "fixed"), 0)
    assert str(excinfo.value) == "edited donor (32, 32) is too small for a 48x48 region"


def test_vehicle_style_stencil_splices_pixel_exact():
    # elongated ~35x16 blob, the kind a small-vehicle insertion uses
    yy, xx = np.mgrid[0:16, 0:35]
    stencil = (((yy - 7.5) / 7.0) ** 2 + ((xx - 17.0) / 16.5) ** 2 <= 1.0).astype(np.uint8)
    assert 200 < stencil.sum() < 16 * 35
    target = _random_amplitude((128, 128), 26)
    donor = _random_amplitude((128, 128), 27)
    spec = SpliceSpec((40, 50), (70, 60), stencil)
    out, mask = splice(target, donor, spec)
    assert int(mask.values.sum()) == int(stencil.sum())
    sel = stencil == 1
    assert np.array_equal(out.values[70:86, 60:95][sel], donor.values[40:56, 50:85][sel])
    assert np.array_equal(out.values[~mask.values.astype(bool)], target.values[~mask.values.astype(bool)])


# ---------------------------------------------------------------------------
# Box edits: only the spliced box of the edited frame is computed
# ---------------------------------------------------------------------------

BOX_EDITS = (
    [EditOp("none"), EditOp("gaussian_blur")]
    + [EditOp(kind, range_class=klass) for kind, klass in EDIT_PARAMETER_RANGES]
    + [
        EditOp("upscale", 2.0, "fixed"),
        EditOp("downscale", 0.5, "fixed"),
        EditOp("rotate", 90.0, "fixed"),
        EditOp("rotate", 360.0, "fixed"),
        EditOp("gaussian_blur", 0.5, "fixed"),
        EditOp("gaussian_blur", 3.0, "fixed"),
    ]
)
BOX_EDIT_IDS = [f"{op.kind}-{op.range_class}-{op.parameter}" for op in BOX_EDITS]


@pytest.mark.parametrize("op", BOX_EDITS, ids=BOX_EDIT_IDS)
def test_box_edit_equals_crop_of_whole_tile_edit(op):
    donor = _random_amplitude((70, 53), 30)  # non-square
    whole = edit_donor(donor, op, 17)
    fh, fw = whole.shape
    assert whole.shape == edited_shape(donor.shape, op, sample_edit_parameter(op, 17))
    bh, bw = 9, 12
    # four corners, the middle of each edge, and the interior
    for r0 in (0, (fh - bh) // 2, fh - bh):
        for c0 in (0, (fw - bw) // 2, fw - bw):
            box = edit_donor(donor, op, 17, window=(r0, c0, bh, bw))
            assert np.array_equal(box.values, whole.values[r0 : r0 + bh, c0 : c0 + bw])
    framed = edit_donor(donor, op, 17, window=(0, 0, fh, fw))
    assert np.array_equal(framed.values, whole.values)
    with pytest.raises(RasterError, match="donor region"):
        edit_donor(donor, op, 17, window=(fh - bh + 1, 0, bh, bw))


@pytest.mark.parametrize("op", BOX_EDITS, ids=BOX_EDIT_IDS)
def test_random_splice_equals_whole_tile_edit_then_splice(op):
    # non-rectangular stencil on non-square tiles; the donor is either tile
    yy, xx = np.mgrid[0:14, 0:19]
    stencil = (((yy - 6.5) / 7.0) ** 2 + ((xx - 9.0) / 9.5) ** 2 <= 1.0).astype(np.uint8)
    tiles = [_random_amplitude((61, 47), 31), _random_amplitude((58, 50), 32)]
    for seed in range(6):
        spliced, mask, prov = random_splice(tiles, stencil, op, seed=seed, target_index=0)
        gen = rng(seed)  # random_splice's draws: donor tile, then the edit seed
        gen.integers(len(tiles))
        edit_seed = int(gen.integers(np.iinfo(np.int64).max))
        assert prov["edit_parameter"] == sample_edit_parameter(op, edit_seed)
        # the rest is place_splice, with the same generator
        donor = tiles[prov["donor_tile_index"]]
        placed = place_splice(gen, tiles[0], donor, stencil, op, edit_seed,
                              disjoint=prov["donor_tile_index"] == 0)
        assert np.array_equal(placed[0].values, spliced.values)
        assert np.array_equal(placed[1].values, mask.values)
        assert {key: prov[key] for key in placed[2]} == placed[2]
        whole = edit_donor(donor, op, edit_seed)
        spec = SpliceSpec(prov["donor_origin"], prov["target_origin"], stencil)
        ref_spliced, ref_mask = splice(tiles[0], whole, spec)
        assert np.array_equal(spliced.values, ref_spliced.values)
        assert np.array_equal(mask.values, ref_mask.values)


# ---------------------------------------------------------------------------
# Global edits
# ---------------------------------------------------------------------------


def test_updownscale_near_constant_invariance():
    image = AmplitudeImage(np.full((64, 64), 900.0))
    for kind in ("updownscale", "downupscale"):
        out = global_edit(image, GlobalEditOp(kind, "near"), seed=0)
        assert out.shape == image.shape
        assert np.abs(out.values - 900.0).max() < 1e-6


def test_updownscale_far_round_trip_shape():
    image = _random_amplitude((96, 96), 30)
    out = global_edit(image, GlobalEditOp("updownscale", "far"), seed=1)
    assert out.shape == image.shape
    assert np.all(out.values >= 0)


def test_additive_uniform_bounds():
    image = AmplitudeImage(np.full((128, 128), 1000.0))
    out = global_edit(image, GlobalEditOp("additive_uniform"), seed=2)
    diff = out.values - image.values
    assert diff.min() >= -50.0 and diff.max() <= 50.0
    assert diff.std() == pytest.approx(100.0 / np.sqrt(12.0), rel=0.05)


def test_additive_gaussian_std_matches_level():
    image = AmplitudeImage(np.full((512, 512), 5000.0))
    out = global_edit(image, GlobalEditOp("additive_gaussian"), seed=3)
    assert (out.values - image.values).std() == pytest.approx(GLOBAL_NOISE_LEVEL, rel=0.01)


def test_additive_poisson_is_zero_centered():
    image = AmplitudeImage(np.full((256, 256), 5000.0))
    out = global_edit(image, GlobalEditOp("additive_poisson"), seed=4)
    diff = out.values - image.values
    assert abs(diff.mean()) < 0.1
    assert diff.std() == pytest.approx(np.sqrt(GLOBAL_NOISE_LEVEL), rel=0.02)


def test_global_edit_clips_to_dynamic_range():
    image = AmplitudeImage(np.full((64, 64), 65530.0))
    out = global_edit(image, GlobalEditOp("additive_uniform"), seed=5)
    assert out.values.max() <= 65535.0
    low = AmplitudeImage(np.full((64, 64), 3.0))
    out_low = global_edit(low, GlobalEditOp("additive_gaussian"), seed=6)
    assert out_low.values.min() >= 0.0


@pytest.mark.parametrize("parameter", [None, 2.5])
def test_global_blur_equals_clipped_ndimage(parameter):
    from scipy import ndimage

    # 12 bits and values around full scale, so the clip holds some blurred values
    image = AmplitudeImage(np.random.default_rng(33).uniform(2000.0, 6000.0, (37, 53)), 12)
    out = global_edit(image, GlobalEditOp("gaussian_blur", parameter=parameter))
    sigma = BLUR_SIGMA if parameter is None else parameter
    expected = np.clip(ndimage.gaussian_filter(image.values, sigma, mode="reflect"), 0.0, 4095.0)
    assert np.array_equal(out.values, expected)
    assert 0 < np.mean(out.values == 4095.0) < 1


@pytest.mark.parametrize("kind, parameter, message", [
    ("gaussian_blur", -1.0, "gaussian_blur parameter must be nonnegative, got -1.0"),
    ("additive_gaussian", np.inf, "global edit parameter must be finite, got inf"),
    ("additive_laplacian", np.nan, "global edit parameter must be finite, got nan"),
    ("additive_poisson", -2.0, "additive_poisson parameter must be nonnegative, got -2.0"),
    ("additive_uniform", -50.0, "additive_uniform parameter must be nonnegative, got -50.0"),
    ("updownscale", 0.0, "updownscale factor must be positive, got 0.0"),
    ("downupscale", -1.5, "downupscale factor must be positive, got -1.5"),
    ("downupscale", -np.inf, "global edit parameter must be finite, got -inf"),
])
def test_global_edit_op_rejects_a_bad_parameter(kind, parameter, message):
    with pytest.raises(ValueError) as excinfo:
        GlobalEditOp(kind, parameter=parameter)
    assert str(excinfo.value) == message


def test_global_edit_op_takes_a_zero_spread():
    image = _random_amplitude((32, 32), 31)
    for kind in ("gaussian_blur", "additive_gaussian", "additive_uniform"):
        assert np.array_equal(global_edit(image, GlobalEditOp(kind, parameter=0.0)).values, image.values)


def test_global_edit_determinism():
    image = _random_amplitude((32, 32), 31)
    a = global_edit(image, GlobalEditOp("additive_laplacian"), seed=7)
    b = global_edit(image, GlobalEditOp("additive_laplacian"), seed=7)
    assert np.array_equal(a.values, b.values)
