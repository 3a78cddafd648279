import numpy as np
import pytest

from nemflow.diagnostics import director_length_stats, spectral_divergence_max
from nemflow.fields import GridSpec, fftn_norm, spectral_l2_norm
from nemflow.initial import SplitMix64, initial_condition
from util import nyquist_mask


@pytest.mark.parametrize("seed,outputs", [
    # seed 0 gives the published reference outputs of SplitMix64
    (0, (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)),
    (2**64 - 1, (0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9)),
])
def test_stream_first_draws_are_pinned(seed, outputs):
    """The stream's first draws are the SplitMix64 outputs' top 53 bits,
    mapped exactly to [-1, 1); a second call continues the stream."""
    rng = SplitMix64(seed)
    draws = np.concatenate([rng.uniform((1, 2)).ravel(), rng.uniform((1,))])
    assert draws.tolist() == [(z >> 11) * 2.0**-52 - 1.0 for z in outputs]


@pytest.mark.parametrize("s", [0, 7, 11])
def test_ensemble_streams_share_no_draw(s):
    """The benchmark's ensemble seeds 4s + j (j = 0-3) give streams whose
    first 10^5 draws are all different."""
    draws = np.concatenate([SplitMix64(4 * s + j).uniform((10**5,)) for j in range(4)])
    assert np.unique(draws).size == draws.size


def test_uniform_perturbed_zero_amplitude_is_ground_state():
    grid = GridSpec(2, 16, "exact")
    state = initial_condition("uniform_perturbed", grid, seed=3, amplitude=0.0)
    assert np.max(np.abs(state.d.values[0] - 1.0)) == 0.0
    assert np.max(np.abs(state.d.values[1])) == 0.0
    assert np.max(np.abs(state.u.values)) == 0.0


def test_uniform_perturbed_length_band():
    grid = GridSpec(2, 16, "exact")
    amplitude = 0.23
    state = initial_condition("uniform_perturbed", grid, seed=5, amplitude=amplitude)
    stats = director_length_stats(state.d.values)
    assert stats.min >= 1.0 - amplitude - 1e-12
    assert stats.max <= 1.0 + amplitude + 1e-12


@pytest.mark.parametrize("kind", ["uniform_perturbed", "random_smooth", "defect_pair"])
def test_velocity_is_solenoidal_and_zero_mean(kind):
    grid = GridSpec(2, 16, "exact")
    state = initial_condition(kind, grid, seed=11, amplitude=0.3)
    div = spectral_divergence_max(state.u)
    assert div <= 1e-12 * (1.0 + spectral_l2_norm(state.u.coeffs))
    assert abs(np.mean(state.u.values)) < 1e-14


def test_determinism_bitwise():
    grid = GridSpec(2, 16, "exact")
    for kind in ("uniform_perturbed", "random_smooth", "defect_pair"):
        a = initial_condition(kind, grid, seed=42, amplitude=0.2)
        b = initial_condition(kind, grid, seed=42, amplitude=0.2)
        assert np.array_equal(a.d.values, b.d.values)
        assert np.array_equal(a.u.values, b.u.values)
        c = initial_condition(kind, grid, seed=43, amplitude=0.2)
        # the defect_pair director is fixed geometry; its velocity is seeded
        seeded = a.u if kind == "defect_pair" else a.d
        other = c.u if kind == "defect_pair" else c.d
        assert not np.array_equal(seeded.values, other.values)


def test_defect_pair_rejected_in_3d():
    grid = GridSpec(3, 8, "exact")
    with pytest.raises(ValueError, match="dim = 2"):
        initial_condition("defect_pair", grid, seed=1, amplitude=0.0)


def test_defect_pair_structure():
    grid = GridSpec(2, 32, "exact")
    state = initial_condition("defect_pair", grid, seed=1, amplitude=0.0)
    stats = director_length_stats(state.d.values)
    assert stats.max <= 1.0 + 1e-12      # envelope never exceeds unit length
    assert stats.min < 0.7               # cores are melted
    assert np.max(np.abs(state.u.values)) == 0.0


def test_3d_initial_conditions():
    grid = GridSpec(3, 8, "exact")
    state = initial_condition("uniform_perturbed", grid, seed=2, amplitude=0.15)
    assert state.d.components == 3
    assert spectral_divergence_max(state.u) <= 1e-12 * (1.0 + spectral_l2_norm(state.u.coeffs))


def test_unknown_kind():
    grid = GridSpec(2, 8, "exact")
    with pytest.raises(ValueError, match="unknown"):
        initial_condition("spiral", grid, seed=0, amplitude=0.1)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("dim,kind", [
    (2, "uniform_perturbed"), (2, "random_smooth"), (2, "defect_pair"),
    (3, "uniform_perturbed"), (3, "random_smooth"),
])
def test_director_has_no_nyquist_content(dim, kind, n):
    # the solver's retained space has no Nyquist modes, so it could never
    # remove Nyquist content from the initial director
    grid = GridSpec(dim, n, "exact")
    state = initial_condition(kind, grid, seed=7, amplitude=0.2)
    coeffs = fftn_norm(state.d.values, dim)
    assert np.max(np.abs(coeffs[..., nyquist_mask(grid)])) < 1e-15 * np.max(np.abs(coeffs))
