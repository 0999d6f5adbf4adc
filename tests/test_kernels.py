import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cask.kernels import (
    HorizonDistribution,
    QPConvergenceError,
    QPInstance,
    band_decompose,
    band_frequencies,
    band_view,
    d_kappa,
    d_kappa_batch,
    kappa,
    kappa_magnitudes,
    project_to_simplex,
    rms2_decomposition,
    solve_horizon_qp,
    truncated_geometric,
)
from conftest import make_entry


def dist(support, weights):
    w = np.asarray(weights, dtype=np.float64)
    return HorizonDistribution(np.asarray(support), w / w.sum())


@st.composite
def horizon_dists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    support = draw(st.lists(st.integers(min_value=0, max_value=20),
                            min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                            min_size=n, max_size=n))
    return dist(support, weights)


def random_spectrum(rng, bands=4):
    return band_decompose(rng.standard_normal(2 * bands))


# --- kappa ---------------------------------------------------------------

def test_kappa_point_mass_at_zero_is_one():
    pi = dist([0], [1.0])
    assert kappa(pi, 1.7) == 1.0 + 0.0j


def test_kappa_uniform_over_1_2_at_pi_is_zero():
    # direct complex summation: (e^{i pi} + e^{2 i pi}) / 2 = (-1 + 1) / 2
    pi = dist([1, 2], [0.5, 0.5])
    assert abs(kappa(pi, np.pi)) < 1e-12


@given(horizon_dists())
def test_kappa_at_omega_zero_is_one(pi):
    assert abs(kappa(pi, 0.0) - 1.0) <= 1e-12


@given(horizon_dists(), st.floats(min_value=-50.0, max_value=50.0))
def test_kappa_magnitude_bounded(pi, omega):
    assert abs(kappa(pi, omega)) <= 1.0 + 1e-12


def test_truncated_geometric_normalized():
    pi = truncated_geometric(4)
    assert pi.support.tolist() == [0, 1, 2, 3, 4]
    assert pi.weights.sum() == pytest.approx(1.0, abs=1e-15)
    # rate 0.5: consecutive weights halve
    assert pi.weights[1] == pytest.approx(pi.weights[0] / 2)


@pytest.mark.parametrize("horizon", [1.5, float("nan"), -1])
def test_truncated_geometric_rejects_a_bad_horizon(horizon):
    # A direct call goes through the integer-setting rule CaskConfig uses;
    # 1.5 used to give the support of horizon 2.
    with pytest.raises(ValueError,
                       match=rf"^horizon must be >= 0, got {horizon!r}$"):
        truncated_geometric(horizon)


def test_horizon_distribution_rejects_bad_weights():
    with pytest.raises(ValueError):
        HorizonDistribution(np.array([0, 1]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        HorizonDistribution(np.array([-1]), np.array([1.0]))
    # A NaN weight used to pass both weight checks.
    with pytest.raises(ValueError, match="non-negative"):
        HorizonDistribution(np.array([0, 1]), np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="^support and weights must be "
                                         "matching 1-D arrays$"):
        HorizonDistribution(np.array([0, 1]), np.array([1.0]))
    with pytest.raises(ValueError, match="^empty support$"):
        HorizonDistribution(np.array([], dtype=int), np.array([]))


# --- band decomposition ---------------------------------------------------

@pytest.mark.parametrize("dim", [0, 3])
def test_band_frequencies_need_an_even_width(dim):
    with pytest.raises(ValueError, match="^dim must be even and >= 2$"):
        band_frequencies(dim)


def test_band_decompose_zero_vector():
    spec = band_decompose(np.zeros(8))
    assert np.all(spec == 0)


def test_band_decompose_pairs_components():
    spec = band_decompose(np.array([1.0, 2.0, 3.0, 4.0]))
    assert spec.tolist() == [(1 + 2j), (3 + 4j)]


def test_band_decompose_rejects_odd_length():
    with pytest.raises(ValueError):
        band_decompose(np.ones(5))


def test_band_decompose_does_not_alias_its_input():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    spec = band_decompose(v)
    v[0] = 9.0
    assert spec.tolist() == [(1 + 2j), (3 + 4j)]


def pairing_formula(v):
    """The band pairing written out: components (2f, 2f+1) as one complex."""
    return v[0::2] + 1j * v[1::2]


# Signed zeros and repeated values (ties) are where the complex view and
# the formula could part: the formula's ``1j * x`` can flip a zero's sign.
KEY_ELEMENTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25]) \
    | st.floats(min_value=-10.0, max_value=10.0)


@given(data=st.data(), num_layers=st.sampled_from([None, 1, 2, 4, 7]),
       bands=st.integers(min_value=1, max_value=6),
       rows=st.integers(min_value=1, max_value=12), pi=horizon_dists())
def test_band_view_distances_equal_the_pairing_formula_bit_for_bit(
        data, num_layers, bands, rows, pi):
    # Keys as the cache holds them: (L, d) per entry, or 1-D (num_layers
    # None) as the acceptance suite builds them; merge geometry stacks
    # their geometry keys and reads the stack as complex.
    d = 2 * bands
    shape = (rows, d) if num_layers is None else (rows, num_layers, d)
    keys = data.draw(hnp.arrays(np.float64, shape, elements=KEY_ELEMENTS))
    ref = data.draw(hnp.arrays(np.float64, d, elements=KEY_ELEMENTS))
    stacked = np.array([make_entry(i, k).geometry_key()
                        for i, k in enumerate(keys)])
    viewed = band_view(stacked)
    written = np.array([pairing_formula(g) for g in stacked])
    assert np.array_equal(viewed, written)       # equal up to zero signs
    mags = kappa_magnitudes(pi, band_frequencies(d))
    got = d_kappa_batch(viewed, band_view(ref.copy()), mags)
    want = d_kappa_batch(written, pairing_formula(ref), mags)
    assert got.tobytes() == want.tobytes()
    assert np.array([d_kappa(band_decompose(g), band_decompose(ref), pi)
                     for g in stacked]).tobytes() == want.tobytes()


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_band_roundtrip_is_identity(bands, seed):
    v = np.random.default_rng(seed).standard_normal(2 * bands)
    spectrum = band_decompose(v)
    assert spectrum.tobytes() == v.tobytes()
    assert np.array_equal(spectrum.real, v[0::2])
    assert np.array_equal(spectrum.imag, v[1::2])
    assert not np.shares_memory(spectrum, v)


# --- d_kappa ---------------------------------------------------------------

def test_d_kappa_identity(rng):
    a = random_spectrum(rng)
    pi = truncated_geometric(3)
    assert d_kappa(a, a, pi) == 0.0


def test_d_kappa_symmetry(rng):
    pi = truncated_geometric(3)
    for _ in range(50):
        a, b = random_spectrum(rng), random_spectrum(rng)
        assert d_kappa(a, b, pi) == pytest.approx(d_kappa(b, a, pi), abs=1e-9)


def test_d_kappa_with_unit_kernel_is_band_distance_sum(rng):
    # point mass at offset 0 makes |kappa| = 1 on every band
    pi = dist([0], [1.0])
    a, b = random_spectrum(rng), random_spectrum(rng)
    expected = sum(abs(ca - cb)
                   for ca, cb in zip(a, b))
    assert d_kappa(a, b, pi) == pytest.approx(expected, abs=1e-12)


def scalar_d_kappa(a, b, pi):
    """d_kappa as one pair at a time, before distances were batched."""
    mags = kappa_magnitudes(pi, band_frequencies(2 * a.size))
    return float(np.sum(mags * np.abs(a - b)))


@pytest.mark.parametrize("d", [4, 16, 64])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       rows=st.integers(min_value=1, max_value=24), pi=horizon_dists())
def test_batched_distance_equals_scalar_bit_for_bit(d, seed, rows, pi):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    spectra = [band_decompose(v) for v in rng.standard_normal((rows, d)) * scale]
    ref = band_decompose(rng.standard_normal(d))
    batch = d_kappa_batch(np.array(spectra), ref,
                          kappa_magnitudes(pi, band_frequencies(d)))
    scalar = np.array([scalar_d_kappa(s, ref, pi) for s in spectra])
    assert batch.tobytes() == scalar.tobytes()
    assert np.array([d_kappa(s, ref, pi) for s in spectra]).tobytes() \
        == scalar.tobytes()


def test_d_kappa_band_count_mismatch(rng):
    with pytest.raises(ValueError):
        d_kappa(random_spectrum(rng, 4), random_spectrum(rng, 3),
                truncated_geometric(2))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_d_kappa_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    pi = truncated_geometric(4)
    a, b, c = (random_spectrum(rng) for _ in range(3))
    assert d_kappa(a, c, pi) <= d_kappa(a, b, pi) + d_kappa(b, c, pi) + 1e-9


# --- RMS2 decomposition -----------------------------------------------------

def test_rms2_constant_samples_have_zero_variance_term():
    alpha, tri, var = rms2_decomposition(np.full(10, 2.5), 1.0)
    assert var == 0.0
    assert alpha == pytest.approx(tri, abs=1e-12)


def test_rms2_hand_example():
    # samples {1, 3}, mu = 1: E q^2 = 5, E q = 2 -> (5 - 1) / (2 + 1) = 4/3
    alpha, tri, var = rms2_decomposition(np.array([1.0, 3.0]), 1.0)
    assert alpha == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert tri == pytest.approx(1.0, abs=1e-12)
    assert var == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_rms2_zero_denominator():
    with pytest.raises(ValueError):
        rms2_decomposition(np.zeros(4), 0.0)


@pytest.mark.parametrize("norms, mu, message", [
    (np.empty(0), 1.0, "empty sample"),
    (np.array([1.0, -1.0]), 1.0, "norms must be non-negative"),
    (np.array([1.0]), -1.0, "norms must be non-negative"),
])
def test_rms2_refuses_an_empty_or_negative_sample(norms, mu, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        rms2_decomposition(norms, mu)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rms2_identity_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 10.0, size=int(rng.integers(1, 40)))
    mu = float(rng.uniform(0.0, 5.0)) + 1e-6
    alpha, tri, var = rms2_decomposition(q, mu)
    assert alpha == pytest.approx(tri + var, abs=1e-9)


# --- simplex projection / QP -------------------------------------------------

@given(st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=12))
def test_simplex_projection_lands_on_simplex(v):
    p = project_to_simplex(np.array(v))
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_simplex_projection_fixes_simplex_points():
    v = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_to_simplex(v), v, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simplex_projection_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        project_to_simplex(np.array([0.2, bad, 0.3]))


def test_qp_identity_design_returns_target():
    tau = np.array([0.1, 0.6, 0.3])
    inst = QPInstance(np.eye(3), tau, np.ones(3))
    sol = solve_horizon_qp(inst)
    assert np.allclose(sol.pi, tau, atol=1e-9)


def test_qp_offsimplex_target_projects_to_vertex():
    inst = QPInstance(np.eye(2), np.array([2.0, 0.0]), np.ones(2))
    sol = solve_horizon_qp(inst)
    assert np.allclose(sol.pi, [1.0, 0.0], atol=1e-9)


def test_qp_objective_monotone_and_beats_monte_carlo(rng):
    m, n = 6, 5
    inst = QPInstance(rng.standard_normal((m, n)), rng.standard_normal(m),
                      rng.uniform(0.1, 2.0, m))
    sol = solve_horizon_qp(inst)
    diffs = np.diff(sol.objectives)
    assert np.all(diffs <= 1e-12)
    samples = rng.dirichlet(np.ones(n), size=10_000)
    best = min(inst.objective(s) for s in samples)
    assert inst.objective(sol.pi) <= best + 1e-12


def test_qp_centred_row_reaches_the_vertex():
    # The row sums to zero, so the Hessian maps the uniform start to zero;
    # the objective is not constant all the same.
    inst = QPInstance([[1.0, -1.0]], [1.0], [1.0])
    sol = solve_horizon_qp(inst)
    assert np.max(np.abs(sol.pi - [1.0, 0.0])) <= 1e-9
    assert inst.objective(sol.pi) <= 1e-12
    assert sol.iterations > 0


@pytest.mark.parametrize("case", range(8))
def test_qp_centred_rows_beat_monte_carlo(case):
    rng = np.random.default_rng(case)
    m, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
    if case < 4:
        # Integer rows whose sums are exactly zero.
        design = rng.integers(-3, 4, size=(m, n)).astype(np.float64)
        design[:, -1] -= design.sum(axis=1)
    else:
        design = rng.standard_normal((m, n))
        design -= design.mean(axis=1, keepdims=True)
    inst = QPInstance(design, rng.standard_normal(m),
                      rng.uniform(0.1, 2.0, m))
    sol = solve_horizon_qp(inst)
    assert np.all(np.diff(sol.objectives) <= 1e-12)
    samples = rng.dirichlet(np.ones(n), size=10_000)
    best = min(inst.objective(s) for s in samples)
    assert inst.objective(sol.pi) <= best + 1e-12


def test_qp_zero_weights_return_the_uniform_point():
    # The objective is constant, so the uniform start is returned as is.
    inst = QPInstance([[1.0, -1.0, 2.0], [0.5, 3.0, 1.0]], [1.0, 2.0],
                      [0.0, 0.0])
    sol = solve_horizon_qp(inst)
    assert np.array_equal(sol.pi, np.full(3, 1.0 / 3.0))
    assert (sol.iterations, sol.residual) == (0, 0.0)
    assert sol.objectives == [0.0]


def test_qp_reports_residual_on_non_convergence(rng):
    inst = QPInstance(rng.standard_normal((8, 6)), rng.standard_normal(8),
                      np.ones(8))
    with pytest.raises(QPConvergenceError) as exc:
        solve_horizon_qp(inst, max_iters=1, tol=1e-300)
    assert exc.value.residual > 0


def test_qp_instance_validates_shapes():
    with pytest.raises(ValueError):
        QPInstance(np.eye(3), np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        QPInstance(np.eye(3), np.zeros(3), -np.ones(3))
    # No offsets, so no simplex to solve over.
    with pytest.raises(ValueError, match="at least one column"):
        QPInstance(np.zeros((1, 0)), [1.0], [1.0])


@pytest.mark.parametrize("field", ["design", "target", "weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qp_instance_refuses_non_finite_input(field, bad):
    # NaN < 0 is False, so each check must be one that NaN fails.
    arrays = {"design": np.eye(2), "target": np.zeros(2),
              "weights": np.ones(2)}
    arrays[field][1] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        QPInstance(**arrays)
