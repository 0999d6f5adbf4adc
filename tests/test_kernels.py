import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cask.kernels import (
    HorizonDistribution,
    QPConvergenceError,
    QPInstance,
    band_decompose,
    band_recompose,
    d_kappa,
    d_kappa_batch,
    kappa,
    kappa_magnitudes,
    project_to_simplex,
    rms2_decomposition,
    solve_horizon_qp,
    truncated_geometric,
)


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


def test_horizon_distribution_rejects_bad_weights():
    with pytest.raises(ValueError):
        HorizonDistribution(np.array([0, 1]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        HorizonDistribution(np.array([-1]), np.array([1.0]))


# --- band decomposition ---------------------------------------------------

def test_band_decompose_zero_vector():
    spec = band_decompose(np.zeros(8))
    assert np.all(spec.coefficients == 0)


def test_band_decompose_pairs_components():
    spec = band_decompose(np.array([1.0, 2.0, 3.0, 4.0]))
    assert spec.coefficients.tolist() == [(1 + 2j), (3 + 4j)]


def test_band_decompose_rejects_odd_length():
    with pytest.raises(ValueError):
        band_decompose(np.ones(5))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_band_roundtrip_is_identity(bands, seed):
    v = np.random.default_rng(seed).standard_normal(2 * bands)
    assert np.array_equal(band_recompose(band_decompose(v)), v)


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
                   for ca, cb in zip(a.coefficients, b.coefficients))
    assert d_kappa(a, b, pi) == pytest.approx(expected, abs=1e-12)


def scalar_d_kappa(a, b, pi):
    """d_kappa as one pair at a time, before distances were batched."""
    mags = kappa_magnitudes(pi, a.frequencies)
    return float(np.sum(mags * np.abs(a.coefficients - b.coefficients)))


@pytest.mark.parametrize("d", [4, 16, 64])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       rows=st.integers(min_value=1, max_value=24), pi=horizon_dists())
def test_batched_distance_equals_scalar_bit_for_bit(d, seed, rows, pi):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    spectra = [band_decompose(v) for v in rng.standard_normal((rows, d)) * scale]
    ref = band_decompose(rng.standard_normal(d))
    batch = d_kappa_batch(np.array([s.coefficients for s in spectra]),
                          ref.coefficients, kappa_magnitudes(pi, ref.frequencies))
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
