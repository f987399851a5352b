"""Slab assembly, steady solves, transient stepping, and monitors."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from r13lab import slab
from r13lab.models import resolve_model
from r13lab.state import mass_inner, physical_fluxes
from r13lab.tensors import StfTensor3, frame_components
from r13lab.slab import (
    SlabAssembly,
    SlabMesh,
    SolveMonitors,
    WallData,
    coercivity_probe,
    convergence_study,
    monitors,
    random_state,
    solve_steady,
    step_transient,
    transient_run,
    zero_state,
)

KN = 0.1


@pytest.fixture(scope="module")
def eta7():
    return resolve_model("eta7")


@pytest.fixture(scope="module")
def maxwell():
    return resolve_model("maxwell")


@pytest.fixture(scope="module")
def asm_eta7(eta7):
    return SlabAssembly(SlabMesh(8, 2), eta7, KN, "nonmaxwell")


@pytest.fixture(scope="module")
def asm_maxwell(maxwell):
    return SlabAssembly(SlabMesh(8, 2), maxwell, KN, "maxwell")


@pytest.fixture(scope="module")
def couette_eta7(eta7):
    # Kn = 1 keeps the near-degenerate shear sublayer of the published
    # constants resolvable at these element counts.
    asm = SlabAssembly(SlabMesh(64, 2), eta7, 1.0, "nonmaxwell")
    state, mon = solve_steady(asm, WallData.couette())
    return asm, state, mon


@pytest.fixture(scope="module")
def couette_maxwell(maxwell):
    asm = SlabAssembly(SlabMesh(32, 2), maxwell, KN, "maxwell")
    state, mon = solve_steady(asm, WallData.couette())
    return asm, state, mon


def rel_l2_gap(state, ref_state, n_elements):
    """Relative L2 distance between two solves over all 13 components."""
    qp, qw = np.polynomial.legendre.leggauss(4)
    qp, qw = 0.5 * (qp + 1.0), 0.5 * qw
    h = 1.0 / n_elements
    num = den = 0.0
    for e in range(n_elements):
        x = (e + qp) * h
        v, _ = state.sample(x)
        vr, _ = ref_state.sample(x)
        num += (((v - vr) ** 2) @ qw).sum() * h
        den += ((vr ** 2) @ qw).sum() * h
    return float(np.sqrt(num / den))


# ---------------------------------------------------------------------------
# assembled form values


class TestFormValues:
    def test_shear_form_on_linear_tangential_flow(self, asm_eta7, eta7):
        # u = (0, x, 0): volume k3 Kn/2, boundary S2 u_t1(1)^2 at x = 1.
        x = np.zeros(asm_eta7.ndof)
        nodes = np.linspace(0.0, 1.0, asm_eta7.spaces["u2"].ndof)
        x[asm_eta7.dofs("u2")] = nodes
        val = x @ (asm_eta7.form("f") @ x)
        expect = eta7.k3 * KN * 0.5 + asm_eta7.coeffs.S2
        assert val == pytest.approx(expect, rel=1e-13)

    def test_pressure_divergence_pairing(self, asm_eta7):
        p = np.zeros(asm_eta7.ndof)
        p[asm_eta7.dofs("p")] = 1.0
        u = np.zeros(asm_eta7.ndof)
        u[asm_eta7.dofs("u1")] = np.linspace(0.0, 1.0, asm_eta7.spaces["u1"].ndof)
        assert p @ (asm_eta7.form("g") @ u) == pytest.approx(1.0, abs=1e-14)

    def test_heatflux_wall_quadratic_on_constant_field(self, asm_eta7, eta7):
        c1, c2, c3 = 0.3, -0.7, 0.2
        x = np.zeros(asm_eta7.ndof)
        x[asm_eta7.dofs("s1")] = c1
        x[asm_eta7.dofs("s2")] = c2
        x[asm_eta7.dofs("s3")] = c3
        val = x @ (asm_eta7.form("a") @ x)
        relax = (4.0 * eta7.l1) / (15.0 * KN) * (c1**2 + c2**2 + c3**2)
        wall = 2.0 * asm_eta7.coeffs.S5 * c1**2 + 2.0 * asm_eta7.coeffs.S1 * (c2**2 + c3**2)
        assert val == pytest.approx(relax + wall, rel=1e-13)

    def test_wall_normal_sign_flip_at_left_wall(self, asm_eta7, eta7):
        # b(theta, r) with theta = 1: volume k0 int(div r) plus R1 r_n traces;
        # r = (x,0,0) sees only the x=1 wall, r = (1-x,0,0) only x=0 with
        # r_n = -r_1 there.
        c = asm_eta7.coeffs
        th = np.zeros(asm_eta7.ndof)
        th[asm_eta7.dofs("theta")] = 1.0
        nodes = np.linspace(0.0, 1.0, asm_eta7.spaces["s1"].ndof)
        r_up = np.zeros(asm_eta7.ndof)
        r_up[asm_eta7.dofs("s1")] = nodes
        r_dn = np.zeros(asm_eta7.ndof)
        r_dn[asm_eta7.dofs("s1")] = 1.0 - nodes
        b = asm_eta7.form("b")
        assert th @ (b @ r_up) == pytest.approx(eta7.k0 + c.R1, rel=1e-13)
        assert th @ (b @ r_dn) == pytest.approx(-eta7.k0 - c.R1, rel=1e-13)

    def test_mass_matrix_pressure_temperature_block(self, asm_eta7):
        # rho = p - theta: constants p = 1 give 1, theta = 1 give 5/2,
        # p = theta = 1 give 3/2.
        mw = asm_eta7.mass_matrix()
        p = np.zeros(asm_eta7.ndof)
        p[asm_eta7.dofs("p")] = 1.0
        t = np.zeros(asm_eta7.ndof)
        t[asm_eta7.dofs("theta")] = 1.0
        assert p @ (mw @ p) == pytest.approx(1.0, rel=1e-13)
        assert t @ (mw @ t) == pytest.approx(2.5, rel=1e-13)
        assert (p + t) @ (mw @ (p + t)) == pytest.approx(1.5, rel=1e-13)


# ---------------------------------------------------------------------------
# steady solves


class TestSteady:
    @pytest.mark.parametrize("formulation", ["nonmaxwell", "maxwell"])
    def test_equilibrium_exact(self, eta7, maxwell, formulation):
        model = maxwell if formulation == "maxwell" else eta7
        asm = SlabAssembly(SlabMesh(8, 2), model, KN, formulation)
        wall = WallData(theta_w=np.array([0.7, 0.7]), u_t=np.zeros((2, 2)))
        state, mon = solve_steady(asm, wall)
        assert np.abs(state.component("theta") - 0.7).max() <= 1e-10
        for name in slab.COMPONENTS:
            if name != "theta":
                assert np.abs(state.component(name)).max() <= 1e-10
        assert mon.residual_rel <= 1e-8

    @pytest.mark.parametrize("formulation", ["nonmaxwell", "maxwell"])
    def test_zero_data_zero_solution(self, eta7, maxwell, formulation):
        model = maxwell if formulation == "maxwell" else eta7
        asm = SlabAssembly(SlabMesh(6, 2), model, KN, formulation)
        state, _ = solve_steady(asm, WallData.homogeneous())
        assert np.abs(state.coefficients).max() == 0.0

    def test_couette_antisymmetric_with_slip(self, couette_eta7):
        _, state, _ = couette_eta7
        x = np.linspace(0.0, 1.0, 41)
        u2, _ = state.evaluate("u2", x)
        u2r, _ = state.evaluate("u2", 1.0 - x)
        assert np.abs(u2 + u2r).max() <= 1e-10
        assert 0.0 < abs(u2[0]) < 0.5

    def test_couette_maxwell_comoving_with_slip(self, couette_maxwell):
        _, state, _ = couette_maxwell
        u2, _ = state.evaluate("u2", np.array([0.0, 1.0]))
        assert -0.5 < u2[0] < 0.0 and 0.0 < u2[1] < 0.5

    def test_couette_fine_grid_pin(self, eta7):
        asm = SlabAssembly(SlabMesh(256, 2), eta7, 1.0, "nonmaxwell")
        state, _ = solve_steady(asm, WallData.couette())
        ref = SlabAssembly(SlabMesh(1024, 2), eta7, 1.0, "nonmaxwell")
        ref_state, _ = solve_steady(ref, WallData.couette())
        assert rel_l2_gap(state, ref_state, 256) < 0.02

    def test_couette_maxwell_fine_grid_pin(self, maxwell, couette_maxwell):
        _, state, _ = couette_maxwell
        ref = SlabAssembly(SlabMesh(128, 2), maxwell, KN, "maxwell")
        ref_state, _ = solve_steady(ref, WallData.couette())
        assert rel_l2_gap(state, ref_state, 32) < 0.02

    def test_maxwell_physical_shear_stress_constant(self, couette_maxwell):
        _, state, _ = couette_maxwell
        _, _, fluxes = state.profile(41)
        sig12 = np.array([f.sigma.matrix()[0, 1] for f in fluxes])
        assert np.ptp(sig12) <= 1e-12
        assert sig12[0] != 0.0

    @pytest.mark.parametrize("formulation", ["nonmaxwell", "maxwell"])
    def test_shear_thermal_decoupling(self, eta7, maxwell, formulation):
        model = maxwell if formulation == "maxwell" else eta7
        asm = SlabAssembly(SlabMesh(16, 2), model, KN, formulation)
        state, _ = solve_steady(asm, WallData.couette())
        for name in ("theta", "s1", "sig1", "sig2", "p"):
            assert np.abs(state.component(name)).max() <= 1e-10

    @pytest.mark.parametrize("formulation", ["nonmaxwell", "maxwell"])
    def test_zero_mean_pressure(self, eta7, maxwell, formulation):
        model = maxwell if formulation == "maxwell" else eta7
        asm = SlabAssembly(SlabMesh(16, 2), model, KN, formulation)
        state, _ = solve_steady(asm, WallData.fourier())
        int_p = float(asm._integral_vector("p") @ state.coefficients)
        assert abs(int_p) <= 1e-12 * np.linalg.norm(state.component("p"))

    def test_steady_entropy_balance(self, couette_eta7, couette_maxwell):
        for _, _, mon in (couette_eta7, couette_maxwell):
            assert mon.i_bdry_data == pytest.approx(mon.w1, abs=1e-8 * (1 + abs(mon.w1)))


# ---------------------------------------------------------------------------
# monitors


class TestMonitors:
    def test_zero_state_all_zero(self, asm_eta7):
        mon = monitors(zero_state(asm_eta7), asm_eta7)
        for field in dataclasses.fields(SolveMonitors):
            assert getattr(mon, field.name) == 0.0

    def test_w1_for_interpolated_sine_temperature(self, eta7):
        asm = SlabAssembly(SlabMesh(64, 2), eta7, KN, "nonmaxwell")
        state = zero_state(asm)
        nodes = np.linspace(0.0, 1.0, asm.spaces["theta"].ndof)
        state.coefficients[asm.dofs("theta")] = np.sin(np.pi * nodes)
        mon = monitors(state, asm)
        exact = -0.75 * eta7.k1 * KN * np.pi**2
        assert mon.w1 == pytest.approx(exact, rel=1e-6)
        # wall trace is sin(pi*x) at the endpoints: zero up to rounding in pi
        assert abs(mon.i_bdry) < 1e-30

    def test_energy_identity_random_states(self, asm_eta7, asm_maxwell):
        rng = np.random.default_rng(2024)
        for asm in (asm_eta7, asm_maxwell):
            for _ in range(20):
                mon = monitors(random_state(asm, rng), asm)
                gap = abs(mon.b_diag - (mon.i_bdry - mon.w1))
                assert gap <= 1e-10 * (1.0 + abs(mon.b_diag))

    def test_dissipation_signs_random_states(self, asm_eta7):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mon = monitors(random_state(asm_eta7, rng), asm_eta7)
            assert mon.w1 <= 1e-12 * (1.0 + mon.energy)
            assert mon.i_bdry >= -1e-12 * (1.0 + mon.energy)
            assert mon.entropy == -mon.energy

    def test_flux_routes_converge(self, maxwell):
        # i_bdry - wall_load and f1 - f2_trace measure the same boundary
        # production through independent formulas; their gap shrinks under
        # refinement.
        gaps = []
        for n in (16, 64):
            asm = SlabAssembly(SlabMesh(n, 2), maxwell, KN, "maxwell")
            _, mon = solve_steady(asm, WallData.fourier())
            gaps.append(abs((mon.i_bdry - mon.wall_load) - (mon.f1 - mon.f2_trace)))
        assert gaps[1] < gaps[0] / 4.0

    def test_f2_definition_consistency(self, couette_eta7):
        _, _, mon = couette_eta7
        assert mon.f2 == pytest.approx(mon.f1 - mon.i_bdry_data, abs=1e-14)

    @pytest.mark.parametrize("model_name,formulation",
                             [("eta7", "nonmaxwell"), ("maxwell", "maxwell")])
    def test_operator_is_wall_quadratic_minus_dissipation(self, model_name,
                                                          formulation):
        # b_diag = i_bdry - w1 as a one-time matrix identity: the symmetric
        # part of the operator equals the wall quadratic, written as a
        # matrix over the value traces, minus the assembled W.
        asm = SlabAssembly(SlabMesh(16, 2), resolve_model(model_name), KN,
                           formulation)
        ops = slab._monitor_operators(asm)
        m = len(slab.COMPONENTS)
        b_wall = sp.csr_matrix((asm.ndof, asm.ndof))
        for w, frame in enumerate(slab.WALL_FRAMES):
            def quadratic(v, frame=frame):
                fr = {"s": frame_components(v[..., 5:8], frame),
                      "u": frame_components(v[..., 2:5], frame),
                      "sig": frame_components(StfTensor3(v[..., 8:13]), frame),
                      "theta": v[..., 1]}
                return slab._wall_quadratic(asm.coeffs, fr)

            kern = slab._quadratic_kernel(quadratic, m)
            trace = ops.traces[2 * w * m:(2 * w + 1) * m]
            b_wall = b_wall + trace.T @ sp.csr_matrix(kern) @ trace
        a = asm.a_operator().toarray()
        gap = 0.5 * (a + a.T) - (b_wall - ops.w1).toarray()
        assert np.abs(gap).max() <= 1e-12 * np.abs(a).max()

    def test_wall_traces_located_once_per_space_kind(self, maxwell, monkeypatch):
        calls = []
        locate = slab.ScalarSpace.locate

        def counting(self, x):
            calls.append(self.kind)
            return locate(self, x)

        monkeypatch.setattr(slab.ScalarSpace, "locate", counting)
        asm = SlabAssembly(SlabMesh(8, 2), maxwell, KN, "maxwell")
        slab._monitor_operators(asm)
        assert sorted(calls) == ["cg", "dg"]

    def test_volume_monitors_match_pointwise_quadrature(self, asm_eta7,
                                                        asm_maxwell):
        # Transcription of the volume monitor integrals: 4-point Gauss per
        # element over the pointwise mass inner product and w1 integrand.
        qp, qw = np.polynomial.legendre.leggauss(4)
        rng = np.random.default_rng(31)
        for asm in (asm_eta7, asm_maxwell):
            n = asm.mesh.n_elements
            x = ((np.arange(n)[:, None] + 0.5 * (qp + 1.0)) / n).ravel()
            wq = np.tile(0.5 * qw / n, n)
            for _ in range(3):
                state = random_state(asm, rng)
                mon = monitors(state, asm)
                vals, ders = state.sample(x)
                energy = w1 = 0.0
                for k in range(x.size):
                    u = slab._state_from_components(vals[:, k])
                    energy += 0.5 * wq[k] * mass_inner(u, u)
                    w1 += wq[k] * slab._w1_integrand(asm.model, asm.kn,
                                                     vals[:, k], ders[:, k])
                rho = vals[0] - vals[1]
                assert mon.energy == pytest.approx(energy, rel=1e-12)
                assert mon.w1 == pytest.approx(w1, rel=1e-12)
                assert mon.mass == pytest.approx(
                    wq @ rho, rel=1e-12, abs=1e-12 * (wq @ np.abs(rho)))


class TestBatchedKernels:
    """The pointwise integrands broadcast over leading batch axes, so every
    kernel is probed in one call; each batch item gives exactly the number
    of its single-item call."""

    SHAPE = (4, 3)

    def test_w1_integrand(self, eta7):
        rng = np.random.default_rng(301)
        vals, ders = rng.uniform(-1.0, 1.0, size=(2,) + self.SHAPE + (13,))
        out = slab._w1_integrand(eta7, KN, vals, ders)
        assert out.shape == self.SHAPE
        for idx in np.ndindex(self.SHAPE):
            assert out[idx] == slab._w1_integrand(eta7, KN, vals[idx], ders[idx])

    @pytest.mark.parametrize("name", sorted(slab.FORM_GROUPS))
    def test_volume_form(self, eta7, name):
        g1, g2 = slab.FORM_GROUPS[name]
        m1, m2 = slab._GROUP_DIM[g1], slab._GROUP_DIM[g2]
        form = slab._volume_forms(eta7, KN)[name]
        rng = np.random.default_rng(302)
        x = rng.uniform(-1.0, 1.0, size=self.SHAPE + (2 * m1,))
        y = rng.uniform(-1.0, 1.0, size=self.SHAPE + (2 * m2,))

        def evaluate(x, y):
            return form(slab._prepare(g1, x[..., :m1], x[..., m1:]),
                        slab._prepare(g2, y[..., :m2], y[..., m2:]))

        out = evaluate(x, y)
        assert out.shape == self.SHAPE
        for idx in np.ndindex(self.SHAPE):
            assert out[idx] == evaluate(x[idx], y[idx])

    @pytest.mark.parametrize("name", sorted(slab.FORM_GROUPS))
    def test_boundary_form(self, eta7, name):
        g1, g2 = slab.FORM_GROUPS[name]
        m1, m2 = slab._GROUP_DIM[g1], slab._GROUP_DIM[g2]
        form = slab._boundary_forms(slab.boundary_coefficients(eta7))[name]
        rng = np.random.default_rng(303)
        x = rng.uniform(-1.0, 1.0, size=self.SHAPE + (m1,))
        y = rng.uniform(-1.0, 1.0, size=self.SHAPE + (m2,))
        for frame in slab.WALL_FRAMES:
            def evaluate(x, y):
                return form(slab._frame_comps(g1, x, frame), slab._frame_comps(g2, y, frame))

            out = np.broadcast_to(evaluate(x, y), self.SHAPE)
            for idx in np.ndindex(self.SHAPE):
                assert out[idx] == evaluate(x[idx], y[idx])

    def test_quadratic_kernel_recovers_symmetric_matrix(self):
        # Integer entries keep every polarization sum exact.
        rng = np.random.default_rng(304)
        a = rng.integers(-9, 10, size=(7, 7)).astype(float)
        q_mat = a + a.T
        calls = []

        def q(v):
            calls.append(v.shape)
            return np.einsum("...i,ij,...j->...", v, q_mat, v)

        assert np.array_equal(slab._quadratic_kernel(q, 7), q_mat)
        assert calls == [(7 + 21, 7)]

    def test_profile_fluxes_are_pointwise_recovery(self, couette_eta7):
        state = couette_eta7[1]
        x, vals, fluxes = state.profile(11)
        _, ders = state.sample(x)
        assert len(fluxes) == x.size
        for i, flux in enumerate(fluxes):
            item = physical_fluxes(slab._state_from_components(vals[:, i]),
                                   slab._state_from_components(ders[:, i]),
                                   state.assembly.model, state.assembly.kn)
            assert np.array_equal(flux.sigma.components, item.sigma.components)
            assert np.array_equal(flux.s, item.s)


# ---------------------------------------------------------------------------
# transient stepping


class TestTransient:
    def test_zero_initial_stays_zero(self, asm_eta7):
        state, trace = transient_run(asm_eta7, zero_state(asm_eta7), 0.1, 5)
        assert np.abs(state.coefficients).max() == 0.0
        assert trace[-1].energy == 0.0

    def test_implicit_euler_dissipates(self, eta7):
        asm = SlabAssembly(SlabMesh(32, 2), eta7, KN, "nonmaxwell")
        u0 = random_state(asm, np.random.default_rng(7))
        final, trace = transient_run(asm, u0, dt=0.05, n_steps=60)
        energy = np.array([m.energy for m in trace])
        e0 = energy[0]
        assert np.all(np.diff(energy) <= 1e-12 * e0)
        assert all(m.w1 <= 1e-12 * (1 + e0) for m in trace)
        assert all(m.i_bdry >= -1e-12 * e0 for m in trace)
        mass = np.array([m.mass for m in trace])
        assert np.abs(mass - mass[0]).max() <= 1e-10
        # contraction in the mass-weighted norm
        mw = asm.mass_matrix()
        n0 = u0.coefficients @ (mw @ u0.coefficients)
        nf = final.coefficients @ (mw @ final.coefficients)
        assert nf <= n0

    def test_crank_nicolson_near_monotone(self, eta7):
        asm = SlabAssembly(SlabMesh(16, 2), eta7, KN, "nonmaxwell")
        u0 = random_state(asm, np.random.default_rng(9))
        _, trace = transient_run(asm, u0, dt=0.02, n_steps=40, scheme="crank-nicolson")
        energy = np.array([m.energy for m in trace])
        assert np.all(np.diff(energy) <= 1e-10 * energy[0])

    def test_maxwell_model_through_transient_path(self, maxwell):
        asm = SlabAssembly(SlabMesh(16, 2), maxwell, KN, "nonmaxwell")
        u0 = random_state(asm, np.random.default_rng(11))
        _, trace = transient_run(asm, u0, dt=0.05, n_steps=30)
        energy = np.array([m.energy for m in trace])
        assert np.all(np.diff(energy) <= 1e-12 * energy[0])

    def test_step_rejects_bad_arguments(self, asm_eta7):
        state = zero_state(asm_eta7)
        with pytest.raises(ValueError):
            step_transient(state, -0.1, "implicit-euler", asm_eta7)
        with pytest.raises(ValueError):
            step_transient(state, 0.1, "leapfrog", asm_eta7)
        with pytest.raises(ValueError):
            step_transient(state, 0.1, "implicit-euler", asm_eta7,
                           wall=WallData.couette())

    def test_step_rejects_non_finite_dt(self, asm_eta7):
        state = zero_state(asm_eta7)
        for dt in (np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                step_transient(state, dt, "implicit-euler", asm_eta7)

    def test_run_rejects_negative_step_count(self, asm_eta7):
        with pytest.raises(ValueError, match="n_steps must be nonnegative"):
            transient_run(asm_eta7, zero_state(asm_eta7), dt=0.01, n_steps=-3)

    def test_a_operator_built_once_per_assembly(self, eta7, monkeypatch):
        calls = []
        build = SlabAssembly.a_operator

        def counting(self):
            calls.append(self)
            return build(self)

        monkeypatch.setattr(SlabAssembly, "a_operator", counting)
        counts = []
        for steps in (2, 12):
            asm = SlabAssembly(SlabMesh(8, 2), eta7, KN, "nonmaxwell")
            calls.clear()
            transient_run(asm, random_state(asm, np.random.default_rng(3)),
                          dt=0.05, n_steps=steps)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2
        assert asm.a_operator() is asm.a_operator()

    def test_step_residual_gate(self, eta7, monkeypatch):
        # A factor of the scaled matrix leaves a relative residual near 1e-3.
        splu = slab.spla.splu
        monkeypatch.setattr(slab, "spla",
                            SimpleNamespace(splu=lambda mat: splu(1.001 * mat)))
        asm = SlabAssembly(SlabMesh(4, 2), eta7, KN, "nonmaxwell")
        state = random_state(asm, np.random.default_rng(1))
        with pytest.raises(slab.SolverError, match="residual"):
            step_transient(state, 0.05, "implicit-euler", asm)

    def test_transient_requires_coercive_spaces(self, asm_maxwell):
        with pytest.raises(ValueError):
            asm_maxwell.transient_operator()


# ---------------------------------------------------------------------------
# spectral probes


class TestCoercivity:
    def test_eta7_minimum_eigenvalue_positive(self, asm_eta7):
        report = coercivity_probe(asm_eta7)
        assert report.min_eig > 0.0
        assert report.infsup > 0.0

    def test_maxwell_theta_bubble_exactly_zero(self, asm_maxwell):
        report = coercivity_probe(asm_maxwell)
        assert report.theta_bubble == 0.0
        assert report.min_eig >= -1e-12
        assert report.infsup > 0.0

    def test_nonmaxwell_probe_has_no_bubble_field(self, asm_eta7):
        assert coercivity_probe(asm_eta7).theta_bubble is None


# ---------------------------------------------------------------------------
# self-convergence


class TestConvergence:
    def test_equilibrium_errors_machine_zero(self, eta7):
        wall = WallData(theta_w=np.array([0.4, 0.4]), u_t=np.zeros((2, 2)))
        table = convergence_study(eta7, wall, [4, 8, 16], degree=2, kn=KN)
        assert np.all(table.totals <= 1e-12)

    def test_couette_ladder_monotone(self, eta7):
        table = convergence_study(eta7, WallData.couette(), [32, 64, 128],
                                  degree=2, kn=1.0)
        assert np.all(np.diff(table.totals) < 0.0)
        assert np.all(table.ratios >= 1.5)

    def test_requires_three_meshes(self, eta7):
        with pytest.raises(ValueError):
            convergence_study(eta7, WallData.couette(), [8, 16])


# ---------------------------------------------------------------------------
# construction guards


class TestValidation:
    def test_nonstrict_model_rejected_for_coercive_path(self, eta7):
        bad = dataclasses.replace(eta7, k2=1.0)   # violates 3 k2^2 < k1 k10
        with pytest.raises(ValueError):
            SlabAssembly(SlabMesh(4, 2), bad, KN, "nonmaxwell")

    def test_maxwell_grouping_needs_maxwell_model(self, eta7):
        with pytest.raises(ValueError):
            SlabAssembly(SlabMesh(4, 2), eta7, KN, "maxwell")

    def test_wall_data_shape_checked(self):
        with pytest.raises(ValueError):
            WallData(theta_w=np.zeros(3), u_t=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            WallData(theta_w=np.zeros(2), u_t=np.zeros(2))

    def test_mesh_degree_limited(self):
        with pytest.raises(ValueError):
            SlabMesh(4, 3)
        with pytest.raises(ValueError):
            SlabMesh(0, 2)

    def test_positive_knudsen_required(self, eta7):
        for kn in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SlabAssembly(SlabMesh(4, 2), eta7, kn, "nonmaxwell")

    def test_evaluation_points_outside_slab_rejected(self):
        # f(x) = x; unchecked, x < 0 gives a negative element index,
        # which numpy wraps to the last element.
        space = slab.ScalarSpace(SlabMesh(4, 2), "cg")
        coeffs = np.linspace(0.0, 1.0, space.ndof)
        vals, _ = space.evaluate(coeffs, np.array([0.0, 0.3, 1.0]))
        np.testing.assert_allclose(vals, [0.0, 0.3, 1.0], atol=1e-15)
        for bad in (-0.5, 1.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                space.evaluate(coeffs, np.array([0.25, bad]))
