"""Slab assembly, steady solves, transient stepping, and monitors."""

import dataclasses
import gc
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from r13lab import fe1d, onsager, slab
from r13lab.fe1d import parity_bases
from r13lab.models import bundled_models, resolve_model
from r13lab.state import mass_inner, physical_fluxes
from r13lab.tensors import STF_PAIRS
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

# Every bundled model in the coercive grouping, the Maxwell-type ones also
# in the grouped degenerate one: every (model, grouping) SlabAssembly accepts.
GROUPINGS = [(name, formulation) for name in bundled_models()
             for formulation in ("nonmaxwell", "maxwell")
             if formulation == "nonmaxwell" or resolve_model(name).is_maxwell]

# Every grouping with a steady solve (D16 rejects a Maxwell-type model in
# the coercive one).
STEADY_GROUPINGS = [(name, formulation) for name, formulation in GROUPINGS
                    if formulation == "maxwell" or not resolve_model(name).is_maxwell]


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
        sig12 = fluxes.sigma.matrix()[:, 0, 1]
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

    @pytest.mark.parametrize("wall", [WallData.couette(), WallData.fourier(),
                                      WallData(theta_w=np.array([0.5, 0.5]),
                                               u_t=np.zeros((2, 2)))],
                             ids=["couette", "fourier", "equilibrium"])
    @pytest.mark.parametrize("name,formulation", STEADY_GROUPINGS)
    def test_steady_entropy_balance_every_grouping(self, name, formulation, wall):
        # The load vector and the wall_load monitor read one kernel; the
        # balance checks the solve against the monitors in every grouping.
        asm = SlabAssembly(SlabMesh(16, 2), resolve_model(name), KN, formulation)
        _, mon = solve_steady(asm, wall)
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

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", GROUPINGS)
    def test_operator_is_wall_quadratic_minus_dissipation(self, name, formulation,
                                                          degree, n):
        # b_diag = i_bdry - w1 as a one-time matrix identity: the symmetric
        # part of the operator equals the wall quadratic, probed on crossed
        # unit traces and written as a matrix over the value traces, minus
        # the assembled W.  At n = 1 both walls share the one element.
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation)
        m = len(slab.COMPONENTS)
        units = np.eye(m)
        b_wall = sp.csr_matrix((asm.ndof, asm.ndof))
        for w, frame in enumerate(slab.WALL_FRAMES):
            kern = slab._wall_quadratic(asm.coeffs, *(slab._wall_fields(e, frame)
                                                      for e in (units[:, None], units[None])))
            trace = asm._layout.traces[2 * w * m:(2 * w + 1) * m]
            b_wall = b_wall + trace.T @ sp.csr_matrix(kern) @ trace
        a = asm.a_operator().toarray()
        gap = 0.5 * (a + a.T) - (b_wall - _w1_rows(asm)).toarray()
        assert np.abs(gap).max() <= 1e-14 * np.abs(a).max()

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_stacked_products_match_separate_products(self, name, formulation, degree, n):
        # Reference: the four products M x, W x, A x and T x, each with its
        # own matrix, and the monitors written out from them.
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation)
        ops, kernels = asm._monitor_ops, asm._kernels
        mats = [asm.mass_matrix(), asm._layout.matrix(kernels.w1), asm.a_operator(),
                asm._layout.traces]
        rng = np.random.default_rng(n + 10 * degree)
        for _ in range(3):
            state = random_state(asm, rng)
            wall = WallData(theta_w=rng.uniform(-1.0, 1.0, 2),
                            u_t=rng.uniform(-1.0, 1.0, (2, 2)))
            x = state.coefficients
            mx, wx, ax, t = (mat @ x for mat in mats)
            assert (ops.products @ x).tobytes() == np.concatenate([mx, wx, ax, t]).tobytes()
            i_bdry, f1, f2_trace = ((ops.wall @ t) @ t).tolist()
            data = np.column_stack([wall.theta_w, wall.u_t])
            wall_load = float(np.sum(data * (kernels.wall_load @ t)))
            energy = 0.5 * float(x @ mx)
            expect = SolveMonitors(
                energy=energy, w1=float(x @ wx), i_bdry=i_bdry, wall_load=wall_load,
                i_bdry_data=i_bdry - wall_load, f1=f1, f2=f1 - (i_bdry - wall_load),
                f2_trace=f2_trace, entropy=slab._ENTROPY_REFERENCE - energy,
                mass=float(ops.mass @ x), b_diag=float(x @ ax), residual=0.0,
                residual_rel=0.0)
            assert monitors(state, asm, wall) == expect
            assert wall_load != 0.0

    def test_wall_traces_located_once_per_space_kind(self, maxwell, monkeypatch, cold_memos):
        calls = []
        locate = slab.ScalarSpace.locate

        def counting(self, x):
            calls.append(self.kind)
            return locate(self, x)

        monkeypatch.setattr(slab.ScalarSpace, "locate", counting)
        asm = SlabAssembly(SlabMesh(8, 2), maxwell, KN, "maxwell")
        asm._monitor_ops
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
                    fields = slab._volume_fields(vals[:, k], ders[:, k])
                    w1 += wq[k] * slab._w1_integrand(asm.model, asm.kn, fields, fields)
                rho = vals[0] - vals[1]
                assert mon.energy == pytest.approx(energy, rel=1e-12)
                assert mon.w1 == pytest.approx(w1, rel=1e-12)
                assert mon.mass == pytest.approx(
                    wq @ rho, rel=1e-12, abs=1e-12 * (wq @ np.abs(rho)))


def _pointwise_wall_monitors(state, wall):
    """Reference: (i_bdry, wall_load, f1, f2_trace) from a per-wall loop of
    the pointwise wall formulas over the sampled wall traces."""
    asm = state.assembly
    vals, ders = state.sample(np.array([0.0, 1.0]))
    i_bdry = wall_load = f1 = f2_trace = 0.0
    for w, frame in enumerate(slab.WALL_FRAMES):
        v, d = vals[:, w], ders[:, w]
        fr, vf = slab._wall_fields(v, frame), slab._volume_fields(v, d)
        i_bdry += slab._wall_quadratic(asm.coeffs, fr, fr)
        wall_load += slab._wall_load_value(asm.coeffs, asm.model, fr, wall.theta_w[w],
                                           wall.u_t[w, 0], wall.u_t[w, 1])
        f1 += slab._f1_value(asm.model, fr, fr)
        f2_trace += slab._f2_trace_value(asm.model, asm.kn, frame, vf, vf)
    return i_bdry, wall_load, f1, f2_trace


def _polarized_kernel(q, dim):
    """Reference: the symmetric kernel of a quadratic functional q by
    polarization, K_ij = (q(e_i + e_j) - q(e_i) - q(e_j)) / 2, with every
    off-diagonal entry within its rounding bound 8 eps (|q(e_i + e_j)| +
    |q(e_i)| + |q(e_j)|) set to an exact zero."""
    basis = np.eye(dim)
    i, j = np.triu_indices(dim, 1)
    diag, pair = q(basis), q(basis[i] + basis[j])
    off = 0.5 * (pair - diag[i] - diag[j])
    off[np.abs(off) <= 8.0 * np.finfo(float).eps
        * (np.abs(pair) + np.abs(diag[i]) + np.abs(diag[j]))] = 0.0
    kern = np.diag(diag)
    kern[i, j] = kern[j, i] = off
    return kern


class TestExactMonitorKernels:
    """Monitor kernels are exact: each monitor integrand is bilinear and
    probed on crossed unit probes, so inputs that do not couple give exact
    zeros (D15), and the wall monitors are cached kernels on the wall
    traces that agree with the pointwise wall formulas."""

    @pytest.mark.parametrize("kn", [1e-6, 0.1, 1e4])
    @pytest.mark.parametrize("name", bundled_models())
    def test_w1_kernel_matches_thresholded_polarization(self, name, kn):
        model = resolve_model(name)
        m = len(slab.COMPONENTS)
        units = np.eye(2 * m)
        kern = slab._w1_integrand(model, kn, *(slab._volume_fields(e[..., :m], e[..., m:])
                                               for e in (units[:, None], units[None])))

        def q(v):
            fields = slab._volume_fields(v[..., :m], v[..., m:])
            return slab._w1_integrand(model, kn, fields, fields)

        ref = _polarized_kernel(q, 2 * m)
        assert np.array_equal(kern, kern.T)
        assert np.array_equal(kern != 0.0, ref != 0.0)
        assert np.array_equal(np.diag(kern), np.diag(ref))
        assert np.abs(kern - ref).max() <= 1e-15 * np.abs(ref).max()
        # Coupled component pairs: any of (vv, vd, dv, dd) nonzero.
        k4 = kern.reshape(2, m, 2, m).transpose(0, 2, 1, 3)
        pairs = np.count_nonzero(np.any(k4 != 0.0, axis=(0, 1)))
        assert pairs == (10 if model.is_maxwell else 22)

    @pytest.mark.parametrize("model_name,formulation",
                             [("eta7", "nonmaxwell"), ("maxwell", "maxwell")])
    def test_wall_kernels_match_pointwise_loop(self, model_name, formulation):
        asm = SlabAssembly(SlabMesh(16, 2), resolve_model(model_name), KN, formulation)
        rng = np.random.default_rng(41)
        cases = [(random_state(asm, rng),
                  WallData(theta_w=rng.uniform(-1.0, 1.0, 2),
                           u_t=rng.uniform(-1.0, 1.0, (2, 2))))
                 for _ in range(5)]
        cases += [(solve_steady(asm, wall)[0], wall)
                  for wall in (WallData.couette(), WallData.fourier())]
        for state, wall in cases:
            mon = monitors(state, asm, wall=wall)
            got = (mon.i_bdry, mon.wall_load, mon.f1, mon.f2_trace)
            assert got == pytest.approx(_pointwise_wall_monitors(state, wall), rel=1e-13)

    @pytest.mark.parametrize("model_name,formulation",
                             [("eta7", "nonmaxwell"), ("maxwell", "maxwell")])
    def test_f2_trace_blocks_flip_sign_between_walls(self, model_name, formulation):
        # Every term of the gradient flux carries one factor of the normal.
        asm = SlabAssembly(SlabMesh(4, 2), resolve_model(model_name), KN, formulation)
        m = len(slab.COMPONENTS)
        k = asm._monitor_ops.wall[2].reshape(2, 2, m, 2, 2, m)
        assert np.any(k[0, 0, :, 0, 1])
        assert np.array_equal(k[1, 0, :, 1, 1], -k[0, 0, :, 0, 1])


class TestBatchedKernels:
    """The pointwise integrands broadcast over leading batch axes, so every
    kernel is probed in one call; each batch item gives exactly the number
    of its single-item call."""

    SHAPE = (4, 3)

    def test_monitor_integrands(self, eta7):
        rng = np.random.default_rng(301)
        vals, ders = rng.uniform(-1.0, 1.0, size=(2, 2) + self.SHAPE + (13,))
        coeffs = slab.boundary_coefficients(eta7)

        def integrands(v, d):
            """w1, then per wall i_bdry, f1 and f2_trace, of the argument
            pair ((v[0], d[0]), (v[1], d[1]))."""
            vol = [slab._volume_fields(*arg) for arg in zip(v, d)]
            out = [slab._w1_integrand(eta7, KN, *vol)]
            for frame in slab.WALL_FRAMES:
                fr = [slab._wall_fields(x, frame) for x in v]
                out += [slab._wall_quadratic(coeffs, *fr), slab._f1_value(eta7, *fr),
                        slab._f2_trace_value(eta7, KN, frame, *vol)]
            return out

        batch = integrands(vals, ders)
        for idx in np.ndindex(self.SHAPE):
            item = integrands(vals[(slice(None),) + idx], ders[(slice(None),) + idx])
            for out, one in zip(batch, item):
                assert out.shape == self.SHAPE and out[idx] == one
        # w1, i_bdry and f1 are exactly symmetric in their two arguments.
        swapped = integrands(vals[::-1], ders[::-1])
        for k in (0, 1, 2, 4, 5):
            assert np.array_equal(swapped[k], batch[k])

    @pytest.mark.parametrize("name", sorted(slab.FORM_GROUPS))
    def test_volume_form(self, eta7, name):
        g1, g2 = slab.FORM_GROUPS[name]
        m1, m2 = len(slab.GROUPS[g1]), len(slab.GROUPS[g2])
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
        m1, m2 = len(slab.GROUPS[g1]), len(slab.GROUPS[g2])
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

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_sample_matches_per_component_evaluation(self, name, formulation, degree):
        # sample locates points once per space kind; every component must
        # equal its own ScalarSpace evaluation bit for bit.
        asm = SlabAssembly(SlabMesh(7, degree), resolve_model(name), KN, formulation)
        rng = np.random.default_rng(305)
        state = random_state(asm, rng)
        x = np.concatenate([np.linspace(0.0, 1.0, 201), rng.uniform(0.0, 1.0, 50)])
        vals, ders = state.sample(x)
        for i, comp in enumerate(slab.COMPONENTS):
            v, d = state.evaluate(comp, x)
            assert np.array_equal(vals[i], v) and np.array_equal(ders[i], d), comp

    def test_profile_fluxes_are_pointwise_recovery(self, couette_eta7):
        state = couette_eta7[1]
        x, vals, fluxes = state.profile(11)
        _, ders = state.sample(x)
        assert fluxes.sigma.components.shape == (x.size, 5)
        assert fluxes.s.shape == (x.size, 3)
        for i in range(x.size):
            item = physical_fluxes(slab._state_from_components(vals[:, i]),
                                   slab._state_from_components(ders[:, i]),
                                   state.assembly.model, state.assembly.kn)
            assert np.array_equal(fluxes.sigma.components[i], item.sigma.components)
            assert np.array_equal(fluxes.s[i], item.s)


# ---------------------------------------------------------------------------
# one-pass assembly against the pair-by-pair scatter


def _pair_by_pair_csr(asm, kern, comps1, comps2, walls=()):
    """Reference: the volume integral of a constant (value, derivative)
    kernel scattered one component pair at a time, each pair's element
    matrix built from its own tabulations, plus wall kernels (wall, kernel)
    scattered one pair at a time from the wall traces."""
    from r13lab.fe1d import element_coo, gauss01

    qpts, qwts = gauss01(asm.mesh.degree + 1)
    w = qwts * asm.mesh.h

    def trace(c, wall):
        dofs, vals, _ = asm.spaces[c].locate(np.array([0.0, 1.0]))
        return asm.offsets[c] + dofs[wall], vals[:, wall]

    m1, m2 = len(comps1), len(comps2)
    triplets = []
    for i, c1 in enumerate(comps1):
        for j, c2 in enumerate(comps2):
            k = kern[i, j], kern[i, m2 + j], kern[m1 + i, j], kern[m1 + i, m2 + j]
            if not any(k):
                continue
            s1, s2 = asm.spaces[c1], asm.spaces[c2]
            v1, d1 = s1.tabulate(qpts)
            v2, d2 = s2.tabulate(qpts)
            elem = (k[0] * np.einsum("iq,jq,q->ij", v1, v2, w)
                    + k[1] * np.einsum("iq,jq,q->ij", v1, d2, w)
                    + k[2] * np.einsum("iq,jq,q->ij", d1, v2, w)
                    + k[3] * np.einsum("iq,jq,q->ij", d1, d2, w))
            triplets.append(element_coo(asm.offsets[c1] + s1.all_element_dofs(),
                                        asm.offsets[c2] + s2.all_element_dofs(), elem))
    for wall, bk in walls:
        for i, c1 in enumerate(comps1):
            for j, c2 in enumerate(comps2):
                if bk[i, j] == 0.0:
                    continue
                (d1, v1), (d2, v2) = trace(c1, wall), trace(c2, wall)
                triplets.append(element_coo(d1[None], d2[None], bk[i, j] * np.outer(v1, v2)))
    if not triplets:
        return sp.csr_matrix((asm.ndof, asm.ndof))
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    return sp.coo_matrix((vals, (rows, cols)), shape=(asm.ndof, asm.ndof)).tocsr()


def _w1_rows(asm):
    """W, the w1 operator: its rows of the stacked monitor operator."""
    return asm._monitor_ops.products[asm.ndof:2 * asm.ndof]


def _csr_bytes(mat):
    """Canonical CSR arrays as bytes, so that even the sign of a zero counts."""
    mat = sp.csr_matrix(mat, copy=True)
    mat.sum_duplicates()
    return mat.indptr.tobytes(), mat.indices.tobytes(), mat.data.tobytes()


def _form_references(asm):
    """Every form of asm scattered pair by pair from kernels probed afresh
    on unit probes of its two groups alone, (value | derivative, group
    component) in the volume and value traces at the walls."""
    vol_forms, wall_forms = slab._volume_forms(asm.model, asm.kn), slab._boundary_forms(asm.coeffs)
    forms = {}
    for form, (g1, g2) in slab.FORM_GROUPS.items():
        m1, m2 = len(slab.GROUPS[g1]), len(slab.GROUPS[g2])
        x, y = np.eye(2 * m1)[:, None], np.eye(2 * m2)[None]
        kern = vol_forms[form](slab._prepare(g1, x[..., :m1], x[..., m1:]),
                               slab._prepare(g2, y[..., :m2], y[..., m2:]))
        walls = [(w, np.broadcast_to(wall_forms[form](
            slab._frame_comps(g1, np.eye(m1)[:, None], frame),
            slab._frame_comps(g2, np.eye(m2)[None], frame)), (m1, m2)))
            for w, frame in enumerate(slab.WALL_FRAMES)]
        forms[form] = _pair_by_pair_csr(asm, kern, slab.GROUPS[g1], slab.GROUPS[g2], walls)
    return forms


def _assert_matches_pair_by_pair(asm):
    """The forms, mass matrix, t1 Gram and W of asm equal bit for bit the
    pair-by-pair scatter of the same kernels."""
    comps, m = slab.COMPONENTS, len(slab.COMPONENTS)
    for form, ref in _form_references(asm).items():
        assert _csr_bytes(asm.form(form)) == _csr_bytes(ref), form
    units = np.eye(m)
    mass = np.zeros((2 * m, 2 * m))
    mass[:m, :m] = mass_inner(slab._state_from_components(units[:, None]),
                              slab._state_from_components(units[None]))
    assert _csr_bytes(asm.mass_matrix()) == _csr_bytes(
        _pair_by_pair_csr(asm, mass, comps, comps))
    primary = [float(c != "p") for c in comps]
    assert _csr_bytes(asm.t1_gram()) == _csr_bytes(
        _pair_by_pair_csr(asm, np.diag(primary + primary), comps, comps))
    units = np.eye(2 * m)
    k_w1 = slab._w1_integrand(asm.model, asm.kn, *(slab._volume_fields(e[..., :m], e[..., m:])
                                                   for e in (units[:, None], units[None])))
    assert _csr_bytes(_w1_rows(asm)) == _csr_bytes(
        _pair_by_pair_csr(asm, k_w1, comps, comps))


class TestOnePassAssembly:
    """Every slab matrix equals, bit for bit, the pair-by-pair scatter of
    the same kernels.  At n = 1 both walls lie in the one element, so the
    volume term and both wall terms add to the same dofs, and the order in
    which such duplicates are summed must match too."""

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_matches_pair_by_pair_scatter(self, name, formulation, degree, n):
        _assert_matches_pair_by_pair(
            SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation))

    def test_monitor_operator_build_stays_small(self, eta7):
        # W is one scatter of its coupled component pairs only (22 for
        # eta7, D15); scattering all 140 pairs that polarization roundoff
        # once filled would more than double this peak at n = 64.
        import tracemalloc

        asm = SlabAssembly(SlabMesh(64, 2), eta7, KN, "nonmaxwell")
        tracemalloc.start()
        try:
            asm._monitor_ops
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


def _chain_operators(f, formulation, pm):
    """Reference: (A operator, steady system, transient operator) written
    out as chains of sparse transposes and sums of the form matrices f."""
    if formulation == "nonmaxwell":
        a = (f["a"].T + f["j"] + f["j"].T + f["f"].T
             - f["c"] + f["c"].T - f["b"].T + f["b"] + f["e"] - f["e"].T
             + f["d"].T + f["z"] + f["z"].T + f["h"].T)
    else:
        a = f["a"].T + f["c"].T - f["c"] + f["d"].T
    a = a.tocsr()
    if formulation == "nonmaxwell":
        core = a - f["g"].T - f["g"]
    else:
        core = (a
                - f["b"].T - f["e"].T + f["g"]   # constraint couplings, flux rows
                - f["b"] - f["e"] + f["g"].T)    # velocity / temperature rows
    steady = sp.bmat([[core, pm[:, None]], [pm[None, :], None]], format="csr")
    return a, steady, (a + f["g"] - f["g"].T).tocsr()


def _covered_pairs(placements):
    """(test component, trial component) pairs a placement table covers."""
    pairs = []
    for name, (s, t) in placements.items():
        g1, g2 = slab.FORM_GROUPS[name]
        if s:
            pairs += [(c1, c2) for c1 in slab.GROUPS[g1] for c2 in slab.GROUPS[g2]]
        if t:
            pairs += [(c2, c1) for c1 in slab.GROUPS[g1] for c2 in slab.GROUPS[g2]]
    return pairs


def _raw_bytes(mat):
    """Format and raw index and value arrays, dtypes included, as bytes."""
    return mat.format, mat.indptr.tobytes(), mat.indices.tobytes(), mat.data.tobytes()


def _kept(asm, steady):
    """The former slice of the bordered steady system: the rows and columns
    a steady solve keeps, by setdiff1d, as CSC."""
    keep = np.setdiff1d(np.arange(steady.shape[0]), asm.essential_dofs)
    return steady[keep][:, keep].tocsc()


def _assert_matches_chain(asm):
    """The system operators of asm equal bit for bit the chains of sparse
    sums of the pair-by-pair form matrices."""
    a, steady, transient = _chain_operators(_form_references(asm), asm.formulation,
                                            asm._integral_vector("p"))
    assert _csr_bytes(asm.a_operator()) == _csr_bytes(a)
    assert _raw_bytes(asm.steady_system()) == _raw_bytes(_kept(asm, steady))
    if asm.formulation == "nonmaxwell":
        assert _csr_bytes(asm.transient_operator()) == _csr_bytes(transient)


def _chain_transient_operator(asm):
    """Reference: the former evolution operator, the sparse sum of the A
    operator and the matrix of the pressure coupling."""
    return asm.a_operator() + asm._layout.matrix(*asm._placed(slab.TRANSIENT_PLACEMENTS))


class TestPlacementTables:
    """Every system operator, built from its placement table, equals bit
    for bit the chain of sparse sums of the pair-by-pair form matrices."""

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell"),
                                                  ("maxwell", "nonmaxwell")])
    def test_matches_chain_of_sparse_sums(self, name, formulation, degree, n):
        _assert_matches_chain(
            SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation))

    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name", bundled_models())
    def test_transient_operator_matches_sparse_sum(self, name, degree, n):
        # One scatter of the A and pressure placements: the same stored
        # entries, in the same order, of the same dtypes and zero signs.
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN)
        assert _raw_bytes(asm.transient_operator()) == _raw_bytes(_chain_transient_operator(asm))

    def test_a_operator_built_per_call(self, asm_eta7, asm_maxwell):
        # The monitor stack holds the only kept A; each call builds its own.
        for asm in (asm_eta7, asm_maxwell):
            n = asm.ndof
            stacked = asm._monitor_ops.products[2 * n:3 * n]
            first, second = asm.a_operator(), asm.a_operator()
            assert not np.shares_memory(first.data, second.data)
            assert _raw_bytes(first) == _raw_bytes(stacked) == _raw_bytes(second)
            assert not any(sp.issparse(value) for value in vars(asm).values())

    @pytest.mark.parametrize("formulation", ["nonmaxwell", "maxwell"])
    def test_placements_cover_disjoint_component_pairs(self, formulation):
        a = slab.A_PLACEMENTS[formulation]
        operators = [a, {**a, **slab.STEADY_PLACEMENTS[formulation]}]
        if formulation == "nonmaxwell":
            operators.append({**a, **slab.TRANSIENT_PLACEMENTS})
        for placements in operators:
            pairs = _covered_pairs(placements)
            assert len(pairs) == len(set(pairs))
        # The additions place forms that the A operator does not.
        assert not set(a) & set(slab.STEADY_PLACEMENTS[formulation])
        assert not set(a) & set(slab.TRANSIENT_PLACEMENTS)

    def test_solve_paths_build_no_form_matrix(self, eta7, maxwell, monkeypatch):
        def no_form(self, name):
            raise AssertionError(f"form {name!r} built as a matrix")

        monkeypatch.setattr(SlabAssembly, "form", no_form)
        for model, formulation in ((eta7, "nonmaxwell"), (maxwell, "maxwell")):
            solve_steady(SlabAssembly(SlabMesh(8, 2), model, KN, formulation),
                         WallData.couette())
        asm = SlabAssembly(SlabMesh(8, 2), eta7, KN, "nonmaxwell")
        transient_run(asm, random_state(asm, np.random.default_rng(2)), dt=0.05, n_steps=3)

    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_steady_solve_builds_five_matrices(self, name, formulation, monkeypatch,
                                               cold_memos):
        # Mass matrix, A operator, steady system, W and the trace map, each
        # one scatter into a pattern; on a warm layout the mass matrix and
        # the trace map are shared, so a solve scatters only three.
        calls = []
        scatter = slab._Pattern.matrix

        def counting(self, vals):
            calls.append(self.shape)
            return scatter(self, vals)

        monkeypatch.setattr(slab._Pattern, "matrix", counting)
        for bound in (5, 3):
            calls.clear()
            asm = SlabAssembly(SlabMesh(8, 2), resolve_model(name), KN, formulation)
            solve_steady(asm, WallData.couette())
            assert len(calls) <= bound


def _chain_steady_solve(asm, wall):
    """Reference: (kept steady matrix, state, monitors) of solve_steady
    through the former chain: the sparse sum A + constraint couplings,
    sp.bmat for the pressure-mean border, setdiff1d for the kept dofs, two
    slices and splu."""
    core = asm.a_operator() + asm._layout.matrix(
        *asm._placed(slab.STEADY_PLACEMENTS[asm.formulation]))
    pm = asm._integral_vector("p")
    mat = sp.bmat([[core, pm[:, None]], [pm[None, :], None]], format="csr")
    rhs = np.concatenate([asm.load_vector(wall), [0.0]])
    keep = np.setdiff1d(np.arange(mat.shape[0]), asm.essential_dofs)
    red = mat[keep][:, keep].tocsc()
    xr = spla.splu(red).solve(rhs[keep])
    res = float(np.linalg.norm(red @ xr - rhs[keep]))
    x = np.zeros(mat.shape[0])
    x[keep] = xr
    state = slab.DiscreteState(assembly=asm, coefficients=x[:-1], multiplier=float(x[-1]))
    rel = res / float(np.linalg.norm(rhs[keep]))
    return red, state, monitors(state, asm, wall=wall, residual=res, residual_rel=rel)


class TestOnePassSteadySystem:
    """steady_system() is one scatter of the A and constraint placements and
    the border into the cached steady pattern of the kept rows and columns;
    the steady solve equals, bit for bit, the former chain of sparse sum,
    bmat, setdiff1d and slices."""

    @pytest.mark.parametrize("kn", [0.1, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", STEADY_GROUPINGS)
    def test_solve_matches_chain(self, name, formulation, degree, n, kn):
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), kn, formulation)
        wall = WallData(theta_w=np.array([-0.2, 0.4]), u_t=np.array([[0.1, -0.3], [0.5, 0.2]]))
        red, ref_state, ref_mon = _chain_steady_solve(asm, wall)
        state, mon = solve_steady(asm, wall)
        # Raw arrays: the same stored entries, in the same order, of the same dtypes.
        assert _raw_bytes(asm.steady_system()) == _raw_bytes(red)
        assert state.coefficients.tobytes() == ref_state.coefficients.tobytes()
        assert np.float64(state.multiplier).tobytes() == np.float64(ref_state.multiplier).tobytes()
        assert (np.array(dataclasses.astuple(mon)).tobytes()
                == np.array(dataclasses.astuple(ref_mon)).tobytes())

    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_solve_uses_no_bmat_or_setdiff1d(self, name, formulation, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("steady solve used the former chain")

        asm = SlabAssembly(SlabMesh(8, 2), resolve_model(name), KN, formulation)
        monkeypatch.setattr(slab.sp, "bmat", banned)
        monkeypatch.setattr(slab.np, "setdiff1d", banned)
        solve_steady(asm, WallData.couette())

    def test_essential_dofs_computed_once_read_only(self, asm_eta7, asm_maxwell):
        for asm in (asm_eta7, asm_maxwell):
            assert asm.essential_dofs is asm.essential_dofs
            assert not asm.essential_dofs.flags.writeable
            assert asm.essential_dofs.dtype == np.int32
            # u1 is CG in both groupings: its first and last dof.
            u1 = asm.dofs("u1")
            assert asm.essential_dofs.tolist() == [u1[0], u1[-1]]


def _reference_load(asm, wall):
    """The wall-data functional transcribed per test group, the reference
    for load_vector: L1 on heat-flux tests, L3 on stress tests and, in
    the coercive grouping only, L4 on velocity and L2 on temperature tests,
    each projected onto the wall frame and scattered through the layout's
    wall dofs and value traces."""
    c, k, layout = asm.coeffs, asm.model, asm._layout
    out = np.zeros(asm.ndof)

    def add(group, w, term):
        rows = slab._GROUP_SLICE[group]
        eye = np.eye(len(slab.GROUPS[group]))
        coeffs = np.ravel(term(slab._frame_comps(group, eye, slab.WALL_FRAMES[w])))
        i = np.nonzero(coeffs)[0]
        dofs = layout.wall_dofs[rows][i, w]
        vals = coeffs[i, None] * layout.wall_traces[rows][i, w, 0]
        out[dofs[dofs >= 0]] += vals[dofs >= 0]

    for w in (0, 1):
        tw = wall.theta_w[w]
        ut1, ut2 = wall.u_t[w]
        # L1: -(R1 + k0) theta_W r_n + T1 u_W.r_t
        add("s", w, lambda fc: -(c.R1 + k.k0) * tw * fc["n"]
            + c.T1 * (ut1 * fc["t1"] + ut2 * fc["t2"]))
        # L3: T2 theta_W tau_nn - (R4 + k5) u_W.tau_nt
        add("sg", w, lambda fc: c.T2 * tw * fc["nn"]
            - (c.R4 + k.k5) * (ut1 * fc["nt1"] + ut2 * fc["nt2"]))
        if asm.formulation == "nonmaxwell":
            # L4: S2 u_W.v_t and L2: S4 theta_W gamma
            add("u", w, lambda fc: c.S2 * (ut1 * fc["t1"] + ut2 * fc["t2"]))
            add("th", w, lambda fc: c.S4 * tw * fc)
    return out


LOAD_WALLS = [WallData(theta_w=np.array([0.7, 0.7]), u_t=np.zeros((2, 2))),
              WallData.couette(), WallData.fourier(),
              WallData(theta_w=np.array([-0.3, 1.1]), u_t=np.array([[0.2, -0.4], [0.9, 0.05]]))]


class TestLoadVector:
    """load_vector is the trace map applied to the wall-load kernel that the
    monitors read; its loads equal bit for bit those of the per-group
    transcription, grouping rule included."""

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", GROUPINGS)
    def test_matches_per_group_transcription(self, name, formulation, degree, n):
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation)
        for wall in LOAD_WALLS:
            load, expect = asm.load_vector(wall), _reference_load(asm, wall)
            assert np.any(expect != 0.0)
            assert load.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("name,formulation", GROUPINGS)
    def test_monitors_without_data_are_homogeneous(self, name, formulation):
        asm = SlabAssembly(SlabMesh(4, 2), resolve_model(name), KN, formulation)
        state = random_state(asm, np.random.default_rng(11))
        mon = monitors(state, asm)
        ref = monitors(state, asm, WallData.homogeneous())
        assert (np.array(dataclasses.astuple(mon)).tobytes()
                == np.array(dataclasses.astuple(ref)).tobytes())


class TestGroupingGuard:
    """An assembly rejects a model whose forms outside its grouping's
    placements do not vanish: the solve would drop terms the monitors keep."""

    def test_flagged_nonmaxwell_model_rejected(self, eta7):
        flagged = dataclasses.replace(eta7, is_maxwell=True)
        with pytest.raises(ValueError, match="forms f, h, j, z"):
            SlabAssembly(SlabMesh(8, 2), flagged, KN, "maxwell")


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

    @pytest.fixture(scope="class")
    def eigenmode(self, eta7):
        """(assembly, rate, mode): a simple real eigenpair L v = rate M v of
        the evolution operator on the free dofs at kn 1, n 16, scattered
        into all dofs, so exp(-rate t) v solves M U' + L U = 0 exactly."""
        asm = SlabAssembly(SlabMesh(16, 2), eta7, 1.0, "nonmaxwell")
        keep = asm._layout.free_dofs
        op = asm.transient_operator()[keep][:, keep].tocsc()
        mass = asm.mass_matrix()[keep][:, keep].tocsc()
        # Rates near 0.4: 0.3614 (a pair), 0.4106 and 0.4262.
        rate, vec = spla.eigs(op, k=1, M=mass, sigma=0.4, v0=np.ones(keep.size))
        assert rate[0].imag == 0.0 and not np.any(vec.imag)
        rate, mode = rate[0].real, np.zeros(asm.ndof)
        mode[keep] = vec[:, 0].real / np.abs(vec[:, 0].real).max()
        assert np.abs(op @ mode[keep] - rate * (mass @ mode[keep])).max() <= 1e-12
        return asm, rate, mode

    @pytest.mark.parametrize("scheme,order", [("implicit-euler", 1), ("crank-nicolson", 2)])
    def test_temporal_order_on_an_eigenmode(self, eigenmode, scheme, order):
        # The error at T = 0.5 against the exact decay falls by 2^order per
        # halving of dt.
        asm, rate, mode = eigenmode
        errors = []
        for steps in (8, 16, 32):
            final, _ = transient_run(asm, slab.DiscreteState(asm, mode.copy()),
                                     0.5 / steps, steps, scheme)
            errors.append(np.abs(final.coefficients - np.exp(-0.5 * rate) * mode).max())
        ratios = np.array(errors[:-1]) / errors[1:]
        assert np.all(np.abs(ratios - 2**order) <= 0.05 * 2**order), ratios

    def test_step_rejects_bad_arguments(self, asm_eta7):
        state = zero_state(asm_eta7)
        with pytest.raises(ValueError):
            step_transient(state, -0.1, "implicit-euler", asm_eta7)
        with pytest.raises(ValueError):
            step_transient(state, 0.1, "leapfrog", asm_eta7)
        with pytest.raises(TypeError):
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

    def test_a_operator_not_built_per_step(self, eta7, monkeypatch):
        # Once, for the monitor stack; the run's one factorization reads A
        # from the stack's rows through transient_operator.
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
        assert counts == [1, 1]

    def test_step_residual_gate(self, eta7, monkeypatch):
        # A factor of the scaled matrix leaves a relative residual near 1e-3.
        splu = slab.spla.splu
        monkeypatch.setattr(slab, "spla",
                            SimpleNamespace(splu=lambda mat: splu(1.001 * mat)))
        asm = SlabAssembly(SlabMesh(4, 2), eta7, KN, "nonmaxwell")
        state = random_state(asm, np.random.default_rng(1))
        with pytest.raises(slab.SolverError, match="residual"):
            step_transient(state, 0.05, "implicit-euler", asm)

    def test_steady_residual_gate(self, eta7, monkeypatch):
        # The same scaled factor as in the step gate above.
        splu = slab.spla.splu
        monkeypatch.setattr(slab, "spla",
                            SimpleNamespace(splu=lambda mat: splu(1.001 * mat)))
        asm = SlabAssembly(SlabMesh(4, 2), eta7, KN, "nonmaxwell")
        with pytest.raises(slab.SolverError, match="residual"):
            solve_steady(asm, WallData.couette())

    def test_nan_residual_fails_the_gate(self, eta7):
        # The load overflows the norms: residual inf over load norm inf.
        asm = SlabAssembly(SlabMesh(16, 2), eta7, KN, "nonmaxwell")
        with pytest.raises(slab.SolverError, match="residual"):
            solve_steady(asm, WallData.couette(1e308))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_load_norm_fails_the_gate(self, eta7):
        # At 1e160 the load norm overflows while the residual norm does not,
        # so the relative residual would read 0; at 1e150 both are finite.
        asm = SlabAssembly(SlabMesh(16, 2), eta7, KN, "nonmaxwell")
        with pytest.raises(slab.SolverError, match="load norm overflows"):
            solve_steady(asm, WallData.couette(1e160))
        _, mon = solve_steady(asm, WallData.couette(1e150))
        assert 0.0 < mon.residual_rel <= 1e-15

    def test_factorization_failure_is_solver_error(self, eta7, monkeypatch):
        def failing(mat):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(slab, "spla", SimpleNamespace(splu=failing))
        asm = SlabAssembly(SlabMesh(4, 2), eta7, KN, "nonmaxwell")
        with pytest.raises(slab.SolverError, match="direct factorization failed"):
            solve_steady(asm, WallData.couette())
        with pytest.raises(slab.SolverError, match="direct factorization failed"):
            step_transient(random_state(asm, np.random.default_rng(1)), 0.05,
                           "implicit-euler", asm)
        with pytest.raises(slab.SolverError, match="direct factorization failed"):
            coercivity_probe(asm)

    def test_block_solve_matches_column_solves(self, asm_eta7):
        # One checked solve for a block of right-hand sides is the solve of
        # each column, bit for bit; the factor of another matrix fails the
        # gate on the block as on one column.
        red = asm_eta7.steady_system()
        b = np.random.default_rng(4).standard_normal((red.shape[0], 5))
        lu = slab._factor(red)
        x, res, rel = slab._checked_solve(lu, red, b)
        for j in range(b.shape[1]):
            assert np.array_equal(x[:, j], slab._checked_solve(lu, red, b[:, j])[0])
        assert res == np.linalg.norm(red @ x - b)
        assert rel == res / np.linalg.norm(b) <= slab.RESIDUAL_RTOL
        other = slab._factor((1.001 * red).tocsc())
        with pytest.raises(slab.SolverError, match="residual"):
            slab._checked_solve(other, red, b)

    def test_warm_step_makes_one_sparse_product_besides_its_load(self, eta7, monkeypatch):
        # A factorization record keeps the factor, the load matrix and the
        # kept dofs, not the factored matrix.  A warm step multiplies the
        # load matrix and then the transient stack, nothing else.
        asm = SlabAssembly(SlabMesh(8, 2), eta7, KN, "nonmaxwell")
        state, _ = step_transient(random_state(asm, np.random.default_rng(5)), 0.05,
                                  "implicit-euler", asm)
        (record,) = asm._factorizations.values()
        lu, right, keep = record
        assert isinstance(lu, spla.SuperLU)
        assert [mat.shape for mat in record if sp.issparse(mat)] == [(keep.size, asm.ndof)]
        products = []
        dispatch = sp._base._spbase._matmul_dispatch

        def counting(mat, other):
            products.append(mat)
            return dispatch(mat, other)

        monkeypatch.setattr(sp._base._spbase, "_matmul_dispatch", counting)
        step_transient(state, 0.05, "implicit-euler", asm)
        assert [id(mat) for mat in products] == [id(right), id(asm._transient_stack)]

    @pytest.mark.parametrize("scheme,theta", [("implicit-euler", 1.0),
                                              ("crank-nicolson", 0.5)])
    def test_step_monitors_and_residual_read_the_stack_product(self, eta7, scheme, theta):
        # The step's monitors are those of monitors() bit for bit, before
        # and after the monitor stack became a view of the transient stack;
        # its residual is that of the left matrix to roundoff.
        asm = SlabAssembly(SlabMesh(16, 2), eta7, KN, "nonmaxwell")
        state = random_state(asm, np.random.default_rng(6))
        before = monitors(state, asm)
        new, mon = step_transient(state, 0.02, scheme, asm)
        stack, ops = asm._transient_stack, asm._monitor_ops
        assert np.shares_memory(ops.products.data, stack.data)
        assert monitors(state, asm) == before
        assert monitors(new, asm, residual=mon.residual, residual_rel=mon.residual_rel) == mon
        keep = asm._layout.free_dofs
        mass, op = asm.mass_matrix(), asm.transient_operator()
        left = (mass / 0.02 + theta * op)[keep][:, keep]
        b = ((mass / 0.02 - (1.0 - theta) * op) @ state.coefficients)[keep]
        res = np.linalg.norm(left @ new.coefficients[keep] - b)
        assert abs(mon.residual - res) <= 1e-14 * np.linalg.norm(b)
        assert 0.0 < mon.residual_rel <= 1e-14

    def test_crank_nicolson_residual_gate(self, eta7, monkeypatch):
        # test_step_residual_gate for the theta = 1/2 rows of the stack.
        splu = slab.spla.splu
        monkeypatch.setattr(slab, "spla",
                            SimpleNamespace(splu=lambda mat: splu(1.001 * mat)))
        asm = SlabAssembly(SlabMesh(4, 2), eta7, KN, "nonmaxwell")
        state = random_state(asm, np.random.default_rng(1))
        with pytest.raises(slab.SolverError, match="residual"):
            step_transient(state, 0.05, "crank-nicolson", asm)

    def test_non_finite_solution_is_solver_error(self, eta7, monkeypatch):
        # A factor whose solve returns NaN fails before any residual is read.
        factor = SimpleNamespace(solve=lambda b: np.full(np.shape(b), np.nan))
        monkeypatch.setattr(slab, "spla", SimpleNamespace(splu=lambda mat: factor))
        asm = SlabAssembly(SlabMesh(4, 2), eta7, KN, "nonmaxwell")
        with pytest.raises(slab.SolverError, match="^solution contains non-finite entries$"):
            solve_steady(asm, WallData.couette())
        with pytest.raises(slab.SolverError, match="^solution contains non-finite entries$"):
            step_transient(random_state(asm, np.random.default_rng(1)), 0.05,
                           "implicit-euler", asm)

    @pytest.mark.parametrize("n,below", [(64, 13), (128, 3)])
    def test_default_mesh_slow_spectrum(self, eta7, n, below):
        # DECISIONS.md D19: at eta7, kn 0.1, degree 2 the default transient
        # mesh n 64 carries ten real eigenvalues in 0.56-0.96 that no finer
        # mesh has; below 1.0 n 128 keeps only 0 and the 0.00952 pair.
        asm = SlabAssembly(SlabMesh(n, 2), eta7, KN, "nonmaxwell")
        keep = asm._layout.free_dofs
        op = asm.transient_operator()[keep][:, keep].tocsc()
        mass = asm.mass_matrix()[keep][:, keep].tocsc()
        rates = spla.eigs(op, k=16, M=mass, sigma=-0.5, v0=np.ones(keep.size),
                          return_eigenvectors=False)
        assert np.abs(rates.imag).max() <= 1e-12
        assert np.sum(rates.real < 1.0) == below

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

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_block_spectrum_matches_full_dense_pencil(self, name, formulation, n):
        asm = SlabAssembly(SlabMesh(n, 2), resolve_model(name), KN, formulation)
        a = asm.a_operator()
        t1 = np.setdiff1d(np.concatenate([asm.group_dofs(g) for g in ("s", "u", "sg", "th")]),
                          asm.essential_dofs)
        sym = (0.5 * (a + a.T))[t1][:, t1].toarray()
        gram = asm.t1_gram()[t1][:, t1].toarray()
        ref = scipy.linalg.eigh(sym, gram, eigvals_only=True)
        # Report the whole spectrum, not only its low end.
        report = coercivity_probe(asm, n_report=t1.size)
        tol = 1e-12 * ref[-1]
        assert report.n_dofs == t1.size
        assert abs(report.min_eig - ref[0]) <= tol
        np.testing.assert_allclose(report.low_eigs, ref, rtol=0.0, atol=tol)

    # Odd n puts a CG (degree 2) or DG (degree 1) node at the midpoint, which
    # the wall reflection fixes.  Degree 1 starts at n = 2: one pressure dof
    # leaves no zero-mean complement for the inf-sup problem.
    @pytest.mark.parametrize("n,degree", [(8, 2), (16, 2), (1, 2), (3, 2),
                                          (2, 1), (3, 1), (8, 1)],
                             ids=["8", "16", "1", "3", "2-deg1", "3-deg1", "8-deg1"])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_block_scatter_matches_sliced_blocks_bit_for_bit(self, name, formulation, n,
                                                             degree):
        # The probe scatters the entries of each connected block into dense
        # buffers and gives zero blocks exact zeros unsolved; with the whole
        # spectrum reported it skips no block, so it has the reference's bits.
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation)
        ref = _sliced_block_spectrum(asm)
        report = coercivity_probe(asm, n_report=ref.size)
        assert report.low_eigs == tuple(float(v) for v in ref)

    @pytest.mark.parametrize("kn", [0.1, 1.0])
    @pytest.mark.parametrize("n,degree", [(1, 2), (3, 2), (16, 2), (2, 1), (5, 1), (16, 1)])
    @pytest.mark.parametrize("name,formulation", GROUPINGS)
    def test_default_report_matches_every_block_reference(self, name, formulation, n,
                                                           degree, kn):
        # DECISIONS.md D21: the default probe solves only the blocks that can
        # hold its six lowest values and certifies the rest by a Cholesky
        # factorization, which changes no bit of the report.
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), kn, formulation)
        ref = _sliced_block_spectrum(asm)
        report = coercivity_probe(asm)
        assert report.low_eigs == tuple(float(v) for v in ref[:6])
        assert report.min_eig == ref[0]

    @pytest.mark.parametrize("n_report", [True, False, -1, 2.0, 6.5, "6", None])
    def test_rejects_a_report_count_that_is_not_a_count(self, asm_eta7, n_report):
        with pytest.raises(ValueError, match="n_report"):
            coercivity_probe(asm_eta7, n_report=n_report)

    def test_report_count_zero_keeps_the_minimum(self, asm_eta7):
        full = coercivity_probe(asm_eta7)
        none = coercivity_probe(asm_eta7, n_report=np.int64(0))
        assert none.low_eigs == ()
        assert none.min_eig == full.min_eig == full.low_eigs[0]

    def test_maxwell_probe_solves_no_zero_block(self, maxwell, monkeypatch, cold_memos):
        # In the grouped degenerate formulation A lives on (sigma, s) only;
        # the u and theta blocks of the pencil are zero and are not solved.
        # Reporting the whole spectrum keeps every other block from being
        # certified and skipped, so each of them is solved.
        real, solved = scipy.linalg.eigh, []

        def counting(a, b=None, **kwargs):
            solved.append(np.array(a, copy=True))
            return real(a, b, **kwargs)

        asm = SlabAssembly(SlabMesh(8, 2), maxwell, KN, "maxwell")
        monkeypatch.setattr(scipy.linalg, "eigh", counting)
        report = coercivity_probe(asm, n_report=_t1_dofs(asm).size)
        # On a cold layout the first call is the inf-sup pencil on the
        # pressure complement, solved as the probe plan is built (D22).
        pencil = solved[1:]
        assert pencil and all(a.any() for a in pencil)
        assert sum(len(a) for a in pencil) < report.n_dofs
        assert report.min_eig == 0.0

    @pytest.mark.parametrize("degree,levels", [(1, [2, 4, 8, 16, 32]), (2, [2, 4, 8, 16])],
                             ids=["deg1", "deg2"])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_infsup_converges_from_above_to_the_continuous_constant(self, name, formulation,
                                                                   degree, levels):
        # The inf-sup constant of d/dx from H1_0 to L2_0 in the full H1 norm
        # is pi / sqrt(pi^2 + 1), attained by p = cos(pi x).  The measured
        # local rates are 1.85, 1.97, 1.99, 2.00 at degree 1 and 3.87, 3.97,
        # 3.99 at degree 2, the same in both groupings: 2 * degree.
        limit = np.pi / np.sqrt(np.pi ** 2 + 1.0)
        model = resolve_model(name)
        gaps = np.array([coercivity_probe(SlabAssembly(SlabMesh(n, degree), model, KN,
                                                       formulation)).infsup - limit
                         for n in levels])
        rates = np.log2(gaps[:-1] / gaps[1:])
        order = 2 * degree
        assert np.all(gaps > 0.0)
        assert np.all(np.diff(rates) > 0.0)
        assert rates[0] > order - 0.2
        assert order - 0.01 < rates[-1] < order

    @pytest.mark.parametrize("name,formulation,solved,certified", [
        ("eta7", "nonmaxwell", [130, 128], 10), ("maxwell", "maxwell", [], 12)])
    def test_default_probe_solves_only_blocks_that_reach_the_report(
            self, monkeypatch, name, formulation, solved, certified, cold_memos):
        # DECISIONS.md D21 at n 64: eta7 solves the first tangential twin of
        # each class and reuses it for the second; maxwell's zero blocks give
        # the six lowest values, and every other block is certified above 0.
        real, above, calls = scipy.linalg.eigh, fe1d.pencil_above, {"eigh": [], "above": []}

        def counting(a, b=None, **kwargs):
            calls["eigh"].append(len(a))
            return real(a, b, **kwargs)

        def certifying(a, g, tau):
            calls["above"].append(above(a, g, tau))
            return calls["above"][-1]

        asm = SlabAssembly(SlabMesh(64, 2), resolve_model(name), KN, formulation)
        monkeypatch.setattr(scipy.linalg, "eigh", counting)
        monkeypatch.setattr(fe1d, "pencil_above", certifying)
        coercivity_probe(asm)
        # On a cold layout the first call is the inf-sup pencil on the
        # pressure complement, solved as the probe plan is built (D22).
        assert calls["eigh"][1:] == solved
        assert sum(calls["above"]) == certified

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_infsup_matches_dense_solve(self, name, formulation, n):
        asm = SlabAssembly(SlabMesh(n, 2), resolve_model(name), KN, formulation)
        p = asm.dofs("p")
        u = np.setdiff1d(asm.group_dofs("u"), asm.essential_dofs)
        b = asm.form("g")[p][:, u].toarray()
        gu = asm.t1_gram()[u][:, u].toarray()
        mp = asm.mass_matrix()[p][:, p].toarray()
        z = scipy.linalg.null_space((mp @ np.ones(p.size))[None, :])
        s = z.T @ b @ np.linalg.solve(gu, b.T) @ z
        ref = np.sqrt(scipy.linalg.eigh(s, z.T @ mp @ z, eigvals_only=True)[0])
        assert abs(coercivity_probe(asm).infsup - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_pressure_coupling_reaches_u1_alone(self, name, formulation, degree, n):
        # The premise of the probe's u1-only inf-sup solve: g stores nothing
        # in the u2, u3 columns, and the t1 Gram couples u1 to no other
        # component.
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation)
        u1 = asm.dofs("u1")
        rest = np.setdiff1d(np.arange(asm.ndof), u1)
        assert asm.form("g")[asm.dofs("p")][:, np.concatenate(
            [asm.dofs("u2"), asm.dofs("u3")])].nnz == 0
        gram = asm.t1_gram()
        assert gram[u1][:, rest].nnz == 0 and gram[rest][:, u1].nnz == 0


def _t1_dofs(asm):
    """Free primary dofs of the coercivity pencil."""
    return np.setdiff1d(np.concatenate([asm.group_dofs(g) for g in ("s", "u", "sg", "th")]),
                        asm.essential_dofs)


def _sliced_block_spectrum(asm):
    """Sorted spectrum of the coercivity pencil, every block solved: each
    connected block of each parity class's pencil cut out of the permuted
    class pencil by sparse slicing and solved densely, even where its A
    part is zero."""
    from scipy.sparse.csgraph import connected_components

    t1 = _t1_dofs(asm)
    a = asm.a_operator()
    sym = (0.5 * (a + a.T))[t1][:, t1]
    gram = asm.t1_gram()[t1][:, t1]
    ref = []
    for q in _t1_classes(asm):
        a_q, g_q = q.T @ sym @ q, q.T @ gram @ q
        _, labels = connected_components(abs(a_q) + abs(g_q), directed=False)
        order = np.argsort(labels, kind="stable")
        a_q, g_q = a_q[order][:, order], g_q[order][:, order]
        ends = np.cumsum(np.bincount(labels))
        ref += [scipy.linalg.eigh(a_q[s:e, s:e].toarray(), g_q[s:e, s:e].toarray(),
                                  eigvals_only=True)
                for s, e in zip(np.r_[0, ends[:-1]], ends)]
    return np.sort(np.concatenate(ref))


def _t1_classes(asm):
    """Parity class bases of the free primary dofs: one mirror block per
    component, signed by slab._MIRROR_ODD."""
    primary = [c for c in slab.COMPONENTS if c != "p"]
    sizes = [np.setdiff1d(asm.dofs(c), asm.essential_dofs).size for c in primary]
    return parity_bases(sizes, [-1.0 if c in slab._MIRROR_ODD else 1.0 for c in primary])


def _coordinate_reflection(asm):
    """Signed permutation matrix of x -> 1 - x, built from the dof node
    coordinates and the x-index count of each component's tensor entry."""
    x_indices = {"p": (), "theta": ()}
    for k in range(3):
        x_indices[f"u{k + 1}"] = x_indices[f"s{k + 1}"] = (k,)
    for a, pair in enumerate(STF_PAIRS):
        x_indices[f"sig{a + 1}"] = pair
    rows, cols, vals = [], [], []
    for comp in slab.COMPONENTS:
        space = asm.spaces[comp]
        coords = np.empty(space.ndof)
        elems = np.arange(asm.mesh.n_elements)[:, None]
        coords[space.all_element_dofs()] = (elems + space.local_nodes) * asm.mesh.h
        order = np.argsort(coords)
        np.testing.assert_allclose(coords[order] + coords[order[::-1]], 1.0, rtol=0, atol=1e-15)
        rows.append(asm.offsets[comp] + order[::-1])
        cols.append(asm.offsets[comp] + order)
        vals.append(np.full(space.ndof, (-1.0) ** x_indices[comp].count(0)))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(asm.ndof, asm.ndof))


class TestWallReflection:
    """The slab pencils commute with the wall reflection x -> 1 - x (D18),
    the premise of the parity split in coercivity_probe."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", GROUPINGS)
    def test_pencils_commute_with_reflection(self, name, formulation, degree, n):
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation)
        refl = _coordinate_reflection(asm)
        a = asm.a_operator()
        # The symmetric part of A does not couple sig4 to any other
        # component, so a sign flip of sig4 alone commutes with it too; the
        # whole operator and the steady system pin sig4's parity.  The
        # steady system is on the kept dofs, a set the reflection maps to
        # itself.
        free = asm._layout.free_dofs
        for mat, r in ((0.5 * (a + a.T), refl), (asm.t1_gram(), refl), (asm.mass_matrix(), refl),
                       (asm.form("g"), refl), (a, refl),
                       (asm.steady_system()[:-1, :-1], refl[free][:, free])):
            gap = abs(r @ mat @ r.T - mat).max()
            assert gap <= 1e-15 * abs(mat).max()

    @pytest.mark.parametrize("n,degree", [(1, 2), (2, 1), (3, 1), (3, 2), (8, 2)])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell")])
    def test_class_bases_are_orthonormal_parity_vectors(self, name, formulation, n, degree):
        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation)
        t1 = _t1_dofs(asm)
        refl = _coordinate_reflection(asm)[t1][:, t1]
        even, odd = _t1_classes(asm)
        basis = sp.hstack([even, odd]).toarray()
        assert basis.shape == (t1.size, t1.size)
        np.testing.assert_allclose(basis.T @ basis, np.eye(t1.size), rtol=0, atol=1e-15)
        assert abs(refl @ even - even).max() == 0.0
        assert abs(refl @ odd + odd).max() == 0.0


def _raw_dense(arr):
    return arr.shape, arr.tobytes()


class TestProbePlan:
    """The layout keeps one coercivity probe plan per coupling signature of
    the symmetric part (D22): the class bases, the inf-sup constant and the
    dense positions of the blocks, which come from component coupling, with
    the class t1-Gram values; no model coefficient reaches them.  Each probe
    builds only the symmetric part and its blocks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_pressure_coupling_is_model_free(self, degree, n):
        # One layout per grouping: g is the same bytes for every model and Kn
        # on it.
        mesh, ref = SlabMesh(n, degree), {}
        for name, formulation in GROUPINGS:
            for kn in (0.1, 1.0):
                g = SlabAssembly(mesh, resolve_model(name), kn, formulation).form("g")
                assert ref.setdefault(formulation, _raw_bytes(g)) == _raw_bytes(g), (name, kn)
        assert ref.keys() == {"nonmaxwell", "maxwell"}

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", GROUPINGS)
    def test_component_blocks_are_the_connected_blocks(self, name, formulation, degree, n):
        # The blocks the probe takes from the 12 x 12 component graph of sym
        # A's stored entries are the connected components of each class
        # pencil's joint sparsity pattern, in the same order and bit for
        # bit; the components where sym A stores nothing split there into
        # blocks with no A entry, which the probe counts instead.
        from scipy.sparse.csgraph import connected_components

        asm = SlabAssembly(SlabMesh(n, degree), resolve_model(name), KN, formulation)
        t1 = _t1_dofs(asm)
        primary = [c for c in slab.COMPONENTS if c != "p"]
        component = np.concatenate([np.full(np.intersect1d(asm.dofs(c), t1).size, i)
                                    for i, c in enumerate(primary)])
        a = asm.a_operator()
        sym = (0.5 * (a + a.T))[t1][:, t1]
        gram = asm.t1_gram()[t1][:, t1]
        lowest, empty = slab._component_blocks(sym, component)
        for q in _t1_classes(asm):
            a_q, g_q = q.T @ sym @ q, q.T @ gram @ q
            coo = q.tocoo()
            column = np.empty(q.shape[1], dtype=int)
            column[coo.col] = component[coo.row]
            where = slab._ClassBlocks(lowest[column], empty, g_q)
            n_zero, blocks = where.n_zero, where.blocks(a_q)
            n_ref, labels = connected_components(abs(a_q) + abs(g_q), directed=False)
            ref = [np.flatnonzero(labels == k) for k in range(n_ref)]
            dense = [cols for cols in ref if a_q[cols][:, cols].nnz]
            assert n_zero == sum(cols.size for cols in ref) - sum(cols.size for cols in dense)
            assert n_zero == sum(np.isin(column, np.flatnonzero(empty)))
            assert len(blocks) == len(dense)
            for (ab, gb), cols in zip(blocks, dense):
                assert _raw_dense(ab) == _raw_dense(a_q[cols][:, cols].toarray())
                assert _raw_dense(gb) == _raw_dense(g_q[cols][:, cols].toarray())

    def test_one_infsup_solve_per_layout(self, monkeypatch, cold_memos):
        # The inf-sup constant of D22 is solved on the first probe of the
        # layout alone, with the parent's arithmetic, from the one t1 Gram
        # that also gives the class blocks, and shared by every model and
        # Kn of the coupling signature; a warm probe builds nothing
        # mesh-only again.
        mesh = SlabMesh(8, 2)
        calls = []
        real_eigh = scipy.linalg.eigh

        def counting_eigh(a, b=None, **kwargs):
            calls.append(sys._getframe(1).f_code.co_name)
            return real_eigh(a, b, **kwargs)

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapper

        form = SlabAssembly.form
        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(scipy.linalg, "null_space", counted("null_space",
                                                                scipy.linalg.null_space))
        monkeypatch.setattr(slab, "parity_bases", counted("parity_bases", slab.parity_bases))
        monkeypatch.setattr(SlabAssembly, "t1_gram", counted("t1_gram", SlabAssembly.t1_gram))
        monkeypatch.setattr(SlabAssembly, "form",
                            lambda self, name: counted(f"form {name}", form)(self, name))
        reports, per_probe = [], []
        for name in ("eta7", "eta10", "eta-infinity"):
            for kn in (0.1, 1.0):
                calls.clear()
                reports.append(coercivity_probe(SlabAssembly(mesh, resolve_model(name), kn)))
                per_probe.append([c for c in calls if c != "_block_spectrum"])
        assert per_probe[0].count("_infsup") == 1
        assert per_probe[0].count("t1_gram") == 1
        assert {"t1_gram", "form g", "null_space", "parity_bases"} <= set(per_probe[0])
        assert per_probe[1:] == [[]] * 5
        monkeypatch.undo()
        # The parent's inf-sup arithmetic, written out.
        asm = SlabAssembly(mesh, resolve_model("eta7"), KN)
        p, u = asm.dofs("p"), np.setdiff1d(asm.dofs("u1"), asm.essential_dofs)
        b = asm.form("g")[p][:, u].toarray()
        mp = asm.mass_matrix()[p][:, p].toarray()
        gu = asm.t1_gram()[u][:, u].tocsc()
        s = b @ spla.splu(gu).solve(b.T)
        z = scipy.linalg.null_space((mp @ np.ones(p.size))[None, :])
        ref = float(np.sqrt(max(scipy.linalg.eigh(z.T @ s @ z, z.T @ mp @ z,
                                                  eigvals_only=True)[0], 0.0)))
        assert {report.infsup for report in reports} == {ref}

    def test_probe_plan_is_read_only_and_counted(self, eta7, maxwell, cold_memos):
        for model, formulation in ((eta7, "nonmaxwell"), (maxwell, "maxwell")):
            asm = SlabAssembly(SlabMesh(8, 2), model, KN, formulation)
            layout = asm._layout
            before = layout.nbytes
            coercivity_probe(asm)
            # The probe keeps the symmetric part's pattern and one plan;
            # every array the plan holds, q.T's being views of q's.
            (pattern,) = _patterns(layout)
            (plan,) = _plans(layout)
            arrays = [arr for q, _, blocks in plan.classes for arr in (
                q.data, q.indices, q.indptr, blocks.rows_at, blocks.local, blocks.g_at,
                blocks.g_data)]
            assert layout.nbytes - before == pattern.nbytes + sum(arr.nbytes for arr in arrays)
            for arr in arrays:
                assert not arr.flags.writeable
            for q, qt, blocks in plan.classes:
                for key in ("data", "indices", "indptr"):
                    assert np.shares_memory(getattr(qt, key), getattr(q, key))
                # One value per stored entry of the canonical class Gram.
                assert blocks.g_data.shape == blocks.g_at.shape
            coercivity_probe(asm)
            assert _plans(layout) == [plan] and layout.nbytes - before == (
                pattern.nbytes + sum(arr.nbytes for arr in arrays))

    def test_second_probe_of_a_signature_builds_no_plan(self, eta7, monkeypatch, cold_memos):
        # The blocks of a coupling signature are found on its first probe;
        # later probes with the signature, here at another Kn too, find
        # none and keep nothing more.
        calls, component_blocks = [], slab._component_blocks

        def counting(*args):
            calls.append(args)
            return component_blocks(*args)

        monkeypatch.setattr(slab, "_component_blocks", counting)
        mesh = SlabMesh(8, 2)
        first = coercivity_probe(SlabAssembly(mesh, eta7, KN))
        layout = slab._layouts[mesh, "nonmaxwell"]
        kept, nbytes = dict(layout._kept), layout.nbytes
        assert len(calls) == 1
        assert coercivity_probe(SlabAssembly(mesh, eta7, KN)) == first
        coercivity_probe(SlabAssembly(mesh, eta7, 1.0))
        assert len(calls) == 1 and layout.nbytes == nbytes
        assert layout._kept.keys() == kept.keys()
        assert all(layout._kept[key] is value for key, value in kept.items())

    @pytest.mark.parametrize("n,degree", [(8, 2), (3, 1)])
    def test_other_couplings_get_their_own_plan(self, eta7, maxwell, n, degree, cold_memos):
        # On the coercive layout maxwell's symmetric part couples fewer
        # component pairs than eta7's (f, h, j and z vanish): its probe
        # builds a second plan, which solves its own inf-sup to the same
        # bits, reports the sliced reference's bits, and leaves eta7's plan
        # as it was.
        mesh = SlabMesh(n, degree)
        first = coercivity_probe(SlabAssembly(mesh, eta7, KN))
        asm = SlabAssembly(mesh, maxwell, KN)
        ref = _sliced_block_spectrum(asm)
        report = coercivity_probe(asm, n_report=ref.size)
        plans = _plans(asm._layout)
        assert len(plans) == 2
        assert report.low_eigs == tuple(float(v) for v in ref)
        assert report.infsup == first.infsup and report.n_dofs == first.n_dofs
        assert plans[0].infsup == plans[1].infsup and plans[0].n_dofs == plans[1].n_dofs
        assert coercivity_probe(SlabAssembly(mesh, eta7, KN)) == first

    def test_probe_keeps_one_pattern(self, eta7, maxwell, cold_memos):
        # The cold inf-sup solve reads form("g") once per plan, built into a
        # pattern the layout does not keep, so a probed layout holds one
        # pattern: the symmetric part's, which every probe scatters into.
        for model, formulation in ((eta7, "nonmaxwell"), (maxwell, "maxwell")):
            for degree in (1, 2):
                asm = SlabAssembly(SlabMesh(8, degree), model, KN, formulation)
                coercivity_probe(asm)
                assert len(_patterns(asm._layout)) == 1
                asm.form("g")
                assert len(_patterns(asm._layout)) == 1

    def test_memo_of_probed_layouts_is_bounded_by_bytes(self, eta7, monkeypatch, cold_memos):
        # Room for the n 4 or the n 8 probed layout, not for both: each
        # probe leaves its own layout alone in the memo.
        budget = 10**5
        monkeypatch.setattr(slab, "_LAYOUT_MEMO_BYTES", budget)
        ref = {}
        for n in (4, 8, 4, 8):
            asm = SlabAssembly(SlabMesh(n, 2), eta7, KN)
            # With its patterns built first, the plan is the last thing the
            # probe adds to the layout.
            asm.a_operator(), asm.form("g")
            report = coercivity_probe(asm)
            memo = list(slab._layouts.values())
            assert memo == [asm._layout] and len(_plans(asm._layout)) == 1
            assert asm._layout.nbytes <= budget
            assert ref.setdefault(n, report) == report


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name,formulation", GROUPINGS)
def test_one_element_mesh_fails_only_as_configuration_error(name, formulation, degree):
    # One element is the smallest mesh a user can ask for; every entry
    # point either works on it or rejects it with a ValueError.
    asm = SlabAssembly(SlabMesh(1, degree), resolve_model(name), KN, formulation)
    state = random_state(asm, np.random.default_rng(11))
    calls = {
        "solve_steady": lambda: solve_steady(asm, WallData.couette()),
        "step_transient": lambda: step_transient(state, 0.01, "implicit-euler", asm),
        "coercivity_probe": lambda: coercivity_probe(asm),
        "profile": lambda: state.profile(),
    }
    results = {}
    for key, call in calls.items():
        try:
            results[key] = call()
        except ValueError:
            pass
    # Degree 1 has one pressure dof and so no zero-mean complement.
    assert (results["coercivity_probe"].infsup is None) == (degree == 1)


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

    @pytest.mark.parametrize("levels,ref_factor,match", [
        ([2, 2, 4], 4, "distinct"), ([4, 2, 4, 8], 4, "distinct"),
        ([2, 4, 8], 1, "ref_factor"), ([2, 4, 8], 0, "ref_factor"),
        ([2, 4, 8], 2.5, "ref_factor"), ([2, 4, 8], "x", "ref_factor"),
        ([2, 4, 8], True, "ref_factor")])
    def test_degenerate_ladder_rejected_before_solving(self, eta7, monkeypatch,
                                                       levels, ref_factor, match):
        # A repeated level gives a ratio of 1, and ref_factor 1 makes the
        # finest level its own reference (ratio inf); neither measures
        # convergence.  A ref_factor of 2.5 once failed as a reference mesh
        # of 20.0 elements, and "x" with a TypeError.
        def no_solve(*args):
            raise AssertionError("solved a rejected ladder")

        monkeypatch.setattr(slab, "solve_steady", no_solve)
        with pytest.raises(ValueError, match=match):
            convergence_study(eta7, WallData.couette(), levels, ref_factor=ref_factor)

    def test_reference_released_before_the_levels(self, eta7, monkeypatch):
        # The reference is the largest mesh; it is sampled first and freed,
        # so it does not stay alive beside the levels.
        solved, solve = [], slab.solve_steady

        def recording(asm, wall):
            gc.collect()
            assert not solved or solved[0]() is None, "reference alive during a level"
            solved.append(weakref.ref(asm))
            return solve(asm, wall)

        monkeypatch.setattr(slab, "solve_steady", recording)
        table = convergence_study(eta7, WallData.couette(), [2, 4, 8], kn=KN)
        assert len(solved) == 4 and table.reference_elements == 32


def _clear_kernel_memos():
    for memo in (slab._kernels, slab._mass_kernel):
        memo.cache_clear()
    slab._layouts.clear()


@pytest.fixture
def cold_memos():
    """Empty kernel and layout memos, emptied again afterwards, so tests
    that count probes or builds do not depend on which tests ran before
    them."""
    _clear_kernel_memos()
    yield
    _clear_kernel_memos()


class TestKernelMemo:
    """The pointwise kernels are probed once per (model, Kn, wall
    coefficients) in a process and shared, read-only, by every assembly."""

    @pytest.mark.parametrize("kn", [0.1, 1.0])
    @pytest.mark.parametrize("name,formulation", GROUPINGS)
    def test_memo_hit_matches_cold_probe(self, name, formulation, kn, cold_memos):
        model, wall = resolve_model(name), WallData.couette(0.3)

        def build():
            asm = SlabAssembly(SlabMesh(4, 2), model, kn, formulation)
            mon = monitors(random_state(asm, np.random.default_rng(7)), asm, wall)
            mats = [asm.a_operator(), asm.steady_system(), asm.mass_matrix(), _w1_rows(asm)]
            return asm, ([_csr_bytes(mat) for mat in mats],
                         np.array(dataclasses.astuple(mon)).tobytes())

        first, _ = build()
        hit_asm, hit = build()
        assert hit_asm._kernels is first._kernels
        _clear_kernel_memos()
        cold_asm, cold = build()
        assert cold_asm._kernels is not first._kernels
        assert hit == cold

    def test_ladder_probes_each_kernel_once(self, eta7, monkeypatch, cold_memos):
        calls = dict.fromkeys([*slab.FORM_GROUPS, "w1"], 0)
        volume_forms, w1_integrand = slab._volume_forms, slab._w1_integrand

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(slab, "_volume_forms", lambda model, kn: {
            name: counted(name, form) for name, form in volume_forms(model, kn).items()})
        monkeypatch.setattr(slab, "_w1_integrand", counted("w1", w1_integrand))
        table = convergence_study(eta7, WallData.couette(), [2, 4, 8], kn=KN, ref_factor=2)
        assert len(table.rows) == 3
        assert calls == dict.fromkeys(calls, 1)

    def test_coercivity_probe_and_steady_solve_make_one_memo_miss(self, eta7, cold_memos):
        # Forms and monitors of one key are probed together, once.
        coercivity_probe(SlabAssembly(SlabMesh(4, 2), eta7, KN))
        solve_steady(SlabAssembly(SlabMesh(8, 2), eta7, KN), WallData.couette())
        info = slab._kernels.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_monitors_and_steps_skip_the_memo_once_built(self, eta7, monkeypatch):
        # After an assembly's first monitors call, the monitors and the
        # steps read its own kernels and operators only.
        asm = SlabAssembly(SlabMesh(8, 2), eta7, KN, "nonmaxwell")
        wall = WallData.couette()
        steady, mon = solve_steady(asm, wall)

        def no_memo(*args):
            raise AssertionError("kernel memo called after the monitors were built")

        monkeypatch.setattr(slab, "_kernels", no_memo)
        state = random_state(asm, np.random.default_rng(3))
        for _ in range(3):
            state, _ = step_transient(state, 0.01, "implicit-euler", asm)
        assert monitors(steady, asm, wall, mon.residual, mon.residual_rel) == mon

    def test_cold_monitor_build_stays_small(self, eta7, cold_memos):
        # test_monitor_operator_build_stays_small on empty memos, so that
        # its bound covers the kernel probe and the first builds of the A
        # and W patterns whichever tests ran before.  The assembly probes
        # the kernels, so it is built inside the traced window too.
        import tracemalloc

        tracemalloc.start()
        try:
            asm = SlabAssembly(SlabMesh(64, 2), eta7, KN, "nonmaxwell")
            asm._monitor_ops
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slab._kernels.cache_info().misses == 1
        assert peak <= 3 * 2**20

    def test_wall_monitor_memo_holds_only_wall_blocks(self, asm_eta7, asm_maxwell):
        # 3 wall monitors x 2 walls x one 13 x 13 block each; the dense
        # (3, 52, 52) operator is expanded per assembly.
        for asm in (asm_eta7, asm_maxwell):
            assert slab._kernels(asm.model, asm.kn, asm.coeffs).wall.size <= 1014
            assert asm._monitor_ops.wall.shape == (3, 52, 52)

    def test_cached_kernels_are_read_only(self, asm_eta7):
        asm = asm_eta7
        arrays = [arr for pair in asm._kernels.forms.values() for arr in pair]
        arrays += [slab._mass_kernel(), *asm._kernels[1:]]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
        with pytest.raises(TypeError):
            asm._kernels.forms["a"] = asm._kernels.forms["d"]

    def test_unit_probes_built_once_and_read_only(self, eta7):
        # Forms, wall loads and monitors of every key read the one probe set.
        probes = slab._unit_probes()
        for kn in (0.1, 1.0):
            asm = SlabAssembly(SlabMesh(2, 2), eta7, kn)
            asm.load_vector(WallData.couette())
            asm._monitor_ops
        assert slab._unit_probes() is probes
        assert slab._unit_probes.cache_info().misses == 1
        arrays = []

        def collect(obj):
            if isinstance(obj, (dict, tuple)):
                for item in (obj.values() if isinstance(obj, dict) else obj):
                    collect(item)
            else:
                arrays.append(obj.components if isinstance(obj, slab.StfTensor3) else obj)

        collect(probes)
        assert arrays and all(isinstance(arr, np.ndarray) for arr in arrays)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    def test_two_assemblies_of_one_model_derive_once(self, eta7, monkeypatch):
        # Counted inside the derivation, on a cold derivation memo: the
        # second assembly shares the first one's table.
        calls = []
        derive = onsager.proportionality_constants

        def counting(model):
            calls.append(model)
            return derive(model)

        monkeypatch.setattr(onsager, "proportionality_constants", counting)
        onsager.boundary_coefficients.cache_clear()
        first, second = (SlabAssembly(SlabMesh(4, 2), eta7, KN) for _ in range(2))
        assert calls == [eta7]
        assert first.coeffs is second.coeffs
        assert first._kernels is second._kernels

def _patterns(layout):
    """The sparsity patterns a layout keeps."""
    return [kept for kept in layout._kept.values() if isinstance(kept, slab._Pattern)]


def _plans(layout):
    """The coercivity probe plans a layout keeps, in the order it built them."""
    return [kept for kept in layout._kept.values() if isinstance(kept, slab._ProbePlan)]


def _layout_arrays(layout):
    """Every array a layout holds, its patterns' included."""
    arrays = [layout.kind, layout.blocks, layout.elem_dofs, layout.wall_dofs,
              layout.wall_traces, layout.essential_dofs, layout.steady_keep,
              layout.free_dofs]
    for mat in (layout.mass, layout.traces):
        arrays += [mat.data, mat.indices, mat.indptr]
    for pattern in _patterns(layout):
        arrays += [pattern.indptr, pattern.indices, pattern.first]
        arrays += [arr for pair in pattern.later for arr in pair]
    return arrays


def _operator_bytes(asm):
    return [_raw_bytes(mat) for mat in (
        asm.form("d"), asm.t1_gram(), asm.a_operator(), asm.steady_system(),
        _w1_rows(asm))]


class TestPattern:
    def test_scatter_sums_in_scatter_order(self):
        # Reference: a loop that assigns the first value of each stored
        # entry and adds the later ones in scatter order.  The values make
        # the sum depend on that order and keep zeros of either sign.
        rng = np.random.default_rng(5)
        n = 6
        rows, cols = rng.integers(-1, n, 90), rng.integers(-1, n, 90)
        vals = np.array([1.0, -1.0, 1e-16, -0.0, 0.0, 3.0, -3e-16])
        src = rng.integers(0, vals.size, 90)
        ref, keys = {}, []
        for r, c, v in zip(rows, cols, src):
            if r >= 0 and c >= 0:
                ref[r, c] = ref[r, c] + vals[v] if (r, c) in ref else vals[v]
                keys.append(r * n + c)
            else:
                keys.append(-1 - v)  # a padded row or column: any negative key
        pattern = slab._Pattern.build(np.array(keys), src, (n, n))
        mat = pattern.matrix(vals)
        keys = sorted(ref)
        indptr = np.searchsorted([major for major, _ in keys], np.arange(n + 1))
        assert mat.format == "csr"
        assert mat.indptr.tobytes() == indptr.astype(np.int32).tobytes()
        assert mat.indices.tobytes() == np.array([minor for _, minor in keys], np.int32).tobytes()
        assert mat.data.tobytes() == np.array([ref[key] for key in keys]).tobytes()
        assert len(pattern.later) >= 2


class TestLayoutMemo:
    """The model-free layout is built once per (mesh, grouping) in a process
    and each of its sparsity patterns once per coupled-pair signature,
    while the byte-bounded memo keeps it; every assembly on it shares them
    read-only."""

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,formulation", [("eta7", "nonmaxwell"),
                                                  ("maxwell", "maxwell"),
                                                  ("maxwell", "nonmaxwell")])
    def test_byte_identity_on_cold_and_warm_memo(self, name, formulation, degree, n,
                                                 cold_memos):
        mesh = SlabMesh(n, degree)
        layouts = []
        for _ in ("cold", "warm"):
            asm = SlabAssembly(mesh, resolve_model(name), KN, formulation)
            _assert_matches_pair_by_pair(asm)
            _assert_matches_chain(asm)
            layouts.append(asm._layout)
        assert layouts[0] is layouts[1]

    def test_other_model_builds_no_pattern(self, eta7, monkeypatch, cold_memos):
        builds = []
        build = slab._Pattern.build

        def counting(*args, **kwargs):
            builds.append(args[2])
            return build(*args, **kwargs)

        monkeypatch.setattr(slab._Pattern, "build", counting)
        mesh = SlabMesh(16, 2)
        first = SlabAssembly(mesh, eta7, KN)
        solve_steady(first, WallData.couette())
        # The trace map, the mass matrix, the A operator, the steady system
        # and W.
        assert len(builds) == 5
        second = SlabAssembly(mesh, resolve_model("eta10"), 1.0)
        solve_steady(second, WallData.fourier())
        assert len(builds) == 5
        assert second._layout is first._layout

    def test_cached_arrays_are_read_only(self, eta7, maxwell, cold_memos):
        for model, formulation in ((eta7, "nonmaxwell"), (maxwell, "maxwell")):
            asm = SlabAssembly(SlabMesh(4, 2), model, KN, formulation)
            solve_steady(asm, WallData.couette())
            layout = asm._layout
            assert len(_patterns(layout)) >= 3
            for arr in _layout_arrays(layout):
                assert not arr.flags.writeable
            for pattern in _patterns(layout):
                assert {pattern.indptr.dtype, pattern.indices.dtype, pattern.first.dtype} == {
                    np.dtype(np.int32)}
            with pytest.raises(TypeError):
                layout.offsets["p"] = 1
            with pytest.raises(ValueError, match="read-only"):
                asm.mass_matrix().eliminate_zeros()

    def test_in_place_edits_cannot_reach_the_memo(self, eta7, cold_memos):
        # An in-place eliminate_zeros once compacted index arrays shared
        # with a later matrix; every returned matrix owns its index arrays.
        mesh = SlabMesh(4, 2)
        ref = _operator_bytes(SlabAssembly(mesh, eta7, KN))
        asm = SlabAssembly(mesh, eta7, KN)
        for mat in (asm.form("d"), asm.t1_gram(), asm.a_operator(), asm.steady_system(),
                    _w1_rows(asm)):
            mat.data[::2] = 0.0
            mat.eliminate_zeros()
            mat.indices[:] = mat.indices[::-1]
            mat.has_sorted_indices = False
            mat.sort_indices()
        assert _operator_bytes(SlabAssembly(mesh, eta7, KN)) == ref

    def test_steady_request_layouts_stay_small(self, cold_memos):
        # Every grouping of a stream of steady requests at n 16, 32 and 64:
        # the six layouts with all their patterns hold at most 2 MiB.
        layouts = set()
        for name in ("eta7", "eta10", "eta-infinity", "maxwell"):
            formulation = "maxwell" if name == "maxwell" else "nonmaxwell"
            for n in (16, 32, 64):
                asm = SlabAssembly(SlabMesh(n, 2), resolve_model(name), KN, formulation)
                solve_steady(asm, WallData.couette())
                layouts.add(asm._layout)
        assert len(layouts) == 6
        assert sum(arr.nbytes for lay in layouts for arr in _layout_arrays(lay)) <= 2 * 2**20

    def test_transient_run_keeps_one_a_pattern(self, eta7, cold_memos):
        # The evolution operator is the A operator plus a pressure coupling
        # whose pattern is not kept: after a run the n 64 layout holds the A
        # pattern and the monitors' W pattern, 408.8 KiB, where an A ∪ g
        # pattern beside them held 587.7 KiB.
        asm = SlabAssembly(SlabMesh(64, 2), eta7, KN)
        transient_run(asm, random_state(asm, np.random.default_rng(5)), dt=0.01, n_steps=3)
        assert len(_patterns(asm._layout)) == 2
        assert asm._layout.nbytes <= 421.3 * 1024

    def test_memo_is_bounded_by_bytes(self, eta7, monkeypatch, cold_memos):
        # Room for the n 8 and n 16 layouts with their steady patterns, not
        # for n 4 besides them.
        monkeypatch.setattr(slab, "_LAYOUT_MEMO_BYTES", 2**18)
        ref = {}
        for n in (4, 8, 16, 4, 16, 8):
            asm = SlabAssembly(SlabMesh(n, 2), eta7, KN)
            solve_steady(asm, WallData.couette())
            memo = list(slab._layouts.values())
            assert memo[-1] is asm._layout
            assert sum(layout.nbytes for layout in memo) <= 2**18
            ref.setdefault(n, _raw_bytes(asm.steady_system()))
            assert _raw_bytes(asm.steady_system()) == ref[n]
        # Least recently used first: n 4 went when n 8 came back.
        assert [mesh.n_elements for mesh, _ in slab._layouts] == [16, 8]

    def test_layout_out_of_the_memo_lives_with_its_assemblies(self, eta7, monkeypatch,
                                                               cold_memos):
        # A layout larger than the memo, as a convergence study's reference
        # can be, is not kept: it goes with the last assembly on it.
        mesh = SlabMesh(16, 2)
        ref = _operator_bytes(SlabAssembly(mesh, eta7, KN))
        slab._layouts.clear()
        monkeypatch.setattr(slab, "_LAYOUT_MEMO_BYTES", 2**10)
        asm = SlabAssembly(mesh, eta7, KN)
        solve_steady(asm, WallData.couette())
        assert _operator_bytes(asm) == ref
        assert not slab._layouts
        layout = weakref.ref(asm._layout)
        del asm
        gc.collect()
        assert layout() is None


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

    def test_steady_solve_rejects_maxwell_model_in_coercive_grouping(self, maxwell,
                                                                      monkeypatch):
        # D16: the assembly stays valid for the transient path, but its
        # steady system is singular or nearly so; reject before factoring.
        def no_factor(*args):
            raise AssertionError("factored a rejected steady system")

        monkeypatch.setattr(slab, "_factor", no_factor)
        asm = SlabAssembly(SlabMesh(4, 2), maxwell, KN, "nonmaxwell")
        for wall in (WallData.couette(), WallData.homogeneous()):
            with pytest.raises(ValueError, match="formulation: maxwell"):
                solve_steady(asm, wall)
        with pytest.raises(ValueError, match="formulation: maxwell"):
            convergence_study(maxwell, WallData.couette(), [2, 4, 8], degree=2, kn=KN)

    def test_wall_data_shape_checked(self):
        with pytest.raises(ValueError):
            WallData(theta_w=np.zeros(3), u_t=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            WallData(theta_w=np.zeros(2), u_t=np.zeros(2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_wall_data_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="theta_w must be finite"):
            WallData(theta_w=np.array([0.0, bad]), u_t=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="u_t must be finite"):
            WallData(theta_w=np.zeros(2), u_t=np.array([[0.0, bad], [0.0, 0.0]]))

    def test_wall_data_owns_read_only_copies(self):
        # Editing the caller's arrays afterwards changes nothing, and the
        # data cannot be edited past its finiteness check.
        tw, ut = np.array([0.1, 0.2]), np.array([[0.3, 0.0], [0.0, -0.3]])
        wall = WallData(tw, ut)
        tw[0], ut[1, 1] = np.nan, np.inf
        assert wall.theta_w.tolist() == [0.1, 0.2]
        assert wall.u_t.tolist() == [[0.3, 0.0], [0.0, -0.3]]
        for arr in (wall.theta_w, wall.u_t, WallData.homogeneous().theta_w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = np.nan

    def test_state_of_another_assembly_rejected(self, eta7):
        # x[keep] once truncated an n 16 state to the n 8 free dofs and
        # stepped it without complaint.
        fine = SlabAssembly(SlabMesh(16, 2), eta7, KN, "nonmaxwell")
        coarse = SlabAssembly(SlabMesh(8, 2), eta7, KN, "nonmaxwell")
        state = random_state(fine, np.random.default_rng(12))
        twin = SlabAssembly(SlabMesh(16, 2), eta7, KN, "nonmaxwell")
        for asm in (coarse, twin):
            with pytest.raises(ValueError, match="another assembly"):
                step_transient(state, 0.01, "implicit-euler", asm)
            with pytest.raises(ValueError, match="another assembly"):
                monitors(state, asm)
        for coeffs in (state.coefficients[:coarse.ndof - 1], state.coefficients):
            bad = slab.DiscreteState(assembly=coarse, coefficients=coeffs)
            with pytest.raises(ValueError, match="coefficients"):
                step_transient(bad, 0.01, "implicit-euler", coarse)
            with pytest.raises(ValueError, match="coefficients"):
                monitors(bad, coarse)

    def test_mesh_degree_limited(self):
        with pytest.raises(ValueError):
            SlabMesh(4, 3)
        with pytest.raises(ValueError):
            SlabMesh(0, 2)

    @pytest.mark.parametrize("call", [
        lambda asm: SlabAssembly(SlabMesh(4, 2), asm.model, True),
        lambda asm: step_transient(zero_state(asm), True, "implicit-euler", asm),
        lambda asm: transient_run(asm, zero_state(asm), 0.01, True),
        lambda asm: transient_run(asm, zero_state(asm), 0.01, 2.5),
        lambda asm: convergence_study(asm.model, WallData.couette(), [8.7, 16, 32]),
        lambda asm: convergence_study(asm.model, WallData.couette(), [True, 2, 4]),
    ], ids=["kn", "dt", "n_steps-bool", "n_steps-fraction", "levels-fraction", "levels-bool"])
    def test_booleans_and_fractional_counts_rejected(self, asm_eta7, monkeypatch, call):
        # As SlabMesh rejects them: True is not Kn 1, a time step or one
        # step, and a level of 8.7 is not 8.
        def no_solve(*args):
            raise AssertionError("solved with a rejected parameter")

        monkeypatch.setattr(slab, "solve_steady", no_solve)
        monkeypatch.setattr(slab, "_factor", no_solve)
        with pytest.raises(ValueError):
            call(asm_eta7)

    @pytest.mark.parametrize("bad", ["0.1", None, 1j])
    def test_non_real_kn_and_dt_rejected_by_name(self, asm_eta7, bad):
        # np.isfinite once raised a TypeError on a string Kn or dt.
        with pytest.raises(ValueError, match="Kn must be positive and finite"):
            SlabAssembly(SlabMesh(4, 2), asm_eta7.model, bad)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step_transient(zero_state(asm_eta7), bad, "implicit-euler", asm_eta7)

    @pytest.mark.parametrize("call", [
        lambda asm: SlabAssembly(SlabMesh(4, 2), asm.model, 10**400),
        lambda asm: step_transient(zero_state(asm), 10**400, "implicit-euler", asm),
        lambda asm: transient_run(asm, zero_state(asm), 10**400, 1),
        lambda asm: convergence_study(asm.model, WallData.couette(), [2, 4, 8], kn=10**400),
        lambda asm: WallData.couette(10**400),
        lambda asm: WallData(theta_w=[10**400, 0], u_t=np.zeros((2, 2))),
    ], ids=["kn", "dt", "run-dt", "study-kn", "couette", "theta_w"])
    def test_integer_beyond_float_range_is_value_error(self, asm_eta7, call):
        # float() of such an int once raised OverflowError, not the
        # documented ValueError.
        with pytest.raises(ValueError, match="finite"):
            call(asm_eta7)

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
