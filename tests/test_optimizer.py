"""Solver behavior against independent oracles.

The centerpiece is a tiny planar problem small enough for a brute-force
coordinate-descent minimizer written with plain trigonometry; the
solver must land on the same minimum.  The rest covers convergence
bookkeeping, the numeric Jacobian path, robust weighting and failure
modes.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import tunnelgraph.geometry as geom
import tunnelgraph.graph as gmod
import tunnelgraph.optimizer as opt
import tunnelgraph.simulate as sim
import tunnelgraph.sync as sync
from tunnelgraph.optimizer import (
    ANALYTIC,
    COST_THRESHOLD,
    NUMERIC,
    ConditioningError,
    SolverSettings,
)
from tunnelgraph.sync import DataError, FULL3D, PLANAR

from planar_oracle import coordinate_descent, oracle_cost, planar_problem
from test_graph import small_problem


def simulated_graph(mode=FULL3D, seed=0, frames=60, rate=5.0):
    profile = sim.TrajectoryProfile(straight_length=6.0, return_leg=True)
    truth = sim.generate_ground_truth(profile, rate)
    keep = slice(0, frames)
    track = sync.OdometryTrack(
        "sim", rate, FULL3D, truth.times[keep].copy(), truth.poses[keep].copy()
    )
    noise = sim.NoiseProfile("sim", rate, 0.003, 0.05)
    noisy, _ = sim.corrupt(track, noise, seed)
    detector = sim.DetectionModel(max_range=8.0, max_bearing_deg=170.0, rate=2.0)
    observations = sim.simulate_landmark_observations(
        track, sim.LandmarkLayout(count=3, spacing=2.0),
        sim.default_placement(), detector, seed + 1,
    )
    aligned = sync.align(noisy, observations)
    return gmod.build_graph(
        aligned, sim.LandmarkLayout(count=3, spacing=2.0), mode
    )


class TestOracle:
    def test_matches_brute_force_minimum(self):
        graph, problem, (s1, s2) = planar_problem()
        start = [*s1, *s2]
        best, best_cost = coordinate_descent(
            lambda p: oracle_cost(p, problem), start
        )
        solved, stats = opt.optimize(graph)
        assert gmod.total_cost(solved) == pytest.approx(best_cost, rel=1e-6)
        result = [*solved.states[1], *solved.states[2]]
        np.testing.assert_allclose(result, best, atol=1e-3)
        # landmark stayed where it was pinned
        np.testing.assert_array_equal(solved.landmark, graph.landmark)

    def test_numeric_mode_reaches_same_minimum(self):
        graph, problem, (s1, s2) = planar_problem()
        analytic, _ = opt.optimize(graph, SolverSettings(jacobian_mode=ANALYTIC))
        numeric, _ = opt.optimize(graph, SolverSettings(jacobian_mode=NUMERIC))
        np.testing.assert_allclose(numeric.states, analytic.states, atol=1e-7)


class TestConvergence:
    def test_zero_cost_converges_immediately(self):
        graph = simulated_graph()
        # rebuild measurements from the states so the start is exact
        graph.odo_meas = geom.pose3_relative(
            graph.states[graph.odo_i], graph.states[graph.odo_j]
        )
        target = geom.pose3_compose(graph.landmark, graph.template[graph.obs_pole])
        graph.obs_meas = geom.pose3_relative(graph.states[graph.obs_node], target)
        solved, stats = opt.optimize(graph)
        assert stats.initial_cost < 1e-24
        assert stats.final_cost < 1e-24
        assert stats.iterations <= 1
        assert stats.reason == COST_THRESHOLD

    def test_cost_trace_monotone(self):
        graph = simulated_graph(seed=3)
        _, stats = opt.optimize(graph)
        trace = np.array(stats.cost_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert stats.final_cost <= stats.initial_cost

    def test_deterministic(self):
        graph = simulated_graph(seed=4)
        a, stats_a = opt.optimize(graph)
        b, stats_b = opt.optimize(graph)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.landmark, b.landmark)
        assert stats_a.cost_trace == stats_b.cost_trace

    def test_gauge_node_bit_identical(self):
        graph = simulated_graph(seed=5)
        before = graph.states[graph.gauge_index].copy()
        solved, _ = opt.optimize(graph)
        assert np.array_equal(solved.states[graph.gauge_index], before)

    def test_input_graph_not_mutated(self):
        graph = simulated_graph(seed=6)
        states = graph.states.copy()
        landmark = graph.landmark.copy()
        opt.optimize(graph)
        np.testing.assert_array_equal(graph.states, states)
        np.testing.assert_array_equal(graph.landmark, landmark)

    def test_max_iterations_reason(self):
        graph = simulated_graph(seed=7)
        settings = SolverSettings(max_iterations=1, cost_tolerance=1e-300)
        _, stats = opt.optimize(graph, settings)
        assert stats.iterations == 1
        assert stats.reason == opt.MAX_ITERATIONS

    def test_disconnected_rejected(self):
        graph = simulated_graph()
        graph.odo_i = graph.odo_i[:0]
        graph.odo_j = graph.odo_j[:0]
        graph.odo_meas = graph.odo_meas[:0]
        graph.odo_w_trans = graph.odo_w_trans[:0]
        graph.odo_w_rot = graph.odo_w_rot[:0]
        with pytest.raises(DataError):
            opt.optimize(graph)


class TestJacobians:
    def test_full3d_matches_finite_differences(self):
        graph = simulated_graph(mode=FULL3D)
        assert graph.odo_count + graph.obs_count >= 60
        assert opt.check_jacobians(graph, probe_count=60) < 1e-5

    def test_planar_matches_finite_differences(self):
        graph = simulated_graph(mode=PLANAR)
        assert opt.check_jacobians(graph, probe_count=60) < 1e-5


class TestRobustness:
    def outlier_problem(self, huber_delta):
        graph, problem, _ = planar_problem()
        # third observation is wildly wrong: 5 m off target
        graph.obs_node = np.append(graph.obs_node, 2)
        graph.obs_pole = np.append(graph.obs_pole, 0)
        bad = graph.obs_meas[0].copy()
        bad[0] += 5.0
        graph.obs_meas = np.vstack([graph.obs_meas, bad])
        graph.obs_w_trans = np.append(graph.obs_w_trans, 1.0)
        graph.obs_w_rot = np.append(graph.obs_w_rot, 0.8)
        solved, _ = opt.optimize(graph, SolverSettings(huber_delta=huber_delta))
        return solved

    def test_huber_limits_outlier_pull(self):
        graph, problem, (s1, s2) = planar_problem()
        clean, _ = opt.optimize(graph)
        plain = self.outlier_problem(huber_delta=0.0)
        robust = self.outlier_problem(huber_delta=0.1)
        pull_plain = np.linalg.norm(plain.states[:, :2] - clean.states[:, :2])
        pull_robust = np.linalg.norm(robust.states[:, :2] - clean.states[:, :2])
        assert pull_robust < 0.2 * pull_plain

    def test_conditioning_error_on_poisoned_data(self):
        graph = simulated_graph(seed=8)
        graph.odo_meas[5, 0] = np.nan
        with pytest.raises(ConditioningError) as err:
            opt.optimize(graph)
        assert err.value.iteration >= 1


class TestSettings:
    def test_validation(self):
        with pytest.raises(DataError):
            SolverSettings(max_iterations=0)
        with pytest.raises(DataError):
            SolverSettings(damping_increase=0.5)
        with pytest.raises(DataError):
            SolverSettings(jacobian_mode="symbolic")
        with pytest.raises(DataError):
            SolverSettings(huber_delta=-1.0)


# ---------------------------------------------------------------------------
# normal-equation products and assembly against the einsum/COO reference


def einsum_products(graph, lin, huber_delta):
    """Reference products: three-operand einsum per block."""
    r_odo, ji_o, jj_o, r_obs, ji_s, jl_s = lin
    w_odo, w_obs = opt._weight_vectors(graph)
    if huber_delta > 0.0:
        _, f_odo = opt._robust_costs(np.einsum("ek,ek->e", w_odo, r_odo**2), huber_delta)
        _, f_obs = opt._robust_costs(np.einsum("ek,ek->e", w_obs, r_obs**2), huber_delta)
        w_odo = w_odo * f_odo[:, None]
        w_obs = w_obs * f_obs[:, None]

    def wjtj(ja, w, jb):
        return np.einsum("eki,ek,ekj->eij", ja, w, jb)

    def wjtr(ja, w, r):
        return np.einsum("eki,ek,ek->ei", ja, w, r)

    products = {
        "oii": wjtj(ji_o, w_odo, ji_o), "oij": wjtj(ji_o, w_odo, jj_o),
        "oji": wjtj(jj_o, w_odo, ji_o), "ojj": wjtj(jj_o, w_odo, jj_o),
        "sii": wjtj(ji_s, w_obs, ji_s), "sil": wjtj(ji_s, w_obs, jl_s),
        "sll": wjtj(jl_s, w_obs, jl_s),
    }
    gvecs = {
        "oi": wjtr(ji_o, w_odo, r_odo), "oj": wjtr(jj_o, w_odo, r_odo),
        "si": wjtr(ji_s, w_obs, r_obs), "sl": wjtr(jl_s, w_obs, r_obs),
    }
    return products, gvecs


def coo_assemble(graph, products, gvecs):
    """Reference assembly: COO triplets summed by tocsr, np.add.at scatters."""
    d = graph.group.tangent_dim
    bid = np.arange(graph.node_count)
    bid[graph.gauge_index] = -1
    bid[graph.gauge_index + 1:] -= 1
    size = (graph.node_count - 1) * d
    oi, oj, si = bid[graph.odo_i], bid[graph.odo_j], bid[graph.obs_node]
    offsets = np.arange(d)
    rows, cols, vals = [], [], []
    for name, a, b in (("oii", oi, oi), ("oij", oi, oj), ("oji", oj, oi),
                       ("ojj", oj, oj), ("sii", si, si)):
        keep = (a >= 0) & (b >= 0)
        r, c = np.broadcast_arrays(
            a[keep][:, None, None] * d + offsets[:, None],
            b[keep][:, None, None] * d + offsets,
        )
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(products[name][keep].ravel())
    triplets = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    a_mat = sp.coo_matrix(triplets, shape=(size, size)).tocsr()
    g_nodes = np.zeros(size)
    for name, a in (("oi", oi), ("oj", oj), ("si", si)):
        keep = a >= 0
        cells = (a[keep][:, None] * d + offsets).ravel()
        np.add.at(g_nodes, cells, gvecs[name][keep].ravel())
    if graph.obs_count and not graph.landmark_fixed:
        b_mat = np.zeros((size, d))
        keep = si >= 0
        np.add.at(b_mat, (si[keep][:, None] * d + offsets).ravel(),
                  products["sil"][keep].reshape(-1, d))
        return a_mat, b_mat, products["sll"].sum(axis=0), g_nodes, gvecs["sl"].sum(axis=0)
    return a_mat, np.zeros((size, 0)), np.zeros((0, 0)), g_nodes, np.zeros(0)


def oracle_case(case):
    mode = PLANAR if case == "planar" else FULL3D
    graph, _, _, _ = small_problem(
        mode, position_only=case == "position-only", landmark_fixed=case == "landmark-fixed"
    )
    if case == "gauge-middle":
        graph = dataclasses.replace(graph, gauge_index=graph.node_count // 2)
    if case == "no-observations":
        graph = dataclasses.replace(
            graph, obs_node=graph.obs_node[:0], obs_pole=graph.obs_pole[:0],
            obs_meas=graph.obs_meas[:0], obs_w_trans=graph.obs_w_trans[:0],
            obs_w_rot=graph.obs_w_rot[:0],
        )
    huber = 0.05 if case == "huber" else 0.0
    return graph, huber


def perturbed(graph, seed):
    """States and landmark moved off the zero-cost start, so every residual counts."""
    rng = np.random.default_rng(seed)
    d = graph.group.tangent_dim
    return gmod.retract(
        graph, graph.states, graph.landmark,
        rng.normal(0.0, 0.1, (graph.node_count, d)), rng.normal(0.0, 0.1, d),
    )


@pytest.mark.parametrize(
    "case",
    ["planar", "full3d", "gauge-middle", "landmark-fixed", "position-only",
     "no-observations", "huber"],
)
def test_products_and_assembly_match_reference(case):
    graph, huber = oracle_case(case)
    assembler = opt._Assembler(graph)
    patterns = []
    for seed in (0, 1):  # two iterates: the pattern must not move between them
        states, landmark = perturbed(graph, seed)
        lin = opt._linearize(graph, states, landmark, numeric=False)
        got = assembler.assemble(*opt._products(graph, lin, huber))
        want = coo_assemble(graph, *einsum_products(graph, lin, huber))

        a_mat = got[0]
        # column indices strictly increase within each row: sorted, no duplicates
        row_of = np.repeat(np.arange(a_mat.shape[0]), np.diff(a_mat.indptr))
        assert np.all(np.diff(row_of * a_mat.shape[1] + a_mat.indices) > 0)
        patterns.append((a_mat.indptr.copy(), a_mat.indices.copy()))
        for mine, ref in zip((a_mat.toarray(), *got[1:]), (want[0].toarray(), *want[1:])):
            assert mine.shape == ref.shape
            scale = max(float(np.abs(ref).max(initial=0.0)), 1e-300)
            np.testing.assert_allclose(mine, ref, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_array_equal(a_mat.toarray(), a_mat.toarray().T)
    for first, later in zip(patterns[0], patterns[1]):
        np.testing.assert_array_equal(first, later)


def test_per_iteration_records(monkeypatch):
    graph = simulated_graph(seed=3)
    solve = opt._Assembler.solve
    dampings = []  # damping of every trial, in order

    def first_trial_fails(self, *system):
        dampings.append(system[-1])
        return None if len(dampings) == 1 else solve(self, *system)

    monkeypatch.setattr(opt._Assembler, "solve", first_trial_fails)
    _, stats = opt.optimize(graph)
    records = stats.per_iteration
    assert len(records) == stats.iterations
    # every trial is either rejected or accepted, one accepted per iteration
    assert sum(r["rejected"] for r in records) + stats.iterations == len(dampings)
    first = records[0]
    assert first["rejected"] >= 1
    assert first["damping"] == dampings[first["rejected"]]
    for record in records:
        assert record["step_norm"] >= 0.0
        for phase in ("linearize_s", "products_s", "assemble_s", "solve_s", "cost_s"):
            assert record[phase] >= 0.0
