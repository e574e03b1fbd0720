"""Solver behavior against independent oracles.

The centerpiece is a tiny planar problem small enough for a brute-force
coordinate-descent minimizer written with plain trigonometry; the
solver must land on the same minimum.  The rest covers convergence
bookkeeping, the Jacobians, robust weighting and failure modes.
"""

import dataclasses
import functools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import tunnelgraph.cli as cli
import tunnelgraph.geometry as geom
import tunnelgraph.graph as gmod
import tunnelgraph.metrics as metrics
import tunnelgraph.optimizer as opt
import tunnelgraph.pipeline as pipeline
import tunnelgraph.simulate as sim
import tunnelgraph.sync as sync
from tunnelgraph.optimizer import COST_THRESHOLD, ConditioningError, SolverSettings
from tunnelgraph.sync import DataError, FieldError, FULL3D, PLANAR

from planar_oracle import coordinate_descent, oracle_cost, planar_problem
from test_acceptance import default_sparse_run
from test_graph import sightings, small_problem, straight_track
from test_simulate import loop_corrupt_poses


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


class TestConvergence:
    def test_zero_cost_converges_immediately(self, monkeypatch):
        graph = simulated_graph()
        # rebuild measurements from the states so the start is exact
        graph.odo_meas = geom.pose3_relative(
            graph.states[graph.odo_i], graph.states[graph.odo_j]
        )
        target = geom.pose3_compose(graph.landmark, graph.template[graph.obs_pole])
        graph.obs_meas = geom.pose3_relative(graph.states[graph.obs_node], target)
        evaluate = gmod.Edges.evaluate
        calls = []

        def counted(self, *args):
            calls.append(args)
            return evaluate(self, *args)

        monkeypatch.setattr(gmod.Edges, "evaluate", counted)
        solved, stats = opt.optimize(graph)
        assert stats.initial_cost < 1e-24
        assert stats.final_cost < 1e-24
        assert stats.iterations <= 1
        assert stats.reason == COST_THRESHOLD
        # the model predicts a decrease at rounding level: no trial runs,
        # so none is rejected and the start is the only evaluation
        assert len(calls) == 1
        assert all(record["rejected"] == 0 for record in stats.per_iteration)

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
        before = graph.states[0].copy()
        solved, _ = opt.optimize(graph)
        assert np.array_equal(solved.states[0], before)

    def test_input_graph_not_mutated(self):
        graph = simulated_graph(seed=6)
        states = graph.states.copy()
        landmark = graph.landmark.copy()
        opt.optimize(graph)
        np.testing.assert_array_equal(graph.states, states)
        np.testing.assert_array_equal(graph.landmark, landmark)

    def test_tiny_step_stops_on_update_threshold(self):
        graph, _, _, _ = small_problem()  # zero cost
        rng = np.random.default_rng(0)
        moved = rng.normal(0.0, 1e-12, (graph.node_count, graph.group.tangent_dim))
        moved[0] = 0.0  # the gauge
        states = graph.group.retract(graph.states, moved)
        _, stats = opt.optimize(dataclasses.replace(graph, states=states))
        # the step undoes nearly all of a cost far above rounding level
        assert stats.final_cost < 1e-6 * stats.initial_cost
        assert stats.per_iteration[-1]["step_norm"] < opt.UPDATE_TOLERANCE
        assert stats.reason == opt.UPDATE_THRESHOLD

    def test_gain_ratios_near_one(self):
        # the model is exact up to rounding, and the solve stops before a
        # trial whose decrease would be rounding noise
        for seed in range(10):
            _, stats = opt.optimize(simulated_graph(seed=seed))
            for record in stats.per_iteration:
                gain = record["gain_ratio"]
                assert gain is None or 0.9 <= gain <= 1.1, (seed, record)

    def test_simulated_graphs_converge_in_two_iterations(self):
        # a step holds the landmark frame and moves every node, node 0 included
        for seed in range(10):
            _, stats = opt.optimize(simulated_graph(seed=seed))
            assert stats.reason == COST_THRESHOLD
            assert stats.iterations <= 2, seed

    def test_max_iterations_reason(self, monkeypatch):
        graph = simulated_graph(seed=7)
        monkeypatch.setattr(opt, "COST_TOLERANCE", 1e-300)
        _, stats = opt.optimize(graph, SolverSettings(max_iterations=1))
        assert stats.iterations == 1
        assert stats.reason == opt.MAX_ITERATIONS


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

    def test_conditioning_error_on_poisoned_data(self, monkeypatch):
        graph = simulated_graph(seed=8)
        graph.odo_meas[5, 0] = np.nan
        solve = opt._solve
        dampings = []

        def recording(*system):
            dampings.append(system[-1])
            return solve(*system)

        monkeypatch.setattr(opt, "_solve", recording)
        with pytest.raises(ConditioningError) as err:
            opt.optimize(graph)
        # every solve fails, and the damping climbs tenfold from the floor
        # through the ceiling before the solve gives up
        assert dampings == pytest.approx([opt.EPS * 10.0**k for k in range(24)], rel=1e-12)
        assert err.value.iteration == 1


class TestSettings:
    def test_validation(self):
        with pytest.raises(DataError):
            SolverSettings(max_iterations=0)
        with pytest.raises(DataError):
            SolverSettings(huber_delta=-1.0)
        with pytest.raises(FieldError) as err:
            SolverSettings(max_iterations=2.5)  # range() would reject it mid-solve
        assert err.value.field == "max_iterations"
        assert SolverSettings(max_iterations=np.int64(3)).max_iterations == 3


class TestDamping:
    def test_accepted_trial_lowers_it_to_the_floor(self):
        assert opt._damping(1e-3, True, 1) == 1e-3 * 0.1
        assert opt._damping(5.0 * opt.EPS, True, 1) == opt.DAMPING_FLOOR
        assert opt._damping(opt.DAMPING_FLOOR, True, 1) == opt.DAMPING_FLOOR

    def test_rejected_trial_raises_it_to_the_ceiling(self):
        assert opt._damping(1e-3, False, 1) == 1e-3 * 10.0
        assert opt._damping(1e7, False, 4) == 1e8 == opt.DAMPING_CEILING
        with pytest.raises(ConditioningError) as err:
            opt._damping(1e8, False, 4)
        assert err.value.iteration == 4


class TestTrial:
    def start(self, graph):
        """A state off the identity, where node 0's round trip through the
        gauge shift is not exact, and a step of every node."""
        states, landmark = perturbed(graph, 5)
        step = np.random.default_rng(3).normal(0.0, 0.1, graph.node_count * graph.group.tangent_dim)
        return states, landmark, step

    @pytest.mark.parametrize("mode", [PLANAR, FULL3D])
    def test_node_0_stays_and_the_rest_moves_rigidly(self, mode):
        graph = small_problem(mode)[0]  # landmark free and observed: every node moves
        group, edges = graph.group, gmod.Edges(graph)
        states, landmark, step = self.start(graph)
        states_before = states.copy()
        moved, moved_lm, ev = opt._trial(edges, 0, states, landmark, step, 0.0)
        assert np.array_equal(states, states_before)
        assert np.array_equal(moved[0], states[0])  # the gauge, bit for bit
        assert not np.allclose(moved_lm, landmark)
        # seen from the landmark frame, every node is where the step put it
        retracted = group.retract(states, step.reshape(-1, group.tangent_dim))
        want = group.relative(landmark, retracted)
        drift = group.log(group.relative(want, group.relative(moved_lm, moved)))
        assert np.abs(drift).max() < 1e-12
        assert ev.cost == edges.evaluate(moved, moved_lm, 0.0).cost

    @pytest.mark.parametrize("mode", [PLANAR, FULL3D])
    def test_held_node_0_and_landmark_are_returned_unchanged(self, mode):
        graph = small_problem(mode, landmark_fixed=True)[0]
        group, edges = graph.group, gmod.Edges(graph)
        states, landmark, step = self.start(graph)
        step = step[group.tangent_dim :]  # node 0 is not a variable
        states_before = states.copy()
        moved, moved_lm, ev = opt._trial(edges, 1, states, landmark, step, 0.05)
        assert np.array_equal(states, states_before)
        assert np.array_equal(moved[0], states[0])
        assert np.array_equal(moved_lm, landmark)
        want = group.retract(states[1:], step.reshape(-1, group.tangent_dim))
        assert np.array_equal(moved[1:], want)
        assert ev.cost == edges.evaluate(moved, moved_lm, 0.05).cost


# ---------------------------------------------------------------------------
# normal-equation products and assembly against the einsum/COO reference


def reference_jacobians(graph, states, landmark, ev):
    """Per-edge node Jacobian blocks by the plain chain rule, sighting by
    sighting: for r = log(meas^-1 a^-1 b), J_b = Jr^-1(r) and
    J_a = -J_b Ad(b^-1 a); a sighting's b is its pole placed by the
    landmark frame, which a step holds fixed."""
    group = graph.group

    def blocks(r, a, b):
        jb = group.expand(group.jr_inv_factor(r))
        return -(jb @ group.expand(group.adjoint_factor(group.relative(b, a)))), jb

    ji_o, jj_o = blocks(ev.r_odo, states[graph.odo_i], states[graph.odo_j])
    target = graph.pole_world_poses(landmark)[graph.obs_pole]
    ji_s, _ = blocks(ev.r_obs, states[graph.obs_node], target)
    return ji_o, jj_o, ji_s


def solver_system(graph, states, landmark, huber_delta):
    """The evaluation at one state and the system the solver assembles
    there, over the nodes a step moves: every node when the landmark frame
    is free and observed, all but node 0 otherwise."""
    edges = gmod.Edges(graph)
    start = int(graph.landmark_fixed or graph.unconstrained)
    ev = edges.evaluate(states, landmark, huber_delta)
    return ev, opt._assemble(edges, start, opt._blocks(edges, states, landmark, ev)[0])


def reference_system(graph, states, landmark, ev, huber_delta):
    """The same system from per-sighting blocks, by einsum and COO."""
    jacobians = reference_jacobians(graph, states, landmark, ev)
    return coo_assemble(graph, *einsum_products(graph, ev, jacobians, huber_delta))


def einsum_products(graph, ev, jacobians, huber_delta):
    """Reference products: three-operand einsum per block.  Only the
    residuals come from ``ev``; the weights are stated here."""
    ji_o, jj_o, ji_s = jacobians
    r_odo, r_obs = ev.r_odo, ev.r_obs
    rotation = np.arange(graph.group.tangent_dim) >= graph.group.trans_dim

    def weights(w_trans, w_rot, r):
        w = np.where(rotation, w_rot[:, None], w_trans[:, None])
        if huber_delta > 0.0:  # IRLS: the weight falls as delta / |r|_W past delta
            norm = np.sqrt(np.einsum("ek,ek->e", w, r**2))
            w = w * np.minimum(1.0, huber_delta / np.maximum(norm, 1e-300))[:, None]
        return w

    w_odo = weights(graph.odo_w_trans, graph.odo_w_rot, r_odo)
    w_obs = weights(graph.obs_w_trans, graph.obs_w_rot, r_obs)

    def wjtj(ja, w, jb):
        return np.einsum("eki,ek,ekj->eij", ja, w, jb)

    def wjtr(ja, w, r):
        return np.einsum("eki,ek,ek->ei", ja, w, r)

    products = {
        "oii": wjtj(ji_o, w_odo, ji_o), "oij": wjtj(ji_o, w_odo, jj_o),
        "oji": wjtj(jj_o, w_odo, ji_o), "ojj": wjtj(jj_o, w_odo, jj_o),
        "sii": wjtj(ji_s, w_obs, ji_s),
    }
    gvecs = {
        "oi": wjtr(ji_o, w_odo, r_odo), "oj": wjtr(jj_o, w_odo, r_odo),
        "si": wjtr(ji_s, w_obs, r_obs),
    }
    return products, gvecs


def coo_assemble(graph, products, gvecs):
    """Reference assembly: COO triplets summed by tocsr, np.add.at scatters.
    The landmark frame is never a variable; node 0 is one when the landmark
    is free and observed, since the step then holds the landmark fixed."""
    d = graph.group.tangent_dim
    start = 1 if graph.landmark_fixed or graph.obs_count == 0 else 0
    bid = np.arange(graph.node_count) - start
    size = (graph.node_count - start) * d
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
    return a_mat, g_nodes


def oracle_case(case):
    mode = PLANAR if case == "planar" else FULL3D
    graph, _, _, _ = small_problem(mode, landmark_fixed=case == "landmark-fixed")
    if case == "no-observations":
        graph = dataclasses.replace(
            graph, obs_node=graph.obs_node[:0], obs_pole=graph.obs_pole[:0],
            obs_meas=graph.obs_meas[:0], obs_w_trans=graph.obs_w_trans[:0],
            obs_w_rot=graph.obs_w_rot[:0],
        )
    if case == "shared-nodes":  # runs of one, two and three sightings; most nodes see none
        rows = np.array([0, 1, 1, 2, 2, 2])
        graph = dataclasses.replace(
            graph, obs_node=graph.obs_node[rows], obs_pole=np.array([0, 1, 2, 2, 0, 1]),
            obs_meas=graph.obs_meas[rows], obs_w_trans=graph.obs_w_trans[rows] * (1.0 + rows),
            obs_w_rot=graph.obs_w_rot[rows],
        )
    huber = 0.05 if case == "huber" else 0.0
    return graph, huber


def perturbed(graph, seed):
    """States and landmark moved off the zero-cost start, so every residual counts."""
    rng = np.random.default_rng(seed)
    d = graph.group.tangent_dim
    return (
        graph.group.retract(graph.states, rng.normal(0.0, 0.1, (graph.node_count, d))),
        graph.group.retract(graph.landmark, rng.normal(0.0, 0.1, d)),
    )


def assert_system_close(got, want, rtol):
    """The solver's ((diag, upper), gradient) against the reference's
    (sparse A, gradient), each to ``rtol`` of its largest entry."""
    (diag, upper), grad = got
    d, _, m = diag.shape
    a_mat = want[0].tocoo()
    rows, cols = a_mat.row // d, a_mat.col // d  # block rows and columns
    assert np.all(np.abs(rows - cols) <= 1)  # nothing outside the block tridiagonal
    blocks = np.zeros((d, d, m)), np.zeros((d, d, m - 1))
    for ref, keep in zip(blocks, (rows == cols, cols == rows + 1)):
        ref[a_mat.row[keep] % d, a_mat.col[keep] % d, rows[keep]] = a_mat.data[keep]
    matrix_scale = max(float(np.abs(a_mat.data).max(initial=0.0)), 1e-300)
    grad_scale = max(float(np.abs(want[1]).max(initial=0.0)), 1e-300)
    for mine, ref, scale in zip((diag, upper, grad), (*blocks, want[1]),
                                (matrix_scale, matrix_scale, grad_scale)):
        assert mine.shape == ref.shape
        np.testing.assert_allclose(mine, ref, rtol=0.0, atol=rtol * scale)


CASES = [
    "planar", "full3d", "landmark-fixed", "no-observations", "shared-nodes", "huber",
]


@pytest.mark.parametrize("case", CASES)
def test_products_and_assembly_match_reference(case):
    graph, huber = oracle_case(case)
    for seed in (0, 1):  # two iterates of one graph
        states, landmark = perturbed(graph, seed)
        ev, got = solver_system(graph, states, landmark, huber)
        want = reference_system(graph, states, landmark, ev, huber)
        # the odometry chain i -> i + 1 couples a node with its successor only
        assert_system_close(got, want, 1e-12)


@pytest.mark.parametrize("source", ["dvso", "wheel"])
def test_per_node_assembly_matches_reference_on_recovery(source):
    # dense pins: most nodes hold a run of sightings, one per pole in view
    result, _ = pipeline.recovery_run(sim.PRESETS[source](), 1001)
    graph = result.raw_graph
    assert graph.obs_count > 3 * np.unique(graph.obs_node).size
    for states, landmark in ((graph.states, graph.landmark), perturbed(graph, 3)):
        ev, got = solver_system(graph, states, landmark, 0.0)
        want = reference_system(graph, states, landmark, ev, 0.0)
        assert_system_close(got, want, 1e-12)


# iterations, stop reason and final cost of the recovery solves as the
# solver formed them before its per-solve constants: sighting by sighting,
# each residual inverting its measurement and its node's state
RECOVERY_REFERENCE = {
    ("dvso", 7): (3, COST_THRESHOLD, 4059.610163968961),
    ("dvso", 1001): (3, COST_THRESHOLD, 4059.618727002915),
    ("wheel", 7): (3, COST_THRESHOLD, 40597.23558857116),
    ("wheel", 1001): (2, COST_THRESHOLD, 40597.20568880992),
}
# the dvso (SE3) solve for seed 7, bit for bit: its pose kernels keep their
# arithmetic and its order, whatever the layout they read their operands in
DVSO_SEED_7_FINAL_COST = 4059.6101639680082


def test_dvso_recovery_final_cost_pinned_exactly():
    result, _ = pipeline.recovery_run(sim.dvso_preset(), 7)
    assert result.stats.final_cost == DVSO_SEED_7_FINAL_COST


@pytest.mark.parametrize("source, seed", list(RECOVERY_REFERENCE))
def test_recovery_solve_matches_per_sighting_reference(source, seed):
    result, _ = pipeline.recovery_run(sim.PRESETS[source](), seed)
    iterations, reason, cost = RECOVERY_REFERENCE[source, seed]
    assert (result.stats.iterations, result.stats.reason) == (iterations, reason)
    assert result.stats.final_cost == pytest.approx(cost, rel=1e-12, abs=0.0)
    # the per-solve constants evaluate every edge as per-sighting between does
    graph = result.raw_graph
    group = graph.group
    edges = gmod.Edges(graph)
    for states, landmark in ((graph.states, graph.landmark), perturbed(graph, 4)):
        ev = edges.evaluate(states, landmark)
        r_odo, rel_odo = group.between(
            group.inverse(graph.odo_meas), group.inverse(states[:-1]), states[1:]
        )
        r_obs, _ = group.between(
            group.inverse(graph.obs_meas), group.inverse(states[graph.obs_node]),
            graph.pole_world_poses(landmark)[graph.obs_pole],
        )
        for got, want in ((ev.r_odo, r_odo), (ev.rel_odo, rel_odo), (ev.r_obs, r_obs)):
            assert np.array_equal(got, want)
        assert ev.cost == gmod.total_cost(graph, states, landmark)


def assert_solve_matches_dense(graph, huber, damping, seed):
    """The damped step and its predicted decrease at a perturbed state,
    against a dense solve of the reference system."""
    states, landmark = perturbed(graph, seed)
    ev, system = solver_system(graph, states, landmark, huber)
    step, predicted = opt._solve(*system, damping)

    # the moving-node system, dense, from the reference assembly
    a_mat, gradient = reference_system(graph, states, landmark, ev, huber)
    hessian = a_mat.toarray()
    diag = np.diag(hessian)
    floor = 1e-12 * max(float(diag.max()), 1.0)
    damped = hessian + np.diag(damping * np.maximum(diag, floor))
    want = np.linalg.solve(damped, -gradient)
    assert step.shape == want.shape  # the same moving nodes
    assert np.linalg.norm(step - want) <= 1e-9 * np.linalg.norm(want)
    # decrease of sum r^T W r predicted by its quadratic model at the step
    model = -(2.0 * gradient @ want + want @ hessian @ want)
    assert predicted == pytest.approx(model, rel=1e-9)


@pytest.mark.parametrize("damping", [1e-8, 1e-2])
@pytest.mark.parametrize("case", CASES)
def test_band_solve_matches_dense(case, damping):
    graph, huber = oracle_case(case)
    assert_solve_matches_dense(graph, huber, damping, 2)


@pytest.mark.parametrize("case", ["planar", "full3d"])
def test_solve_only_reads_the_system(case):
    # a rejected trial solves the same system again at a higher damping
    graph, huber = oracle_case(case)
    _, system = solver_system(graph, *perturbed(graph, 2), huber)
    (diag, upper), grad = system
    before = diag.copy(), upper.copy(), grad.copy()
    first = opt._solve(*system, 1e-2)
    for kept, now in zip(before, (diag, upper, grad)):
        assert np.array_equal(kept, now)
    again = opt._solve(*system, 1e-2)
    assert np.array_equal(first[0], again[0]) and first[1] == again[1]


def chain_graph(mode, moving, start):
    """A straight drive whose step moves ``moving`` nodes: one sighting at
    its first frame frees the landmark frame (start 0, every node moves),
    or the landmark is fixed and node 0 holds (start 1)."""
    track = straight_track(frames=moving + start)
    aligned = sync.align(track, sightings((0.0, 0, (2.0, 1.0, 0.0))))
    layout = sim.LandmarkLayout(count=3, spacing=2.0)
    graph = gmod.build_graph(aligned, layout, mode, landmark_fixed=start == 1)
    assert graph.node_count == moving + start
    return graph


# every chain the reduction runs down to no node, through levels with odd
# and even node counts; a track has at least two frames
CHAINS = [
    (moving, mode, start)
    for moving in (1, 2, 3, 4, 5, 33) for mode in (PLANAR, FULL3D) for start in (0, 1)
    if moving + start >= 2
]


@pytest.mark.parametrize("seed", [1, 8])  # two perturbed iterates of each chain
@pytest.mark.parametrize("moving, mode, start", CHAINS)
def test_chain_solve_matches_dense(moving, mode, start, seed):
    graph = chain_graph(mode, moving, start)
    for damping in (1e-8, 1e-2):
        assert_solve_matches_dense(graph, 0.0, damping, seed)


def flat_direction_graph(scale):
    """A chain whose last odometry edge has no translation weight, every
    weight times ``scale``.  The last node sees no pole, so its translation
    directions are flat, zero curvature and zero gradient, at any state:
    the rotation rows of Jr^-1 have no translation part."""
    graph = chain_graph(PLANAR, 8, 0)
    w_trans = graph.odo_w_trans.copy()
    w_trans[-1] = 0.0
    return dataclasses.replace(
        graph, odo_w_trans=scale * w_trans, odo_w_rot=scale * graph.odo_w_rot,
        obs_w_trans=scale * graph.obs_w_trans, obs_w_rot=scale * graph.obs_w_rot,
    )


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_damping_floor_sets_the_step_of_a_flat_direction(scale):
    graph = flat_direction_graph(scale)
    _, ((diag, upper), grad) = solver_system(graph, *perturbed(graph, 6), 0.0)
    d, k = diag.shape[0], graph.group.trans_dim
    flat = slice(grad.size - d, grad.size - d + k)  # the last node's translation
    assert not diag[:k, :, -1].any() and not upper[:, :k, -1].any() and not grad[flat].any()
    largest = float(diag[np.arange(d), np.arange(d)].max())
    assert (largest > 1.0) == (scale == 1.0)  # both sides of the floor's max(., 1)
    floor = 1e-12 * max(largest, 1.0)
    damping = 1e-2
    assert_solve_matches_dense(graph, 0.0, damping, 6)  # no step along the flat directions
    # a gradient there meets the floor's damping alone: the step is -g / (mu floor)
    push = np.array([1.0, -2.0])
    pushed = grad.copy()
    pushed[flat] = push
    step, _ = opt._solve((diag, upper), pushed, damping)
    np.testing.assert_allclose(step[flat], -push / (damping * floor), rtol=1e-12)


def test_solve_with_a_flat_direction_converges():
    graph = flat_direction_graph(1.0)
    states, landmark = perturbed(graph, 6)
    moved = dataclasses.replace(graph, states=states, landmark=landmark)
    solved, stats = opt.optimize(moved)  # the floor keeps every pivot positive
    assert stats.reason == COST_THRESHOLD
    assert stats.final_cost < 1e-6 * stats.initial_cost


def test_band_solve_rejects_nan():
    graph, huber = oracle_case("full3d")
    _, ((diag, upper), grad) = solver_system(graph, *perturbed(graph, 0), huber)
    assert opt._solve((diag, upper), grad, 1e-6) is not None
    diag[2, 3, 1] = np.nan  # A[8, 9], one superdiagonal entry
    assert opt._solve((diag, upper), grad, 1e-6) is None


def test_block_solve_rejects_nan_in_coupling_blocks():
    graph, huber = oracle_case("full3d")
    _, ((diag, upper), grad) = solver_system(graph, *perturbed(graph, 0), huber)
    for k in range(upper.shape[-1]):  # couplings of even nodes to both neighbours
        poisoned = upper.copy()
        poisoned[0, 1, k] = np.nan
        assert opt._solve((diag, poisoned), grad, 1e-6) is None, k


# per size, blocks s I coupled by c I that are not positive definite, with
# (s, c).  Over 33 nodes the first level eliminates blocks I, and the odd
# nodes left become 1 - 2 (0.36) = 0.28 times I; the second level's pivots
# are 0.28, and the nodes it leaves at most 0.28 - 0.36^2 / 0.28 < 0 times
# I, so only the third level fails.  Over 8 and 5 nodes the third level fails
# as well, over 2 nodes the second (1 - 1.2^2 < 0), and over 1 node the
# first
NOT_DEFINITE = {33: (1.0, 0.6), 8: (1.0, 0.6), 5: (1.0, 0.6), 2: (1.0, 1.2), 1: (-1.0, 0.0)}


@pytest.mark.parametrize("m", list(NOT_DEFINITE))
def test_block_solve_rejects_matrices_not_positive_definite(m):
    d = 6

    def system(scale, coupling):
        """Blocks sI coupled by cI: the eigenvalues are s + 2c cos(k pi / (m + 1))."""
        eye = np.eye(d)[:, :, None]
        matrix = np.repeat(scale * eye, m, axis=2), np.repeat(coupling * eye, m - 1, axis=2)
        band = scale * np.eye(m) + coupling * (np.eye(m, k=1) + np.eye(m, k=-1))
        return matrix, np.ones(m * d), np.linalg.eigvalsh(np.kron(band, np.eye(d))).min()

    matrix, grad, lowest = system(*NOT_DEFINITE[m])
    assert lowest < 0.0
    assert opt._solve(matrix, grad, 1e-8) is None
    matrix, grad, lowest = system(1.0, 0.4)  # 1 - 0.8 cos(pi / (m + 1)) > 0
    assert lowest > 0.0
    assert opt._solve(matrix, grad, 1e-8) is not None


def block_product(diag, upper, x):
    """A x for the block-tridiagonal A of (diag, upper), x of shape (d, m)."""
    out = np.einsum("ijk,jk->ik", diag, x)
    out[:, :-1] += np.einsum("ijk,jk->ik", upper, x[:, 1:])
    out[:, 1:] += np.einsum("jik,jk->ik", upper, x[:, :-1])
    return out


@pytest.mark.parametrize("run", ["recovery", "sparse"])
@pytest.mark.parametrize("source", ["dvso", "wheel"])
def test_block_solve_backward_error(run, source):
    """The normwise backward error of the first, Gauss–Newton step,
    ||b - A x|| / (||A|| ||x|| + ||b||) in the infinity norm, is at
    rounding level, also where the system is ill-conditioned."""
    noise = sim.PRESETS[source]()
    if run == "recovery":
        graph = pipeline.recovery_run(noise, 7)[0].raw_graph
    else:
        graph = default_sparse_run(noise, 7, noise.dof_mode).raw_graph
    _, ((diag, upper), grad) = solver_system(graph, graph.states, graph.landmark, 0.0)
    damping = opt.DAMPING_FLOOR
    step, _ = opt._solve((diag, upper), grad, damping)
    d = diag.shape[0]
    # the damped matrix the solve factors: the upper triangle of each
    # diagonal block, mirrored
    upper_part = np.arange(d)[:, None] <= np.arange(d)
    damped = np.where(upper_part[:, :, None], diag, diag.transpose(1, 0, 2))
    pivots = damped[np.arange(d), np.arange(d)]
    damped[np.arange(d), np.arange(d)] += damping * np.maximum(
        pivots, 1e-12 * max(float(pivots.max()), 1.0)
    )
    x, b = step.reshape(-1, d).T, -grad.reshape(-1, d).T
    residual = np.abs(b - block_product(damped, upper, x)).max()
    norm_a = block_product(np.abs(damped), np.abs(upper), np.ones_like(x)).max()
    assert residual / (norm_a * np.abs(x).max() + np.abs(b).max()) <= 1e-15


# ---------------------------------------------------------------------------
# the sighting chain, slab by slab


@functools.lru_cache(maxsize=None)
def recovery_graph(source, seed):
    return pipeline.recovery_run(sim.PRESETS[source](), seed)[0].raw_graph


def slab_case(case):
    """(graph, huber delta) of one slab-invariance case."""
    if case.startswith("recovery"):  # every node sees every pole
        return recovery_graph(case.split("-")[1], 7), 0.0
    if case == "unconstrained":
        return oracle_case("no-observations")
    source = "dvso" if case == "sparse" else "wheel"  # most nodes see no pole
    noise = sim.PRESETS[source]()
    graph = default_sparse_run(noise, 7, noise.dof_mode).raw_graph
    return graph, 0.05 if case == "huber" else 0.0


@pytest.mark.parametrize("case", [
    "recovery-dvso", "recovery-wheel", "sparse", "huber", "unconstrained",
])
def test_slab_size_leaves_blocks_bit_identical(monkeypatch, case):
    graph, huber = slab_case(case)
    states, landmark = perturbed(graph, 5)
    observing = np.unique(graph.obs_node).size
    got = {}
    for size in (1, 7, 10, max(observing, 1)):  # 7 or 10 leaves a short last slab
        monkeypatch.setattr(gmod, "SLAB_NODES", size)
        edges = gmod.Edges(graph)
        assert len(edges.slabs) == -(-observing // size)
        # node-aligned: the slabs tile the sightings, each starting a node's run
        starts = [sightings.start for _, sightings in edges.slabs]
        assert starts == [int(edges.first[nodes.start]) for nodes, _ in edges.slabs]
        bounds = [0] + [sightings.stop for _, sightings in edges.slabs]
        assert starts == bounds[:-1] and bounds[-1] == graph.obs_count
        ev = edges.evaluate(states, landmark, huber)
        blocks = opt._blocks(edges, states, landmark, ev)[0]
        got[size] = ev.r_obs, blocks["sii"], blocks["si"], ev.cost
    if huber:
        assert np.any(ev.w_obs[0] < graph.obs_w_trans)  # the kernel bites
    if observing:
        assert observing % 7 or observing % 10
    whole = got.pop(max(observing, 1))
    for size, arrays in got.items():
        for mine, want in zip(arrays, whole):
            assert np.array_equal(mine, want), size


# ---------------------------------------------------------------------------
# the planar products in closed form, against dense products of the same factors


@functools.lru_cache(maxsize=None)
def sparse_graph(source, seed, mode):
    return default_sparse_run(sim.PRESETS[source](), seed, mode).raw_graph


def closed_form_case(case):
    """(graph, huber delta) of one closed-form case."""
    if case == "recovery-wheel":  # every node sees every pole
        return recovery_graph("wheel", 7), 0.0
    if case == "landmark-fixed":
        return small_problem(PLANAR, landmark_fixed=True)[0], 0.0
    if case in ("unconstrained", "full3d"):
        graph = small_problem(FULL3D if case == "full3d" else PLANAR)[0]
        if case == "unconstrained":
            graph = dataclasses.replace(
                graph, obs_node=graph.obs_node[:0], obs_pole=graph.obs_pole[:0],
                obs_meas=graph.obs_meas[:0], obs_w_trans=graph.obs_w_trans[:0],
                obs_w_rot=graph.obs_w_rot[:0],
            )
        return graph, 0.0
    if case == "huber":
        return sparse_graph("wheel", 0, PLANAR), 0.05
    source, seed = case.split("-")  # a sparse default-scenario run, solved planar
    return sparse_graph(source, int(seed), PLANAR), 0.0


def dense_blocks(edges, states, landmark, ev):
    """The blocks of ``opt._blocks`` as dense products J_a^T W J_b and
    J^T W r of the solver's own Jacobian factors, each expanded to its
    matrices: per odometry edge, and per observing node, summed over its
    run of sightings, for the node block -J_l G of each sighting."""
    graph, group = edges.graph, edges.graph.group
    d = group.tangent_dim
    rotation = np.arange(d) >= group.trans_dim

    def weights(w_trans, w_rot):
        return np.where(rotation, w_rot[:, None], w_trans[:, None])

    def wjtj(ja, w, jb):
        return np.einsum("eki,ek,ekj->eij", ja, w, jb)

    def wjtr(ja, w, r):
        return np.einsum("eki,ek,ek->ei", ja, w, r)

    neg_ji, jj = map(group.expand, opt._linearize(edges, ev))
    ji = -neg_ji
    whole = (slice(0, edges.observed.size), slice(0, graph.obs_count))
    jl, adj = map(group.expand, opt._sighting_jacobians(edges, states, landmark, ev, whole))
    node = edges.node_index(whole)
    jn = -(jl @ adj[node])
    w_odo, w_obs = weights(*ev.w_odo), weights(*ev.w_obs)
    sii, si = np.zeros((edges.observed.size, d, d)), np.zeros((edges.observed.size, d))
    np.add.at(sii, node, wjtj(jn, w_obs, jn))
    np.add.at(si, node, wjtr(jn, w_obs, ev.r_obs))
    return {
        "oii": wjtj(ji, w_odo, ji), "oij": wjtj(ji, w_odo, jj), "ojj": wjtj(jj, w_odo, jj),
        "oi": wjtr(ji, w_odo, ev.r_odo), "oj": wjtr(jj, w_odo, ev.r_odo),
        "sii": sii, "si": si,
    }


@pytest.mark.parametrize("case", [
    "recovery-wheel", "wheel-0", "wheel-1", "wheel-2", "lidar-0", "lidar-1", "lidar-2",
    "dvso-0", "huber", "landmark-fixed", "unconstrained", "full3d",
])
def test_blocks_match_dense_products_of_their_factors(case):
    graph, huber = closed_form_case(case)
    states, landmark = perturbed(graph, 6)
    edges = gmod.Edges(graph)
    ev = edges.evaluate(states, landmark, huber)
    if huber:
        assert np.any(ev.w_obs[0] < graph.obs_w_trans)  # the kernel bites
    got = opt._blocks(edges, states, landmark, ev)[0]
    want = dense_blocks(edges, states, landmark, ev)
    assert set(got) == set(want)
    for name, ref in want.items():
        assert got[name].shape == ref.shape, name
        # each block to 1e-12 of its own largest entry
        per_block = tuple(range(1, ref.ndim))
        scale = np.abs(ref).max(axis=per_block, initial=0.0)
        error = np.abs(got[name] - ref).max(axis=per_block, initial=0.0)
        assert np.all(error <= 1e-12 * scale), name


def traced_peak(fn, *args):
    """(fn(*args), the traced peak of the call above what was held at its
    entry, in bytes)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not tracing:
            tracemalloc.stop()


def graph_bytes(graph):
    return sum(v.nbytes for v in vars(graph).values() if isinstance(v, np.ndarray))


def test_optimize_memory_is_bounded_by_the_graph():
    """The traced peak of one wheel recovery solve, above what was held at
    its entry, stays within five times the graph's own arrays: every
    per-sighting temporary lives for one slab, and an iteration's blocks
    are released before the next builds its own."""
    graph = recovery_graph("wheel", 7)
    _, peak = traced_peak(opt.optimize, graph)
    assert peak < 5.0 * graph_bytes(graph), (peak, graph_bytes(graph))


def test_recovery_run_memory_is_bounded_by_the_graph():
    """The traced peak of a whole wheel recovery run stays within 5.5 times
    its graph's arrays (about 4.6 times; 7.0 when the solve ran beside the
    run's ground truth, raw track and sightings, and the reduction kept
    each level's Schur products into the next level)."""
    (result, _), peak = traced_peak(pipeline.recovery_run, sim.wheel_preset(), 7)
    assert peak < 5.5 * graph_bytes(result.raw_graph), (peak, graph_bytes(result.raw_graph))


@pytest.mark.parametrize("caller", ["recovery_run", "cli optimize"])
def test_solve_starts_with_only_the_graph_alive(monkeypatch, tmp_path, caller):
    """When the solve starts, the ground truth, the sightings, the raw track
    and the aligned sequence its graph was built from are gone."""
    out = tmp_path / "run"
    if caller == "cli optimize":
        (tmp_path / "scenario.txt").write_text("sources = dvso\ntrajectory.straight_length = 10\n")
        assert cli.main(["simulate", "--config", str(tmp_path / "scenario.txt"), "--out", str(out)]) == 0
    inputs = {}

    def spy(module, name, *kept):
        """Wraps module.name to keep weak references to its result and to
        the arguments at the positions ``kept``."""
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            inputs[name] = weakref.ref(result)
            inputs.update((f"{name} arg {k}", weakref.ref(args[k])) for k in kept)
            return result

        monkeypatch.setattr(module, name, wrapper)

    spy(sim, "generate_ground_truth")
    spy(sim, "simulate_landmark_observations")
    spy(sync, "align", 0, 1)  # the raw track and the sightings the graph is built from
    alive = []
    optimize = opt.optimize

    def entered(graph, *args):
        alive.extend(key for key, ref in inputs.items() if ref() is not None)
        return optimize(graph, *args)

    monkeypatch.setattr(opt, "optimize", entered)
    if caller == "cli optimize":
        assert cli.main([
            "optimize",
            "--track", str(out / "dvso_raw.txt"),
            "--observations", str(out / "observations.txt"),
            "--out", str(out),
        ]) == 0
    else:
        pipeline.recovery_run(sim.dvso_preset(), 7)
    assert {"align", "align arg 0", "align arg 1"} <= set(inputs)
    assert alive == []


def test_build_then_solve_matches_optimize_track(monkeypatch):
    """recovery_run builds its graph and then solves it; handed the same
    track and sightings, optimize_track gives the same solve bit for bit."""
    inputs = []
    align = sync.align
    monkeypatch.setattr(sync, "align", lambda *args: inputs.append(args) or align(*args))
    noise = sim.dvso_preset()
    split, _ = pipeline.recovery_run(noise, 7)
    monkeypatch.undo()
    ((track, observations),) = inputs
    weight = sim.information_weight
    whole = pipeline.optimize_track(
        track,
        observations,
        mode=noise.dof_mode,
        odom_weights=(weight(noise.trans_per_frame), weight(np.radians(noise.rot_deg_per_frame))),
    )
    for mine, want in ((split.graph, whole.graph), (split.raw_graph, whole.raw_graph)):
        assert np.array_equal(mine.states, want.states)
        assert np.array_equal(mine.landmark, want.landmark)

    def untimed(stats):
        records = [{k: v for k, v in r.items() if not k.endswith("_s")} for r in stats.per_iteration]
        return stats.reason, stats.cost_trace, records

    assert untimed(split.stats) == untimed(whole.stats)
    assert split.report == whole.report
    assert list(split.stages) == list(whole.stages)


def test_per_iteration_records(monkeypatch):
    graph = simulated_graph(seed=3)
    solve = opt._solve
    dampings = []  # damping of every trial, in order

    def first_trial_fails(*system):
        dampings.append(system[-1])
        return None if len(dampings) == 1 else solve(*system)

    monkeypatch.setattr(opt, "_solve", first_trial_fails)
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


def test_gradient_and_gain_ratio_records():
    graph = simulated_graph(seed=0)
    solved, stats = opt.optimize(graph)
    first, *_, last = stats.per_iteration
    # the first record's gradient is the one assembled at the start, over
    # the moving nodes
    _, (_, grad) = solver_system(graph, graph.states, graph.landmark, 0.0)
    assert grad.size == graph.node_count * graph.group.tangent_dim  # node 0 moves
    assert first["grad_inf"] == np.abs(grad).max()
    assert last["grad_inf"] < first["grad_inf"]
    # the solve ends on an accepted trial, so the optimum's gradient is the
    # one assembled at the solution
    _, (_, grad) = solver_system(graph, solved.states, solved.landmark, 0.0)
    assert np.abs(grad).max() < 1e-6 * first["grad_inf"]
    # away from rounding level the model predicts the decrease of
    # sum r^T W r, so actual over predicted is near one
    for record in stats.per_iteration[:2]:
        assert record["gain_ratio"] == pytest.approx(1.0, abs=1e-3)


def test_gain_ratio_none_without_predicted_decrease():
    graph, _, _, _ = small_problem()  # zero cost: zero gradient, zero step
    _, stats = opt.optimize(graph)
    (record,) = stats.per_iteration
    assert record["grad_inf"] == 0.0
    assert record["gain_ratio"] is None


def evaluation_passes(monkeypatch, graph):
    """The solve's stats and the number of ``Group.between`` passes it ran,
    checked against its trials: one odometry pass and one observation pass
    per slab at the start and per trial.  Linearizing reuses the accepted
    trial's residuals, and an iteration that stops before its trial
    evaluates nothing."""
    between = geom.Group.between
    calls = []

    def counted(self, *args):
        calls.append(args)
        return between(self, *args)

    monkeypatch.setattr(geom.Group, "between", counted)
    _, stats = opt.optimize(graph)
    # an iteration ran an accepted trial unless it stopped before it
    trials = sum(
        record["rejected"] + (record["gain_ratio"] is not None) for record in stats.per_iteration
    )
    assert len(calls) == (1 + len(gmod.Edges(graph).slabs)) * (1 + trials)
    return stats


def test_each_trial_evaluates_the_residuals_once(monkeypatch):
    stats = evaluation_passes(monkeypatch, simulated_graph(seed=3))
    assert stats.iterations >= 2
    *_, last = stats.per_iteration
    assert last["gain_ratio"] is not None  # the last iteration ran its trial


def test_stop_before_trial_evaluates_nothing(monkeypatch):
    noise = sim.dvso_preset()
    graph = default_sparse_run(noise, 1, noise.dof_mode).raw_graph
    stats = evaluation_passes(monkeypatch, graph)
    assert stats.iterations >= 2
    *_, last = stats.per_iteration
    assert last["gain_ratio"] is None  # the last iteration stopped before its trial


def test_huber_final_cost_is_total_cost():
    graph = simulated_graph(seed=2)
    delta = 0.02
    solved, stats = opt.optimize(graph, SolverSettings(huber_delta=delta))
    ev = gmod.evaluate(solved, huber_delta=delta)
    # the kernel bites
    assert np.any(ev.w_odo[0] < solved.odo_w_trans) or np.any(ev.w_obs[0] < solved.obs_w_trans)
    assert gmod.total_cost(solved, huber_delta=delta) == stats.final_cost


# ---------------------------------------------------------------------------
# convergence on the pipeline's own problems


@pytest.mark.parametrize("source, seed, most", [
    ("dvso", 1000, 5), ("dvso", 1003, 5), ("wheel", 1, 6),
])
def test_sparse_solve_converges_in_few_iterations(monkeypatch, source, seed, most):
    noise = sim.PRESETS[source]()
    result = default_sparse_run(noise, seed, noise.dof_mode)
    stats = result.stats
    assert stats.reason == COST_THRESHOLD
    assert stats.iterations <= most
    # the same cost as a reference solve run on to a relative decrease of
    # 1e-14, with no stop before a trial
    monkeypatch.setattr(opt, "COST_TOLERANCE", 1e-14)
    monkeypatch.setattr(opt, "ROUNDING_DECREASE", 0.0)
    _, reference = opt.optimize(result.raw_graph)
    assert stats.final_cost == pytest.approx(reference.final_cost, rel=1e-11)


@pytest.mark.parametrize("max_iterations", [1, 100])
@pytest.mark.parametrize("source", ["dvso", "wheel"])
def test_stats_counts_follow_the_trace(source, max_iterations):
    noise = sim.PRESETS[source]()
    raw = default_sparse_run(noise, 1000, noise.dof_mode).raw_graph
    solved, stats = opt.optimize(raw, SolverSettings(max_iterations=max_iterations))
    assert stats.iterations == len(stats.cost_trace) - 1 == len(stats.per_iteration)
    assert stats.final_cost == stats.cost_trace[-1] == gmod.total_cost(solved)
    assert stats.initial_cost == stats.cost_trace[0] == gmod.total_cost(raw)


@pytest.mark.parametrize("source", ["dvso", "wheel"])
@pytest.mark.parametrize("seed", [1001, 7000])
def test_recovery_solve_rejects_no_trial(source, seed):
    result, _ = pipeline.recovery_run(sim.PRESETS[source](), seed)
    assert result.stats.iterations <= 3
    assert all(record["rejected"] == 0 for record in result.stats.per_iteration)


@pytest.mark.parametrize("seed", [1, 3000, 7000, 7001])
def test_ate_stable_under_rounding_of_the_track(seed):
    """The same scenario integrated frame by frame and by prefix scan
    (poses a few 1e-13 m apart) solves to the same trajectory error."""
    noise = sim.dvso_preset()
    truth = sim.generate_ground_truth(sim.TrajectoryProfile(), noise.frame_rate)
    track, record = sim.corrupt(
        truth, noise, pipeline.derive_seed(seed, f"corrupt-{noise.source}")
    )
    looped = dataclasses.replace(track, poses=loop_corrupt_poses(truth, noise, record))
    observations = sim.simulate_landmark_observations(
        truth, sim.LandmarkLayout(), sim.default_placement(), sim.DetectionModel(),
        pipeline.derive_seed(seed, pipeline.OBSERVATION_STREAM),
    )
    ates = []
    for odometry in (track, looped):
        solved = pipeline.optimize_track(odometry, observations).graph
        frames = solved.is_frame
        ates.append(metrics.ate_rmse(
            solved.times[frames], solved.states[frames, :3],
            truth.times, truth.poses[:, :3],
        ))
    assert ates[1] == pytest.approx(ates[0], rel=1e-8)
