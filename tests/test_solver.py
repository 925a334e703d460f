import numpy as np
import pytest
from dataclasses import replace

from rapd.blockcore import BlockPartition, weighted_norm_sq_raw
from rapd.bregman import (EntropyGeometry, EuclideanGeometry, IndicatorBall,
                          IndicatorNonneg, IndicatorSimplex, L1, ProductGeometry,
                          SquaredL2, Zero, bregman_prox)
from rapd.exceptions import (DimensionError, DivergenceError, DomainError, ParameterError,
                             RegimeError)
from rapd.oracle import (SaddleCertificate, kkt_residual, solve_high_accuracy,
                         solve_quadratic_game_exact)
from rapd.problem import BilinearProblem, build_bilinear_erm, build_quadratic_game
from rapd.harness.config import parse_config
from rapd.harness.metrics import lagrangian_gap
from rapd.harness.suites import build_problem_from_config, write_trace_csv
from rapd.kernel_learning import build_kernel_problem, dual_start, synth_dataset
from rapd.rng import CounterRng, sample_index, sample_indices
from rapd.solver import (CACHE_RESYNC_SWEEPS, DRAW_CHUNK, RunOptions, RunTrace,
                         TraceRecord, _block_draws, _Monitor, ergodic_average,
                         primal_block_step, run)
from rapd.stepsize import (default_alpha, part1_schedule, part2_init,
                           schedule_prefix)
from rapd.baselines import estimate_operator_lipschitz, mirror_prox_run, pdhg_run


def small_bilinear(seed=5, n=4, m=2, f=None, h=None):
    rng = np.random.default_rng(seed)
    part = BlockPartition.even(n, m)
    A = rng.standard_normal((n, n))
    f = f or [L1(0.3) for _ in range(part.m)]
    h = h or IndicatorBall(2.0)
    return build_bilinear_erm([A[:, sl] for sl in part.slices()], f, h,
                              partition=part)


def three_loops(prob, scale=1.0):
    """``run``, ``pdhg_run`` and ``mirror_prox_run`` on ``prob`` with their
    default steps times ``scale``, as ``name -> fn(K, x0, **record_kw)``."""
    sched = part1_schedule(prob.constants, prob.partition.m, default_alpha(prob.constants))
    sched = replace(sched, tau=sched.tau * scale, sigma=sched.sigma * scale)
    L = estimate_operator_lipschitz(prob)
    return {
        "run": lambda K, x0, **kw: run(prob, sched, K, seed=0, x0=x0,
                                       options=RunOptions(**kw)),
        "pdhg_run": lambda K, x0, **kw: pdhg_run(prob, 0.5 * scale / L, 0.5 * scale / L,
                                                 K, x0=x0, **kw),
        "mirror_prox_run": lambda K, x0, **kw: mirror_prox_run(prob, L / scale, K,
                                                               x0=x0, **kw),
    }


def iterates(prob, sched, K, x0):
    """``[(x^k, y^k)]`` for k = 0..K of a ``run``."""
    hist = [(np.asarray(x0, float), np.zeros(prob.dual_dim))]
    run(prob, sched, K, seed=0, x0=x0,
        options=RunOptions(iterate_hook=lambda k, x, y: hist.append((x.copy(), y.copy()))))
    return hist


class TestMomentum:
    # with h = 0 the dual step is y^{k+1} = y^k + sigma s^k, so the
    # momentum direction is read off consecutive dual iterates

    def test_start_convention(self):
        # g_prev initialized to g_0 forces s^0 = g_0
        prob = small_bilinear(h=Zero())
        sched = part1_schedule(prob.constants, 2, default_alpha(prob.constants))
        (x0, y0), (_, y1) = iterates(prob, sched, 1, np.ones(4))
        assert (y1 - y0) / sched.sigma == pytest.approx(prob.grad_y(x0, y0))

    def test_hand_arithmetic(self):
        # m = 2, theta = 1: s^1 = (1 + m theta) g_1 - m theta g_0 = 3 g_1 - 2 g_0
        part = BlockPartition([1, 1])
        prob = build_bilinear_erm([np.array([[1.0], [0.0]]), np.array([[1.0], [2.0]])],
                                  [Zero(), Zero()], Zero(), partition=part)
        sched = part1_schedule(prob.constants, 2, default_alpha(prob.constants))
        assert sched.theta == 1.0
        (x0, y0), (x1, y1), (_, y2) = iterates(prob, sched, 2, np.array([1.0, -1.0]))
        g0, g1 = prob.grad_y(x0, y0), prob.grad_y(x1, y1)
        assert g0 == pytest.approx([0.0, -2.0])
        assert (y2 - y1) / sched.sigma == pytest.approx(3.0 * g1 - 2.0 * g0, abs=1e-12)

    def test_bilinear_recovers_iterate_extrapolation(self):
        # for phi = <Ax, y>, s^k = A(2 x^k - x^{k-1}) at m = 1, theta = 1
        prob = small_bilinear(m=1, h=Zero())
        sched = part1_schedule(prob.constants, 1, default_alpha(prob.constants))
        hist = iterates(prob, sched, 25, np.ones(4))
        for k in range(1, 25):
            (x_prev, _), (x_cur, y_cur), (_, y_next) = hist[k - 1:k + 2]
            s = (y_next - y_cur) / sched.sigma
            assert np.abs(s - prob.A @ (2 * x_cur - x_prev)).max() <= 1e-12 * max(
                1.0, float(np.abs(s).max()))


class TestDualStep:
    def test_unconstrained_ascent(self):
        prob = small_bilinear(h=Zero())
        y = np.array([1.0, -1.0, 0.0, 2.0])
        s = np.array([0.5, 0.5, -1.0, 0.0])
        assert bregman_prox(prob.dual_geometry, prob.h, 0.2, -s, y) == pytest.approx(y + 0.2 * s)

    def test_nonneg_projection(self):
        prob = small_bilinear(h=IndicatorNonneg())
        out = bregman_prox(prob.dual_geometry, prob.h, 0.1, -np.array([-20.0, 0, 0, 0]),
                           np.array([1.0, 1, 1, 1]))
        assert out[0] == pytest.approx(0.0)
        # 1-d brute force: max over y>=0 of s*y - (y - 1)^2/(2*0.1)
        ys = np.linspace(0, 3, 300001)
        obj = -20.0 * ys - (ys - 1.0) ** 2 / 0.2
        assert ys[np.argmax(obj)] == pytest.approx(0.0, abs=1e-4)

    def test_entropy_simplex(self):
        part = BlockPartition([2])
        prob = build_bilinear_erm([np.eye(2)], [Zero()], IndicatorSimplex(1.0),
                                  partition=part)
        prob.dual_geometry = EntropyGeometry(2)
        out = bregman_prox(prob.dual_geometry, prob.h, 1.0, -np.array([np.log(2.0), 0.0]),
                           np.array([0.5, 0.5]))
        assert out == pytest.approx([2 / 3, 1 / 3])


def simplex_game(n=6, d=3, m=2, seed=4):
    """A quadratic game with ``n != d`` and the unit simplex as dual
    domain, on which ``q`` makes the first dual coordinate cost the most."""
    rng = np.random.default_rng(seed)
    return build_quadratic_game(np.eye(n), np.zeros((d, d)), rng.standard_normal((d, n)),
                                rng.standard_normal(n), np.array([20.0, 0.0, 0.0]),
                                BlockPartition.even(n, m), f=[Zero()] * m,
                                h=IndicatorSimplex(1.0))


def entry_points(prob, K):
    """``run``, ``pdhg_run``, ``mirror_prox_run`` and ``solve_high_accuracy``
    as ``name -> fn(x0, y0)``, ``K`` iterations each."""
    sched = part1_schedule(prob.constants, prob.partition.m, default_alpha(prob.constants))
    L = estimate_operator_lipschitz(prob)
    return {
        "run": lambda x0, y0: run(prob, sched, K, seed=0, x0=x0, y0=y0),
        "pdhg_run": lambda x0, y0: pdhg_run(prob, 0.5 / L, 0.5 / L, K, x0=x0, y0=y0),
        "mirror_prox_run": lambda x0, y0: mirror_prox_run(prob, L, K, x0=x0, y0=y0),
        "solve_high_accuracy": lambda x0, y0: solve_high_accuracy(prob, max_iters=K,
                                                                  x0=x0, y0=y0),
    }


class TestChecksAtTheStart:
    """The loops bind their dual step once and check its inputs before the
    first iteration, not in every step."""

    @pytest.mark.parametrize("name", ["run", "pdhg_run", "mirror_prox_run",
                                      "solve_high_accuracy"])
    def test_start_of_the_wrong_shape_rejected(self, name):
        prob = simplex_game()
        fn = entry_points(prob, 3)[name]
        y_ok = np.full(3, 1 / 3)
        for x0, y0 in ((np.ones(5), y_ok), (np.ones(7), y_ok), (np.ones((6, 1)), y_ok),
                       (1.0, y_ok), (np.ones(6), np.full(4, 0.25)),
                       (np.ones(6), np.full(2, 0.5)), (np.ones(6), np.full((3, 1), 1 / 3)),
                       (np.ones(6), np.full((1, 3), 1 / 3))):
            with pytest.raises(DimensionError, match=r"needs \(6,\) and \(3,\)"):
                fn(x0, y0)
        fn(list(np.ones(6)), list(y_ok))   # any array-like of the right shape

    def test_dual_step_checked_before_the_first_iteration(self):
        prob = small_bilinear(h=L1(0.1))
        sched = part1_schedule(prob.constants, 2, default_alpha(prob.constants))
        seen = []
        hook = RunOptions(iterate_hook=lambda k, x, y: seen.append(k))
        for sigma in (0.0, -1.0, np.nan):
            with pytest.raises(ParameterError):
                run(prob, replace(sched, sigma=sigma), 5, seed=0, options=hook)
        # an l1 dual term does not split over the parts of a product geometry
        loops = three_loops(prob)
        prob.dual_geometry = ProductGeometry([EuclideanGeometry(2), EuclideanGeometry(2)])
        products = []
        product = prob.primal_product
        prob.primal_product = lambda x: products.append(1) or product(x)
        for name, loop in loops.items():
            kw = {} if name == "mirror_prox_run" else {"iterate_hook": hook.iterate_hook}
            with pytest.raises(DomainError, match="separable"):
                loop(5, np.ones(4), **kw)
        assert seen == [] and products == []

    def test_accelerated_state_below_the_momentum_floor_rejected(self):
        # taut = 1 on the part-2 suite instance (m = 8): theta^1 = 1/sqrt(2)
        # lies below 1 - 1/m, and theta never decreases, so one check at
        # the start covers the run
        from rapd.harness.suites import part2_suite_problem
        prob, x0, y0 = part2_suite_problem()
        sched = part2_init(prob.constants, 8, default_alpha(prob.constants))
        seen = []
        hook = RunOptions(iterate_hook=lambda k, x, y: seen.append(k))
        for taut in (1.0, 0.0, -0.5, np.nan, None):
            with pytest.raises(RegimeError, match="falls below 1 - 1/m"):
                run(prob, replace(sched, tau_tilde=taut), 5, seed=0, x0=x0, y0=y0,
                    options=hook)
        assert seen == []
        run(prob, sched, 5, seed=0, x0=x0, y0=y0, options=hook)
        assert seen == [1, 2, 3, 4, 5]

    def test_geometry_assigned_after_construction_is_used(self):
        # the entropy step never leaves the simplex interior, where the
        # Euclidean one the problem was built with projects onto its faces
        finals = {}
        for kind in ("euclidean", "entropy"):
            prob = simplex_game()
            if kind == "entropy":
                prob.dual_geometry = EntropyGeometry(3)
            duals = []
            read_off = prob.grad_y_cached
            prob.grad_y_cached = lambda w, x, y: duals.append(y.copy()) or read_off(w, x, y)
            for name, fn in entry_points(prob, 200).items():
                if name == "solve_high_accuracy":
                    continue
                duals.clear()
                trace = fn(np.ones(6), np.full(3, 1 / 3))
                duals.append(trace.final_y)
                finals[kind, name] = trace.final_y
                assert len(duals) > 200
                if kind == "entropy":
                    assert all((y > 0).all() for y in duals), name
        for name in ("run", "pdhg_run", "mirror_prox_run"):
            euclidean, entropy = finals["euclidean", name], finals["entropy", name]
            assert (euclidean == 0).any(), name
            assert (entropy > 0).all() and not np.array_equal(entropy, euclidean), name


class TestMonitor:
    def test_running_norm_matches_a_fresh_one(self):
        # step_block moves ||x||^2 by one dot per block change; right after
        # a resync it equals a fresh x @ x bit for bit, in between to 1e-12
        # of the largest ||x||^2 since the resync (a running sum's rounding
        # scales with the terms it has added and removed)
        prob = small_bilinear(n=12, m=4)
        monitor = _Monitor(prob, "test", 10_000, np.ones(12), None,
                           lambda k, wall_s: None, RunOptions())
        x, y = monitor.start
        assert monitor.x_sq == float(x @ x)
        rng = np.random.default_rng(7)
        slices = prob.partition.slices()
        peak = float(x @ x)
        for done in range(1, 2001):
            i = int(rng.integers(4))
            old = x[slices[i]].copy()
            new = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3)
            x[slices[i]] = new
            if done % 37 == 0:
                monitor.resync(x)
            monitor.step_block(x, y, i, old, new)
            fresh = float(x @ x)
            if done % 37 == 0:
                assert monitor.x_sq == fresh, done
                peak = fresh
            else:
                peak = max(peak, fresh)
                assert abs(monitor.x_sq - fresh) <= 1e-12 * peak, done


class TestRecordLog:
    def test_reads_back_what_was_appended(self):
        tr = RunTrace(method="x", seed=0, partition=BlockPartition([1]))
        recs = [TraceRecord(k=k, wall_s=0.1 * k, i_k=k % 3 - 1, sigma=1.0 / k, theta=0.5,
                            tau_min=2.0, tau_max=3.0, t=float(k), gap=-1e-300 * k,
                            dist_sq=4.0, dy=5.0, wdist_sq=6.0, t_prev=7.0)
                for k in (1, 10, 300, 4096)]
        for r in recs:
            tr.records.append(r)
        assert len(tr.records) == 4 and list(tr.records) == recs
        assert tr.records[-1] == recs[-1]
        assert type(tr.records[0].k) is int and type(tr.records[0].i_k) is int
        tr.records.append(TraceRecord(k=5, wall_s=0.0, i_k=0, sigma=1.0, theta=1.0,
                                      tau_min=1.0, tau_max=1.0, t=1.0))
        # NaN defaults survive, though a read is a new object, so no longer == itself
        assert np.isnan(tr.records[4].gap) and np.isnan(tr.records[-1].t_prev)
        assert tr.column("k").tolist() == [1, 10, 300, 4096, 5]
        assert tr.column("gap")[:4].tolist() == [r.gap for r in recs]
        assert tr.at(300) == recs[2]
        with pytest.raises(IndexError):
            tr.records[5]
        # a read is a copy: the log keeps what was appended
        tr.records[0].gap = 5.0
        assert tr.records[0] == recs[0]

    def test_slices_read_back_as_lists(self):
        tr = RunTrace(method="x", seed=0, partition=BlockPartition([1]))
        recs = [TraceRecord(k=k, wall_s=0.0, i_k=0, sigma=1.0, theta=1.0, tau_min=1.0,
                            tau_max=1.0, t=float(k), gap=float(k), dist_sq=0.0, dy=0.0,
                            wdist_sq=0.0, t_prev=0.0) for k in range(1, 6)]
        for r in recs:
            tr.records.append(r)
        assert tr.records[-2:] == recs[-2:]
        assert tr.records[::2] == recs[::2] and tr.records[3:1] == []
        assert tr.records[:] == recs
        # a slice holds copies too
        tr.records[:1][0].gap = 0.0
        assert tr.records[0] == recs[0]

    def test_kept_records_are_packed(self):
        # a kept record costs its 14 doubles, not an object per value
        import tracemalloc
        prob = small_bilinear(n=12, m=4)
        sched = part1_schedule(prob.constants, 4, default_alpha(prob.constants))
        opts = RunOptions(record_at=range(1, 4001))
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        tr = run(prob, sched, 4000, seed=1, options=opts)
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        assert len(tr.records) == 4000
        assert kept < 160 * len(tr.records), kept


class TestSampling:
    def test_degenerate_cases(self):
        rng = CounterRng(1)
        assert all(sample_index(rng, 1) == 0 for _ in range(10))
        rng = CounterRng(2)
        p = np.array([1.0, 0.0, 0.0])
        assert all(sample_index(rng, 3, p) == 0 for _ in range(100))

    def test_uniform_frequencies_within_3_sigma(self):
        n, m = 1_000_000, 4
        draws = sample_indices(seed=7, m=m, count=n)
        counts = np.bincount(draws, minlength=m)
        sd = np.sqrt(n * 0.25 * 0.75)
        assert np.abs(counts - n / 4).max() <= 3 * sd

    def test_vectorized_matches_sequential(self):
        rng = CounterRng(11)
        seq = [sample_index(rng, 5) for _ in range(200)]
        vec = sample_indices(seed=11, m=5, count=200)
        assert np.array_equal(seq, vec)
        rng = CounterRng(13)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        seq = [sample_index(rng, 4, p) for _ in range(200)]
        vec = sample_indices(seed=13, m=4, count=200, p=p)
        assert np.array_equal(seq, vec)

    @staticmethod
    def scalar_stream(seed, m, count, p=None):
        rng = CounterRng(seed)
        return [sample_index(rng, m, p) for _ in range(count)]

    def test_chunked_draws_match_scalar_stream(self):
        # a run's draws cross three chunk boundaries and stop mid-chunk
        K = 3 * DRAW_CHUNK + 77
        for m in (1, 3, 10, 256, 2**31 - 1):
            for seed in (0, 9, -3):
                draws = list(_block_draws(seed, m, K, None))
                assert draws == self.scalar_stream(seed, m, K), (m, seed)
                assert all(type(i) is int for i in draws[:3])
        p = np.array([0.05, 0.5, 0.15, 0.3])
        assert list(_block_draws(4, 4, K, p)) == self.scalar_stream(4, 4, K, p)
        with pytest.raises(ParameterError):
            sample_indices(0, 2**32 - 1, 10)

    def test_run_samples_the_scalar_stream(self):
        # K below one chunk and K across a chunk boundary, uniform and not
        prob = small_bilinear(n=6, m=3)
        c = prob.constants
        p = np.array([0.2, 0.5, 0.3])
        for K, probs in ((40, None), (DRAW_CHUNK + 40, None), (40, p)):
            sched = part1_schedule(c, 3, default_alpha(c)) if probs is None else \
                part1_schedule(c, 3, default_alpha(c), c_tau=1.0, c_sigma=1.0, p=probs)
            tr = run(prob, sched, K, seed=17, options=RunOptions(record_at=range(1, K + 1)))
            assert [r.i_k for r in tr.records] == self.scalar_stream(17, 3, K, probs)

    def test_nonuniform_frequencies(self):
        p = np.array([0.7, 0.2, 0.1])
        draws = sample_indices(seed=3, m=3, count=100_000, p=p)
        freq = np.bincount(draws, minlength=3) / 100_000
        assert np.abs(freq - p).max() <= 0.01


class TestPrimalBlockStep:
    def test_zero_function_partial_gradient_step(self):
        prob = small_bilinear(f=[Zero(), Zero()])
        x = np.ones(4)
        y = np.full(4, 0.3)
        out = primal_block_step(prob, x, y, 0, 0.25)
        expect = x.copy()
        expect[:2] = x[:2] - 0.25 * prob.grad_x_block(0, x, y)
        assert out == pytest.approx(expect)

    def test_l1_soft_threshold(self):
        part = BlockPartition([1])
        prob = build_bilinear_erm([np.array([[1.0]])], [L1(1.0)], Zero(),
                                  partition=part)
        # grad at (x, y) is y; choose y = 2 so the update soft-thresholds to 0
        out = primal_block_step(prob, np.array([1.0]), np.array([2.0]), 0, 0.5)
        assert out == pytest.approx([0.0])

    def test_non_selected_blocks_bit_identical(self):
        prob = small_bilinear()
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            i = int(rng.integers(2))
            out = primal_block_step(prob, x, y, i, 0.3)
            other = prob.partition.block_slice(1 - i)
            assert np.array_equal(out[other], x[other])


class TestErgodic:
    def test_single_term(self):
        prob = small_bilinear()
        sched = part1_schedule(prob.constants, 2, default_alpha(prob.constants))
        tr = run(prob, sched, 1, seed=0, x0=np.ones(4), y0=np.zeros(4))
        assert tr.ergodic_x == pytest.approx(tr.final_x)
        assert tr.ergodic_y == pytest.approx(tr.final_y)

    def test_midpoint(self):
        xs, ys = ergodic_average(np.array([0.0]) + np.array([2.0]),
                                 np.array([1.0]) + np.array([3.0]), 2)
        assert xs == pytest.approx([1.0])
        assert ys == pytest.approx([2.0])

    def test_blockwise_commutes(self):
        part = BlockPartition([2, 2])
        rng = np.random.default_rng(2)
        iterates = [rng.standard_normal(4) for _ in range(5)]
        avg = np.mean(iterates, axis=0)
        for i in range(2):
            sl = part.block_slice(i)
            assert np.mean([v[sl] for v in iterates], axis=0) == pytest.approx(avg[sl])

    def test_lazy_sums_match_eager(self):
        # run brings a block's ergodic sum up to date only when the block
        # changes or an average is read; that must equal summing the
        # hook's copies of every iterate
        part = BlockPartition.even(6, 3)
        rng = np.random.default_rng(8)
        M = rng.standard_normal((6, 6))
        N = rng.standard_normal((2, 2))
        prob = build_quadratic_game(M @ M.T / 6 + np.eye(6) * 0.1,
                                    N @ N.T / 2 + np.eye(2) * 0.1,
                                    rng.standard_normal((2, 6)),
                                    rng.standard_normal(6),
                                    rng.standard_normal(2), part)
        cert = solve_quadratic_game_exact(prob.P, prob.Q, prob.C, prob.p, prob.q)
        sums, gaps = [np.zeros(6), np.zeros(2)], {}

        def hook(k, x, y):
            sums[0] += x
            sums[1] += y
            if k in (7, 500):
                gaps[k] = lagrangian_gap(prob, sums[0] / k, sums[1] / k, cert)

        sched = part1_schedule(prob.constants, 3, default_alpha(prob.constants))
        tr = run(prob, sched, 2000, seed=1, x0=np.ones(6),
                 options=RunOptions(record_at=[7, 500], reference=cert, iterate_hook=hook))
        for avg, total in ((tr.ergodic_x, sums[0]), (tr.ergodic_y, sums[1])):
            assert np.linalg.norm(avg - total / 2000) <= 1e-12 * np.linalg.norm(avg)
        for k, gap in gaps.items():
            assert tr.at(k).gap == pytest.approx(gap, rel=1e-9, abs=1e-12)

    def test_empty_run_rejected(self):
        with pytest.raises(Exception):
            ergodic_average(np.zeros(1), np.zeros(1), 0)


class TestRun:
    def test_determinism_bit_identical(self):
        prob = small_bilinear()
        sched = part1_schedule(prob.constants, 2, default_alpha(prob.constants))
        opts = RunOptions(record_at=[10, 50, 100])
        tr1 = run(prob, sched, 100, seed=42, x0=np.ones(4), options=opts)
        tr2 = run(prob, sched, 100, seed=42, x0=np.ones(4), options=opts)
        assert np.array_equal(tr1.final_x, tr2.final_x)
        assert np.array_equal(tr1.final_y, tr2.final_y)
        assert [r.i_k for r in tr1.records] == [r.i_k for r in tr2.records]

    def test_accelerated_records_match_schedule_prefix(self):
        # the scalar schedule in run is bit for bit the StepSchedule
        # recursion, at every k, for uniform and non-uniform sampling
        from rapd.harness.suites import part2_suite_certificate, part2_suite_problem
        prob, x0, y0 = part2_suite_problem()
        cert = part2_suite_certificate(prob)
        c, m, K = prob.constants, prob.partition.m, 300
        p = np.linspace(1.0, 2.0, m) / np.linspace(1.0, 2.0, m).sum()
        for s0 in (part2_init(c, m, default_alpha(c)),
                   part2_init(c, m, default_alpha(c), c_sigma=1.0, p=p)):
            xs = {}
            opts = RunOptions(record_at=range(1, K + 1), reference=cert,
                              iterate_hook=lambda k, x, y: xs.__setitem__(k, x.copy()))
            tr = run(prob, s0, K, seed=5, x0=x0, y0=y0, options=opts)
            prefix = schedule_prefix(s0, K)
            for r in tr.records:
                cur, prev = prefix[r.k], prefix[r.k - 1]
                weights = 1.0 / prev.tau + (1.0 - 1.0 / m) * c.mu
                wdist = 0.5 * weighted_norm_sq_raw(xs[r.k] - cert.x_star, prob.partition,
                                                   weights)
                assert (r.sigma, r.theta, r.tau_min, r.tau_max, r.t, r.wdist_sq, r.t_prev) \
                    == (cur.sigma, cur.theta, float(cur.tau.min()), float(cur.tau.max()),
                        cur.t, wdist, prev.t), r.k

    def test_different_seeds_differ(self):
        from rapd.rng import sample_indices
        a = sample_indices(seed=1, m=2, count=50)
        b = sample_indices(seed=2, m=2, count=50)
        assert not np.array_equal(a, b)

    def test_m1_matches_deterministic_baseline_per_iterate(self):
        for g in range(3):
            prob = small_bilinear(seed=20 + g, m=1)
            sched = part1_schedule(prob.constants, 1, default_alpha(prob.constants))
            rec_r, rec_b = [], []
            run(prob, sched, 100, seed=0, x0=np.ones(4),
                options=RunOptions(iterate_hook=lambda k, x, y:
                                   rec_r.append((x.copy(), y.copy()))))
            pdhg_run(prob, float(sched.tau[0]), sched.sigma, 100, x0=np.ones(4),
                     iterate_hook=lambda k, x, y: rec_b.append((x.copy(), y.copy())))
            for (xr, yr), (xb, yb) in zip(rec_r, rec_b):
                assert np.abs(xr - xb).max() <= 1e-12
                assert np.abs(yr - yb).max() <= 1e-12

    def test_cache_coherence_debug_mode(self):
        # the incremental cache matches a fresh gradient at every iteration
        prob = small_bilinear(n=16, m=8)
        sched = part1_schedule(prob.constants, 8, default_alpha(prob.constants))
        tr = run(prob, sched, 5000, seed=3, x0=np.ones(16),
                 options=RunOptions(debug_cache_every=1))  # raises past 1e-10
        assert tr.iterations == 5000

    def test_full_dual_gradients_per_run(self):
        # every coupling moves its cache forward incrementally, with a full
        # dual gradient only at each resync
        K = 2000
        rng = np.random.default_rng(8)
        quadratic = build_quadratic_game(np.eye(6), np.eye(2), rng.standard_normal((2, 6)),
                                         rng.standard_normal(6), rng.standard_normal(2),
                                         BlockPartition.even(6, 3))
        kernel = build_kernel_problem(synth_dataset(n_tr=40, d=3, seed=2), lam=1.0,
                                      m_blocks=4)
        constrained, _, y0_constrained = build_problem_from_config(parse_config(
            "problem.type = constrained\nproblem.n = 12\nproblem.d = 4\n"
            "problem.blocks = 3\nmethod.name = rapd1\n"))
        for prob, y0 in ((small_bilinear(n=16, m=8), None), (quadratic, None),
                         (constrained, y0_constrained), (kernel, dual_start(kernel))):
            calls = []
            fresh = prob.grad_y
            prob.grad_y = lambda x, y: calls.append(1) or fresh(x, y)
            m = prob.partition.m
            sched = part1_schedule(prob.constants, m, default_alpha(prob.constants))
            tr = run(prob, sched, K, seed=0, x0=np.ones(prob.partition.n), y0=y0)
            resyncs = K // (CACHE_RESYNC_SWEEPS * m)
            assert len(calls) <= 1 + resyncs, type(prob).__name__
            assert tr.cache_resyncs == resyncs
            assert 0.0 <= tr.max_cache_drift <= 1e-10

    def test_cache_check_is_pure(self):
        prob = small_bilinear(n=16, m=8)
        sched = part1_schedule(prob.constants, 8, default_alpha(prob.constants))
        plain, checked = (run(prob, sched, 3000, seed=1, x0=np.ones(16),
                              options=RunOptions(debug_cache_every=every))
                          for every in (0, 7))
        assert np.array_equal(plain.final_x, checked.final_x)
        assert np.array_equal(plain.final_y, checked.final_y)

    def test_resync_makes_one_primal_product(self):
        # the start's product and one per resync: the fresh dual gradient
        # is read off the resync's own product
        prob = small_bilinear(n=16, m=8)
        calls, product = [], prob.primal_product
        prob.primal_product = lambda x: calls.append(1) or product(x)
        sched = part1_schedule(prob.constants, 8, default_alpha(prob.constants))
        tr = run(prob, sched, 2 * CACHE_RESYNC_SWEEPS * 8, seed=0, x0=np.ones(16))
        assert tr.cache_resyncs == 2 and len(calls) == 3

    def test_stale_cache_caught_at_resync(self):
        class StaleCache(BilinearProblem):
            def grad_y_incremental(self, w, i, dx):
                pass

        rng = np.random.default_rng(5)
        part = BlockPartition.even(16, 8)
        A = rng.standard_normal((16, 16))
        prob = StaleCache([A[:, sl] for sl in part.slices()],
                          [L1(0.3) for _ in range(8)], IndicatorBall(2.0), partition=part)
        sched = part1_schedule(prob.constants, 8, default_alpha(prob.constants))
        resync = CACHE_RESYNC_SWEEPS * 8
        with pytest.raises(RegimeError, match=f"at k={resync}$"):
            run(prob, sched, resync, seed=0, x0=np.ones(16))

    def test_divergence_guard(self):
        # oversized steps, in each of the three loops
        prob = small_bilinear(f=[Zero(), Zero()], h=Zero())
        for loop in three_loops(prob, scale=500).values():
            with pytest.raises(DivergenceError):
                loop(5000, np.ones(4))

    def test_divergence_guard_catches_a_bad_block(self):
        # the guard keeps a running ||x||^2; one non-finite block must
        # still stop the run at the iteration that produced it
        class BadAfter(Zero):
            def __init__(self, calls, value):
                self.calls, self.value = calls, value

            def prox_euclidean(self, t, u):
                self.calls -= 1
                return u if self.calls else np.full_like(u, self.value)

        for value in (np.nan, np.inf):
            f = BadAfter(5, value)
            prob = small_bilinear(n=8, m=4, f=[f] * 4)
            sched = part1_schedule(prob.constants, 4, default_alpha(prob.constants))
            with pytest.raises(DivergenceError, match="at iteration 5 "):
                run(prob, sched, 100, seed=0, x0=np.ones(8))

    @pytest.mark.parametrize("name", ["run", "pdhg_run", "mirror_prox_run"])
    def test_zero_iterations_rejected(self, name):
        with pytest.raises(ParameterError):
            three_loops(small_bilinear())[name](0, np.ones(4))

    @pytest.mark.parametrize("f", [[L1(0.3), L1(0.3)], [L1(0.3), SquaredL2(0.3)]],
                             ids=["whole-vector", "block-loop"])
    def test_primal_gradient_of_the_wrong_shape_rejected(self, f):
        # one entry too many in the block or the whole primal gradient, on
        # the one-prox path (equal f_i) and on the block loop (mixed f_i)
        class LongGradient(BilinearProblem):
            def grad_x_cached(self, w, x, y, sl):
                return np.append(super().grad_x_cached(w, x, y, sl), 0.0)

        part = BlockPartition.even(4, 2)
        A = np.random.default_rng(5).standard_normal((4, 4))
        prob = LongGradient([A[:, sl] for sl in part.slices()], f, IndicatorBall(2.0),
                            partition=part)
        for loop in three_loops(prob).values():
            with pytest.raises(DimensionError):
                loop(3, np.ones(4))
        with pytest.raises(DimensionError):
            primal_block_step(prob, np.ones(4), np.zeros(4), 0, 0.3)

    def test_geometry_note_names_the_product_dual_parts(self, tmp_path):
        # the kernel dual is entropy on the weights times a free scalar; the
        # note and the CSV header name both parts, in both kinds of loop
        prob = build_kernel_problem(synth_dataset(n_tr=40, d=3, seed=2), lam=1.0,
                                    m_blocks=4)
        sched = part1_schedule(prob.constants, 4, default_alpha(prob.constants))
        y0 = dual_start(prob)
        note = "primal=euclidean, dual=negative-entropy+euclidean"
        traces = (run(prob, sched, 3, seed=0, y0=y0),
                  pdhg_run(prob, float(sched.tau.min()), sched.sigma, 3, y0=y0))
        assert [tr.geometry_note for tr in traces] == [note, note]
        write_trace_csv(tmp_path / "run.csv", traces[0])
        assert f"# geometry: {note}" in (tmp_path / "run.csv").read_text().splitlines()

    def test_part2_regime_validation(self):
        prob = small_bilinear()  # mu = 0 blocks
        sched2 = part1_schedule(prob.constants, 2, default_alpha(prob.constants))
        fake = replace(sched2, regime="part2", tau_tilde=0.1,
                       mu=np.array([1.0, 1.0]))
        with pytest.raises(RegimeError):
            run(prob, fake, 10, seed=0)

    def test_conditional_expectation_identity(self):
        # enumerate all m single-block outcomes: their average weighted
        # distance equals the two-term mixture with the full-update point
        rng = np.random.default_rng(3)
        for m in (2, 4):
            n = 2 * m
            part = BlockPartition.even(n, m)
            A = rng.standard_normal((3, n))
            prob = build_bilinear_erm([A[:, sl] for sl in part.slices()],
                                      [L1(0.2) for _ in range(m)],
                                      IndicatorBall(1.0), partition=part)
            for _ in range(20):
                x = rng.standard_normal(n)
                y = rng.standard_normal(3)
                tau = float(10 ** rng.uniform(-2, 0))
                xbar = rng.standard_normal(n)
                d = rng.uniform(0, 2, size=m)
                full = x.copy()
                for i in range(m):
                    full[part.block_slice(i)] = primal_block_step(
                        prob, x, y, i, tau)[part.block_slice(i)]
                lhs = np.mean([weighted_norm_sq_raw(
                    primal_block_step(prob, x, y, i, tau) - xbar, part, d)
                    for i in range(m)])
                rhs = (weighted_norm_sq_raw(full - xbar, part, d) / m
                       + (1 - 1 / m) * weighted_norm_sq_raw(x - xbar, part, d))
                assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)

    def test_gap_nonnegative_at_certificate(self):
        part = BlockPartition.even(6, 3)
        rng = np.random.default_rng(8)
        M = rng.standard_normal((6, 6))
        N = rng.standard_normal((2, 2))
        prob = build_quadratic_game(M @ M.T / 6 + np.eye(6) * 0.1,
                                    N @ N.T / 2 + np.eye(2) * 0.1,
                                    rng.standard_normal((2, 6)),
                                    rng.standard_normal(6),
                                    rng.standard_normal(2), part)
        cert = solve_quadratic_game_exact(prob.P, prob.Q, prob.C, prob.p, prob.q)
        cert = SaddleCertificate(cert.x_star, cert.y_star,
                                 kkt_residual(prob, cert.x_star, cert.y_star),
                                 "linear-solve", 1e-12)
        for name, loop in three_loops(prob).items():
            tr = loop(2000, np.ones(6), record_at=np.array([10, 100, 1000, 5000]),
                      reference=cert)
            # records land exactly at record_at (up to K) and at K
            assert [r.k for r in tr.records] == [10, 100, 1000, 2000], name
            gaps = tr.column("gap")
            assert np.all(gaps >= -1e-9), name
            assert gaps[-1] < gaps[0], name  # it actually converges

    def test_part2_last_iterate_converges(self):
        part = BlockPartition.even(6, 3)
        rng = np.random.default_rng(9)
        C = rng.standard_normal((2, 6))
        prob = build_quadratic_game(np.zeros((6, 6)), np.zeros((2, 2)), C,
                                    rng.standard_normal(6), rng.standard_normal(2),
                                    part, f=[SquaredL2(0.5)] * 3, h=SquaredL2(0.5))
        cert0 = solve_quadratic_game_exact(np.eye(6), np.eye(2), C, prob.p, prob.q)
        sched = part2_init(prob.constants, 3, default_alpha(prob.constants))
        tr = run(prob, sched, 3000, seed=0, x0=np.ones(6))
        assert np.linalg.norm(tr.final_x - cert0.x_star) <= 1e-3
