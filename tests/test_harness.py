import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dstbc import harness
from dstbc.channel import PowerConfig, RelayChannel, Workspace
from dstbc.constellation import SignalSet, identity_rotation, make_pam, make_rotated_qam
from dstbc.construct import (
    build, code_from_dict, code_to_dict, from_design, GroupingScheme, preset,
)
from dstbc.decode import DECODERS, GroupDecoder
from dstbc.design import cod_trivial
from dstbc.harness import (
    BerCurve,
    ExperimentConfig,
    _Engine,
    estimate_diversity_slope,
    mix_seed,
    modulation_set,
    run_ber,
    snr_db_to_power,
    worker_count,
)
from tests.helpers import (
    bit_errors_oracle, group_symbols_oracle, labels_oracle, transmit_oracle,
)
from tests.test_channel import _non_diagonal_bbh_code
from tests.test_construct import _MODULATIONS, preset_codes_with_modulation


def small_config(**kw):
    base = dict(
        decoder="pic-sic", preset="scalar", N=2, lam=1, n=2, modulation="pam2",
        nd=2, snr_grid_db=(10.0,), max_trials=500, max_bit_errors=10**9,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSlopeEstimator:
    def _curve(self, snrs, bers):
        pts = tuple(
            {"snr_db": s, "trials": 1000, "bit_errors": 1, "ber": b}
            for s, b in zip(snrs, bers)
        )
        return BerCurve(pts, {}, 0.0)

    def test_exact_power_law(self):
        snrs = [10.0, 15.0, 20.0, 25.0, 30.0]
        bers = [snr_db_to_power(s) ** -2.0 for s in snrs]
        slope = estimate_diversity_slope(self._curve(snrs, bers), 10.0)
        assert abs(slope - 2.0) < 1e-9

    def test_flat_curve(self):
        slope = estimate_diversity_slope(
            self._curve([0.0, 5.0, 10.0], [0.1, 0.1, 0.1]), 10.0
        )
        assert abs(slope) < 1e-12

    def test_window_selects_top_decade(self):
        # slope 1 below 20 dB, slope 3 above; a 10 dB window sees only the top
        snrs = [10.0, 20.0, 25.0, 30.0]
        bers = [1e-1, 1e-2, 10 ** (-2 - 1.5), 10 ** (-2 - 3)]
        slope = estimate_diversity_slope(self._curve(snrs, bers), 10.0)
        assert abs(slope - 3.0) < 1e-9

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            estimate_diversity_slope(self._curve([10.0], [1e-2]), 10.0)
        with pytest.raises(ValueError):
            estimate_diversity_slope(
                self._curve([10.0, 20.0], [1e-2, 0.0]), 5.0
            )


class TestSeedMixing:
    def test_deterministic_and_distinct(self):
        a = mix_seed(1, 2, 3)
        assert a == mix_seed(1, 2, 3)
        assert a != mix_seed(1, 2, 4)
        assert a != mix_seed(2, 2, 3)
        assert 0 <= a < 2**64

    def test_no_collisions_in_small_window(self):
        seeds = {mix_seed(9, s, t) for s in range(4) for t in range(10000)}
        assert len(seeds) == 40000


def _pam2_code():
    return build(2, cod_trivial(), 1, 2, make_pam(2))


def _unrotated_qam4_code():
    # lambda = 2 groups whose alphabet factors per coordinate, so ZF decodes
    # per symbol and maps level pairs back to QAM points through the label map
    return build(2, cod_trivial(), 2, 2, make_rotated_qam(4, identity_rotation(2)))


class TestEngineCrossCheck:
    @pytest.mark.parametrize("decoder,make_code", [
        pytest.param(d, _pam2_code, id=d) for d in DECODERS
    ] + [pytest.param("zf-sic", _unrotated_qam4_code, id="zf-sic-unrotated-qam4")])
    def test_batched_equals_single_trial_pipeline(self, decoder, make_code):
        code = make_code()
        power = PowerConfig.balanced(code, snr_db_to_power(6.0))
        engine = _Engine(code, decoder, 2)
        key = mix_seed(3, 0)
        batched = engine.chunk_bit_errors(power, key, 0, 150)

        # each trial alone, as a batch of one, with its own label mapping
        channel = RelayChannel(code)
        dec = GroupDecoder(decoder, code.grouping, code.group_sets)
        singles = []
        for i in range(150):
            tx_idx, f, gm, v, w = engine._draw_chunk(key, i, i + 1)
            x = np.empty(code.K)
            for grp, s, idx in zip(code.grouping.groups, code.group_sets, tx_idx[0]):
                x[list(grp)] = s.points[idx]
            white = channel.observe(x[None], f, gm, v, w, power)
            x_hat = group_symbols_oracle(dec.groups, dec.sets, dec.decide(white)[0])[0]
            errs = 0
            for k, (grp, s) in enumerate(zip(code.grouping.groups, code.group_sets)):
                # nearest point: ZF decisions carry per-coordinate levels
                rx = int(np.argmin(np.sum((s.points - x_hat[list(grp)]) ** 2, axis=1)))
                errs += bin(int(s.labels[tx_idx[0, k]]) ^ int(s.labels[rx])).count("1")
            singles.append(errs)
        assert batched.sum() > 0  # the comparison must see actual errors
        np.testing.assert_array_equal(batched, np.array(singles))

    @pytest.mark.parametrize("lo,hi", [(0, 1), (3, 259), (259, 613), (612, 700)])
    def test_chunk_equals_rows_of_wider_draw(self, lo, hi):
        engine = _Engine(_pam2_code(), "pic-sic", 2)
        key = mix_seed(4, 1)
        wide = engine._draw_chunk(key, 0, 700)
        for part, whole in zip(engine._draw_chunk(key, lo, hi), wide):
            np.testing.assert_array_equal(part, whole[lo:hi])

    @pytest.mark.parametrize("nd", [1, 3])
    def test_channel_shapes_fit_draws_and_checks(self, nd):
        # RelayChannel.shapes is the one statement of the per-trial input
        # shapes: the engine draws them and _check_shapes enforces them
        code = _crit9_code()
        engine = _Engine(code, "pic", nd)
        shapes = engine.channel.shapes(nd)
        assert shapes == {"x": (code.K,), "f": (code.N,), "gm": (code.N, nd),
                          "v": (code.N, code.T1), "w": (code.T2, nd)}
        tx_idx, *drawn = engine._draw_chunk(mix_seed(8, 0), 0, 5)
        arrays = dict(x=group_symbols_oracle(engine.groups, engine.sets, tx_idx),
                      **dict(zip(("f", "gm", "v", "w"), drawn)))
        assert {name: a.shape for name, a in arrays.items()} == {
            name: (5, *shape) for name, shape in shapes.items()}
        engine.channel._check_shapes(**arrays)
        for name, shape in shapes.items():
            bad = np.zeros((5, shape[0] + 1, *shape[1:]), complex)
            with pytest.raises(ValueError, match=f"^{name} must have"):
                engine.channel._check_shapes(**dict(arrays, **{name: bad}))


def _crit9_code():
    return preset("alamouti", 4, 2, 2, modulation_set("qam4"))


# the criterion-9 configuration's code and antennas
_CRIT9 = dict(preset="alamouti", N=4, lam=2, n=2, modulation="qam4", nd=4)


def _record_workspaces(engine) -> list:
    """(thread ident, Workspace) of each chunk that engine draws from now on."""
    seen, draw = [], engine._draw_chunk

    def recording(key, lo, hi, work=None):
        seen.append((threading.get_ident(), work))
        return draw(key, lo, hi, work)

    engine._draw_chunk = recording
    return seen


class TestWorkspaces:
    """Chunks written into a reused Workspace equal chunks on new arrays; an
    engine keeps one Workspace per thread."""

    def test_full_and_tail_chunks_through_one_workspace(self):
        code = _crit9_code()
        engine, power = _Engine(code, "pic-sic", 4), PowerConfig.balanced(code, 4.0)
        key, work, c = mix_seed(5, 0), Workspace(), engine.chunk
        for lo, hi in ((0, c), (c, c + 88), (2 * c, 3 * c)):
            for a in work.arrays.values():
                a.view(np.uint8).fill(0xFF)  # NaN in the float arrays: stale data must not leak
            drawn, fresh = engine._draw_chunk(key, lo, hi, work), engine._draw_chunk(key, lo, hi)
            for a, b in zip(drawn, fresh):
                assert a.tobytes() == b.tobytes()
            white = engine._observe(*drawn, power, work)
            assert np.shares_memory(white, work.arrays["white"])
            assert white.tobytes() == engine._observe(*fresh, power).tobytes()
        assert {len(a) for a in work.arrays.values()} == {c}

    def test_chunk_bit_errors_reuse_the_engine_workspace(self):
        code = _crit9_code()
        engine, power = _Engine(code, "pic", 4), PowerConfig.balanced(code, 4.0)
        key, seen, c = mix_seed(6, 0), _record_workspaces(engine), engine.chunk
        for lo, hi in ((0, c), (c, c + 88), (0, c)):
            alone = _Engine(code, "pic", 4).chunk_bit_errors(power, key, lo, hi)
            np.testing.assert_array_equal(engine.chunk_bit_errors(power, key, lo, hi), alone)
        assert len(seen) == 3 and all(work is engine._local.work for _, work in seen)
        assert {len(a) for a in engine._local.work.arrays.values()} == {c}

    def test_concurrent_chunks_never_share_a_workspace(self):
        # more threads than cores, switching every microsecond: a Workspace
        # written by two running chunks at once would corrupt their counts
        code = _pam2_code()
        engine, power, key = _Engine(code, "pic-sic", 2), PowerConfig.balanced(code, 2.0), 11
        seen = _record_workspaces(engine)
        bounds = [(lo, lo + 64) for lo in range(0, 64 * 24, 64)]
        reference = _Engine(code, "pic-sic", 2)
        expected = [reference.chunk_bit_errors(power, key, lo, hi) for lo, hi in bounds]
        assert sum(e.sum() for e in expected) > 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as ex:
                futures = [ex.submit(engine.chunk_bit_errors, power, key, lo, hi)
                           for lo, hi in bounds]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        # each thread reused its one Workspace, and no two threads shared one
        per_thread = {}
        for thread, work in seen:
            per_thread.setdefault(thread, set()).add(id(work))
        assert len(seen) == 24 and 2 <= len(per_thread) <= 6
        assert all(len(ids) == 1 for ids in per_thread.values())
        assert len(set.union(*per_thread.values())) == len(per_thread)

    def test_interleaved_engines_equal_separate_runs(self, monkeypatch):
        monkeypatch.setenv("DSTBC_THREADS", "2")
        configs = [small_config(snr_grid_db=(4.0, 8.0), max_trials=700, max_bit_errors=60),
                   small_config(preset="alamouti", N=4, lam=2, n=2, modulation="qam4", nd=4,
                                decoder="ml", snr_grid_db=(6.0,), max_trials=600)]
        separate = [run_ber(cfg).to_csv() for cfg in configs]
        with ThreadPoolExecutor(max_workers=2) as ex:
            together = list(ex.map(lambda cfg: run_ber(cfg).to_csv(), configs))
        assert together == separate
        # chunk by chunk, alternating between two engines of different codes
        codes, decoders, nds = (_pam2_code(), _crit9_code()), ("pic-sic", "ml"), (2, 4)
        engines = [_Engine(*args) for args in zip(codes, decoders, nds)]
        key = mix_seed(7, 0)
        for first in (True, False):
            for engine, args in zip(engines, zip(codes, decoders, nds)):
                c = engine.chunk
                lo, hi = (0, c) if first else (c, c + 40)
                power = PowerConfig.balanced(args[0], 4.0)
                alone = _Engine(*args).chunk_bit_errors(power, key, lo, hi)
                np.testing.assert_array_equal(engine.chunk_bit_errors(power, key, lo, hi), alone)


@st.composite
def chunked_runs(draw):
    """A small run_ber config over a random preset code, modulation, decoder,
    seed and SNR grid, a chunk size to run it with in place of the engine's,
    and a worker count."""
    name = draw(st.sampled_from(["alamouti", "scalar", "toeplitz", "scalar-full",
                                 "single-complex"]))
    N = draw(st.sampled_from([2] if name == "scalar-full" else [2, 4]))
    lam = draw(st.integers(1, N // 2)) if name in ("alamouti", "scalar") else None
    n = draw(st.integers(1, 2))
    group_size = len(preset(name, N, lam, n).grouping.groups[0])
    chunk = draw(st.sampled_from([1, 7, 256, 512, 1000]) | st.integers(2, 1100))
    config = ExperimentConfig(
        decoder=draw(st.sampled_from(DECODERS)), preset=name, N=N, lam=lam, n=n,
        modulation=draw(st.sampled_from(_MODULATIONS[group_size])),
        nd=draw(st.integers(1, 2)),
        snr_grid_db=sorted(draw(st.sets(st.sampled_from([0, 5, 10, 15]), min_size=1,
                                        max_size=2))),
        # at most 40 chunks per point, so a chunk of one trial stays cheap
        max_trials=draw(st.integers(1, min(1100, 40 * chunk))),
        max_bit_errors=draw(st.integers(1, 300)),
        master_seed=draw(st.integers(0, 2**64 - 1)))
    return config, chunk, draw(st.sampled_from([1, 2]))


class TestSchedule:
    def test_chunks_started_on_an_early_stopped_point(self, monkeypatch):
        # about 250 errors per 512-trial chunk: the stop falls in chunk 3 of 16
        config = small_config(snr_grid_db=(2.0,), max_trials=512 * 16, max_bit_errors=900)
        chunk_bit_errors, calls = _Engine.chunk_bit_errors, []

        def recording(self, power, key, lo, hi):
            calls.append((lo // self.chunk, threading.get_ident()))
            return chunk_bit_errors(self, power, key, lo, hi)

        monkeypatch.setattr(_Engine, "chunk_bit_errors", recording)
        csvs = []
        for workers in (1, 2, 3):
            monkeypatch.setenv("DSTBC_THREADS", str(workers))
            calls.clear()
            curve = run_ber(config)
            csvs.append(curve.to_csv())
            stop = (curve.points[0]["trials"] - 1) // 512
            assert 0 < stop < 15
            chunks = [chunk for chunk, _ in calls]
            # the calling thread computes its chunks up to the stop, in order
            assert [chunk for chunk, thread in calls if thread == threading.get_ident()] == [
                i for i in range(stop + 1) if i % workers == 0]
            # every chunk up to the stop once; past it, fewer than 2 per worker, all pool chunks
            assert sorted(c for c in chunks if c <= stop) == list(range(stop + 1))
            past = [c for c in chunks if c > stop]
            assert len(set(past)) == len(past) < 2 * workers
            assert all(c % workers for c in past)
            assert len({thread for _, thread in calls}) <= workers
        assert csvs[0] == csvs[1] == csvs[2]

    def test_chunks_submitted_on_an_early_stopped_point(self, monkeypatch):
        # the window shows in the pool chunks submitted, not in those started:
        # a chunk submitted past the stop is cancelled before a thread starts it
        config = small_config(snr_grid_db=(2.0,), max_trials=512 * 16, max_bit_errors=900)
        events = []  # ("submit" | "consume", chunk index), in the calling thread
        pools = []  # max_workers of each pool made
        chunk_bit_errors, caller = _Engine.chunk_bit_errors, threading.get_ident()

        def recording(self, power, key, lo, hi):
            if threading.get_ident() == caller:
                events.append(("consume", lo // 512))
            return chunk_bit_errors(self, power, key, lo, hi)

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

            def submit(self, fn, power, key, lo, hi):
                events.append(("submit", lo // 512))
                future = super().submit(fn, power, key, lo, hi)
                result = future.result
                future.result = lambda *args: (events.append(("consume", lo // 512)),
                                               result(*args))[1]
                return future

        monkeypatch.setattr(_Engine, "chunk_bit_errors", recording)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        csvs = []
        for workers in (1, 2, 3):
            monkeypatch.setenv("DSTBC_THREADS", str(workers))
            events.clear()
            pools.clear()
            curve = run_ber(config)
            csvs.append(curve.to_csv())
            stop = (curve.points[0]["trials"] - 1) // 512
            assert 0 < stop < 15
            assert pools == [max(1, workers - 1)]
            # pool chunks only, in index order; at one worker, none
            submitted = [chunk for kind, chunk in events if kind == "submit"]
            assert submitted == sorted(set(submitted))
            assert all(chunk % workers for chunk in submitted)
            assert [chunk for kind, chunk in events if kind == "consume"] == list(range(stop + 1))
            # a pool chunk is submitted at most 2 * workers - 1 chunks ahead of
            # the next one consumed, and the window is filled
            consumed, ahead = 0, []
            for kind, chunk in events:
                if kind == "consume":
                    consumed += 1
                else:
                    ahead.append(chunk - consumed)
            assert workers == 1 or max(ahead) == 2 * workers - 1
        assert csvs[0] == csvs[1] == csvs[2]


class TestChunkSize:
    """An engine's chunk size follows from its words per trial, and run_ber's
    output does not depend on it."""

    @pytest.mark.parametrize("spec,modulation,nd,stride,chunk", [
        (("scalar", 2, 1, 2), "pam2", 2, 33, 512),
        (("scalar", 2, 1, 2), "pam2", 1, 23, 512),
        (("alamouti", 8, 1, 3), "pam8", 1, 153, 256),
        (("alamouti", 4, 2, 2), "qam4", 4, 153, 256),
        (("alamouti", 4, 2, 2), "qam4", 1, 93, 256),
    ], ids=["pam2", "pam2-nd1", "pam8", "crit9", "crit9-nd1"])
    def test_benchmark_configurations(self, spec, modulation, nd, stride, chunk):
        engine = _Engine(preset(*spec, modulation_set(modulation)), "pic-sic", nd)
        assert (engine.stride, engine.chunk) == (stride, chunk)

    @settings(deadline=None, max_examples=40)
    @given(code_modulation=preset_codes_with_modulation(), nd=st.integers(1, 4))
    def test_512_only_under_the_word_cap(self, code_modulation, nd):
        code, modulation = code_modulation
        assume(modulation is not None)
        engine = _Engine(code, "pic", nd)
        assert engine.chunk == (512 if 512 * engine.stride <= 2**15 else 256)

    @settings(deadline=None, max_examples=30)
    @given(chunked_runs())
    def test_csv_equal_across_chunk_sizes(self, run):
        config, chunk, workers = run
        init, chunk_bit_errors = _Engine.__init__, _Engine.chunk_bit_errors
        bounds = []

        def sized_init(self, *args):
            init(self, *args)
            self.chunk = chunk

        def recording(self, power, key, lo, hi):
            bounds.append((lo, hi))
            return chunk_bit_errors(self, power, key, lo, hi)

        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("DSTBC_THREADS", str(workers))
            try:
                expected = run_ber(config).to_csv()
            except ValueError:  # a decoder or modulation the code refuses
                assume(False)
            mp.setattr(_Engine, "__init__", sized_init)
            mp.setattr(_Engine, "chunk_bit_errors", recording)
            assert run_ber(config).to_csv() == expected
        assert (0, min(chunk, config.max_trials)) in bounds
        assert all(hi - lo <= chunk for lo, hi in bounds)


class TestCounterDraws:
    def test_vector_hash_matches_scalar_mix_seed(self):
        engine = _Engine(_unrotated_qam4_code(), "pic-sic", 3)
        stride = engine.stride
        # from wrap on, trial * stride wraps uint64
        wrap = 2**64 // stride
        for trial in (0, 1, 255, 10**6, wrap - 1, wrap, wrap + 1, 2**63 - 2):
            words = engine._words(mix_seed(17, 2), trial, trial + 2)
            for i, slot in itertools.product((0, 1), (0, 1, stride // 2, stride - 1)):
                assert int(words[i, slot]) == mix_seed(17, 2, (trial + i) * stride + slot)

    def test_gaussians_are_proper_unit_variance(self):
        engine = _Engine(_pam2_code(), "pic-sic", 2)
        draws = engine._draw_chunk(mix_seed(8, 0), 0, 8192)[1:]
        z = np.concatenate([a.reshape(-1) for a in draws])
        assert z.size > 10**5
        # each statistic has a standard error of 1/sqrt(size), under 0.003
        assert abs(np.mean(np.abs(z) ** 2) - 1) < 0.015
        assert abs(np.mean(z)) < 0.015
        assert abs(np.mean(z * z)) < 0.015

    @pytest.mark.parametrize("make_code", [_pam2_code, _unrotated_qam4_code])
    def test_labels_uniform_over_alphabet(self, make_code):
        code = make_code()
        trials = 8192
        tx_idx = _Engine(code, "pic-sic", 1)._draw_chunk(mix_seed(9, 0), 0, trials)[0]
        for k, s in enumerate(code.group_sets):
            counts = np.bincount(tx_idx[:, k], minlength=s.size)
            expected = trials / s.size
            chi2 = np.sum((counts - expected) ** 2 / expected)
            # 99.9% point of chi-square with size - 1 <= 3 degrees of freedom
            assert chi2 < 16.3

    def test_labels_beyond_64_bits_per_codeword(self):
        code = preset("alamouti", 8, 2, 3, modulation_set("qam64"))
        engine = _Engine(code, "pic-sic", 1)
        assert engine.bits_per_cw == 72 and engine.label_words == 2
        tx_idx = engine._draw_chunk(mix_seed(10, 0), 0, 2048)[0]
        # every group, including the one straddling the two label words,
        # reaches its whole 64-point alphabet
        for k, s in enumerate(code.group_sets):
            assert np.unique(tx_idx[:, k]).size == s.size
        cfg = ExperimentConfig(
            decoder="pic-sic", preset="alamouti", N=8, lam=2, n=3, modulation="qam64",
            nd=1, snr_grid_db=(20.0,), max_trials=20, max_bit_errors=10**9, master_seed=1,
        )
        pt = run_ber(cfg).points[0]
        assert pt["trials"] == 20 and 0 <= pt["ber"] < 0.5



def _qam64_72_bit_code():
    # 12 groups of 6 bits: group 10 reads bits 60-65, across both label words
    return preset("alamouti", 8, 2, 3, modulation_set("qam64"))


def _mixed_size_design_code():
    # a design file with groups of one and two symbols, each given its
    # default alphabet: pam2, qam4, pam2
    doc = code_to_dict(preset("alamouti", 2, 1, 1)) | {"grouping": [[0], [1, 2], [3]]}
    return code_from_dict(json.loads(json.dumps(doc)))


def _mixed_alphabet_code():
    return _mixed_size_design_code().with_sets(
        (make_pam(8), modulation_set("qam16"), make_pam(4)))


_NAMED_CODES = {"qam64-72-bit": _qam64_72_bit_code, "mixed-size-design": _mixed_size_design_code,
                "mixed-alphabets": _mixed_alphabet_code, "crit9": _crit9_code,
                "non-diagonal-bbh": _non_diagonal_bbh_code}


class TestTableGathers:
    """The engine's table gathers equal the per-group loops they replaced,
    kept in tests.helpers: labels, symbols, bit errors and transmit."""

    @staticmethod
    def _check(code, nd, seed, lo, b, snr_db):
        engine = _Engine(code, "pic-sic", nd)
        key = mix_seed(seed, 0)
        tx_idx, f, gm, v, w = engine._draw_chunk(key, lo, lo + b)
        words = engine._words(key, lo, lo + b)[:, :engine.label_words]
        assert np.array_equal(tx_idx, labels_oracle(words, engine.bits_per_group, engine.sets))
        x = group_symbols_oracle(engine.groups, engine.sets, tx_idx)
        assert np.array_equal(engine.symbols(tx_idx), x)
        power = PowerConfig.balanced(code, snr_db_to_power(snr_db))
        assert np.array_equal(engine.channel.transmit(x, f, gm, v, w, power),
                              transmit_oracle(engine.channel, x, f, gm, v, w, power))
        # decisions anywhere in the alphabets, so every label difference occurs
        rng = np.random.default_rng(seed)
        rx_idx = np.stack([rng.integers(s.size, size=b) for s in engine.sets], axis=1)
        engine._rx_group_indices = lambda dec_idx: rx_idx
        assert np.array_equal(engine.chunk_bit_errors(power, key, lo, lo + b),
                              bit_errors_oracle(engine.sets, tx_idx, rx_idx))

    @settings(deadline=None, max_examples=60)
    @given(code_modulation=preset_codes_with_modulation(), nd=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**40), b=st.integers(1, 40),
           snr_db=st.floats(-10.0, 40.0))
    def test_presets(self, code_modulation, nd, seed, lo, b, snr_db):
        code, modulation = code_modulation
        assume(modulation is not None)
        self._check(code, nd, seed, lo, b, snr_db)

    @pytest.mark.parametrize("name", list(_NAMED_CODES))
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_named_codes(self, name, seed):
        self._check(_NAMED_CODES[name](), 2, seed, 3 * seed % 1000, 300, 5.0)

    def test_decoder_symbols(self):
        # ML decides through its own table, on the decode groups
        rng = np.random.default_rng(5)
        for name in ("mixed-size-design", "mixed-alphabets", "crit9", "non-diagonal-bbh"):
            code = _NAMED_CODES[name]()  # qam64-72-bit is over ML's candidate cap
            dec = GroupDecoder("ml", code.grouping, code.group_sets)
            idx = np.stack([rng.integers(s.size, size=50) for s in dec.sets], axis=1)
            assert np.array_equal(dec._symbols(idx), group_symbols_oracle(dec.groups, dec.sets, idx))


class TestRunBer:
    def test_high_snr_is_error_free(self):
        curve = run_ber(small_config(snr_grid_db=(60.0,), max_trials=100))
        assert curve.points[0]["ber"] == 0.0
        assert curve.points[0]["trials"] == 100

    def test_reproducible_across_thread_counts(self, monkeypatch):
        cfg = small_config(snr_grid_db=(6.0, 10.0), max_trials=1500, max_bit_errors=80)
        monkeypatch.setenv("DSTBC_THREADS", "1")
        a = run_ber(cfg).to_csv()
        monkeypatch.setenv("DSTBC_THREADS", "2")
        b = run_ber(cfg).to_csv()
        monkeypatch.setenv("DSTBC_THREADS", "3")
        c = run_ber(cfg).to_csv()
        assert a == b == c

    def test_seed_changes_results(self):
        a = run_ber(small_config(snr_grid_db=(6.0,), master_seed=1))
        b = run_ber(small_config(snr_grid_db=(6.0,), master_seed=2))
        assert a.points[0]["bit_errors"] != b.points[0]["bit_errors"]

    def test_early_stop_accounting(self):
        cfg = small_config(snr_grid_db=(0.0,), max_trials=100000, max_bit_errors=25)
        pt = run_ber(cfg).points[0]
        assert pt["bit_errors"] >= 25
        assert pt["trials"] < 100000
        assert pt["ber"] == pt["bit_errors"] / (pt["trials"] * 4)  # 4 bits/codeword

    def test_ml_equals_single_group_pic(self, tmp_path):
        code = from_design(cod_trivial().design, GroupingScheme(((0, 1),)))
        doc = code_to_dict(code)
        path = tmp_path / "code.json"
        path.write_text(json.dumps(doc))
        base = dict(
            design_file=str(path), preset=None, N=None, modulation="qam4",
            nd=2, snr_grid_db=(4.0,), max_trials=2000, max_bit_errors=10**9,
            master_seed=11,
        )
        a = run_ber(ExperimentConfig(decoder="ml", **base))
        b = run_ber(ExperimentConfig(decoder="pic", **base))
        assert a.points[0]["bit_errors"] == b.points[0]["bit_errors"]
        assert a.points[0]["bit_errors"] > 0

    def test_zf_sic_equals_pic_sic_for_lam1(self):
        a = run_ber(small_config(decoder="zf-sic", snr_grid_db=(8.0,), max_trials=800))
        b = run_ber(small_config(decoder="pic-sic", snr_grid_db=(8.0,), max_trials=800))
        assert a.points[0]["bit_errors"] == b.points[0]["bit_errors"]

    def test_zf_on_rotated_groups_refused(self):
        cfg = ExperimentConfig(
            decoder="zf", preset="scalar", N=4, lam=2, n=2, modulation="qam16",
            nd=2, snr_grid_db=(10.0,), max_trials=10, master_seed=0,
        )
        with pytest.raises(ValueError, match="^decoder must suit the code"):
            run_ber(cfg)

    def test_ml_candidate_cap_enforced(self):
        cfg = ExperimentConfig(
            decoder="ml", preset="alamouti", N=4, lam=2, n=3, modulation="qam16",
            nd=1, snr_grid_db=(10.0,), max_trials=10, master_seed=0,
        )
        with pytest.raises(ValueError, match="^decoder must suit the code"):
            run_ber(cfg)

    @pytest.mark.parametrize("decoder,spec,text", [
        ("zf", _CRIT9, "group 0"), ("zf-sic", _CRIT9, "group 0"),
        ("ml", dict(preset="toeplitz", N=2, n=2, modulation="pam64"), "product alphabet"),
    ], ids=["zf-crit9", "zf-sic-crit9", "ml-toeplitz-pam64"])
    def test_decoder_refused_by_name_on_the_library_path(self, decoder, spec, text):
        cfg = ExperimentConfig(decoder=decoder, snr_grid_db=(6.0,), max_trials=10, **spec)
        with pytest.raises(ValueError, match=rf"^decoder must suit the code \({text}"):
            run_ber(cfg)

    @pytest.mark.parametrize("spec", [_CRIT9, _CRIT9 | {"nd": 1},
                                      dict(preset="scalar", N=2, lam=1, n=2, modulation="pam2",
                                           nd=2)], ids=["crit9", "crit9-nd1", "ber-sweep-pam2"])
    def test_every_admitted_decoder_decodes_at_the_snr_bound(self, spec):
        # at 150 dB, ML's MMSE factor lost its identity term to rounding on
        # the criterion-9 code at N_D = 1, and at 200 dB on all three
        decoded = 0
        for decoder in DECODERS:
            cfg = ExperimentConfig(decoder=decoder, snr_grid_db=(harness.MAX_SNR_DB,),
                                   max_trials=256, max_bit_errors=10**9, **spec)
            try:
                curve = run_ber(cfg)
            except ValueError as e:
                assert str(e).startswith("decoder must suit the code (group 0")
                continue
            assert curve.points[0]["trials"] == 256
            decoded += 1
        assert decoded >= 3

    def test_pam8_zf_sic_setup_runs(self):
        # the 2 bpcu, rate-1/3 single-receive-antenna configuration
        from dstbc.construct import bits_per_channel_use
        from dstbc.harness import resolve_code

        cfg = ExperimentConfig(
            decoder="zf-sic", preset="alamouti", N=8, lam=1, n=3,
            modulation="pam8", nd=1, snr_grid_db=(20.0,), max_trials=200,
            max_bit_errors=10**9, master_seed=4,
        )
        assert bits_per_channel_use(resolve_code(cfg)) == 2
        pt = run_ber(cfg).points[0]
        assert pt["trials"] == 200
        assert 0 <= pt["ber"] < 0.5

    def test_saved_lam2_code_simulates_after_reload(self, tmp_path):
        # interleaved symbol pairing survives the JSON round trip
        from dstbc.constellation import make_rotated_qam, rotation_2d
        from dstbc.design import cod_alamouti

        code = build(6, cod_alamouti(), 2, 2, make_rotated_qam(4, rotation_2d()))
        path = tmp_path / "lam2.json"
        path.write_text(json.dumps(code_to_dict(code)))
        cfg = ExperimentConfig(
            decoder="pic-sic", design_file=str(path), preset=None,
            modulation="qam4", nd=2, snr_grid_db=(8.0,), max_trials=300,
            max_bit_errors=10**9, master_seed=5,
        )
        pt = run_ber(cfg).points[0]
        assert pt["trials"] == 300


class TestCsvAndConfig:
    def test_csv_schema(self):
        curve = run_ber(small_config(max_trials=50, snr_grid_db=(5.0, 10.0)))
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "snr_db,trials,bit_errors,ber"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "50"

    def test_ber_six_significant_digits(self):
        pts = ({"snr_db": 1.0, "trials": 7, "bit_errors": 3, "ber": 1 / 7},)
        text = BerCurve(pts, {}, 0.0).to_csv()
        assert text.strip().split("\n")[1].endswith("0.142857")

    def test_config_json_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.__dict__ | {"snr_grid_db": [10.0]}))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == cfg

    def test_flag_overrides_file(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.__dict__ | {"snr_grid_db": [10.0]}))
        loaded = ExperimentConfig.from_json(path, master_seed=99, decoder="zf-sic")
        assert loaded.master_seed == 99 and loaded.decoder == "zf-sic"
        assert loaded.N == cfg.N

    def test_none_override_keeps_file_value(self, tmp_path):
        # an override of None means "not given": the file's pam2 stands
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.__dict__ | {"snr_grid_db": [10.0]}))
        assert ExperimentConfig.from_json(path, modulation=None, master_seed=None) == cfg

    def test_run_ber_names_missing_modulation(self):
        # a group of three symbols has no default alphabet
        doc = code_to_dict(build(2, cod_trivial(), 1, 2)) | {"grouping": [[0, 1, 2], [3]]}
        with pytest.raises(ValueError, match="^modulation must be given for groups with no "):
            run_ber(small_config(), code_from_dict(doc))

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_run_ber_names_a_code_with_no_bits(self, decoder):
        one = SignalSet(1, [[0.71]], 0, [0])
        code = preset("scalar", 2, 1, 2)
        with pytest.raises(ValueError, match=r"^modulation must give some group more than "
                                             r"one point, got \[1, 1, 1, 1\]$"):
            run_ber(small_config(decoder=decoder), code.with_sets(one))
        # one-point groups beside groups with bits still run; no modulation
        # name describes this mix, so the config names none
        mixed = code.with_sets((make_pam(2), one, one, make_pam(2)))
        curve = run_ber(small_config(decoder=decoder, max_trials=600, modulation=None), mixed)
        assert curve.points[0]["trials"] == 600

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_config(snr_grid_db=())
        with pytest.raises(ValueError):
            small_config(snr_grid_db=(10.0, 5.0))
        with pytest.raises(ValueError):
            small_config(decoder="magic")
        with pytest.raises(ValueError):
            small_config(preset=None)

    def test_master_seed_outside_64_bits_rejected(self):
        # mix_seed reads 64 bits, so 2**64 would repeat seed 0 and -1 seed 2**64 - 1
        for seed in (0, 2**64 - 1):
            small_config(master_seed=seed)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
                small_config(master_seed=seed)

    @pytest.mark.parametrize("field,value", [("snr_grid_db", 5.0), ("snr_grid_db", ["5"]),
                                             ("max_bit_errors", 2.0), ("N", "2"),
                                             ("pi1", None), ("modulation", 4),
                                             ("decoder", None), ("preset", 3),
                                             ("design_file", ["code.json"])])
    def test_wrong_field_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            small_config(**{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = small_config(snr_grid_db=np.array([4.0, 8.0]), max_trials=np.int64(50))
        assert cfg.snr_grid_db == (4.0, 8.0)

    @pytest.mark.parametrize("grid", [(100.000001,), (0.0, 1e308)])
    def test_snr_above_the_bound_rejected(self, grid):
        with pytest.raises(ValueError, match=r"^snr_grid_db must lie at or below 100 dB, got "):
            small_config(snr_grid_db=grid)
        assert small_config(snr_grid_db=(harness.MAX_SNR_DB,)).snr_grid_db == (100.0,)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_snr_grid_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            small_config(snr_grid_db=(0.0, bad))

    @pytest.mark.parametrize("value", ["two", "1.5"])
    def test_non_integer_thread_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("DSTBC_THREADS", value)
        with pytest.raises(ValueError, match="DSTBC_THREADS"):
            worker_count()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_thread_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("DSTBC_THREADS", value)
        with pytest.raises(ValueError,
                           match=f"^DSTBC_THREADS must be a positive integer, got '{value}'$"):
            worker_count()

    @pytest.mark.parametrize("value", ["65", "100000"])
    def test_thread_count_above_the_bound_rejected(self, monkeypatch, value):
        monkeypatch.setenv("DSTBC_THREADS", value)
        with pytest.raises(ValueError, match=f"^DSTBC_THREADS must be at most 64, got '{value}'$"):
            worker_count()
        monkeypatch.setenv("DSTBC_THREADS", str(harness.MAX_WORKERS))
        assert worker_count() == 64

    def test_cpu_count_capped_at_the_bound(self, monkeypatch):
        monkeypatch.delenv("DSTBC_THREADS", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 1000)
        assert worker_count() == harness.MAX_WORKERS

    def test_run_ber_refuses_the_thread_count_before_any_pool(self, monkeypatch):
        # one chunk: under the calling thread's share of chunks, this config
        # would start no pool thread even if the bound were missing
        pools = []
        monkeypatch.setattr(harness, "ThreadPoolExecutor", lambda **kw: pools.append(kw))
        monkeypatch.setenv("DSTBC_THREADS", "100000")
        with pytest.raises(ValueError, match="^DSTBC_THREADS must be at most 64, got '100000'$"):
            run_ber(small_config(max_trials=100))
        assert pools == []


class TestGivenCode:
    """run_ber(config, code) runs only a code that config describes."""

    @pytest.mark.parametrize("config,code,message", [
        # a scalar pam2 config handed an alamouti qam16 code
        (dict(preset="scalar", N=2, lam=1, n=2, modulation="pam2"),
         ("alamouti", 4, 2, 2, "qam16"), "N must match the code's 4, got 2"),
        (dict(preset="scalar", N=2, lam=1, n=2, modulation="pam2"),
         ("scalar", 2, 2, 2, None), "lam must match the code's 2, got 1"),
        (dict(preset="scalar", N=2, lam=None, n=3, modulation=None),
         ("scalar", 2, 1, 2, None), "n must match the code's 2, got 3"),
        (dict(preset="scalar", N=2, lam=1, n=2, modulation="pam2"),
         ("scalar", 2, 1, 2, "pam4"),
         r"modulation must match the code's group alphabets of \(points, dim\) "
         r"\[\(4, 1\)\], got 'pam2'"),
        (dict(preset="alamouti", N=4, lam=2, n=2, modulation="pam4"),
         ("alamouti", 4, 2, 2, "qam4"), r"modulation must match .* \[\(4, 2\)\], got 'pam4'"),
    ], ids=["N", "lam", "n", "modulation-size", "modulation-dim"])
    def test_refused_by_field(self, config, code, message):
        *spec, modulation = code
        code = preset(*spec, modulation_set(modulation) if modulation else None)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_ber(small_config(**config), code)

    def test_code_without_build_parameters_refused_with_a_preset(self):
        code = code_from_dict(code_to_dict(preset("scalar", 2, 1, 2)))
        with pytest.raises(ValueError, match="^preset must be unset for a code build did not "
                                             "make, got 'scalar'$"):
            run_ber(small_config(), code)
        # a design_file config is not compared with its file
        assert run_ber(small_config(preset=None, design_file="any.json"), code).points

    @pytest.mark.parametrize("lam", [1, None])
    def test_described_code_runs_as_resolved(self, lam):
        config = small_config(lam=lam, max_trials=600)
        code = preset("scalar", 2, lam, 2, modulation_set("pam2"))
        assert run_ber(config, code).to_csv() == run_ber(config).to_csv()


@pytest.mark.parametrize("name", ["pamx", "pam", "qam", "qam4x", "psk8"])
def test_modulation_without_an_order_refused(name):
    with pytest.raises(ValueError,
                       match=f"^modulation must be pamM or qamM with M a number, got '{name}'$"):
        modulation_set(name)


def test_modulation_set_parsing():
    assert modulation_set("pam8").size == 8
    assert modulation_set("qam16").dim == 2
    with pytest.raises(ValueError):
        modulation_set("psk8")


def test_ber_matches_closed_form_single_relay():
    """End-to-end absolute check against an independent derivation.

    For the one-relay scalar code with binary symbols the exact BER is
    available: conditioned on the relay-to-destination gain power t, the
    whitened detection SNR is rho*u*t/(relay_gain*t + 1) with u the
    source-to-relay gain power, and averaging the Gaussian tail over
    u ~ Exp(1) in closed form leaves a one-dimensional integral,

        BER = int_0^inf 1/2 (1 - sqrt(c/(2+c))) e^{-t} dt,
        c(t) = rho*t / (relay_gain*t + 1),

    evaluated here with the t = s^2 substitution (the integrand has a
    sqrt kink at 0) and fine trapezoids. Validates the power split, noise
    amplification, whitening and bit accounting of the whole pipeline.
    """
    snr_db = 10.0
    p_lin = snr_db_to_power(snr_db)
    rho = 2 * p_lin * p_lin / (p_lin + 1)  # pi1 = 1, pi2 = 1/R = 2
    relay_gain = 2 * p_lin / (p_lin + 1)
    s = np.linspace(0.0, 8.0, 16001)
    t = s * s
    c = rho * t / (relay_gain * t + 1.0)
    integrand = 0.5 * (1.0 - np.sqrt(c / (2.0 + c))) * np.exp(-t) * 2 * s
    expected = float(np.sum((integrand[1:] + integrand[:-1]) * np.diff(s)) / 2)

    cfg = ExperimentConfig(
        decoder="pic", preset="scalar", N=1, lam=1, n=1, modulation="pam2",
        nd=1, snr_grid_db=(snr_db,), max_trials=150_000,
        max_bit_errors=10**9, master_seed=23,
    )
    pt = run_ber(cfg).points[0]
    sigma = np.sqrt(expected * (1 - expected) / (pt["trials"] * 2))
    assert abs(pt["ber"] - expected) < 4 * sigma
