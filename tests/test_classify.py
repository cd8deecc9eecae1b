import random
from fractions import Fraction

import pytest

from gkzmono import (
    IRREDUCIBLE,
    REDUCIBLE,
    BetaOutsideSpan,
    GaussRat,
    InputError,
    IntMatrix,
    classify,
    classify_equivalence_class,
    cones,
    reduce_configuration,
)
from sweeps import random_beta, random_full_rank_matrix, random_unimodular

QUADRIC = IntMatrix([[1, 1, 1], [0, 1, 2]])
PYRAMID = IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])


class TestVerdicts:
    def test_two_resonance_centers_reducible(self):
        result = classify(QUADRIC, ["1/2", "1"])
        assert result.verdict == REDUCIBLE
        assert [f.indices for f in result.centers] == [(1,), (3,)]
        assert result.generic_rank == 2
        assert result.face_volumes == (1, 1)
        assert all(not v.is_pyramid for v in result.pyramid_flags)

    def test_nonresonant_irreducible(self):
        result = classify(QUADRIC, ["1/3", "1/5"])
        assert result.verdict == IRREDUCIBLE
        assert [f.indices for f in result.centers] == [(1, 2, 3)]
        assert result.pyramid_flags[0].is_pyramid

    def test_integral_beta_reducible_over_empty_face(self):
        result = classify(QUADRIC, ["0", "0"])
        assert result.verdict == REDUCIBLE
        assert [f.indices for f in result.centers] == [()]
        assert result.face_volumes == (None,)

    def test_pyramid_center_irreducible_and_unique(self):
        result = classify(PYRAMID, ["1/3", "1/5", "2"])
        assert result.verdict == IRREDUCIBLE
        assert [f.indices for f in result.centers] == [(1, 2, 3)]
        assert len(result.centers) == 1

    def test_normalization_is_reported(self):
        result = classify(IntMatrix([[2, 0], [0, 1]]), ["1", "1/3"])
        assert result.basis == IntMatrix([[2, 0], [0, 1]])
        assert result.configuration.A == IntMatrix.identity(2)
        assert result.parameter == (
            GaussRat(Fraction(1, 2)),
            GaussRat(Fraction(1, 3)),
        )

    def test_beta_outside_span(self):
        with pytest.raises(BetaOutsideSpan):
            classify(IntMatrix([[1, 1], [2, 2]]), ["1", "0"])

    def test_json_shape(self):
        report = classify(QUADRIC, ["1/2", "1"]).to_json()
        assert report["verdict"] == "Reducible"
        assert report["centers"] == [[1], [3]]
        assert report["generic_rank"] == 2
        assert report["center_details"][0]["pyramid"]["is_pyramid"] is False
        assert report["normalization"]["B"] == [[1, 0], [0, 1]]


class TestTheoremConsistency:
    def test_reducible_nonempty_centers_show_volume_drop(self):
        rng = random.Random(73)
        seen = 0
        for _ in range(60):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            beta = random_beta(rng, A.rows)
            result = classify(A, beta)
            if result.verdict == REDUCIBLE:
                for face, vol in zip(result.centers, result.face_volumes):
                    if face.indices:
                        assert vol < result.generic_rank
                        seen += 1
        assert seen >= 5

    def test_pyramid_center_is_unique_in_sweep(self):
        rng = random.Random(79)
        for _ in range(60):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            beta = random_beta(rng, A.rows)
            result = classify(A, beta)
            if any(v.is_pyramid for v in result.pyramid_flags):
                assert len(result.centers) == 1
                assert result.verdict == IRREDUCIBLE

    def test_nonresonant_always_irreducible(self):
        from gkzmono import resonance_centers

        rng = random.Random(81)
        seen = 0
        for _ in range(50):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            beta = random_beta(rng, A.rows)
            result = classify(A, beta)
            report = resonance_centers(result.configuration, result.parameter)
            if report.is_nonresonant:
                assert result.verdict == IRREDUCIBLE
                seen += 1
        assert seen >= 5

    def test_integral_beta_with_more_distinct_columns_than_d(self):
        rng = random.Random(83)
        for _ in range(40):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            result = classify(A, [0] * A.rows)
            config = result.configuration
            distinct = {
                config.column(j) for j in range(1, config.n + 1)
            }
            if config.pointed and len(distinct) > config.d:
                assert result.verdict == REDUCIBLE
                assert result.centers[0].indices == config.face_lattice().faces[0].indices


class TestEquivalenceClass:
    def test_explicit_shifts(self):
        results = classify_equivalence_class(
            QUADRIC, ["1/2", "1"], [(0, 0), (1, 0), (-2, 3)]
        )
        assert [r.verdict for r in results] == [REDUCIBLE] * 3

    def test_singleton_zero_shift(self):
        results = classify_equivalence_class(PYRAMID, ["1/3", "1/5", "2"], [(0, 0, 0)])
        assert len(results) == 1
        assert results[0].verdict == classify(PYRAMID, ["1/3", "1/5", "2"]).verdict

    def test_pyramid_shift(self):
        results = classify_equivalence_class(
            PYRAMID, ["1/3", "1/5", "2"], [(1, 1, 1)]
        )
        assert [r.verdict for r in results] == [IRREDUCIBLE]

    def test_length_n_shifts_go_through_the_matrix(self):
        results = classify_equivalence_class(QUADRIC, ["1/2", "1"], [(1, -2, 4)])
        assert results[0].verdict == REDUCIBLE

    def test_shift_outside_lattice_rejected(self):
        with pytest.raises(InputError):
            classify_equivalence_class(IntMatrix([[2, 4]]), ["1/2"], [(1,)])

    def test_random_shift_invariance(self):
        rng = random.Random(89)
        for _ in range(40):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            beta = random_beta(rng, A.rows)
            shifts = [
                A.mat_vec(tuple(rng.randint(-3, 3) for _ in range(A.cols)))
                for _ in range(3)
            ]
            results = classify_equivalence_class(A, beta, shifts)
            assert len({r.verdict for r in results}) == 1


class TestInvariance:
    def test_verdict_invariant_under_transforms(self):
        rng = random.Random(97)
        for _ in range(30):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            beta = random_beta(rng, A.rows)
            base = classify(A, beta).verdict
            perm = list(range(A.cols))
            rng.shuffle(perm)
            permuted = IntMatrix.from_columns([A.column(p) for p in perm], A.rows)
            assert classify(permuted, beta).verdict == base
            U = random_unimodular(rng, A.rows)
            beta_u = U.mat_vec([Fraction(b) for b in beta])
            assert classify(U @ A, beta_u).verdict == base


class TestSharedConfiguration:
    """Equal matrices share one normalized configuration across calls."""

    def test_face_lattice_is_enumerated_once_per_matrix(self, monkeypatch):
        calls = []
        enumerate_faces = cones.enumerate_faces

        def counting(config, *args, **kwargs):
            calls.append(config.A)
            return enumerate_faces(config, *args, **kwargs)

        monkeypatch.setattr(cones, "enumerate_faces", counting)
        first = classify(IntMatrix(QUADRIC.data), ["1/2", "1"])
        second = classify(IntMatrix(QUADRIC.data), ["1/3", "1/5"])
        assert calls == [QUADRIC]
        assert first.configuration is second.configuration
        assert [f.indices for f in second.centers] == [(1, 2, 3)]

    @pytest.mark.parametrize(
        "raw, inside, expected, outside",
        [
            ([[1, 2], [2, 4]], ["1", "2"], ["1"], ["0", "1"]),
            ([[2, 2, 2], [0, 2, 4], [2, 4, 6]], ["1", "1", "2"], ["1/2", "1/2"], ["1", "1", "1"]),
        ],
    )
    def test_normalization_is_solved_per_beta(self, raw, inside, expected, outside):
        A = IntMatrix(raw)
        config, beta, B = reduce_configuration(A, inside)
        assert beta == tuple(GaussRat.parse(b) for b in expected)
        for _ in range(2):
            with pytest.raises(BetaOutsideSpan):
                reduce_configuration(IntMatrix(raw), outside)
            again, beta_again, B_again = reduce_configuration(IntMatrix(raw), inside)
            assert again is config
            assert (beta_again, B_again) == (beta, B)

    def test_results_do_not_depend_on_call_order(self):
        rng = random.Random(59)
        # More distinct matrices than the normalization cache holds, so some
        # configurations are evicted and rebuilt between their two betas.
        jobs = []
        for _ in range(24):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            jobs += [(A, random_beta(rng, A.rows)) for _ in range(2)]

        def run(order):
            return {i: classify(*jobs[i]).to_json() for i in order}

        forward = run(range(len(jobs)))
        order = list(range(len(jobs)))
        rng.shuffle(order)
        assert run(order) == forward
        cold = {}
        for i in range(len(jobs)):
            cones._normalize_matrix.cache_clear()
            cold.update(run([i]))
        assert cold == forward
