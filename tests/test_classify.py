import importlib
import json
import pkgutil
import random
import sys
from fractions import Fraction

import pytest

import gkzmono
from gkzmono import (
    IRREDUCIBLE,
    REDUCIBLE,
    BetaOutsideSpan,
    Configuration,
    Face,
    GaussRat,
    InputError,
    IntMatrix,
    classify,
    cones,
    hypergeometric_system,
    intlinalg,
    pyramids,
    reduce_configuration,
    resonance,
    resonance_centers,
    toric,
    volume,
)
from gkzmono.cli import _parse_beta_literal
from gkzmono.cones import per_configuration
from oracles import fraction_elimination, matmul, triangulated_face_volume
from sweeps import (
    BETA_SWEEP_MATRIX,
    random_beta,
    random_configuration,
    random_full_rank_matrix,
    random_homogeneous_configuration,
    random_unimodular,
)
from test_golden import CASES as GOLDEN_CASES
from test_resonance import betas_of_every_kind, planted_beta

QUADRIC = IntMatrix([[1, 1, 1], [0, 1, 2]])
PYRAMID = IntMatrix([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
INDEX_FOUR = IntMatrix([[2, 2, 2], [0, 2, 4]])


def package_modules():
    return [gkzmono] + [
        importlib.import_module(f"gkzmono.{info.name}")
        for info in pkgutil.iter_modules(gkzmono.__path__)
    ]


def spy_on(monkeypatch, *names):
    """Record, in call order, each call of the named intlinalg functions."""
    calls = []
    for name in names:
        original = getattr(intlinalg, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in package_modules():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return calls


def hermite_arguments(monkeypatch):
    """Record, in call order, the matrix of each hermite_normal_form call."""
    factored = []
    original = intlinalg.hermite_normal_form

    def spy(M):
        factored.append(M)
        return original(M)

    for module in package_modules():
        if getattr(module, "hermite_normal_form", None) is original:
            monkeypatch.setattr(module, "hermite_normal_form", spy)
    return factored


def random_gauss_rationals(rng, kind, d):
    """d random entries of one kind: "integer", "rational" or "complex"."""
    if kind == "integer":
        return [GaussRat(rng.randint(-4, 4)) for _ in range(d)]
    re = random_beta(rng, d)
    if kind == "rational":
        return [GaussRat(r) for r in re]
    return [GaussRat(r, rng.choice((0, 1, Fraction(-1, 2), Fraction(2, 3)))) for r in re]


class TestVerdicts:
    def test_two_resonance_centers_reducible(self):
        result = classify(QUADRIC, ["1/2", "1"])
        assert result.verdict == REDUCIBLE
        assert [f.indices for f in result.centers] == [(1,), (3,)]
        assert result.generic_rank == 2
        assert result.face_volumes == (1, 1)
        assert result.pyramid_flags == (False, False)

    def test_nonresonant_irreducible(self):
        result = classify(QUADRIC, ["1/3", "1/5"])
        assert result.verdict == IRREDUCIBLE
        assert [f.indices for f in result.centers] == [(1, 2, 3)]
        assert result.pyramid_flags == (True,)

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
        assert report["center_details"][0]["pyramid"] is False
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
            if any(result.pyramid_flags):
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

    @pytest.mark.parametrize("kind", ["integer", "rational", "complex"])
    def test_unimodular_simplex_is_irreducible_for_every_beta(self, kind):
        # With a basis of Z^d as columns, beta = U*c lies in Z^d + C*span(F)
        # iff c_j is an integer for every j outside F; the configuration is
        # a pyramid over every face, so the unique center is always a base.
        rng = random.Random(f"unimodular-{kind}")
        for _ in range(20):
            U = random_unimodular(rng, rng.randint(1, 4))
            coords = random_gauss_rationals(rng, kind, U.rows)
            beta = [sum((u * c for u, c in zip(row, coords)), GaussRat(0)) for row in U.data]
            result = classify(U, beta)
            expected = tuple(j for j, c in enumerate(coords, start=1) if not c.is_integer)
            assert result.verdict == IRREDUCIBLE
            assert [f.indices for f in result.centers] == [expected]

    def test_integral_beta_with_more_distinct_columns_than_d(self):
        rng = random.Random(83)
        for _ in range(40):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            result = classify(A, [0] * A.rows)
            config = result.configuration
            distinct = {
                config.column(j) for j in range(1, config.n + 1)
            }
            if config.lineality_columns == () and len(distinct) > config.d:
                assert result.verdict == REDUCIBLE
                assert result.centers[0].indices == config.face_lattice()[0].indices


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
            assert classify(matmul(U, A), beta_u).verdict == base


class TestParameterType:
    """A string is one literal, not a parameter: "12" must not read as (1, 2)."""

    ENTRY_POINTS = {
        "classify": lambda beta: classify(QUADRIC, beta),
        "resonance_centers": lambda beta: resonance_centers(Configuration(QUADRIC), beta),
        "hypergeometric_system": lambda beta: hypergeometric_system(Configuration(QUADRIC), beta),
    }

    @pytest.mark.parametrize("beta", ["12", b"12", bytearray(b"12")], ids=["str", "bytes", "bytearray"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_string_parameter_rejected(self, entry, beta):
        with pytest.raises(InputError):
            entry(beta)


class TestShiftInvariance:
    """beta and beta + A*z have the same verdict and centers for integer z."""

    @pytest.mark.parametrize(
        "A, beta, z, verdict",
        [
            (QUADRIC, ["1/2", "1"], (0, 1, 0), REDUCIBLE),
            (QUADRIC, ["1/2", "1"], (1, 0, 0), REDUCIBLE),
            (QUADRIC, ["1/2", "1"], (1, -2, 4), REDUCIBLE),
            (QUADRIC, ["1/3", "1/5"], (-3, 0, 2), IRREDUCIBLE),
            (PYRAMID, ["1/3", "1/5", "2"], (0, 0, 1, 1), IRREDUCIBLE),
            (PYRAMID, ["1/2", "1", "1/3"], (2, -1, 0, -5), REDUCIBLE),
        ],
    )
    def test_lattice_shift_keeps_the_verdict(self, A, beta, z, verdict):
        base = classify(A, beta)
        shift = A.mat_vec(z)
        shifted = classify(A, [GaussRat.parse(b) + GaussRat(s) for b, s in zip(beta, shift)])
        assert base.verdict == shifted.verdict == verdict
        assert base.centers == shifted.centers


class TestSharedConfiguration:
    """Equal matrices share one normalized configuration across calls."""

    def test_face_lattice_is_enumerated_once_per_matrix(self, monkeypatch):
        calls = []
        enumerate_faces = cones.enumerate_faces

        def counting(config, *args, **kwargs):
            calls.append(config.A)
            return enumerate_faces(config, *args, **kwargs)

        monkeypatch.setattr(cones, "enumerate_faces", counting)
        closures, close = [], cones._face_closure.__wrapped__
        counted = per_configuration(lambda c: closures.append(c.A) or close(c))
        monkeypatch.setattr(cones, "_face_closure", counted)
        monkeypatch.setattr(resonance, "_face_closure", counted)
        first = classify(IntMatrix(QUADRIC.data), ["1/2", "1"])
        second = classify(IntMatrix(QUADRIC.data), ["1/3", "1/5"])
        assert calls == closures == [QUADRIC]
        assert first.configuration is second.configuration
        assert [f.indices for f in second.centers] == [(1, 2, 3)]

    def test_a_cold_classify_triangulates_each_configuration_once(self, monkeypatch):
        # The facets and the generic rank read one hull per configuration:
        # one placing triangulation of its columns, and no other facet
        # enumeration (no feasibility test of a subset, no face lattice).
        # A face volume triangulates a face's columns, never the whole set.
        hulls, face_triangulations, subsets = [], [], []
        placing, of_matrix, feasible = (
            cones._placing_triangulation, volume._volume_of_matrix, cones.is_face
        )
        monkeypatch.setattr(
            cones, "_placing_triangulation", lambda p, d: hulls.append(p) or placing(p, d)
        )
        monkeypatch.setattr(
            volume, "_volume_of_matrix", lambda c: face_triangulations.append(c) or of_matrix(c)
        )
        monkeypatch.setattr(
            cones, "is_face", lambda *args: subsets.append(args) or feasible(*args)
        )
        monkeypatch.setattr(cones, "enumerate_faces", None)
        rng = random.Random(163)
        matrices = [BETA_SWEEP_MATRIX, random_homogeneous_configuration(rng, 6, 14).A]
        matrices += [random_full_rank_matrix(rng, dmax=4, nmax=7) for _ in range(30)]
        cones._normalize_matrix.cache_clear()
        configs = set()
        for A in matrices:
            A = reduce_configuration(A, [0] * A.rows)[0].A  # classify's key for this config
            config = reduce_configuration(A, [0] * A.rows)[0]
            if config in configs or config.n <= cones.BRUTE_FORCE_LIMIT:
                continue
            configs.add(config)
            before = len(face_triangulations)
            classify(config.A, [rng.randint(-9, 9) for _ in range(config.d)])  # cold
            assert len(hulls) == len(configs)
            _, mask = rng.choice(cones._facets(config) or ((None, (1 << config.n) - 1),))
            facet = Face([j + 1 for j in range(config.n) if mask >> j & 1], ())
            for beta in betas_of_every_kind(rng, config, facet):
                result = classify(config.A, beta)
                assert result.configuration is config
                assert result.generic_rank == volume.normalized_volume(config).volume
            assert len(hulls) == len(configs)
            assert all(len(c) < config.n for c in face_triangulations[before:])
        assert len(configs) > 20 and subsets == []

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

    def test_identity_basis_is_built_once_per_matrix(self):
        _, _, first = reduce_configuration(IntMatrix(QUADRIC.data), ["1/2", "1"])
        _, _, second = reduce_configuration(IntMatrix(QUADRIC.data), ["1/3", "1"])
        assert first == IntMatrix.identity(2)
        assert first is second

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

    @pytest.mark.parametrize("kind", ["integer", "rational", "complex"])
    def test_warm_memo_matches_cold_results(self, kind):
        rng = random.Random(f"warm-{kind}")
        jobs = []
        for _ in range(8):
            A = random_full_rank_matrix(rng, dmax=3, nmax=5)
            jobs += [(A, random_gauss_rationals(rng, kind, A.rows)) for _ in range(3)]
        warm = [classify(*job).to_json() for job in jobs]
        cold = []
        for job in jobs:
            cones._normalize_matrix.cache_clear()
            cold.append(classify(*job).to_json())
        assert warm == cold

    def test_pyramid_flags_are_booleans_from_the_shared_configuration(self, monkeypatch):
        first = classify(IntMatrix(QUADRIC.data), ["1/3", "1/5"])
        calls = spy_on(monkeypatch, "kernel_lattice_basis")
        again = classify(IntMatrix(QUADRIC.data), ["1/2", "1"])
        assert first.pyramid_flags == (True,)
        assert again.pyramid_flags == (False, False)
        assert calls == []


class TestCacheStructure:
    """A-side results live on the shared configuration, not in module caches."""

    def test_normalization_is_the_only_lru_cache(self):
        found = set()
        for module in package_modules():
            classes = [v for v in vars(module).values() if isinstance(v, type)]
            for space in [module] + classes:
                for value in vars(space).values():
                    if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                        found.add(f"{value.__module__}.{value.__qualname__}")
        assert found == {"gkzmono.cones._normalize_matrix"}

    @pytest.mark.parametrize("A, beta", [(QUADRIC, ["1/2", "1"]), (INDEX_FOUR, ["1", "1"])])
    def test_one_classify_keeps_one_normalized_matrix(self, A, beta):
        classify(IntMatrix(A.data), beta)
        assert cones._normalize_matrix.cache_info().currsize == 1

    @pytest.mark.parametrize("A, beta", [(QUADRIC, ["1/2", "1"]), (INDEX_FOUR, ["1", "1"])])
    def test_lattice_shift_of_beta_redoes_no_normal_form(self, monkeypatch, A, beta):
        first = classify(IntMatrix(A.data), beta)
        calls = spy_on(monkeypatch, "smith_normal_form", "hermite_normal_form")
        shifted = [GaussRat.parse(b) + GaussRat(a) for b, a in zip(beta, A.column(0))]
        second = classify(IntMatrix(A.data), shifted)
        assert [f.indices for f in second.centers] == [f.indices for f in first.centers]
        assert calls == []

    def test_face_volume_runs_one_hermite_form_and_no_smith_form(self, monkeypatch):
        # Every proper face of the square cone has as many distinct nonzero
        # columns as its rank, so its volume is 1 from that count alone: no
        # Hermite pass, no IntMatrix Hermite form, and no Configuration
        # validates its columns.
        config = cones.Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]))
        faces = [f for f in config.face_lattice() if f.indices][:-1]
        calls = spy_on(monkeypatch, "smith_normal_form", "hermite_normal_form", "_hermite_rows")
        built = []
        init = cones.Configuration.__init__
        monkeypatch.setattr(
            cones.Configuration, "__init__", lambda self, A: built.append(A) or init(self, A)
        )
        assert [volume.face_volume(config, f) for f in faces] == [1] * len(faces)
        assert calls == []
        assert built == []

    def test_warm_classify_reduces_only_centers_of_volume_above_one(self, monkeypatch):
        # The classify-path counterpart: once one facet-resonant classify has
        # compiled beta_sweep's A, a center's rank comes from rank_int inside
        # face_volume, and a Hermite pass runs only for a center that the
        # count cannot decide.
        rng = random.Random(2011)
        cones._normalize_matrix.cache_clear()
        config = classify(BETA_SWEEP_MATRIX, [0] * 5).configuration
        lattice = config.face_lattice()
        facet = next(f for f in lattice if len(f.indices) == 4)
        classify(BETA_SWEEP_MATRIX, planted_beta(rng, config, facet))
        reduced, original = [], intlinalg._hermite_rows
        for module in package_modules():
            if getattr(module, "_hermite_rows", None) is original:
                monkeypatch.setattr(
                    module, "_hermite_rows",
                    lambda h, width: reduced.append(sorted(map(tuple, h))) or original(h, width),
                )
        above_one = 0
        for _ in range(20):
            for beta in betas_of_every_kind(rng, config, rng.choice(lattice)):
                before = len(reduced)
                result = classify(BETA_SWEEP_MATRIX, beta)
                large = [sorted(config.column(j) for j in f.indices)
                         for f, vol in zip(result.centers, result.face_volumes)
                         if vol is not None and vol > 1]
                above_one += len(large)
                assert all(rows in large for rows in reduced[before:])
        assert 0 < len(reduced) <= above_one

    def test_public_face_volume_reads_the_classify_memo(self, monkeypatch):
        # classify and the public face_volume share one memo entry per face:
        # once a facet-resonant classify has read every center's volume, the
        # public call computes no rank and takes no Hermite pass.
        rng = random.Random(2011)
        cones._normalize_matrix.cache_clear()
        config = classify(BETA_SWEEP_MATRIX, [0] * 5).configuration
        facet = next(f for f in config.face_lattice() if len(f.indices) == 4)
        result = classify(BETA_SWEEP_MATRIX, planted_beta(rng, config, facet))
        centers = [f for f in result.centers if f.indices]
        assert centers and result.centers != (config.face_lattice()[-1],)
        calls = []
        for name in ("rank_int", "_hermite_reduce"):
            original = getattr(volume, name)
            monkeypatch.setattr(
                volume, name, lambda *args, _o=original, _n=name: calls.append(_n) or _o(*args)
            )
        assert [volume.face_volume(config, f) for f in centers] == [
            v for f, v in zip(result.centers, result.face_volumes) if f.indices
        ]
        assert calls == []

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_cold_classify_runs_no_smith_form(self, monkeypatch, name):
        calls = spy_on(monkeypatch, "smith_normal_form")
        matrix, beta, _ = GOLDEN_CASES[name]
        cones._normalize_matrix.cache_clear()
        classify(IntMatrix(json.loads(matrix)), _parse_beta_literal(beta))
        assert calls == []

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_cold_classify_solves_over_q_only_for_beta(self, monkeypatch, name):
        # Face volumes and normalization take integer Hermite coordinates;
        # only the parameter of an un-normalized input is solved over Q, and
        # the Gauss-Jordan reference is bound nowhere in the package.
        assert not any(hasattr(m, "solve_rational") for m in package_modules())
        beta_solves, integer_solves = [], []
        original_beta = cones._gauss_rat_coordinates
        original = intlinalg._hermite_solutions

        def beta_spy(*args):
            beta_solves.append(sys._getframe(1).f_code.co_name)
            return original_beta(*args)

        def spy(*args):
            solutions = list(original(*args))
            if sys._getframe(1).f_code.co_name != "_gauss_rat_coordinates":
                integer_solves.extend(
                    x is not None and all(q.denominator == 1 for q in x) for x in solutions
                )
            return iter(solutions)

        for module in package_modules():
            if getattr(module, "_gauss_rat_coordinates", None) is original_beta:
                monkeypatch.setattr(module, "_gauss_rat_coordinates", beta_spy)
            if getattr(module, "_hermite_solutions", None) is original:
                monkeypatch.setattr(module, "_hermite_solutions", spy)
        matrix, beta, _ = GOLDEN_CASES[name]
        A = IntMatrix(json.loads(matrix))
        cones._normalize_matrix.cache_clear()
        result = classify(A, _parse_beta_literal(beta))
        reduced = result.configuration.A != A
        assert beta_solves == (["reduce_configuration"] if reduced else [])
        assert all(integer_solves)

    @pytest.mark.parametrize(
        "A", [QUADRIC, PYRAMID, INDEX_FOUR], ids=["quadric", "pyramid", "index_four"]
    )
    def test_lattice_layer_runs_no_smith_form(self, monkeypatch, A):
        calls = spy_on(monkeypatch, "smith_normal_form")
        cones._normalize_matrix.cache_clear()
        config, _, _ = reduce_configuration(IntMatrix(A.data), [0] * A.rows)
        cones.Configuration(config.A)
        intlinalg.kernel_lattice_basis(A)
        for face in config.face_lattice():
            if face.indices:
                volume.face_volume(config, face)
        assert calls == []

    def test_the_columns_are_factored_once(self, monkeypatch):
        # The pyramid test on every face and the toric ideal read the Hermite
        # form that validated the configuration: A^T is never factored again,
        # and the kernel is put in canonical order on plain rows.
        config = cones.Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
        lattice = config.face_lattice()
        factored = hermite_arguments(monkeypatch)
        flags = [pyramids.is_pyramid(config, f) for f in lattice]
        toric.toric_ideal_generators(config)
        assert flags == [f == lattice[-1] for f in lattice]
        assert factored == []
        H, U = config.hermite
        raw = [u for u, h in zip(U.data, H.data) if not any(h)]
        assert intlinalg.hermite_normal_form(IntMatrix(raw))[0].data == config.kernel

    def test_cold_pipeline_factors_the_transpose_once(self, monkeypatch):
        A = IntMatrix([[1, 1, 1, 1, 0], [0, 1, 2, 3, 0], [0, 0, 0, 0, 1]])
        cones._normalize_matrix.cache_clear()
        factored = hermite_arguments(monkeypatch)
        result = classify(IntMatrix(A.data), ["1/2", "1/3", "2"])
        config = result.configuration
        toric.toric_ideal_generators(config)
        assert result.verdict == IRREDUCIBLE
        assert factored.count(A.transpose()) == 1

    def test_normalization_reduces_the_form_that_failed_validation(self, monkeypatch):
        # One Hermite form of A_raw^T fails the validation and is reduced;
        # the second validates the reduced matrix.
        cones._normalize_matrix.cache_clear()
        factored = hermite_arguments(monkeypatch)
        config, beta, B = cones.reduce_configuration(INDEX_FOUR, [1, 1])
        assert factored == [INDEX_FOUR.transpose(), config.A.transpose()]
        assert config.A == QUADRIC and matmul(B, config.A) == INDEX_FOUR
        assert beta == (GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 2)))


class TestCenterVolumes:
    """classify's center volumes, with each center's rank from rank_int inside face_volume.

    Every volume equals the oracle that always triangulates.  A proper
    center whose distinct nonzero columns are as many as its rank (computed
    here over Q) is unimodular and never reaches the Hermite reduction; only
    the others do, each once per configuration.
    """

    @staticmethod
    def configurations():
        # Signed entries give non-pointed cones; a duplicate or a zero column
        # goes into two of every three, and beta_sweep's A comes last.
        rng = random.Random(2027)
        for k in range(200):
            config = random_configuration(rng, dmax=4, nmax=7, lo=-3 if k % 2 else 0)
            columns = list(config.A.columns())
            if k % 3 == 1:
                columns.insert(rng.randrange(len(columns) + 1), rng.choice(columns))
            elif k % 3 == 2:
                columns.insert(rng.randrange(len(columns) + 1), (0,) * config.d)
            yield IntMatrix.from_columns(columns, config.d), rng
        yield BETA_SWEEP_MATRIX, rng

    def test_center_volumes_match_the_triangulating_oracle(self, monkeypatch):
        reduced = []
        original = volume._hermite_reduce
        monkeypatch.setattr(
            volume, "_hermite_reduce", lambda columns: reduced.append(columns) or original(columns)
        )
        kinds = {"counted": 0, "reduced": 0, "full": 0, "nonpointed": 0}
        for A, rng in self.configurations():
            cones._normalize_matrix.cache_clear()
            config = classify(A, [0] * A.rows).configuration
            kinds["nonpointed"] += config.lineality_columns != ()
            lattice = config.face_lattice()
            faces = lattice if A is BETA_SWEEP_MATRIX else [rng.choice(lattice)]
            for beta in (b for face in faces for b in betas_of_every_kind(rng, config, face)):
                before = len(reduced)
                result = classify(A, beta)
                uncounted = []
                for face, vol in zip(result.centers, result.face_volumes):
                    if not face.indices:
                        assert vol is None
                        continue
                    assert vol == triangulated_face_volume(config, face)
                    columns = [config.column(j) for j in face.indices]
                    rank = fraction_elimination(columns)[0]
                    if len(face.indices) == config.n:
                        kinds["full"] += 1
                    elif len(set(columns) - {(0,) * config.d}) == rank:
                        assert vol == 1
                        kinds["counted"] += 1
                    else:
                        uncounted.append(columns)
                        kinds["reduced"] += 1
                assert all(columns in uncounted for columns in reduced[before:])
        assert min(kinds.values()) > 20, kinds
