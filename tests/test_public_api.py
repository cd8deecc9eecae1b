"""The public names of gkzmono, pinned: adding or removing one edits this list."""

import dataclasses
import types

import pytest

import gkzmono
from gkzmono import Configuration, Face, IntMatrix, ResonanceReport, ToricSystem

PUBLIC = [
    "ArrangementComponent",
    "BetaOutsideSpan",
    "Binomial",
    "Classification",
    "Configuration",
    "DimensionMismatch",
    "EmptyFace",
    "EulerOperator",
    "Face",
    "GaussRat",
    "GkzError",
    "IRREDUCIBLE",
    "InputError",
    "IntMatrix",
    "InternalInconsistency",
    "LatticeNotSaturated",
    "Parameter",
    "REDUCIBLE",
    "RankDeficient",
    "ResonanceReport",
    "ScaleLimit",
    "SmithDecomposition",
    "ToricSystem",
    "UnsupportedFormat",
    "VolumeResult",
    "as_parameter",
    "classify",
    "describe_resonant_arrangement",
    "enumerate_faces",
    "euler_operators",
    "export",
    "face_functionals",
    "face_volume",
    "generic_rank",
    "hermite_normal_form",
    "hypergeometric_system",
    "in_ideal",
    "is_face",
    "is_pyramid",
    "kernel_lattice_basis",
    "lattice_binomials",
    "normalized_volume",
    "parse_rational",
    "parse_toric_system",
    "reduce_configuration",
    "resonance_centers",
    "smith_normal_form",
    "toric_ideal_generators",
]


def test_public_names_are_exactly_the_pinned_list():
    # Submodules are left out: importing one (gkzmono.cli, say) binds it
    # on the package.
    names = sorted(
        name
        for name, value in vars(gkzmono).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


def public_members(cls):
    """Names defined on the class itself, dataclass fields included."""
    names = {name for name in vars(cls) if not name.startswith("_")}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return sorted(names)


def test_configuration_members_are_pinned():
    # d is the only name for the number of rows.
    assert public_members(Configuration) == [
        "column", "d", "face_lattice", "kernel", "lineality_columns", "n",
    ]


def test_the_face_lattice_is_a_plain_tuple():
    # Minimal face first, full face last; membership is tuple membership,
    # and faces compare by their indices.
    lattice = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]])).face_lattice()
    assert type(lattice) is tuple
    assert [f.indices for f in lattice] == [(), (1,), (3,), (1, 2, 3)]
    assert Face([3, 2, 1], [0, 0]) in lattice


def test_toric_system_saturation_is_not_a_field():
    assert [f.name for f in dataclasses.fields(ToricSystem)] == ["euler", "binomials", "nvars"]
    assert ToricSystem.saturated is True
    with pytest.raises(TypeError):
        ToricSystem((), (), 1, saturated=False)


def test_resonance_report_derives_nonresonance():
    # is_nonresonant is read off the centers: the full face is the only one.
    # member_faces is derived on read: every face when the walk listed none.
    assert [f.name for f in dataclasses.fields(ResonanceReport)] == [
        "config", "beta", "_members", "centers",
    ]
    assert isinstance(ResonanceReport.member_faces, property)
    assert isinstance(ResonanceReport.is_nonresonant, property)
