import contextlib
import dataclasses
import io
import json
import random
import sys
from pathlib import Path

import pytest

from gkzmono import (
    Binomial,
    Configuration,
    InputError,
    IntMatrix,
    UnsupportedFormat,
    cli,
    export,
    exporters,
    hypergeometric_system,
    parse_toric_system,
)
from gkzmono.exporters import FORMATS
from test_golden import CASES, case_argvs

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

QUADRIC = Configuration(IntMatrix([[1, 1, 1], [0, 1, 2]]))


@pytest.fixture(scope="module")
def quadric_system():
    return hypergeometric_system(QUADRIC, ["1/2", "1"])


@pytest.fixture(scope="module")
def complex_system():
    return hypergeometric_system(QUADRIC, [{"re": "1/2", "im": "1/3"}, "1"])


class TestJson:
    def test_round_trip(self, quadric_system):
        assert parse_toric_system(export(quadric_system, "json")) == quadric_system

    def test_round_trip_complex(self, complex_system):
        assert parse_toric_system(export(complex_system, "json")) == complex_system

    def test_payload_shape(self, quadric_system):
        payload = json.loads(export(quadric_system, "json"))
        assert payload["nvars"] == 3
        assert payload["saturated"] is True
        assert payload["euler"][0]["shift"] == "-1/2"
        assert payload["binomials"] == [{"plus": [1, 0, 1], "minus": [0, 2, 0]}]

    def test_golden(self, quadric_system):
        assert export(quadric_system, "json") == (DATA / "quadric.json").read_text()


def indented(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def spliced(value):
    """value with each fragment that json_text inserts as is read back as JSON."""
    if type(value) is exporters._Fragment:
        return json.loads(value)
    if isinstance(value, dict):
        return {k: spliced(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [spliced(x) for x in value]
    return value


def random_string(rng) -> str:
    alphabet = 'ab "\\/\n\t\x00\x1f\x7f\u00e9\u2603\U0001f600'
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))


def random_json_value(rng, depth=0):
    """Nested dicts, lists and tuples of every scalar kind the writer meets, and floats."""
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([None, True, False, 0, -1, 1.5, -0.0, float("inf")])
    if kind == 1:
        return rng.choice([1, -1]) * rng.randrange(10 ** rng.randrange(1, 60))
    if kind == 2:
        return rng.choice([[], {}, (), ""])
    if kind < 5:
        return random_string(rng)
    items = [random_json_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return items
    return tuple(items) if kind == 6 else {random_string(rng): item for item in items}


class TestJsonText:
    """exporters.json_text against json.dumps(value, indent=2, sort_keys=True)."""

    def test_every_golden_json_report(self, monkeypatch):
        original, checked = exporters.json_text, []

        def spy(value, *inner):
            text = original(value, *inner)
            if not inner:  # the export's generators come as fragments
                assert text == indented(spliced(value))
                checked.append(value)
            return text

        monkeypatch.setattr(exporters, "json_text", spy)
        for case in CASES.values():
            for argv in case_argvs(*case):
                if "--json" in argv or "json" in argv:  # --json, or --format json
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.run(argv)
        # Seven --json commands and one export per case, less the exit-2 runs.
        assert len(checked) > 6 * len(CASES)

    def test_the_benchmark_toric_systems(self):
        sys.path.insert(0, str(PERFBENCH))
        try:
            import workloads
        finally:
            sys.path.remove(str(PERFBENCH))
        wl = workloads.ToricExport(1, 24)
        for config, beta in wl.ops:
            payload = hypergeometric_system(config, beta).to_json()
            assert exporters.json_text(payload) == indented(payload)

    def test_seeded_nested_values(self):
        rng = random.Random(2718)
        for _ in range(400):
            value = random_json_value(rng)
            assert exporters.json_text(value) == indented(value)
        edge = {"": [{}, [], ()], "\u00e9\\\"": [-(10 ** 80), True, None, False]}
        assert exporters.json_text(edge) == indented(edge)


class TestScripts:
    @pytest.mark.parametrize(
        "fmt,golden",
        [
            ("macaulay2", "quadric.m2"),
            ("singular", "quadric.sing"),
        ],
    )
    def test_golden_files(self, quadric_system, fmt, golden):
        assert export(quadric_system, fmt) == (DATA / golden).read_text()

    @pytest.mark.parametrize(
        "fmt,golden",
        [
            ("macaulay2", "quadric_complex.m2"),
            ("singular", "quadric_complex.sing"),
        ],
    )
    def test_complex_golden_files(self, complex_system, fmt, golden):
        assert export(complex_system, fmt) == (DATA / golden).read_text()

    def test_byte_stable_across_runs(self):
        a = export(hypergeometric_system(QUADRIC, ["1/2", "1"]), "macaulay2")
        b = export(hypergeometric_system(QUADRIC, ["1/2", "1"]), "macaulay2")
        assert a == b

    def test_euler_only_scripts(self):
        system = hypergeometric_system(
            Configuration(IntMatrix.identity(2)), ["1/3", "-2"]
        )
        m2 = export(system, "macaulay2")
        assert "T_" not in m2
        assert "E_1 = x_1*dx_1-1/3;" in m2
        assert "E_2 = x_2*dx_2+2;" in m2
        sing = export(system, "singular")
        assert "ideal H = x(1)*d(1)-1/3,x(2)*d(2)+2;" in sing

    def test_complex_scripts_declare_i(self, complex_system):
        assert "QQ[ii]/(ii^2+1)" in export(complex_system, "macaulay2")
        assert "minpoly = i^2+1;" in export(complex_system, "singular")


class TestWarmExport:
    """A second beta on one configuration reuses its generators' rendered text.

    The toric memo shares a configuration's Binomial instances across betas,
    and each instance keeps its text per format.
    """

    A = [[1, 1, 1, 1], [0, 1, 3, 4]]  # saturation adds generators to the kernel's
    FIRST, SECOND = ["1/2", "1/3"], [{"re": "1/2", "im": "1/5"}, "-2"]

    @staticmethod
    def exports(config, beta, formats=FORMATS):
        system = hypergeometric_system(config, beta)
        return system, {fmt: export(system, fmt) for fmt in formats}

    @staticmethod
    def spy_on_rendering(monkeypatch):
        """The binomials rendered from here on, one entry per format."""
        rendered = []
        text, json_text = exporters._binomial_text, exporters.json_text

        def text_spy(b, name):
            rendered.append(b)
            return text(b, name)

        def json_spy(value, *inner):
            if isinstance(value, dict) and "plus" in value:
                rendered.append(value)
            return json_text(value, *inner)

        monkeypatch.setattr(exporters, "_binomial_text", text_spy)
        monkeypatch.setattr(exporters, "json_text", json_spy)
        return rendered

    def test_a_second_beta_renders_no_generator(self, monkeypatch):
        config = Configuration(IntMatrix(self.A))
        self.exports(config, self.FIRST)
        rendered = self.spy_on_rendering(monkeypatch)
        system, warm = self.exports(config, self.SECOND)
        assert rendered == []
        # A fresh configuration renders each generator once per format, here
        # in the opposite order of formats.
        _, cold = self.exports(Configuration(IntMatrix(self.A)), self.SECOND, FORMATS[::-1])
        assert len(rendered) == len(FORMATS) * len(system.binomials) == 3 * 4
        assert warm == cold

    def test_a_second_beta_exports_what_the_parsed_json_does(self):
        config = Configuration(IntMatrix(self.A))
        self.exports(config, self.FIRST)
        _, warm = self.exports(config, self.SECOND)
        parsed = parse_toric_system(warm["json"])
        assert {fmt: export(parsed, fmt) for fmt in FORMATS[::-1]} == warm

    def test_the_binomial_type_is_unchanged_by_rendering(self):
        config = Configuration(IntMatrix(self.A))
        system, _ = self.exports(config, self.FIRST)
        assert [f.name for f in dataclasses.fields(Binomial)] == ["plus", "minus"]
        for b in system.binomials:
            fresh = Binomial(b.plus, b.minus)
            assert b.rendered and not fresh.rendered
            assert b == fresh and hash(b) == hash(fresh)
            assert repr(b) == repr(fresh) == f"Binomial(plus={b.plus}, minus={b.minus})"


class TestErrors:
    def test_unsupported_format(self, quadric_system):
        with pytest.raises(UnsupportedFormat):
            export(quadric_system, "maple")

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_toric_system("not json")
        with pytest.raises(InputError):
            parse_toric_system('{"euler": []}')

    def test_parse_rejects_an_unsaturated_system(self):
        # The scripts would declare the binomials as the toric ideal.
        twisted_cubic = Configuration(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]]))
        text = export(hypergeometric_system(twisted_cubic, ["1/2", "1"]), "json")
        payload = json.loads(text)
        payload["saturated"] = False
        with pytest.raises(InputError, match="saturated"):
            parse_toric_system(json.dumps(payload))

    @pytest.mark.parametrize(
        "path, value",
        [
            (("saturated",), 1),
            (("nvars",), 3.0),
            (("nvars",), True),
            (("nvars",), 0),
            (("nvars",), -1),
            # The coefficient and exponent lists have 3 entries.
            (("nvars",), 2),
            (("nvars",), 4),
            (("euler", 0, "index"), 1.9),
            (("euler", 0, "index"), True),
            # Macaulay2 would bind E_1 twice and lose an operator.
            (("euler", 1, "index"), 1),
            (("euler", 0, "coefficients", 1), 1.5),
            (("euler", 1, "coefficients", 0), False),
            (("euler", 1, "coefficients"), [0, 1]),
            (("binomials", 0, "plus", 0), 1.0),
            (("binomials", 0, "minus", 1), True),
            (("binomials", 0), {"plus": [1, 0, 1, 0], "minus": [0, 2, 0, 0]}),
            (("binomials", 0, "minus"), "020"),
            # Shifts are "p/q" strings or {"re", "im"} objects, never floats.
            (("euler", 1, "shift"), 0.5),
            (("euler", 0, "shift"), {"re": "1/2", "im": 0.25}),
        ],
    )
    def test_parse_coerces_nothing(self, quadric_system, path, value):
        payload = json.loads(export(quadric_system, "json"))
        *parents, key = path
        node = payload
        for step in parents:
            node = node[step]
        node[key] = value
        with pytest.raises(InputError):
            parse_toric_system(json.dumps(payload))
