import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crysalign.ciflite import (
    CIF_CLOSE,
    CIF_OPEN,
    ParseError,
    extract_response_parts,
    load_samples,
    parse_ciflite,
    parse_prompt,
    write_ciflite,
)
from crysalign.structcore import CrystalStructure, GeometryError, Lattice, Site


SIMPLE_BLOCK = """<CIF>P1
4.110000 4.110000 4.110000
90.0000 90.0000 90.0000
Cs 1 0.00000000 0.00000000 0.00000000
Cl 1 0.50000000 0.50000000 0.50000000</CIF>"""


class TestParse:
    def test_simple_block(self):
        s = parse_ciflite(SIMPLE_BLOCK)
        assert s.num_sites == 2
        assert s.sites[0].element == "Cs"
        assert s.lattice.lengths == pytest.approx((4.11, 4.11, 4.11))

    def test_calcite_sites_and_volume(self, calcite):
        assert calcite.num_sites == 10
        assert calcite.volume() == pytest.approx(122.95, rel=0.005)

    def test_missing_open_tag(self):
        with pytest.raises(ParseError):
            parse_ciflite(SIMPLE_BLOCK.replace(CIF_OPEN, ""))

    def test_missing_close_tag(self):
        with pytest.raises(ParseError):
            parse_ciflite(SIMPLE_BLOCK.replace(CIF_CLOSE, ""))

    def test_wrong_lattice_field_count(self):
        bad = SIMPLE_BLOCK.replace("4.110000 4.110000 4.110000",
                                   "4.110000 4.110000")
        with pytest.raises(ParseError):
            parse_ciflite(bad)

    def test_bad_site_line(self):
        bad = SIMPLE_BLOCK.replace("Cl 1 0.50000000 0.50000000 0.50000000",
                                   "Cl 0.5 0.5")
        with pytest.raises(ParseError):
            parse_ciflite(bad)

    def test_unknown_element_rejected(self):
        bad = SIMPLE_BLOCK.replace("Cs 1", "Qq 1")
        with pytest.raises(ParseError):
            parse_ciflite(bad)

    def test_no_sites_rejected(self):
        bad = "<CIF>P1\n4.0 4.0 4.0\n90 90 90</CIF>"
        with pytest.raises(ParseError):
            parse_ciflite(bad)

    @pytest.mark.parametrize("lengths,angles", [
        ("-5.6 5.6 5.6", "90 90 90"), ("nan 5.6 5.6", "90 90 90"),
        ("inf 5.6 5.6", "90 90 90"), ("5.6 5.6 5.6", "130 130 130"),
        ("5.6 5.6 5.6", "90 inf 90"), ("2 2 2", "101 129 130"),
        ("1e200 1e200 1e200", "90 90 90"), ("5.64 1e-300 5.64", "90 90 90"),
        ("1e150 1e150 1e150", "90 90 90"), ("1e22 1e22 1e22", "90 90 90"),
        ("1e25 5 5", "90 90 90"), ("1e-100 5 5", "90 90 90"), ("1e150 1 1", "90 90 90"),
        ("1e50 1e-50 1", "90 90 90")])
    def test_bad_cell_is_positioned_parse_error(self, lengths, angles):
        text = f"header\n<CIF>P1\n{lengths}\n{angles}\nNa 1 0 0 0</CIF>"
        with pytest.raises(ParseError) as err:
            parse_ciflite(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_nonfinite_coordinate_is_positioned_parse_error(self, coord):
        text = f"<CIF>P1\n5.6 5.6 5.6\n90 90 90\nNa 1 0 0 0\nCl 1 0.5 {coord} 0.5</CIF>"
        with pytest.raises(ParseError) as err:
            parse_ciflite(text)
        assert err.value.line == 5

    @pytest.mark.parametrize("coord", ["1e300", "-1e300", repr(2.0 ** 26)])
    def test_huge_coordinate_is_positioned_parse_error(self, coord):
        """A coordinate that no double holds to the format's 1e-8 is not
        wrapped into the cell."""
        text = f"<CIF>P1\n5.6 5.6 5.6\n90 90 90\nNa 1 0 0 0\nCl 1 0.5 {coord} 0.5</CIF>"
        with pytest.raises(ParseError, match="2\\*\\*26") as err:
            parse_ciflite(text)
        assert err.value.line == 5

    def test_coordinate_below_the_bound_wraps(self):
        text = f"<CIF>P1\n5.6 5.6 5.6\n90 90 90\nCl 1 0.5 {2.0 ** 26 - 0.5!r} -0.25</CIF>"
        assert parse_ciflite(text).sites[0].frac_coords == (0.5, 0.5, 0.75)

    @pytest.mark.parametrize("count", ["2", "0", "1.0",
                                       pytest.param("1" * 5000, id="5000-digits")])
    def test_site_count_other_than_one_is_positioned_parse_error(self, count):
        text = f"<CIF>P1\n5.6 5.6 5.6\n90 90 90\nNa 1 0 0 0\nCl {count} 0.5 0.5 0.5</CIF>"
        with pytest.raises(ParseError) as err:
            parse_ciflite(text)
        assert err.value.line == 5


class TestWrite:
    def test_precision(self, cscl):
        text = write_ciflite(cscl)
        lines = text.splitlines()
        assert lines[0] == "<CIF>P1"
        # 6 decimals for lengths, 4 for angles, 8 for coordinates.
        assert lines[1] == "4.110000 4.110000 4.110000"
        assert lines[2] == "90.0000 90.0000 90.0000"
        assert lines[3] == "Cs 1 0.00000000 0.00000000 0.00000000"
        assert lines[4].endswith(CIF_CLOSE)

    def test_round_trip_identity(self, calcite):
        text = write_ciflite(calcite)
        assert write_ciflite(parse_ciflite(text)) == text

    def test_half_units_round_away_from_zero(self):
        s = CrystalStructure(
            Lattice(4.1234565, 4.0, 4.0, 90, 90, 90),
            (Site("Na", (0.000000005, 0.0, 0.0)),))
        lines = write_ciflite(s).splitlines()
        assert lines[1].split()[0] == "4.123457"
        assert lines[3].split()[2] == "0.00000001"

    def test_numpy_scalar_lattice_round_trips(self):
        params = np.array([4.0, 4.5, 5.25, 90.0, 100.5, 90.0])
        s = CrystalStructure(Lattice(*params), (Site("Na", (0.0, 0.25, 0.5)),))
        parsed = parse_ciflite(write_ciflite(s))
        assert parsed.lattice == s.lattice
        assert parsed.sites == s.sites
        assert all(type(x) is float for x in (*s.lattice.lengths, *s.lattice.angles))


def _fixed_per_call(value, places):
    from decimal import Decimal, ROUND_HALF_UP

    q = Decimal(1).scaleb(-places)
    return format(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP), f".{places}f")


def write_ciflite_per_call(s):
    """Reference: the writer as it was when it built its quantizer on every
    call and formatted each coordinate twice."""
    out = [CIF_OPEN + "P1"]
    out.append(" ".join(_fixed_per_call(x, 6) for x in s.lattice.lengths))
    out.append(" ".join(_fixed_per_call(x, 4) for x in s.lattice.angles))
    for site in s.sites:
        coords = " ".join(
            "0.00000000" if _fixed_per_call(x, 8) == "1.00000000" else _fixed_per_call(x, 8)
            for x in site.frac_coords)
        out.append(f"{site.element} 1 {coords}")
    return "\n".join(out) + CIF_CLOSE


class TestWriterMatchesPerCallFormatter:
    def test_edge_values(self):
        # half units at every precision, coordinates a rounding away from 1
        # and a tiny one
        for coords in ((0.000000005, 0.999999995, 0.99999999499),
                       (0.999999996, 1e-300, 0.123456785),
                       (0.5, 0.25, 0.0)):
            s = CrystalStructure(
                Lattice(4.1234565, 4.0000005, 1e3 / 3, 90.00005, 100.00015, 89.99995),
                (Site("Na", coords), Site("Cl", tuple(1.0 - c for c in coords))))
            assert write_ciflite(s) == write_ciflite_per_call(s)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_structures(self, data):
        s = data.draw(structures())
        assert write_ciflite(s) == write_ciflite_per_call(s)


@st.composite
def structures(draw):
    n = draw(st.integers(1, 6))
    length = st.floats(2.5, 12.0)
    angle = st.floats(60.0, 120.0)
    cell = draw(st.tuples(length, length, length, angle, angle, angle))
    try:
        lat = Lattice(*cell)
    except GeometryError:
        lat = Lattice(cell[0], cell[1], cell[2], 90, 90, 90)
    coord = st.floats(0.0, 1.0, exclude_max=True)
    elements = st.sampled_from(["Na", "Cl", "Ca", "C", "O", "Ti", "Sr"])
    sites = tuple(
        Site(draw(elements), draw(st.tuples(coord, coord, coord)))
        for _ in range(n))
    return CrystalStructure(lat, sites)


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(structures())
    def test_write_parse_idempotent(self, s):
        text = write_ciflite(s)
        assert write_ciflite(parse_ciflite(text)) == text


class TestPrompt:
    def test_formula_and_spacegroup(self):
        c = parse_prompt("The chemical formula is CaCO3. "
                         "The space-group number is 167.")
        assert c.formula.counts == {"Ca": 1, "C": 1, "O": 3}
        assert c.spacegroup_number == 167

    def test_numeric_targets(self):
        c = parse_prompt("The formation energy per atom is -1.5. "
                         "The energy above the convex hull is 0.01. "
                         "The band gap is 4.9995.")
        assert c.formation_energy_per_atom == pytest.approx(-1.5)
        assert c.e_hull_target == pytest.approx(0.01)
        assert c.band_gap == pytest.approx(4.9995)

    def test_property_range(self):
        c = parse_prompt("The bulk modulus is between 10.0 and 20.0.")
        assert c.property_ranges == {"bulk_modulus": (10.0, 20.0)}

    def test_inverted_range_rejected(self):
        with pytest.raises(ParseError):
            parse_prompt("The bulk modulus is between 20.0 and 10.0.")

    def test_unrecognized_sentences_ignored(self):
        c = parse_prompt("Generate a great structure please.")
        assert c.formula is None and c.property_ranges == {}

    def test_fractional_spacegroup_rejected(self):
        with pytest.raises(ParseError):
            parse_prompt("The space-group number is 167.5.")

    @pytest.mark.parametrize("number", ["0", "231", "999"])
    def test_out_of_range_spacegroup_rejected(self, number):
        with pytest.raises(ParseError):
            parse_prompt(f"The space-group number is {number}.")

    def test_oversized_spacegroup_is_parse_error(self):
        """More digits than ``int`` converts: a ParseError, not the
        ValueError of the conversion."""
        with pytest.raises(ParseError, match="5000 characters"):
            parse_prompt(f"The space-group number is {'2' * 5000}.")


class TestResponseParts:
    def test_trace_and_cif(self):
        trace, cif = extract_response_parts("Report text.\n" + SIMPLE_BLOCK)
        assert trace == "Report text."
        assert cif is not None and parse_ciflite(cif).num_sites == 2

    def test_cif_only(self):
        trace, cif = extract_response_parts(SIMPLE_BLOCK)
        assert trace is None and cif is not None

    def test_trace_only(self):
        trace, cif = extract_response_parts("Only prose here.")
        assert trace == "Only prose here." and cif is None

    def test_multiple_blocks_rejected(self):
        with pytest.raises(ParseError):
            extract_response_parts(SIMPLE_BLOCK + "\n" + SIMPLE_BLOCK)


class TestSamples:
    def test_load(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        rec = {"prompt_id": "p0", "prompt_text": "x", "response_text": "y"}
        path.write_text(json.dumps(rec) + "\n")
        samples = load_samples(path)
        assert len(samples) == 1
        assert samples[0].prompt_id == "p0"

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_text(json.dumps({"prompt_id": "p0"}) + "\n")
        with pytest.raises(ParseError):
            load_samples(path)

    @pytest.mark.parametrize("line", [
        "123",
        json.dumps("prompt_id prompt_text response_text"),
        json.dumps(["prompt_id", "prompt_text", "response_text"]),
        json.dumps({"prompt_id": "", "prompt_text": "x", "response_text": "y"}),
        '{"prompt_id": ' + "1" * 5000 + ', "prompt_text": "x", "response_text": "y"}',
        "[" * 100_000,
    ], ids=["number", "string", "list", "empty-id", "long-integer", "deep-nesting"])
    def test_bad_line_is_positioned_parse_error(self, tmp_path, line):
        """Valid JSON that is not a usable sample object, and JSON the
        decoder cannot take, name their line like malformed JSON does."""
        path = tmp_path / "samples.jsonl"
        good = json.dumps({"prompt_id": "p0", "prompt_text": "x", "response_text": "y"})
        path.write_text(good + "\n" + line + "\n")
        with pytest.raises(ParseError, match=r"\(line 2\)$") as info:
            load_samples(path)
        assert info.value.line == 2
