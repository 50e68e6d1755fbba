"""The parser's numeric domain: every cell ``parse_ciflite`` accepts is one
each later stage finishes on.

Cells are drawn inside and beyond the accepted bounds: lengths log-uniform
over 1e-4 to 1e5 A, angles in (1, 179) degrees, coordinates up to and past
``MAX_FRAC_COORD`` and site counts up to ``MAX_SITES`` + 1. The energy
stage is defined on structurally valid cells only, as in the harness: a
cell thinner than about 1 A asks ``formation_energy`` for a pair list of
gigabytes.
"""

import math

from hypothesis import given, settings, strategies as st

from crysalign import validity
from crysalign.ciflite import ParseError, parse_ciflite, write_ciflite
from crysalign.energetics import PairPotentialBackend, formation_energy
from crysalign.metrics import MatchRecord, structures_match
from crysalign.structcore import MAX_SITES, niggli_reduce
from crysalign.symmetry import DetectionError, detect_spacegroup

# Elements with oxidation states, pair parameters and reference energies.
ELEMENTS = ("Na", "Cl", "Mg", "O")

# Half of each draw is an ordinary value, so that many cells parse and
# some are structurally valid.
LENGTHS = st.floats(2.0, 12.0) | st.floats(-4.0, 5.0).map(lambda e: 10.0 ** e)
ANGLES = st.floats(60.0, 120.0) | st.floats(1.0, 179.0, exclude_min=True, exclude_max=True)
# Mostly inside the cell; otherwise a magnitude log-uniform up to 2**27.
COORDS = (st.floats(-1.0, 1.0) | st.floats(-1.0, 1.0)
          | st.floats(-27.0, 27.0).map(lambda e: math.copysign(2.0 ** abs(e), e)))
# Log-uniform from 1 site to MAX_SITES + 1, so large cells stay few.
SITE_COUNTS = st.integers(0, 91).map(lambda k: min(MAX_SITES + 1, round(2 ** (k / 10))))


@st.composite
def cif_blocks(draw):
    """A CIF block: its first sites drawn coordinate by coordinate, the rest
    (up to the drawn site count) at uniform random fractions."""
    lengths = [draw(LENGTHS) for _ in range(3)]
    angles = [draw(ANGLES) for _ in range(3)]
    head = draw(st.lists(st.tuples(st.sampled_from(ELEMENTS), COORDS, COORDS, COORDS),
                         min_size=1, max_size=4))
    n = max(len(head), draw(SITE_COUNTS))
    rnd = draw(st.randoms(use_true_random=False))
    tail = [(rnd.choice(ELEMENTS), rnd.random(), rnd.random(), rnd.random())
            for _ in range(n - len(head))]
    sites = [f"{el} 1 {x!r} {y!r} {z!r}" for el, x, y, z in head + tail]
    return "\n".join(["<CIF>P1", " ".join(map(repr, lengths)),
                      " ".join(map(repr, angles)), *sites]) + "</CIF>"


class TestParsedCellsFinish:
    # A RuntimeWarning anywhere fails the test (pyproject's filterwarnings).
    @settings(max_examples=200, deadline=None)
    @given(cif_blocks())
    def test_every_stage_finishes(self, text):
        try:
            s = parse_ciflite(text)
        except ParseError:
            return
        report = validity.build_report(s, None, validity.OxidationTable.load_default())
        try:
            detect_spacegroup(s)
        except DetectionError:
            pass
        write_ciflite(s)
        niggli_reduce(s.lattice)
        record = MatchRecord.from_structure(s)
        structures_match(record, record)
        if report.structural:
            formation_energy(PairPotentialBackend.load_default(), s)
