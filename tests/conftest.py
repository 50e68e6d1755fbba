"""Shared fixtures: reference cells with known symmetry and energetics."""

import json
import random

import pytest

from crysalign import harness
from crysalign.structcore import CrystalStructure, GeometryError, Lattice, Site
from crysalign.validity import OxidationTable


CALCITE_BLOCK = """<CIF>P1
6.35844783 6.35844725 6.35844589
46.3714 46.3714 46.3714
Ca 1 0.50000000 0.50000000 0.50000000
Ca 1 -0.00000000 0.00000000 -0.00000000
C 1 0.75000000 0.75000000 0.75000000
C 1 0.25000000 0.25000000 0.25000000
O 1 0.75000000 0.49216771 0.00783229
O 1 0.00783229 0.75000000 0.49216771
O 1 0.50783229 0.99216771 0.25000000
O 1 0.25000000 0.50783229 0.99216771
O 1 0.99216771 0.25000000 0.50783229
O 1 0.49216771 0.00783229 0.75000000</CIF>"""


@pytest.fixture(autouse=True)
def _drop_kept_pool():
    """Drop the evaluation pool a test may have kept: its workers forked
    before the next test's monkeypatches and would not see them."""
    yield
    harness._drop_pool()


def make_structure(cell, species):
    a, b, c, alpha, beta, gamma = cell
    sites = tuple(Site(el, tuple(xyz)) for el, xyz in species)
    return CrystalStructure(Lattice(a, b, c, alpha, beta, gamma), sites)


def seeded_skewed_cells(count=40):
    """Random one-element cells of 1 to 3 sites inside the validity
    thresholds (lengths 2 to 8 A, angles 20 to 160 degrees, volume over
    4 A^3), the same ``count`` cells on every call."""
    rng = random.Random(1)
    made = 0
    while made < count:
        try:
            lat = Lattice(*(rng.uniform(2.0, 8.0) for _ in range(3)),
                          *(rng.uniform(20.0, 160.0) for _ in range(3)))
        except GeometryError:
            continue
        if lat.volume() <= 4.0:
            continue
        yield CrystalStructure(lat, tuple(
            Site("Na", (rng.random(), rng.random(), rng.random()))
            for _ in range(rng.randint(1, 3))))
        made += 1


@pytest.fixture(scope="session")
def rocksalt():
    return make_structure(
        (5.64, 5.64, 5.64, 90, 90, 90),
        [("Na", (0.0, 0.0, 0.0)), ("Na", (0.5, 0.5, 0.0)),
         ("Na", (0.5, 0.0, 0.5)), ("Na", (0.0, 0.5, 0.5)),
         ("Cl", (0.5, 0.5, 0.5)), ("Cl", (0.0, 0.0, 0.5)),
         ("Cl", (0.0, 0.5, 0.0)), ("Cl", (0.5, 0.0, 0.0))])


@pytest.fixture(scope="session")
def cscl():
    return make_structure(
        (4.11, 4.11, 4.11, 90, 90, 90),
        [("Cs", (0.0, 0.0, 0.0)), ("Cl", (0.5, 0.5, 0.5))])


@pytest.fixture(scope="session")
def diamond():
    coords = [(0.0, 0.0, 0.0), (0.25, 0.25, 0.25),
              (0.5, 0.5, 0.0), (0.75, 0.75, 0.25),
              (0.5, 0.0, 0.5), (0.75, 0.25, 0.75),
              (0.0, 0.5, 0.5), (0.25, 0.75, 0.75)]
    return make_structure((3.567, 3.567, 3.567, 90, 90, 90),
                          [("C", c) for c in coords])


@pytest.fixture(scope="session")
def hcp_mg():
    return make_structure(
        (3.21, 3.21, 5.21, 90, 90, 120),
        [("Mg", (1 / 3, 2 / 3, 0.25)), ("Mg", (2 / 3, 1 / 3, 0.75))])


@pytest.fixture(scope="session")
def calcite():
    from crysalign.ciflite import parse_ciflite
    return parse_ciflite(CALCITE_BLOCK)


@pytest.fixture(scope="session")
def oxidation_table():
    return OxidationTable.load_default()


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def sample_record(prompt_id, structure, formula=None, trace=None):
    """Build one evaluation sample whose response embeds the given cell."""
    from crysalign.ciflite import write_ciflite
    prompt = "Generate a crystal structure."
    if formula:
        prompt += f" The chemical formula is {formula}."
    response = (trace + "\n" if trace else "") + write_ciflite(structure)
    return {"prompt_id": prompt_id, "prompt_text": prompt,
            "response_text": response}
